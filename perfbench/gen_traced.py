"""Traced replay of `sl3frieze gen --n N --steps S --seed SEED`.

Runs the steps of the CLI's `gen` command through the library's public
functions, one span per call, and writes the same family and trace files the
CLI writes plus a spans file for the benchmark:

    python3 perfbench/gen_traced.py --n 24 --steps 60 --seed 7 \
        --out F.json --trace-out T.txt --spans S.json
"""

import argparse
import json
import random

from tracing import Tracer, layer_functions
from workloads import load_library


def main():
    parser = argparse.ArgumentParser()
    for flag in ("--n", "--steps", "--seed"):
        parser.add_argument(flag, type=int, required=True)
    for flag in ("--out", "--trace-out", "--spans"):
        parser.add_argument(flag, required=True)
    ns = parser.parse_args()

    GroundSet = load_library().GroundSet
    tracer = Tracer()
    L = layer_functions(tracer)
    vf = L.unit_specialization(L.greedy_complete(L.frozen_triangles(GroundSet(ns.n))))
    rng = random.Random(ns.seed)
    lines = []
    offered = 0
    for _ in range(ns.steps):
        moves = L.family_moves(vf.family)
        offered += len(moves)
        move = rng.choice(moves)
        vf = L.mutate(vf, move)
        lines.append(L.format_trace_line(move, vf.values[move.added]))
    with open(ns.trace_out, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    text = L.dump_family(vf.family)
    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(ns.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": [[name, start, end] for _, name, start, end in tracer.spans],
                   "moves_offered": offered}, fh)


if __name__ == "__main__":
    main()
