"""Run every workload of BENCHMARK.json and print its metrics as tables.

    python3 perfbench/report.py                      # seed 1, all workloads
    python3 perfbench/report.py --seeds 1 2 --trace  # two seeds side by side, plus per-layer
    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --workloads certify
    python3 perfbench/report.py --seeds 1 2 --trace --record perfbench/trajectory.json --label "..."

For each workload and seed it runs `run.py --trace 0` and prints ops_per_s,
latency_p50_ms, latency_p90_ms (where defined), peak_rss_mb, setup_s and
error_rate with their units. With several seeds it also prints each
end-to-end metric's median and the spread between its quartiles as a share of
the median, against the metric's bound. With --trace it runs `run.py --trace 1`
on the first seed and prints the per-layer metrics. --record appends the
numbers to a trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("perfbench-info "))[len("perfbench-info "):])
    return info, json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path, default=None)
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results, layers, env = {}, {}, None

    print(f"{'workload':9} {'seed':>5} {'ops_per_s':>10} {'p50_ms':>10} {'p90_ms':>10} {'rss_MB':>8} "
          f"{'setup_s':>8} {'error_rate':>10} {'samples':>8} {'speed':>6} {'raw_p50':>9}")
    print(f"{'':9} {'':5} {'1/s':>10} {'ms':>10} {'ms':>10} {'MB':>8} {'s':>8} {'ratio':>10} {'count':>8} {'x':>6} {'ms':>9}")
    for w in workloads:
        results[w] = {}
        for seed in args.seeds:
            info, result = run(w, seed, seconds, 0)
            env = info["env"]
            m = {k: v["value"] for k, v in result["metrics"].items()}
            p90 = info.get("latency_p90_ms")
            results[w][seed] = {"metrics": m, "latency_p90_ms": p90, "error_rate": info["error_rate"],
                                "samples": info["samples"], "correct": result["correct"],
                                "machine_speed": info["machine_speed"], "raw": info["raw"],
                                "cache_at_start": info["cache_at_start"], "setup_samples_s": info["setup_samples_s"]}
            print(f"{w:9} {seed:5} {m['ops_per_s']:10.3f} {m['latency_p50_ms']:10.2f} "
                  f"{p90 if p90 is None else round(p90, 2)!s:>10} {m['peak_rss_mb']:8.1f} {m['setup_s']:8.3f} "
                  f"{info['error_rate']:10.4f} {info['samples']:8} {info['machine_speed']:6.3f} "
                  f"{info['raw']['latency_p50_ms']:9.2f}", flush=True)

    if len(args.seeds) >= 2:
        print(f"\n{'workload':9} {'metric':16} {'median':>12} {'iqr/median':>10} {'bound':>6}")
        for w in workloads:
            for name, bound in bounds.items():
                median, share = spread([results[w][s]["metrics"][name] for s in args.seeds])
                flag = "" if share <= bound / 3 else (" over bound/3" if share <= bound else " OVER BOUND")
                print(f"{w:9} {name:16} {median:12.4f} {share:10.4f} {bound:6.2f}{flag}")

    if args.trace:
        for w in workloads:
            _, result = run(w, args.seeds[0], seconds, 1)
            layers[w] = {k: v["value"] for k, v in result["metrics"].items()}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        names = list(units)
        print(f"\nper-layer, traced run, seed {args.seeds[0]}")
        print(f"{'metric':50} {'unit':>10} " + " ".join(f"{w:>10}" for w in workloads))
        for name in names:
            row = [layers[w][name] for w in workloads]
            if any(row):
                print(f"{name:50} {units[name]:>10} " + " ".join(f"{v:10.3f}" for v in row))

    if args.record:
        trajectory = json.loads(args.record.read_text()) if args.record.exists() else []
        trajectory.append({"label": args.label, "env": env, "run_seconds": seconds, "seeds": args.seeds,
                           "end_to_end": results, "per_layer": {"seed": args.seeds[0], "metrics": layers}})
        args.record.write_text(json.dumps(trajectory, indent=1) + "\n")


if __name__ == "__main__":
    main()
