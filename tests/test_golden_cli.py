"""Golden CLI corpus: stdout, written files and exit codes stay byte-identical.

Each case runs `sl3frieze` in process and is compared with the sha256 digests
in tests/golden_cli.json. Cases run in order in one directory, so later cases
read the files that earlier `gen` cases wrote. stderr is not digested, because
its wording may change; for unrealizable star graphs the condition letter it
names is asserted instead, and for refused replays the line it writes.

Record the digests again (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sl3frieze.cli import main

DIGESTS = Path(__file__).with_name("golden_cli.json")

GEN_SIZES = (6, 8, 11, 14)
GEN_SEEDS = (1, 2, 3)
STEPS = 12

# Star graphs for `gen --star-graph-file`: one admissible graph and three that
# violate realizability conditions (i), (iv) and (v) while passing the rules
# that the structure check had before it covered all of (i)-(v).
STAR_GRAPHS = {
    "admissible": ({"x": 1, "n": 8, "edges": [[2, 5], [5, 8], [2, 8], [2, 3], [4, 5], [5, 6], [7, 8]]},
                   None),
    "endpoints": ({"x": 4, "n": 7, "edges": [[2, 3], [3, 6], [6, 7]]}, "i"),
    "leaf-order": ({"x": 6, "n": 7, "edges": [[1, 7], [2, 5], [3, 7], [4, 5], [5, 7]]}, "iv"),
    "frozen-edge": ({"x": 2, "n": 7, "edges": [[1, 3], [1, 5], [3, 4]]}, "v"),
}

# Walks at larger n, each replayed onto its canonical family and validated:
# n = 512 with 200 steps is the walk CI's "CLI chain at MAX_N" runs.
LONG_WALKS = ((64, 300), (512, 200))

# One-line traces that `mutate --replay` refuses with exit 1 on the canonical
# n = 8 family, each with the line it writes to stderr.
REPLAY_REFUSALS = {
    "missing-triangle": ("2:(4,5,6,8) removed={2,4,6} added={2,5,8} value=1",
                         "trace line 1: required triangle (2, 4, 5) missing from family"),
    "value-mismatch": ("1:(2,3,4,5) removed={1,2,4} added={1,3,5} value=3",
                       "trace line 1: value mismatch, trace says 3, exchange gives 2"),
}


def corpus():
    """(case id, argv, files the case writes, condition letter expected on stderr)."""
    cases = []
    for n in GEN_SIZES:
        cases.append((f"gen-base-{n}", ["gen", "--n", n, "--out", f"base{n}.json"], [f"base{n}.json"], None))
        for s in GEN_SEEDS:
            fam, trace = f"f{n}-{s}.json", f"t{n}-{s}.txt"
            cases.append((f"gen-{n}-{s}",
                          ["gen", "--n", n, "--steps", STEPS, "--seed", s, "--out", fam, "--trace-out", trace],
                          [fam, trace], None))
            for fmt in ("text", "json"):
                cases.append((f"frieze-{fmt}-{n}-{s}", ["frieze", fam, "--format", fmt], [], None))
                for x in (1, n // 2 + 1):
                    cases.append((f"analyze-{fmt}-{n}-{s}-x{x}",
                                  ["analyze", fam, "--x", x, "--format", fmt], [], None))
            replayed = f"r{n}-{s}.json"
            cases.append((f"mutate-{n}-{s}", ["mutate", f"base{n}.json", "--replay", trace, "--out", replayed],
                          [replayed], None))
    cases.append(("gen-stdout-8", ["gen", "--n", 8, "--steps", 5, "--seed", 9], [], None))
    cases.append(("gen-steps-negative", ["gen", "--n", 8, "--steps", -1], [], None))
    for s in GEN_SEEDS:
        for tri in ("1,3,5", "2,4,6"):
            for fmt in ("text", "json"):
                cases.append((f"oracle-{fmt}-6-{s}-{tri}",
                              ["oracle", f"f6-{s}.json", "--triangle", tri, "--format", fmt], [], None))
    for name, (_, condition) in STAR_GRAPHS.items():
        out = f"star-{name}.out.json"
        cases.append((f"gen-star-{name}", ["gen", "--star-graph-file", f"star-{name}.json", "--out", out],
                      [out] if condition is None else [], condition))
    for n, steps in LONG_WALKS:
        base, fam, trace, replayed = f"base{n}.json", f"f{n}-1.json", f"t{n}-1.txt", f"r{n}-1.json"
        cases.append((f"gen-base-{n}", ["gen", "--n", n, "--out", base], [base], None))
        cases.append((f"gen-{n}-1", ["gen", "--n", n, "--steps", steps, "--seed", 1, "--out", fam,
                                     "--trace-out", trace], [fam, trace], None))
        cases.append((f"mutate-{n}-1", ["mutate", base, "--replay", trace, "--out", replayed], [replayed], None))
        for fmt in ("text", "json"):
            cases.append((f"validate-{fmt}-{n}-1", ["validate", fam, "--format", fmt], [], None))
    for name in REPLAY_REFUSALS:
        cases.append((f"mutate-refuse-{name}",
                       ["mutate", "base8.json", "--replay", f"refuse-{name}.txt", "--out", f"refused-{name}.json"],
                       [], None))
    return cases


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus(workdir: Path) -> dict:
    """Run every case in workdir; case id -> (digests, stderr)."""
    for name, (graph, _) in STAR_GRAPHS.items():
        (workdir / f"star-{name}.json").write_text(json.dumps(graph))
    for name, (line, _) in REPLAY_REFUSALS.items():
        (workdir / f"refuse-{name}.txt").write_text(line + "\n")
    results = {}
    for case, argv, written, _ in corpus():
        argv = [str(workdir / a) if str(a).endswith((".json", ".txt")) else str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        results[case] = ({
            "exit": _sha(str(code).encode()),
            "stdout": _sha(out.getvalue().encode()),
            "files": {f: _sha((workdir / f).read_bytes()) for f in written},
        }, err.getvalue())
    return results


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case, condition", [(c[0], c[3]) for c in corpus()])
def test_golden_cli_output(produced, case, condition):
    golden = json.loads(DIGESTS.read_text())
    digests, stderr = produced[case]
    assert digests == golden[case]
    if condition is not None:
        assert f"condition ({condition}):" in stderr
    if case.startswith("mutate-refuse-"):
        assert stderr == REPLAY_REFUSALS[case.removeprefix("mutate-refuse-")][1] + "\n"


def test_golden_corpus_is_complete():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(c[0] for c in corpus())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: d for case, (d, _) in run_corpus(Path(tmp)).items()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
