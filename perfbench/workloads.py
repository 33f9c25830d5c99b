"""The four benchmark workloads: set-up, one op, the op's output check and the
counts the traced run reads off each op.

Every workload is a closed loop with one client: ops run one after another.
Inputs come only from the seed. `setup` builds them (and, for the in-process
workloads, leaves the library's crossing cache in the state the timed ops
start from). It is a generator that yields between pieces of the set-up, so
that each piece can be timed and scaled on its own; `op` is the timed part; `check` runs after the op's timer stops
and raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from tracing import Tracer, layer_functions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def load_library():
    """Import sl3frieze from this checkout's src/, never from anywhere else."""
    if not (SRC / "sl3frieze" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sl3frieze sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sl3frieze

    if Path(sl3frieze.__file__).resolve().parent != SRC / "sl3frieze":
        raise SystemExit(f"perfbench: imported sl3frieze from {sl3frieze.__file__}, not {SRC}")
    return sl3frieze


def crossing_cache_entries():
    """Entries in the library's process-wide crossing cache, or None once it has none."""
    from sl3frieze import separation

    info = getattr(getattr(separation, "_crossing_cached", None), "cache_info", None)
    return info().currsize if info else None


def walk(base, steps, seed):
    """The seeded walk of mutation.random_maximal_family, started from a base
    family completed once instead of once per walk."""
    from sl3frieze.mutation import family_moves

    rng = random.Random(seed)
    fam = base
    for _ in range(steps):
        move = rng.choice(family_moves(fam))
        fam = fam.with_exchange(move.removed, move.added)
    return fam


def rectangles_seed(n):
    """The triples {1..a} plus an interval of 3-a points: the rectangles seed,
    a maximal weakly separated family of 3n-8 triangles. It equals the
    library's canonical family, the greedy completion of the frozen triangles,
    but takes no greedy search to build."""
    return sorted({(1, 2, b) for b in range(3, n + 1)} | {(1, b, b + 1) for b in range(2, n)}
                  | {(b, b + 1, b + 2) for b in range(1, n - 1)})


def grid_triple(n, k, i):
    """The triangle {i, i+1, i+k+2} (mod n) that grid row k holds at position i."""
    return tuple(sorted(((i - 1) % n + 1, i % n + 1, (i + k + 1) % n + 1)))


def bits(v):
    v = Fraction(v)
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


def diamonds(n):
    """3x3 plus 4x4 diamonds validate_frieze checks: n(w+2) + n*w."""
    w = n - 4
    return n * (w + 2) + n * w


class InProcess:
    """A workload whose ops call the library in this process."""

    def __init__(self, seed, tracer: Tracer | None = None):
        self.seed = seed
        self.tracer = tracer

    def setup(self):
        load_library()
        self.plain = layer_functions()
        self.traced = layer_functions(self.tracer) if self.tracer else None
        yield
        self.inputs = yield from self.make_inputs(random.Random(self.seed))

    def op(self, inp, traced):
        return self.run(self.traced if traced else self.plain, inp)


class Certify(InProcess):
    name = "certify"
    N, STEPS, POOL = 32, 60, 48
    cache = "warm from own set-up: the pairwise check of the base family and of every pool family"

    def make_inputs(self, rng):
        from sl3frieze import GroundSet
        from sl3frieze.family import dump_family, is_weakly_separated_family, make_family

        base = make_family(GroundSet(self.N), rectangles_seed(self.N))  # checks weak separation
        yield
        texts = []
        for _ in range(self.POOL):
            fam = walk(base, self.STEPS, rng.randrange(2**32))
            is_weakly_separated_family(fam)  # caches this family's crossing pairs
            texts.append(dump_family(fam))
            yield
        return texts

    @staticmethod
    def run(L, text):
        fam = L.load_family(text)
        grid = L.extend_rows(L.quiddity_rows(L.unit_specialization(fam)))
        return L.validate_frieze(grid), L.dump_frieze(grid)

    def check(self, text, out):
        report, frieze_text = out
        require(report.is_sl3 and report.is_tame, "frieze fails its diamonds")
        require(report.integral and report.positive, "report says not integral or not positive")
        fam = json.loads(text)
        n = fam["n"]
        triangles = {tuple(t) for t in fam["triangles"]}
        rows = json.loads(frieze_text)["rows"]
        require(len(rows) == n - 4 and all(len(r) == n for r in rows), "frieze has the wrong shape")
        require(all(e.isdigit() and int(e) > 0 for r in rows for e in r),
                "dumped frieze has an entry that is not a positive integer")
        for k, row in enumerate(rows, start=1):
            for i, entry in enumerate(row, start=1):
                if grid_triple(n, k, i) in triangles:
                    require(entry == "1", f"entry of family triangle {grid_triple(n, k, i)} is {entry}")

    def counts(self, text, out):
        fam = json.loads(text)
        m = len(fam["triangles"])
        rows = json.loads(out[1])["rows"]
        return {"diamonds": diamonds(fam["n"]), "pairs": m * (m - 1) // 2,
                "entry_bits": max(int(e).bit_length() for r in rows for e in r)}


class Sweep(InProcess):
    name = "sweep"
    SIZES, STEPS, PAIRS, POOL = (8, 9, 10), 30, 5, 512
    cache = "warm from own set-up: every triangle pair at n=8, 9 and 10"

    def make_inputs(self, rng):
        from sl3frieze import GroundSet
        from sl3frieze.family import all_triangles
        from sl3frieze.separation import crossing

        grounds = [GroundSet(n) for n in self.SIZES]
        for g in grounds:
            for a, b in combinations(all_triangles(g), 2):
                crossing(a, b)
            yield
        return [tuple((g, rng.randrange(2**32), tuple(rng.randrange(2**32) for _ in range(self.PAIRS)),
                       rng.randint(1, g.n)) for g in grounds)
                for _ in range(self.POOL)]

    def run(self, L, inp):
        out = []
        for ground, fam_seed, draws, xr in inp:
            fam = L.random_maximal_family(ground, self.STEPS, fam_seed)
            separated = L.is_weakly_separated_family(fam)
            structure = [(L.verify_structure_theorem(L.build_star_graph(fam, x)), L.border_triangles(fam, x))
                         for x in ground.points()]
            vf = L.unit_specialization(fam)
            grid = L.extend_rows(L.quiddity_rows(vf))
            report = L.validate_frieze(grid)
            pairs = []
            for r in draws:
                moves = L.family_moves(vf.family)
                move = moves[r % len(moves)]
                after = L.mutate(vf, move)
                pairs.append((vf, L.mutate(after, move.inverse()), len(moves)))
                vf = after
            star = L.build_star_graph(fam, xr)
            out.append((fam, separated, structure, grid, report, pairs, vf, star, L.realize_star_graph(star)))
        return out

    def check(self, inp, out):
        for (ground, _, _, xr), (fam, separated, structure, _, report, pairs, _, star, realized) in zip(inp, out):
            size = 3 * ground.n - 8
            require(separated == (True, None) and len(fam) == size, "walk left the maximal families")
            for rep, borders in structure:
                require(rep.ok, f"structure violations {rep.violations}")
                require(set(borders) <= fam.triangles, "border triangle outside the family")
            require(report.is_sl3 and report.is_tame and report.integral and report.positive,
                    "frieze is not tame, integral and positive")
            for before, back, _ in pairs:
                require(back.values == before.values, "move then inverse changed the values")
            edges = {tuple(p for p in t if p != xr) for t in realized.triangles if xr in t}
            require(edges == set(star.edges) and len(realized) == size,
                    "realization does not reproduce the star graph")

    def counts(self, inp, out):
        c = {"diamonds": 0, "pairs": 0, "moves_offered": 0, "moves_taken": 0, "entry_bits": 0, "value_bits": 0}
        for ground, (fam, _, _, grid, _, pairs, vf, _, _) in zip((g for g, *_ in inp), out):
            m = len(fam)
            c["diamonds"] += diamonds(ground.n)
            c["pairs"] += m * (m - 1) // 2
            c["moves_offered"] += sum(offered for _, _, offered in pairs)
            c["moves_taken"] += len(pairs)
            c["entry_bits"] = max(c["entry_bits"], max(bits(e) for row in grid.rows for e in row))
            c["value_bits"] = max(c["value_bits"], max(bits(v) for v in vf.values.values()))
        return c


class Oracle(InProcess):
    name = "oracle"
    N, STEPS, POOL = 7, 30, 256
    cache = "as left by own set-up (greedy_complete at n=7); oracle_values does no crossing tests"

    def make_inputs(self, rng):
        from sl3frieze import GroundSet
        from sl3frieze.family import frozen_triangles, greedy_complete
        from sl3frieze.mutation import unit_specialization

        base = greedy_complete(frozen_triangles(GroundSet(self.N)))
        self.targets = sorted({grid_triple(self.N, k, i)
                               for k in range(1, self.N - 3) for i in range(1, self.N + 1)})
        self.grids = {}
        yield
        families = []
        for _ in range(self.POOL):
            families.append(unit_specialization(walk(base, self.STEPS, rng.randrange(2**32))))
            yield
        return families

    def run(self, L, vf):
        return L.oracle_values(vf, self.targets)

    def check(self, vf, found):
        from sl3frieze.frieze import extend_rows, quiddity_rows

        key = vf.family.triangles
        if key not in self.grids:
            self.grids[key] = extend_rows(quiddity_rows(vf))
        grid = self.grids[key]
        n = self.N
        for k in range(1, n - 3):
            for i in range(1, n + 1):
                t = grid_triple(n, k, i)
                require(found.get(t) == grid.entry(k, i), f"oracle value of {t} is {found.get(t)}, "
                                                          f"grid has {grid.entry(k, i)}")

    def counts(self, vf, found):
        return {"targets": len(self.targets), "value_bits": max(bits(v) for v in found.values())}


VALUE_RE = re.compile(r" value=(\d+)$")
CLI_SHIM = "import sys; from sl3frieze.cli import main; sys.exit(main())"


class Generate:
    """`sl3frieze gen` in a fresh interpreter per op; the traced op replays the
    same steps through the public functions in gen_traced.py."""

    name = "generate"
    N, STEPS, POOL = 24, 60, 64
    cache = "cold on every op: each op is a fresh interpreter"

    def __init__(self, seed, tracer: Tracer | None = None):
        self.seed = seed
        self.tracer = tracer
        self.child_rss_mb = []
        self.outputs = {}

    def setup(self):
        load_library()
        from sl3frieze.family import load_family

        self.load_family = load_family
        yield
        OUT.mkdir(exist_ok=True)
        rng = random.Random(self.seed)
        self.inputs = [rng.randrange(2**31) for _ in range(self.POOL)]

    def op(self, seed, traced):
        tag = "traced" if traced else "cli"
        family, trace, spans = (OUT / f"gen-{tag}-{name}" for name in ("family.json", "trace.txt", "spans.json"))
        args = ["--n", str(self.N), "--steps", str(self.STEPS), "--seed", str(seed),
                "--out", str(family), "--trace-out", str(trace)]
        if traced:
            cmd = [sys.executable, str(HERE / "gen_traced.py"), *args, "--spans", str(spans)]
        else:
            cmd = [sys.executable, "-c", CLI_SHIM, "gen", *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(OUT / f"gen-{tag}-stderr.txt", "w+") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read()
        if not traced:
            self.child_rss_mb.append(usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {message.strip()}")
        out = {"family": family.read_text(), "trace": trace.read_text(), "moves_offered": None}
        if traced:
            record = json.loads(spans.read_text())
            out["moves_offered"] = record["moves_offered"]
            self.tracer.spans.extend((self.tracer.op, name, start, end) for name, start, end in record["spans"])
        return out

    def check(self, seed, out):
        fam = self.load_family(out["family"])  # validates weak separation
        require(len(fam) == 3 * self.N - 8 and fam.ground.n == self.N, "family is not maximal")
        lines = out["trace"].splitlines()
        require(len(lines) == self.STEPS, f"trace has {len(lines)} lines, expected {self.STEPS}")
        for line in lines:
            m = VALUE_RE.search(line)
            require(m and int(m.group(1)) > 0, f"trace value is not a positive integer: {line}")
        digest = hashlib.sha256((out["family"] + out["trace"]).encode()).hexdigest()
        require(self.outputs.setdefault(seed, digest) == digest, f"seed {seed} gave two different outputs")

    def counts(self, seed, out):
        values = [int(VALUE_RE.search(line).group(1)) for line in out["trace"].splitlines()]
        return {"moves_offered": out["moves_offered"], "moves_taken": self.STEPS,
                "value_bits": max(v.bit_length() for v in values)}


WORKLOADS = {w.name: w for w in (Certify, Generate, Sweep, Oracle)}
