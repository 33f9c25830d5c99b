"""Command-line surface.

Commands: validate, analyze, frieze, check-frieze, oracle, mutate, gen.
Exit codes: 0 success, 1 semantically invalid input (crossing pair, missing
maximality, failed diamonds, unrealizable star graph, bad replay), 2 usage or
file-format error (a ground size above MAX_N, gen --steps above MAX_STEPS, an
output that cannot be written and a stdout closed by its reader included), 3
internal error (in analyze, a structure check that fails on a maximal family;
in oracle and frieze, a family triangle whose Gale minor is not 1; in frieze,
quiddity rows whose Gale vectors do not close).

The module loads only the layers every command needs (family and mutation);
each command that needs ``stargraph`` or ``frieze`` imports it itself, so
``validate``, ``mutate`` and ``gen --n`` never load them. ``json`` is
imported by the functions that read or print JSON, so ``gen --n`` loads
neither it nor ``fractions`` nor ``separation``: its walk and the replay of
``mutate`` exchange in one triangle set and one value dict
(``mutation._exchange``) and write every trace line with
``format_trace_line``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .cyclic import GroundSet
from .errors import (
    ConditionViolationError,
    FriezeError,
    InvalidInputError,
    InvalidMoveError,
    MalformedFileError,
)
from .family import (
    Family,
    canonical_family,
    dump_family,
    is_maximal_family,
    is_weakly_separated_family,
    load_family,
    make_triangle,
    maximal_size,
)
from .mutation import (
    _exchange,
    format_trace_line,
    parse_trace_line,
    seeded_walk,
    unit_specialization,
)

SCHEMA_VERSION = 1

# gen --steps bound: it bounds the walk's time at n = MAX_N (README), and the
# trace lines it keeps in memory (about 100 bytes a step) stay near 10 MB
MAX_STEPS = 100_000


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise MalformedFileError(f"cannot read {path}: {e}") from e


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise MalformedFileError(f"cannot write {path}: {e}") from e


def _write_out(text: str, out):
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict):
    import json

    print(json.dumps(payload, indent=2))


def _load_checked_family(path: str):
    """Family for commands that need maximality; (family, error-exit) pair."""
    fam = load_family(_read(path), validate=False)
    ok, pair = is_weakly_separated_family(fam)
    if not ok:
        print(f"not weakly separated: {pair[0]} crosses {pair[1]}", file=sys.stderr)
        return None, 1
    fam = Family._unchecked(fam.ground, fam.triangles, True)  # the reader checked its triangles
    if not is_maximal_family(fam):
        print(f"family is not maximal: {len(fam)} triangles, expected {maximal_size(fam.ground)}",
              file=sys.stderr)
        return None, 1
    return fam, 0


def cmd_validate(ns) -> int:
    fam = load_family(_read(ns.family), validate=False)
    ok, pair = is_weakly_separated_family(fam)
    expected = maximal_size(fam.ground)
    maximal = ok and len(fam) == expected
    if ns.format == "json":
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "n": fam.ground.n,
            "triangle_count": len(fam),
            "expected_maximal_size": expected,
            "weakly_separated": ok,
            "maximal": maximal,
            "crossing_pair": [list(pair[0]), list(pair[1])] if pair else None,
        })
    else:
        if not ok:
            print(f"not weakly separated: {pair[0]} crosses {pair[1]}")
        elif not maximal:
            print(f"weakly separated but not maximal ({len(fam)} of {expected} = 3*{fam.ground.n}-8)")
        else:
            print(f"maximal weakly separated ({len(fam)} = 3*{fam.ground.n}-8)")
    return 0 if maximal else 1


def cmd_analyze(ns) -> int:
    from .stargraph import (
        STRUCTURE_RULES,
        _border_triangles,
        build_star_graph,
        star_graph_to_dict,
        verify_structure_theorem,
    )

    fam, err = _load_checked_family(ns.family)
    if err:
        return err
    if not fam.ground.contains(ns.x):
        raise InvalidInputError(f"--x must lie in 1..{fam.ground.n}, got {ns.x}")
    g = build_star_graph(fam, ns.x)
    report = verify_structure_theorem(g)
    borders = _border_triangles(fam, g.x, g.masks)
    if ns.format == "json":
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "x": g.x,
            "n": g.ground.n,
            "star_graph": star_graph_to_dict(g),
            "triangulation_points": list(g.triangulation_points),
            "leaves": {str(l): g.leaves[l] for l in sorted(g.leaves)},
            "border_triangles": [list(t) for t in borders],
            "structure_ok": report.ok,
            "violations": [list(v) for v in report.violations],
        })
    else:
        print(f"star graph at x={g.x} (n={g.ground.n})")
        print("triangulation points:", " ".join(str(p) for p in g.triangulation_points))
        if g.leaves:
            print("leaves:", " ".join(f"{l}->{g.leaves[l]}" for l in sorted(g.leaves)))
        else:
            print("leaves: none")
        print("border triangles:", " ".join("{%d,%d,%d}" % t for t in borders))
        if report.ok:
            print("structure: ok")
        else:
            for rule, witness in report.violations:
                hint = STRUCTURE_RULES.get(rule, "")
                print(f"structure violation [{rule}]: {witness}" + (f" ({hint})" if hint else ""))
    return 0 if report.ok else 3


def cmd_frieze(ns) -> int:
    from .frieze import _certified_rows, _integral_and_positive, dump_frieze, extend_rows, render_frieze

    fam, err = _load_checked_family(ns.family)
    if err:
        return err
    # certificate parts (b), against the family, and (a), the closure that
    # extend_rows checks; the grid is then the lower row recursion of closed
    # Gale vectors, which is their minors, SL3 and tame by validate_frieze's
    # proof
    rows, _ = _certified_rows(unit_specialization(fam))
    grid = extend_rows(rows)
    integral, positive = _integral_and_positive(grid.rows)
    if ns.format == "json":
        summary = {"sl3": True, "tame": True, "integral": integral, "positive": positive,
                   "width": grid.width, "period": grid.n}
        sys.stdout.write(dump_frieze(grid, validation=summary))
    else:
        sys.stdout.write(render_frieze(grid))
        print(f"SL3: ok; tame: ok; integral: {'yes' if integral else 'no'}; "
              f"positive: {'yes' if positive else 'no'}; width {grid.width}, period {grid.n}")
    return 0


def cmd_check_frieze(ns) -> int:
    from .frieze import format_rational, load_frieze, validate_frieze

    grid = load_frieze(_read(ns.frieze))
    report = validate_frieze(grid)
    failures = [("sl3", r, t, det) for r, t, det in report.sl3_failures]
    failures += [("tame", r, t, det) for r, t, det in report.tame_failures]
    if ns.format == "json":
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "n": report.n,
            "width": report.width,
            "sl3": report.is_sl3,
            "tame": report.is_tame,
            "integral": report.integral,
            "positive": report.positive,
            "failures": [
                {"kind": kind, "row": r, "col": r + 2 * t, "det": format_rational(det)}
                for kind, r, t, det in failures
            ],
        })
    else:
        if report.ok:
            print(f"valid tame SL3-frieze: width {report.width}, period {report.n}, "
                  f"integral: {'yes' if report.integral else 'no'}")
        else:
            for kind, r, t, det in failures:
                size = 3 if kind == "sl3" else 4
                want = 1 if kind == "sl3" else 0
                print(f"{size}x{size} diamond at row {r}, col {r + 2 * t}: "
                      f"det {format_rational(det)} != {want}")
    return 0 if report.ok else 1


def _parse_triangle_arg(spec: str, ground: GroundSet):
    parts = spec.split(",")
    if len(parts) != 3:
        raise InvalidInputError(f'--triangle must be "i,j,k", got {spec!r}')
    try:
        pts = [int(p) for p in parts]
    except ValueError as e:
        raise InvalidInputError(f"bad --triangle {spec!r}: {e}") from e
    return make_triangle(*pts, ground=ground)


def cmd_oracle(ns) -> int:
    from .frieze import format_rational, minor_values

    fam, err = _load_checked_family(ns.family)
    if err:
        return err
    target = _parse_triangle_arg(ns.triangle, fam.ground)
    value = minor_values(unit_specialization(fam), [target])[target]
    if ns.format == "json":
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "triangle": list(target),
            "value": format_rational(value),
        })
    else:
        print(f"v({{{target[0]},{target[1]},{target[2]}}}) = {format_rational(value)}")
    return 0


def cmd_mutate(ns) -> int:
    fam, err = _load_checked_family(ns.family)
    if err:
        return err
    # ValuedFamily checks the continuous triangles; the replay then exchanges
    # in one triangle set and one value dict
    values = dict(unit_specialization(fam).values)
    triangles = set(fam.triangles)
    for lineno, line in enumerate(_read(ns.replay).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            move, expected = parse_trace_line(line)
        except InvalidInputError as e:
            raise MalformedFileError(f"trace line {lineno}: {e}") from e
        try:
            got = _exchange(fam.ground, triangles, values, move)
        except InvalidMoveError as e:
            print(f"trace line {lineno}: {e}", file=sys.stderr)
            return 1
        if got != expected:
            print(f"trace line {lineno}: value mismatch, trace says {expected}, exchange gives {got}",
                  file=sys.stderr)
            return 1
    _write_out(dump_family(Family._unchecked(fam.ground, frozenset(triangles), True)), ns.out)
    return 0


def cmd_gen(ns) -> int:
    if ns.star_graph_file:
        from .stargraph import realize_star_graph, star_graph_from_dict

        g = star_graph_from_dict(_load_json(ns.star_graph_file))
        fam = realize_star_graph(g)
        _write_out(dump_family(fam), ns.out)
        return 0
    if ns.n is None:
        raise InvalidInputError("gen needs --n (or --star-graph-file)")
    GroundSet(ns.n)  # range check up front: n < 6 or n > MAX_N is a usage error
    if ns.steps < 0:
        raise InvalidInputError("--steps must be >= 0")
    if ns.steps > MAX_STEPS:
        raise InvalidInputError(f"--steps must be <= {MAX_STEPS}, got {ns.steps}")
    # the walk exchanges in one triangle set and one value dict, the unit
    # specialization of the canonical family
    fam = canonical_family(ns.n)
    triangles, values = set(fam.triangles), dict.fromkeys(fam.triangles, 1)
    trace_lines = []
    for move in seeded_walk(fam, ns.steps, ns.seed):
        value = _exchange(fam.ground, triangles, values, move)
        if ns.trace_out:
            trace_lines.append(format_trace_line(move, value))
    # the family first: a trace must not outlive a family that was never written
    _write_out(dump_family(Family._unchecked(fam.ground, frozenset(triangles), True)), ns.out)
    if ns.trace_out:
        _write(ns.trace_out, "".join(line + "\n" for line in trace_lines))
    return 0


def _load_json(path: str):
    import json

    try:
        return json.loads(_read(path))
    except (ValueError, RecursionError) as e:  # bad JSON, a number past the digit limit, too deep
        raise MalformedFileError(f"invalid JSON in {path}: {e}") from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl3frieze",
        description="Friezes from maximal weakly separated triangle families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a family file for weak separation and maximality")
    p.add_argument("family")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="star graph, leaves and border triangles at a point")
    p.add_argument("family")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("frieze", help="compute and validate the frieze of a family")
    p.add_argument("family")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_frieze)

    p = sub.add_parser("check-frieze", help="validate the diamonds of a frieze file")
    p.add_argument("frieze")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check_frieze)

    p = sub.add_parser("oracle", help="value of one Pluecker coordinate under the all-ones specialization")
    p.add_argument("family")
    p.add_argument("--triangle", required=True, help='e.g. "1,3,5"')
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("mutate", help="replay a mutation trace onto a family")
    p.add_argument("family")
    p.add_argument("--replay", required=True, help="trace file, one move per line")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("gen", help="emit a family file (random walk or star-graph realization)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--star-graph-file", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value that starts with "-" and is not a plain number,
    # such as "-1,2,3", as an option, and refuses "--triangle -1,2,3" with
    # "expected one argument"; joined as "--triangle=-1,2,3", the value
    # reaches the triangle check, which names the point. In oracle argparse
    # resolves every prefix of --triangle from --t on to it, as no other
    # option of oracle starts with --t; other commands are left alone (in gen,
    # --t is --trace-out)
    if argv[:1] == ["oracle"]:
        for i in reversed(range(1, len(argv) - 1)):
            if len(argv[i]) > 2 and "--triangle".startswith(argv[i]) and re.match("-[0-9]", argv[i + 1]):
                argv[i:i + 2] = [f"--triangle={argv[i + 1]}"]
    ns = parser.parse_args(argv)
    try:
        code = ns.func(ns)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # Python's recipe for a closed stdout: point it at devnull, so that the
        # flush at interpreter exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except ConditionViolationError as e:
        print(f"star graph not realizable: {e}", file=sys.stderr)
        return 1
    except InvalidMoveError as e:
        print(f"invalid move: {e}", file=sys.stderr)
        return 1
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FriezeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
