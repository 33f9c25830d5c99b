"""Command-line behaviour: chains between commands, exit codes, determinism.

Claims covered:
    - gen -> validate -> analyze -> frieze -> check-frieze all accept each
      other's files
    - exit codes: 1 for semantic failures, 2 for malformed input (n above
      MAX_N, numbers past the 4,300-digit limit, frieze entries not in the
      written form, files that are not UTF-8 and JSON nested too deep to
      parse, all refused before anything is built; an output path that
      cannot be written; a stdout closed by its reader, with no traceback),
      3 for an internal error (a contraction mutant that oracle's and
      frieze's check of the family's minors names, rows of another cluster
      that frieze refuses by the same check, rows that do not close, and a
      structure check that fails on a maximal family in analyze, which names
      the rule, its witness and its hint)
    - oracle answers at n = 24 and 512, a grid triple with its frieze entry,
      and has no search budget to set
    - check-frieze writes every failing determinant in full, also past the
      4,300-digit limit
    - identical inputs and flags give byte-identical output, and
      frieze --format json is the standard library's indent=2 encoding of the
      rows and the validation summary, byte for byte
    - gen writes its trace only after the family, so a family that cannot be
      written leaves no trace file
    - each command loads only its own layers: gen and validate load neither
      frieze nor stargraph, and gen --n loads neither separation nor, beyond
      a bare interpreter, fractions, decimal, numbers or json
    - mutate --replay of a p/q trace value, in a fresh interpreter: 4/2
      replays as 2, 5/3 is a value mismatch, exit 1
    - fuzzed star-graph files (perturbed stars of walk families at n <= 10,
      random edge lists, and arbitrary JSON) load to a star graph or a
      MalformedFileError, and gen --star-graph-file ends without a traceback
      in exit 0 (the realized family has the file's star), 1 (the structure
      check fails) or 2 (the file is refused)
    - fuzzed frieze files (walk friezes at n <= 10 with entries as strings
      or ints and edited entries, rows of the wrong length, missing or extra
      rows; the file's keys with arbitrary values; any JSON value; and n
      past MAX_N, up to 10^40, with tiny rows) end in check-frieze without a
      traceback, in exit 0, 1 or 2 as the reader and validate_frieze decide,
      and every n past MAX_N is refused with exit 2
    - fuzzed family files (walk families at n <= 10 with triangles dropped,
      added, replaced, moved or repeated; the file's keys with arbitrary
      values; n past MAX_N; any JSON value) end in validate, analyze, frieze
      and oracle without a traceback, in exit 0, 1 or 2 as the reader, the
      family checks and the --x or --triangle argument decide, given with
      "=" or as the next argument; fuzzed trace
      files (walk traces with lines dropped, repeated, swapped, edited or
      added) end in mutate --replay in exit 0, 1 or 2, and an unedited trace
      rebuilds the walked family
    - huge counts and points (gen --n and --steps, analyze --x, oracle
      --triangle, trace numbers up to 10^40 or 5,000 digits) are refused
      with exit 2 before anything is built
    - oracle names a negative triangle point, exit 2, whether the triangle
      is given as "--triangle=-1,2,3", as "--triangle -1,2,3" or after any
      abbreviation argparse resolves to --triangle ("--t -1,2,3"); in gen,
      "--t -1,2,3" stays argparse's usage error for --trace-out
"""

import contextlib
import io
import json
import os
import re
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import INTRO_ROWS, intro_frieze, parse_decimal, run_fresh
from sl3frieze import canonical_family
from sl3frieze.cli import main
from sl3frieze.family import Family, dump_family, is_weakly_separated_family, load_family, maximal_size
from sl3frieze.cyclic import MAX_N, GroundSet
from sl3frieze.frieze import dump_frieze, extend_rows, format_rational, load_frieze, quiddity_rows, validate_frieze
from sl3frieze.errors import MalformedFileError
from sl3frieze.mutation import (
    format_trace_line,
    mutate,
    random_maximal_family,
    seeded_walk,
    unit_specialization,
)
from sl3frieze.stargraph import build_star_graph, star_graph_from_dict, verify_structure_theorem


@pytest.fixture()
def run(capsys):
    def _run(*args, expect=0):
        code = main([str(a) for a in args])
        out = capsys.readouterr()
        assert code == expect, (args, code, out.err)
        return out.out, out.err
    return _run


@pytest.fixture()
def fam8(tmp_path):
    path = tmp_path / "fam8.json"
    path.write_text(dump_family(canonical_family(8)))
    return path


def test_validate_maximal_family(run, fam8):
    out, _ = run("validate", fam8)
    assert "maximal weakly separated (16 = 3*8-8)" in out


def test_validate_reports_crossing_pair(run, tmp_path):
    fam = Family(GroundSet(6), frozenset({(1, 2, 3), (1, 3, 5), (2, 4, 6)}))
    path = tmp_path / "crossing.json"
    path.write_text(dump_family(fam))
    out, _ = run("validate", path, expect=1)
    assert "(1, 3, 5)" in out and "(2, 4, 6)" in out


def test_validate_reports_non_maximal(run, tmp_path):
    fam = Family(GroundSet(6), frozenset({(1, 2, 3)}))
    path = tmp_path / "small.json"
    path.write_text(dump_family(fam))
    out, _ = run("validate", path, expect=1)
    assert "not maximal" in out


def test_validate_rejects_truncated_json(run, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"n": 8, "triangles": [[1,2')
    _, err = run("validate", path, expect=2)
    assert "JSON" in err


def test_analyze_orders_triangulation_points(run, fam8):
    out, _ = run("analyze", fam8, "--x", "3")
    line = next(l for l in out.splitlines() if l.startswith("triangulation points:"))
    pts = [int(p) for p in line.split(":")[1].split()]
    assert pts[0] == 4 and pts[-1] == 2  # x+1 first, x-1 last


def test_analyze_range_check(run, fam8):
    _, err = run("analyze", fam8, "--x", "0", expect=2)
    assert "1..8" in err


def test_analyze_rejects_non_maximal(run, tmp_path):
    fam = Family(GroundSet(6), frozenset({(1, 2, 3)}))
    path = tmp_path / "small.json"
    path.write_text(dump_family(fam))
    run("analyze", path, "--x", "1", expect=1)


def test_analyze_exits_3_when_the_structure_check_fails_on_a_maximal_family(run, fam8, monkeypatch):
    # the family is maximal, so a failing structure check is the program's
    # fault: analyze prints the layout, then each violation with its rule and
    # hint, and exits 3
    import sl3frieze.stargraph as stargraph

    violation = ("polygon.noncrossing", "edges (4, 6) and (5, 8) cross")
    monkeypatch.setattr(stargraph, "verify_structure_theorem",
                        lambda g: stargraph.StructureReport(False, [violation]))
    out, _ = run("analyze", fam8, "--x", "3", expect=3)
    assert out.splitlines()[-1] == ("structure violation [polygon.noncrossing]: edges (4, 6) and (5, 8) cross"
                                    " (chords between triangulation points must not cross)")
    assert "structure: ok" not in out


def test_frieze_text_self_validates(run, fam8):
    out, _ = run("frieze", fam8)
    assert "SL3: ok; tame: ok; integral: yes; positive: yes" in out


def test_frieze_json_round_trips_through_check(run, fam8, tmp_path):
    out, _ = run("frieze", fam8, "--format", "json")
    payload = json.loads(out)
    assert payload["validation"]["sl3"] is True
    frieze_path = tmp_path / "fz.json"
    frieze_path.write_text(out)
    out2, _ = run("check-frieze", frieze_path)
    assert "valid tame SL3-frieze" in out2


@pytest.mark.parametrize("n, steps", [(6, 0), (8, 20), (32, 60)])
def test_frieze_json_is_the_json_encoder_byte_for_byte(run, tmp_path, n, steps):
    fam = random_maximal_family(GroundSet(n), steps, 1)
    path = tmp_path / "family.json"
    path.write_text(dump_family(fam))
    grid = extend_rows(quiddity_rows(unit_specialization(fam)))
    report = validate_frieze(grid)
    payload = {
        "schema_version": 1,
        "n": n,
        "rows": [[format_rational(v) for v in row] for row in grid.rows],
        "validation": {"sl3": report.is_sl3, "tame": report.is_tame, "integral": report.integral,
                       "positive": report.positive, "width": report.width, "period": report.n},
    }
    out, _ = run("frieze", path, "--format", "json")
    assert out == json.dumps(payload, indent=2) + "\n"


def test_check_frieze_accepts_fixture(run, tmp_path):
    path = tmp_path / "intro.json"
    path.write_text(dump_frieze(intro_frieze()))
    out, _ = run("check-frieze", path)
    assert "valid tame SL3-frieze: width 4, period 8" in out


def test_check_frieze_reports_coordinates(run, tmp_path):
    rows = [list(r) for r in INTRO_ROWS]
    rows[2][5] += 1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 8, "rows": [[str(v) for v in r] for r in rows]}))
    out, _ = run("check-frieze", path, expect=1)
    assert "det" in out and "row" in out


def test_check_frieze_rejects_width_zero(run, tmp_path):
    path = tmp_path / "w0.json"
    path.write_text(json.dumps({"n": 4, "rows": []}))
    run("check-frieze", path, expect=2)


def test_oracle_family_member_is_one(run, fam8):
    out, _ = run("oracle", fam8, "--triangle", "1,2,3")
    assert out.strip().endswith("= 1")


def test_oracle_matches_frieze_entry(run, fam8):
    out, _ = run("frieze", fam8, "--format", "json")
    rows = json.loads(out)["rows"]
    # row 1, position 2 holds the value of {2,3,5}
    out2, _ = run("oracle", fam8, "--triangle", "2,3,5")
    assert out2.strip().endswith(f"= {rows[0][1]}")
    # {x-1,x+1,x+2} for x=2 is {1,3,4}, the top row at position 3
    out3, _ = run("oracle", fam8, "--triangle", "1,3,4")
    assert out3.strip().endswith(f"= {rows[3][2]}")


def test_oracle_rejects_repeated_index(run, fam8):
    _, err = run("oracle", fam8, "--triangle", "1,1,6", expect=2)
    assert "distinct" in err


@pytest.mark.parametrize("spec, point", [("-1,2,3", "-1"), ("-12,3,4", "-12"), ("1,-2,3", "-2")])
def test_oracle_names_a_negative_point_in_either_form(run, fam8, spec, point):
    # argparse reads "-1,2,3" as an option; the space form must still reach
    # the triangle check, as the "=" form does, and name the point, also
    # after an abbreviation argparse resolves to --triangle
    options = ("--triangle", "--triangl", "--tri", "--t")
    for argv in ((f"--triangle={spec}",), *((option, spec) for option in options)):
        out, err = run("oracle", fam8, *argv, expect=2)
        assert not out and err == f"error: triangle point {point} outside 1..8\n", argv


def test_gen_keeps_trace_out_abbreviated_before_a_negative_value(capsys):
    # in gen, --t is --trace-out, and argparse still reads "-1,2,3" as an
    # option: the usage error names --trace-out, as before
    with pytest.raises(SystemExit) as e:
        main(["gen", "--n", "8", "--t", "-1,2,3"])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith("sl3frieze gen: error: argument --trace-out: expected one argument\n")


def test_oracle_has_no_search_budget(run, fam8, monkeypatch, capsys):
    # the value is a Gale minor, found with no search: --budget is an
    # unknown option (a usage error), and FRIEZE_ORACLE_BUDGET is not read
    with pytest.raises(SystemExit) as e:
        main(["oracle", str(fam8), "--triangle", "1,4,7", "--budget", "10"])
    assert e.value.code == 2
    assert "unrecognized arguments: --budget 10" in capsys.readouterr().err
    monkeypatch.setenv("FRIEZE_ORACLE_BUDGET", "-1")
    out, _ = run("oracle", fam8, "--triangle", "1,4,7")
    assert out == "v({1,4,7}) = 3\n"  # the BFS oracle's value


@pytest.mark.parametrize("n", [24, 512])
def test_oracle_answers_at_scale(run, tmp_path, n):
    # the family of gen --n 24 (or 512) --steps 200 --seed 1: the oracle
    # answers with exit 0, a grid triple with its frieze entry
    path = tmp_path / "family.json"
    run("gen", "--n", n, "--steps", 200, "--seed", 1, "--out", path)
    grid = extend_rows(quiddity_rows(unit_specialization(load_family(path.read_text()))))
    for k, i in ((1, 1), (n // 2, 3), (n - 4, n)):
        a, b, c = sorted(((i - 1) % n + 1, i % n + 1, (i + k + 1) % n + 1))
        out, _ = run("oracle", path, "--triangle", f"{a},{b},{c}")
        assert out == f"v({{{a},{b},{c}}}) = {grid.entry(k, i)}\n"
    # and a triple spread around the polygon, outside the grid
    out, _ = run("oracle", path, "--triangle", f"1,{n // 3},{2 * n // 3}", "--format", "json")
    assert int(json.loads(out)["value"]) > 0


def test_oracle_names_the_triangle_a_wrong_contraction_breaks(run, fam8, monkeypatch):
    # a contraction mutant: D_1(1), the value of {1,2,4}, one too large. The
    # oracle checks that every family triangle has minor 1 (certificate part
    # (b)) and names the first that does not, with exit 3
    import sl3frieze.frieze as frieze

    contract = frieze.quiddity_rows

    def off_by_one(vf):
        q = contract(vf)
        return frieze.QuiddityRows(q.n, (q.delta_low[0] + 1, *q.delta_low[1:]), q.delta_high)

    monkeypatch.setattr(frieze, "quiddity_rows", off_by_one)
    _, err = run("oracle", fam8, "--triangle", "1,4,7", expect=3)
    assert err == "internal error: certificate part (b) fails: family triangle (1, 2, 4) has minor 2, not 1\n"


@pytest.fixture()
def walk8(tmp_path):
    path = tmp_path / "walk8.json"
    path.write_text(dump_family(random_maximal_family(GroundSet(8), 20, 1)))
    return path


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_frieze_refuses_the_rows_of_another_cluster(run, walk8, monkeypatch, fmt):
    # a contraction mutant that returns the rows of another n = 8 walk
    # family: they close up and make a valid frieze, of the wrong cluster.
    # frieze checks that every family triangle has minor 1 (certificate part
    # (b)), names the first that does not, and prints nothing, with exit 3
    import sl3frieze.frieze as frieze

    other = frieze.quiddity_rows(unit_specialization(random_maximal_family(GroundSet(8), 20, 2)))
    monkeypatch.setattr(frieze, "quiddity_rows", lambda vf: other)
    out, err = run("frieze", walk8, "--format", fmt, expect=3)
    assert out == ""
    assert err == "internal error: certificate part (b) fails: family triangle (1, 3, 4) has minor 3, not 1\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_frieze_refuses_rows_that_do_not_close(run, walk8, monkeypatch, fmt):
    # the last entry of U_1 one too large: v_{n+3} alone moves, so part (b),
    # on v_1..v_n, still passes, and the closure that extend_rows checks
    # (part (a)) names where the row recursions disagree, with exit 3
    import sl3frieze.frieze as frieze

    contract = frieze.quiddity_rows

    def last_high_plus_one(vf):
        q = contract(vf)
        return frieze.QuiddityRows(q.n, q.delta_low, (*q.delta_high[:-1], q.delta_high[-1] + 1))

    monkeypatch.setattr(frieze, "quiddity_rows", last_high_plus_one)
    out, err = run("frieze", walk8, "--format", fmt, expect=3)
    assert out == ""
    assert err == "internal error: row recursions disagree at U_1(3): 6 vs 4\n"


def test_gen_rejects_small_n(run):
    _, err = run("gen", "--n", "5", expect=2)
    assert "n >= 6" in err


def test_gen_refuses_n_above_max_before_building(run, monkeypatch):
    import sl3frieze.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a family was built")

    monkeypatch.setattr(cli, "canonical_family", never)
    monkeypatch.setattr(cli, "seeded_walk", never)
    _, err = run("gen", "--n", "1000000000", "--steps", "3", expect=2)
    assert f"n <= {MAX_N}, got 1000000000" in err


def test_gen_refuses_steps_above_max_before_building(run, monkeypatch):
    import sl3frieze.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a family was built")

    monkeypatch.setattr(cli, "canonical_family", never)
    monkeypatch.setattr(cli, "seeded_walk", never)
    _, err = run("gen", "--n", "24", "--steps", str(cli.MAX_STEPS + 1), expect=2)
    assert err == f"error: --steps must be <= {cli.MAX_STEPS}, got {cli.MAX_STEPS + 1}\n"
    _, err = run("gen", "--n", "24", "--steps", "100000000", expect=2)
    assert err == f"error: --steps must be <= {cli.MAX_STEPS}, got 100000000\n"


def test_gen_accepts_steps_at_max(run, monkeypatch, tmp_path):
    # the bound itself is accepted; the walk is stubbed, so nothing long runs
    import sl3frieze.cli as cli

    walked = []
    monkeypatch.setattr(cli, "seeded_walk", lambda fam, steps, seed: walked.append(steps) or iter(()))
    run("gen", "--n", "8", "--steps", str(cli.MAX_STEPS), "--out", tmp_path / "family.json")
    assert walked == [cli.MAX_STEPS]


@pytest.mark.parametrize("command, payload", [
    ("validate", {"n": MAX_N + 1, "triangles": [[1, 2, 3]]}),
    ("gen --star-graph-file", {"x": 1, "n": MAX_N + 1, "edges": [[2, 3]]}),
    ("check-frieze", {"n": MAX_N + 1, "rows": [["1"]] * (MAX_N - 3)}),
])
def test_loaders_refuse_n_above_max(run, tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    _, err = run(*command.split(), path, expect=2)
    assert f"n <= {MAX_N}, got {MAX_N + 1}" in err


@pytest.mark.parametrize("command", ["validate", "gen --star-graph-file", "check-frieze"])
def test_loaders_refuse_integers_past_the_digit_limit(run, tmp_path, command):
    # Python refuses to convert integer literals of more than 4,300 digits
    path = tmp_path / "input.json"
    path.write_text('{"n": ' + "9" * 5000 + "}")
    _, err = run(*command.split(), path, expect=2)
    assert err.startswith("error: invalid JSON")


def test_trace_replay_rejects_value_past_the_digit_limit(run, tmp_path):
    base = tmp_path / "base.json"
    trace = tmp_path / "trace.txt"
    run("gen", "--n", "8", "--steps", "0", "--out", base)
    run("gen", "--n", "8", "--steps", "1", "--seed", "2", "--trace-out", trace,
        "--out", tmp_path / "ignore.json")
    head, _ = trace.read_text().strip().rsplit("value=", 1)
    trace.write_text(head + "value=" + "1" * 5000 + "\n")
    _, err = run("mutate", base, "--replay", trace, expect=2)
    assert err.startswith("error: trace line 1: bad number in trace line")


@pytest.mark.parametrize("entry", ["1e3", "2.5", "1E5", " 1", "+1", "1/-2", "\u0661"])
def test_check_frieze_accepts_only_the_written_entry_form(run, tmp_path, entry):
    rows = [list(row) for row in json.loads(dump_frieze(intro_frieze()))["rows"]]
    rows[1][3] = entry
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"n": 8, "rows": rows}))
    _, err = run("check-frieze", path, expect=2)
    assert err.startswith(f"error: bad frieze entry {entry!r}")


@pytest.mark.parametrize("args", [
    pytest.param(["validate", "{bad}"], id="validate"),
    pytest.param(["check-frieze", "{bad}"], id="check-frieze"),
    pytest.param(["frieze", "{bad}"], id="frieze"),
    pytest.param(["analyze", "{bad}", "--x", "1"], id="analyze"),
    pytest.param(["oracle", "{bad}", "--triangle", "1,2,3"], id="oracle"),
    pytest.param(["mutate", "{bad}", "--replay", "{bad}"], id="mutate-family"),
    pytest.param(["mutate", "{fam}", "--replay", "{bad}"], id="mutate-replay"),
    pytest.param(["gen", "--star-graph-file", "{bad}"], id="gen-star-graph"),
])
def test_input_that_is_not_utf8_is_a_file_error(run, tmp_path, fam8, args):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = [a.format(bad=bad, fam=fam8) for a in args]
    _, err = run(*argv, expect=2)
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("args", [
    pytest.param(["validate", "{deep}"], id="validate"),
    pytest.param(["check-frieze", "{deep}"], id="check-frieze"),
    pytest.param(["frieze", "{deep}"], id="frieze"),
    pytest.param(["analyze", "{deep}", "--x", "1"], id="analyze"),
    pytest.param(["oracle", "{deep}", "--triangle", "1,2,3"], id="oracle"),
    pytest.param(["mutate", "{deep}", "--replay", "{deep}"], id="mutate-family"),
    pytest.param(["gen", "--star-graph-file", "{deep}"], id="gen-star-graph"),
])
def test_json_nested_too_deep_is_a_file_error(run, tmp_path, args):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    argv = [a.format(deep=deep) for a in args]
    _, err = run(*argv, expect=2)
    assert err.startswith("error: invalid JSON") and "maximum recursion depth exceeded" in err


@pytest.mark.parametrize("args", [
    pytest.param(["gen", "--n", "8", "--out", "{out}"], id="gen-out"),
    pytest.param(["gen", "--n", "8", "--steps", "2", "--trace-out", "{out}"], id="gen-trace-out"),
    pytest.param(["mutate", "{fam}", "--replay", "{trace}", "--out", "{out}"], id="mutate-out"),
])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_output_that_cannot_be_written_is_a_file_error(run, tmp_path, fam8, args, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    trace = tmp_path / "trace.txt"
    trace.write_text("")
    argv = [a.format(out=out, fam=fam8, trace=trace) for a in args]
    _, err = run(*argv, expect=2)
    assert err.startswith(f"error: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_gen_writes_no_trace_when_the_family_cannot_be_written(run, tmp_path):
    out = tmp_path / "missing" / "family.json"
    trace = tmp_path / "trace.txt"
    _, err = run("gen", "--n", "8", "--steps", "3", "--out", out, "--trace-out", trace, expect=2)
    assert err.startswith(f"error: cannot write {out}: ")
    assert not trace.exists()


GEN_MODULES = ["sl3frieze", "sl3frieze.cli", "sl3frieze.cyclic", "sl3frieze.errors",
               "sl3frieze.family", "sl3frieze.mutation"]

# standard-library modules that a walk and its trace never run
GEN_UNUSED_STDLIB = ("fractions", "decimal", "numbers", "json")


def test_gen_loads_only_the_walk_layers(tmp_path):
    argv = ["gen", "--n", "12", "--steps", "5", "--seed", "3",
            "--out", str(tmp_path / "f.json"), "--trace-out", str(tmp_path / "t.txt")]
    # the modules loaded before the package are those of a bare interpreter
    lines, modules = run_fresh(
        "import sys\nbare = set(sys.modules)\n"
        f"from sl3frieze.cli import main\nprint(main({argv!r}))\n"
        f"print([m for m in {GEN_UNUSED_STDLIB!r} if m in sys.modules and m not in bare])")
    assert lines == ["0", "[]"]
    assert modules == GEN_MODULES


@pytest.mark.parametrize("value, code, err", [
    ("4/2", 0, ""),
    ("5/3", 1, "trace line 1: value mismatch, trace says 5/3, exchange gives 2\n"),
], ids=["integral", "mismatch"])
def test_replay_of_a_fraction_value_in_a_fresh_interpreter(run, tmp_path, value, code, err):
    # the p/q branch of the trace reader imports fractions itself; the first
    # move of this walk exchanges {1,2,4} for {1,3,5} with value 2
    base, walked, trace, out = (tmp_path / name for name in ("base.json", "walked.json", "trace.txt", "out.json"))
    run("gen", "--n", "8", "--out", base)
    run("gen", "--n", "8", "--steps", "1", "--seed", "2", "--out", walked)
    trace.write_text(f"1:(2,3,4,5) removed={{1,2,4}} added={{1,3,5}} value={value}\n")
    argv = ["mutate", str(base), "--replay", str(trace), "--out", str(out)]
    lines, _ = run_fresh(
        "import contextlib, io, sys\nfrom sl3frieze.cli import main\nerr = io.StringIO()\n"
        f"with contextlib.redirect_stderr(err):\n    code = main({argv!r})\n"
        "print(code, 'fractions' in sys.modules, repr(err.getvalue()))")
    assert lines == [f"{code} True {err!r}"]
    assert out.exists() == (code == 0)
    if code == 0:
        assert out.read_bytes() == walked.read_bytes()


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "8", "--steps", "3", "--seed", "2", "--out", "{tmp}/g.json", "--trace-out", "{tmp}/t.txt"],
    ["validate", "{fam}"],
    ["mutate", "{fam}", "--replay", "{trace}", "--out", "{tmp}/m.json"],
    ["frieze", "{fam}", "--format", "json"],
    ["check-frieze", "{frieze}"],
    ["analyze", "{fam}", "--x", "1"],
    ["oracle", "{fam}", "--triangle", "1,4,7"],
], ids=lambda argv: argv[0])
def test_commands_load_neither_dataclasses_nor_inspect(fam8, tmp_path, argv):
    # a bare interpreter loads neither, so any load is the package's
    trace = tmp_path / "trace.txt"
    trace.write_text("1:(2,3,4,5) removed={1,2,4} added={1,3,5} value=2\n")
    frieze = tmp_path / "frieze.json"
    frieze.write_text(dump_frieze(intro_frieze()))
    argv = [a.format(tmp=tmp_path, fam=fam8, trace=trace, frieze=frieze) for a in argv]
    lines, _ = run_fresh(
        "import contextlib, io, sys\n"
        "from sl3frieze.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    code = main({argv!r})\n"
        "print(code, 'dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert lines == ["0 False False"]


def test_gen_formats_trace_lines_only_with_trace_out(run, tmp_path, monkeypatch):
    import sl3frieze.cli as cli

    traced, trace = tmp_path / "traced.json", tmp_path / "trace.txt"
    run("gen", "--n", "8", "--steps", "3", "--seed", "2", "--out", traced, "--trace-out", trace)
    assert trace.read_text() == (
        "1:(2,3,4,5) removed={1,2,4} added={1,3,5} value=2\n"
        "1:(2,3,5,6) removed={1,2,5} added={1,3,6} value=3\n"
        "1:(2,3,6,7) removed={1,2,6} added={1,3,7} value=4\n")

    def never(*args, **kwargs):
        raise AssertionError("a trace line was formatted")

    monkeypatch.setattr(cli, "format_trace_line", never)
    untraced = tmp_path / "untraced.json"
    run("gen", "--n", "8", "--steps", "3", "--seed", "2", "--out", untraced)
    assert untraced.read_bytes() == traced.read_bytes()


def test_validate_loads_neither_frieze_nor_stargraph(fam8):
    lines, modules = run_fresh(f"from sl3frieze.cli import main\nprint(main(['validate', {str(fam8)!r}]))")
    assert lines == ["maximal weakly separated (16 = 3*8-8)", "0"]
    assert "sl3frieze.frieze" not in modules and "sl3frieze.stargraph" not in modules


class ClosedPipe:
    """A stdout whose reader has gone: writing, or only flushing, raises
    BrokenPipeError. fileno() is a file of the test's own, which the CLI
    points at devnull."""

    def __init__(self, fd, fail_on):
        self.fd = fd
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fail_on", ["write", "flush"])
def test_stdout_closed_by_its_reader_exits_2_without_a_traceback(tmp_path, fam8, monkeypatch, capsys, fail_on):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno(), fail_on))
        code = main(["frieze", str(fam8)])
        monkeypatch.undo()
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == 2
    assert capsys.readouterr().err == ""


def test_check_frieze_lists_determinants_past_the_digit_limit(run, tmp_path):
    # entries of 2,001 digits, well inside the limit, give failing determinants
    # of up to 8,000 digits; each is written out in full
    big = "1" + "0" * 2000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 6, "rows": [[big] * 6, ["1"] * 6]}))
    report = validate_frieze(load_frieze(path.read_text()))
    expected = ([("sl3", r, t, det) for r, t, det in report.sl3_failures]
                + [("tame", r, t, det) for r, t, det in report.tame_failures])
    assert max(abs(det) for *_, det in expected) > 10 ** 7999

    out, _ = run("check-frieze", path, expect=1)
    lines = out.splitlines()
    assert len(lines) == len(expected)
    for line, (kind, r, t, det) in zip(lines, expected):
        size, want = (3, 1) if kind == "sl3" else (4, 0)
        head = f"{size}x{size} diamond at row {r}, col {r + 2 * t}: det "
        assert line.startswith(head) and line.endswith(f" != {want}")
        assert parse_decimal(line[len(head):-len(f" != {want}")]) == det

    out, _ = run("check-frieze", path, "--format", "json", expect=1)
    failures = json.loads(out)["failures"]
    assert [(f["kind"], f["row"], f["col"]) for f in failures] == [
        (kind, r, r + 2 * t) for kind, r, t, _ in expected]
    assert [parse_decimal(f["det"]) for f in failures] == [det for *_, det in expected]


def test_gen_zero_steps_is_canonical(run, tmp_path):
    out_path = tmp_path / "g.json"
    run("gen", "--n", "8", "--steps", "0", "--out", out_path)
    assert load_family(out_path.read_text()).triangles == canonical_family(8).triangles


def test_gen_deterministic_bytes(run, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("gen", "--n", "7", "--steps", "9", "--seed", "5", "--out", a)
    run("gen", "--n", "7", "--steps", "9", "--seed", "5", "--out", b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n, steps, seed", [(6, 10, 1), (9, 14, 4)])
def test_gen_walk_is_random_maximal_family(run, tmp_path, n, steps, seed):
    out_path = tmp_path / "g.json"
    run("gen", "--n", n, "--steps", steps, "--seed", seed, "--out", out_path)
    assert load_family(out_path.read_text()).triangles == random_maximal_family(GroundSet(n), steps, seed).triangles


def test_reports_deterministic_bytes(run, fam8):
    first, _ = run("frieze", fam8, "--format", "json")
    second, _ = run("frieze", fam8, "--format", "json")
    assert first == second
    a1, _ = run("analyze", fam8, "--x", "5", "--format", "json")
    a2, _ = run("analyze", fam8, "--x", "5", "--format", "json")
    assert a1 == a2


def test_trace_replay_chain(run, tmp_path):
    base = tmp_path / "base.json"
    walked = tmp_path / "walked.json"
    trace = tmp_path / "trace.txt"
    replayed = tmp_path / "replayed.json"
    run("gen", "--n", "8", "--steps", "0", "--out", base)
    run("gen", "--n", "8", "--steps", "6", "--seed", "2", "--out", walked, "--trace-out", trace)
    run("mutate", base, "--replay", trace, "--out", replayed)
    assert walked.read_bytes() == replayed.read_bytes()


def test_trace_replay_rejects_tampered_value(run, tmp_path, fam8):
    base = tmp_path / "base.json"
    trace = tmp_path / "trace.txt"
    run("gen", "--n", "8", "--steps", "0", "--out", base)
    run("gen", "--n", "8", "--steps", "1", "--seed", "2", "--trace-out", trace,
        "--out", tmp_path / "ignore.json")
    line = trace.read_text().strip()
    head, _ = line.rsplit("value=", 1)
    trace.write_text(head + "value=999\n")
    _, err = run("mutate", base, "--replay", trace, expect=1)
    assert "mismatch" in err


def test_trace_replay_rejects_malformed_line(run, tmp_path, fam8):
    trace = tmp_path / "trace.txt"
    # the second line's numbers are Arabic-Indic digits, which are not 0-9
    for text in ("not a trace line\n", "1:(\u0662,3,4,5) removed={1,2,4} added={1,3,5} value=\u0663\n"):
        trace.write_text(text, encoding="utf-8")
        _, err = run("mutate", fam8, "--replay", trace, expect=2)
        assert "malformed trace line" in err


def test_trace_replay_rejects_zero_denominator(run, tmp_path):
    base = tmp_path / "base.json"
    trace = tmp_path / "trace.txt"
    run("gen", "--n", "8", "--steps", "0", "--out", base)
    run("gen", "--n", "8", "--steps", "2", "--seed", "2", "--trace-out", trace,
        "--out", tmp_path / "ignore.json")
    first, second = trace.read_text().splitlines()
    head, _ = second.rsplit("value=", 1)
    trace.write_text(f"{first}\n{head}value=1/0\n")
    _, err = run("mutate", base, "--replay", trace, expect=2)
    assert err.startswith("error: trace line 2: zero denominator in trace value")


def test_star_graph_realization_chain(run, fam8, tmp_path):
    out, _ = run("analyze", fam8, "--x", "2", "--format", "json")
    sg = json.loads(out)["star_graph"]
    sg_path = tmp_path / "sg.json"
    sg_path.write_text(json.dumps(sg))
    fam_path = tmp_path / "realized.json"
    run("gen", "--star-graph-file", sg_path, "--out", fam_path)
    out2, _ = run("analyze", fam_path, "--x", "2", "--format", "json")
    assert json.loads(out2)["star_graph"] == sg


def test_gen_rejects_unrealizable_star_graph(run, tmp_path):
    sg_path = tmp_path / "bad.json"
    # triangulation points {2,5,8} induce a path: condition (i)
    sg_path.write_text(json.dumps(
        {"x": 1, "n": 8, "edges": [[2, 5], [5, 8], [2, 3], [7, 8]]}))
    _, err = run("gen", "--star-graph-file", sg_path, expect=1)
    assert "condition (i)" in err


def _main(argv):
    """(exit code, stdout, stderr) of main(argv); an argparse refusal is its
    SystemExit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as e:
            code = e.code
    assert "Traceback" not in stderr.getvalue()
    return code, stdout.getvalue(), stderr.getvalue()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)


@st.composite
def star_graph_documents(draw):
    """A star-graph file's JSON value: the star of a walk family at n <= 10
    with up to three edge edits, a random edge list, the file's keys with
    arbitrary values, or any JSON value."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        n = draw(st.integers(6, 10))
        fam = random_maximal_family(GroundSet(n), draw(st.integers(0, 40)), draw(st.integers(0, 999)))
        x = draw(st.integers(1, n))
        edges = sorted(map(list, build_star_graph(fam, x).edges))
        for _ in range(draw(st.integers(0, 3))):
            if edges and draw(st.booleans()):
                edges.pop(draw(st.integers(0, len(edges) - 1)))
            else:
                edges.append(draw(st.lists(st.integers(0, n + 1), min_size=2, max_size=2)))
        return {"x": x, "n": n, "edges": edges}
    if kind == 1:
        n = draw(st.integers(4, 11))
        pairs = st.lists(st.integers(-1, n + 1), min_size=1, max_size=3)
        return {"x": draw(st.integers(0, n + 1)), "n": n, "edges": draw(st.lists(pairs, max_size=2 * n))}
    if kind == 2:
        keys = st.sampled_from(["x", "n", "edges", "schema_version", "extra"])
        return draw(st.dictionaries(keys, JSON_VALUES, max_size=5))
    return draw(JSON_VALUES)


@settings(max_examples=200, deadline=None)
@given(star_graph_documents())
def test_star_graph_from_dict_loads_or_refuses(doc):
    try:
        g = star_graph_from_dict(doc)
    except MalformedFileError:
        return
    assert g.edges == {tuple(sorted(e)) for e in doc["edges"]}
    assert star_graph_from_dict(json.loads(json.dumps(doc))) == g


@settings(max_examples=100, deadline=None)
@given(star_graph_documents())
def test_gen_star_graph_file_fuzz(tmp_path_factory, doc):
    d = tmp_path_factory.getbasetemp()
    path, out = d / "fuzz_star_graph.json", d / "fuzz_family.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = _main(["gen", "--star-graph-file", path, "--out", out])
    assert not stdout
    try:
        g = star_graph_from_dict(json.loads(path.read_text()))
    except (MalformedFileError, ValueError):
        assert code == 2, stderr
        return
    if not verify_structure_theorem(g).ok:
        assert code == 1 and stderr.startswith("star graph not realizable: "), stderr
        return
    assert code == 0, stderr
    assert build_star_graph(load_family(out.read_text()), g.x) == g


FRIEZE_ENTRIES = st.integers(-3, 40) | st.sampled_from(["1", "-2", "3/2", "-1/3", "0", "1/0", "2.0", "x", "", "1e3"])


@st.composite
def huge_frieze_documents(draw):
    """An n past MAX_N, up to 10^40, with rows of one entry: as many rows as
    the period asks for when n is just past MAX_N, else one to three."""
    n = draw(st.integers(MAX_N + 1, MAX_N + 3) | st.integers(MAX_N + 4, 10 ** 40))
    count = n - 4 if n <= MAX_N + 3 else draw(st.integers(1, 3))
    return {"n": n, "rows": [[draw(st.sampled_from([1, "1"]))]] * count}


@st.composite
def frieze_documents(draw):
    """A frieze file's JSON value: the frieze of a walk family at n <= 10,
    entries as strings or ints, with up to three edits (an entry replaced,
    a row cut or lengthened, a row dropped or added); the file's keys with
    arbitrary values; an n past MAX_N with few and tiny rows; or any JSON
    value."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        n = draw(st.integers(6, 10))
        fam = random_maximal_family(GroundSet(n), draw(st.integers(0, 40)), draw(st.integers(0, 999)))
        as_ints = draw(st.booleans())
        rows = [[e if as_ints else str(e) for e in row]
                for row in extend_rows(quiddity_rows(unit_specialization(fam))).rows]
        for _ in range(draw(st.integers(0, 3))):
            row = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
            edit = draw(st.integers(0, 5))  # an entry edit half the time
            if edit <= 2 and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(FRIEZE_ENTRIES)
            elif edit == 3 and row:
                del row[draw(st.integers(0, len(row) - 1)):]
            elif edit == 4 and row is not None:
                row.extend(draw(st.lists(FRIEZE_ENTRIES, min_size=1, max_size=2)))
            elif rows and draw(st.booleans()):
                rows.pop()
            else:
                rows.append(draw(st.lists(FRIEZE_ENTRIES, max_size=n + 1)))
        return {"schema_version": 1, "n": n, "rows": rows}
    if kind == 1:
        keys = st.sampled_from(["n", "rows", "schema_version", "validation", "extra"])
        return draw(st.dictionaries(keys, JSON_VALUES, max_size=5))
    if kind == 2:
        return draw(huge_frieze_documents())
    return draw(JSON_VALUES)


def _check_frieze(tmp_path_factory, doc, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz_frieze.json"
    path.write_text(json.dumps(doc))
    code, _, err = _main(["check-frieze", path, "--format", fmt])
    return code, path, err


@settings(max_examples=200, deadline=None)
@given(frieze_documents(), st.sampled_from(["text", "json"]))
def test_check_frieze_fuzz(tmp_path_factory, doc, fmt):
    # every file ends in exit 0 (valid), 1 (a failing diamond) or 2 (refused),
    # as the reader and validate_frieze decide it, with no traceback
    code, path, err = _check_frieze(tmp_path_factory, doc, fmt)
    try:
        grid = load_frieze(path.read_text())
    except MalformedFileError:
        assert code == 2, err
        return
    assert code == (0 if validate_frieze(grid).ok else 1), err


@settings(max_examples=50, deadline=None)
@given(huge_frieze_documents(), st.sampled_from(["text", "json"]))
def test_check_frieze_refuses_periods_past_max_n(tmp_path_factory, doc, fmt):
    code, _, err = _check_frieze(tmp_path_factory, doc, fmt)
    assert code == 2 and err.startswith("error: "), err


@st.composite
def family_documents(draw):
    """A family file's JSON value: a walk family at n <= 10, half the time,
    with up to two edits (a triangle dropped, added, replaced by another or
    by any JSON value, a point moved, a triangle repeated); the file's keys
    with arbitrary values; an n past MAX_N, up to 10^40, with one triangle;
    or any JSON value."""
    kind = draw(st.integers(0, 5))
    if kind <= 2:
        n = draw(st.integers(6, 10))
        fam = random_maximal_family(GroundSet(n), draw(st.integers(0, 40)), draw(st.integers(0, 999)))
        tris = [list(t) for t in sorted(fam.triangles)]
        for _ in range(draw(st.integers(0, 2))):
            edit = draw(st.integers(0, 5))
            i = draw(st.integers(0, len(tris) - 1)) if tris else None
            if edit == 0 and tris:
                del tris[i]
            elif edit == 1:
                tris.append(sorted(draw(st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True))))
            elif edit == 2 and tris:
                tris[i] = draw(JSON_VALUES)
            elif edit == 3 and tris:
                tris[i] = sorted(draw(st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)))
            elif edit == 4 and tris and isinstance(tris[i], list) and tris[i]:
                tris[i][draw(st.integers(0, len(tris[i]) - 1))] = draw(st.integers(-1, n + 2))
            elif tris:
                tris.append(tris[i])
        return {"schema_version": 1, "n": n, "triangles": tris}
    if kind == 3:
        keys = st.sampled_from(["n", "triangles", "schema_version", "extra"])
        return draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
    if kind == 4:
        return {"n": draw(st.integers(MAX_N + 1, 10 ** 40)), "triangles": [[1, 2, 3]]}
    return draw(JSON_VALUES)


TRIANGLE_SPECS = (st.tuples(st.integers(-1, 12), st.integers(-1, 12), st.integers(-1, 12))
                  | st.sampled_from(["1,2", "1,2,3,4", "a,b,c", "", "1,,3", "1.0,2,3"]))


@settings(max_examples=150, deadline=None)
@given(family_documents(), st.sampled_from(["validate", "analyze", "frieze", "oracle"]),
       st.integers(-1, 12), TRIANGLE_SPECS, st.sampled_from(["text", "json"]), st.booleans())
def test_family_file_fuzz(tmp_path_factory, doc, command, x, spec, fmt, joined):
    # every family file ends in exit 0, 1 (not weakly separated, or not
    # maximal) or 2 (the file, --x or --triangle refused), as the reader and
    # the family checks decide it, with no traceback; --x and --triangle are
    # given as "--x=-1" or as "--x -1", and a negative point is refused the
    # same way in either form
    path = tmp_path_factory.getbasetemp() / "fuzz_family.json"
    path.write_text(json.dumps(doc))
    argv = [command, path, "--format", fmt]
    if command == "analyze":
        argv += [f"--x={x}"] if joined else ["--x", x]
    elif command == "oracle":
        value = spec if isinstance(spec, str) else ",".join(map(str, spec))
        argv += [f"--triangle={value}"] if joined else ["--triangle", value]
    code, _, err = _main(argv)
    event(f"exit {code}")
    try:
        fam = load_family(path.read_text(), validate=False)
    except MalformedFileError:
        assert code == 2 and err.startswith("error: "), err
        return
    if not (is_weakly_separated_family(fam)[0] and len(fam) == maximal_size(fam.ground)):
        assert code == 1, err
        return
    n = fam.ground.n
    if command == "analyze":
        bad = not 1 <= x <= n
    elif command == "oracle":
        bad = isinstance(spec, str) or len(set(spec)) != 3 or not all(1 <= p <= n for p in spec)
    else:
        bad = False
    assert code == (2 if bad else 0), err


@st.composite
def trace_texts(draw):
    """(n, the trace of a walk from the canonical family at n <= 9, edited,
    the walked family, whether the trace is unedited): up to three edits (a
    line dropped, repeated or swapped with the next, a number in a line
    replaced by another, or by 5,000 digits, a line of any text, a blank
    line)."""
    n = draw(st.integers(6, 9))
    vf = unit_specialization(canonical_family(n))
    lines = []
    for move in seeded_walk(vf.family, draw(st.integers(0, 8)), draw(st.integers(0, 999))):
        vf = mutate(vf, move)
        lines.append(format_trace_line(move, vf.values[move.added]))
    edits = draw(st.integers(0, 3))
    for _ in range(edits):
        edit = draw(st.integers(0, 5))
        i = draw(st.integers(0, len(lines) - 1)) if lines else None
        if edit == 0 and lines:
            del lines[i]
        elif edit == 1 and lines:
            lines.insert(i, lines[i])
        elif edit == 2 and len(lines) > 1 and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif edit == 3 and lines and re.search(r"[0-9]", lines[i]):
            old = draw(st.sampled_from(re.findall(r"[0-9]+", lines[i])))
            new = draw(st.sampled_from(["0", "1", "2", "7", str(n), str(n + 1), "10", "9" * 5000]))
            lines[i] = lines[i].replace(old, new, 1)
        elif edit == 4:
            lines.append(draw(st.text(max_size=20)).replace("\n", " "))
        else:
            lines.append("")
    return n, "".join(line + "\n" for line in lines), vf.family, edits == 0


@settings(max_examples=150, deadline=None)
@given(trace_texts())
def test_trace_file_fuzz(tmp_path_factory, case):
    # every trace ends in exit 0 (replayed), 1 (a move that does not apply,
    # or a value the exchange does not give) or 2 (a line refused), with no
    # traceback; an unedited trace rebuilds the walked family
    n, text, walked, unedited = case
    d = tmp_path_factory.getbasetemp()
    base, trace, out = d / "fuzz_base.json", d / "fuzz_trace.txt", d / "fuzz_replayed.json"
    base.write_text(dump_family(canonical_family(n)))
    trace.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    code, _, err = _main(["mutate", base, "--replay", trace, "--out", out])
    event(f"exit {code}")
    assert code in (0, 1, 2), err
    if unedited:
        assert code == 0 and out.read_text() == dump_family(walked), err
    elif code:
        assert not out.exists() and err.startswith(("error: trace line", "error: move point", "trace line")), err


@pytest.mark.parametrize("argv", [
    ["gen", "--n", 10 ** 40],
    ["gen", "--n", "8", "--steps", 10 ** 40],
    ["gen", "--n", "8", "--steps", -1],
    ["gen", "--n", "9" * 5000],
    ["analyze", "FAMILY", "--x", 10 ** 40],
    ["analyze", "FAMILY", "--x", "9" * 5000],
    ["oracle", "FAMILY", "--triangle", f"1,2,{10 ** 40}"],
    ["oracle", "FAMILY", "--triangle", "1,2," + "9" * 5000],
], ids=["gen-n", "gen-steps", "gen-negative-steps", "gen-n-digits", "analyze-x", "analyze-x-digits",
        "oracle-point", "oracle-point-digits"])
def test_huge_counts_and_points_are_refused(tmp_path, monkeypatch, fam8, argv):
    # nothing is built: the walk is stubbed out, and every bound is checked
    # before it
    import sl3frieze.cli as cli

    monkeypatch.setattr(cli, "seeded_walk", lambda *args: pytest.fail("a walk ran"))
    code, out, err = _main([fam8 if a == "FAMILY" else a for a in argv])
    assert code == 2 and not out, err
    assert err.startswith(("error: ", "usage: ")), err


@pytest.mark.parametrize("line", [
    "1:(2,3,4,5) removed={1,2,4} added={1,3,5} value=" + "9" * 5000,
    "1:(2,3,4," + "9" * 5000 + ") removed={1,2,4} added={1,3,5} value=1",
    f"1:(2,3,4,{10 ** 40}) removed={{1,2,4}} added={{1,3,{10 ** 40}}} value=1",
], ids=["value-digits", "point-digits", "point-past-n"])
def test_trace_lines_with_huge_numbers_are_refused(tmp_path, fam8, line):
    trace = tmp_path / "trace.txt"
    trace.write_text(line + "\n")
    code, out, err = _main(["mutate", fam8, "--replay", trace])
    assert code == 2 and not out, err
    assert err.startswith(("error: trace line 1: bad number", "error: move point")), err


def test_json_outputs_carry_schema_version(run, fam8):
    for args in (("validate", fam8, "--format", "json"),
                 ("analyze", fam8, "--x", "1", "--format", "json"),
                 ("frieze", fam8, "--format", "json"),
                 ("oracle", fam8, "--triangle", "1,2,3", "--format", "json")):
        out, _ = run(*args)
        assert json.loads(out)["schema_version"] == 1
