"""Command-line behaviour: chains between commands, exit codes, determinism.

Claims covered:
    - gen -> validate -> analyze -> frieze -> check-frieze all accept each
      other's files
    - exit codes: 1 for semantic failures, 2 for malformed input (n above
      MAX_N, numbers past the 4,300-digit limit, frieze entries not in the
      written form, files that are not UTF-8 and JSON nested too deep to
      parse, all refused before anything is built; an output path that
      cannot be written; a stdout closed by its reader, with no traceback),
      3 for budget
    - check-frieze writes every failing determinant in full, also past the
      4,300-digit limit
    - identical inputs and flags give byte-identical output
    - gen writes its trace only after the family, so a family that cannot be
      written leaves no trace file
    - each command loads only its own layers: gen and validate load neither
      frieze nor stargraph
"""

import json
import os
import sys

import pytest

from conftest import INTRO_ROWS, intro_frieze, parse_decimal, run_fresh
from sl3frieze import canonical_family
from sl3frieze.cli import main
from sl3frieze.family import dump_family, load_family, make_family
from sl3frieze.cyclic import MAX_N, GroundSet
from sl3frieze.frieze import dump_frieze, load_frieze, validate_frieze
from sl3frieze.mutation import random_maximal_family


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
    fam = make_family(GroundSet(6), [(1, 2, 3), (1, 3, 5), (2, 4, 6)], validate=False)
    path = tmp_path / "crossing.json"
    path.write_text(dump_family(fam))
    out, _ = run("validate", path, expect=1)
    assert "(1, 3, 5)" in out and "(2, 4, 6)" in out


def test_validate_reports_non_maximal(run, tmp_path):
    fam = make_family(GroundSet(6), [(1, 2, 3)], validate=False)
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
    fam = make_family(GroundSet(6), [(1, 2, 3)], validate=False)
    path = tmp_path / "small.json"
    path.write_text(dump_family(fam))
    run("analyze", path, "--x", "1", expect=1)


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


def test_oracle_budget_env(run, fam8, monkeypatch):
    monkeypatch.setenv("FRIEZE_ORACLE_BUDGET", "0")
    _, err = run("oracle", fam8, "--triangle", "1,4,7", expect=3)
    assert "budget" in err.lower()


def test_oracle_rejects_negative_budget_flag(run, fam8):
    # even a target the family holds, which needs no search, is refused
    _, err = run("oracle", fam8, "--triangle", "1,2,3", "--budget", "-1", expect=2)
    assert err == "error: oracle budget must be >= 0, got -1\n"


def test_oracle_rejects_negative_budget_env(run, fam8, monkeypatch):
    monkeypatch.setenv("FRIEZE_ORACLE_BUDGET", "-1")
    _, err = run("oracle", fam8, "--triangle", "1,4,7", expect=2)
    assert err == "error: oracle budget must be >= 0, got -1\n"


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
               "sl3frieze.family", "sl3frieze.mutation", "sl3frieze.separation"]


def test_gen_loads_only_the_walk_layers(tmp_path):
    argv = ["gen", "--n", "12", "--steps", "5", "--seed", "3",
            "--out", str(tmp_path / "f.json"), "--trace-out", str(tmp_path / "t.txt")]
    lines, modules = run_fresh(f"from sl3frieze.cli import main\nprint(main({argv!r}))")
    assert lines == ["0"]
    assert modules == GEN_MODULES


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
    trace.write_text("not a trace line\n")
    run("mutate", fam8, "--replay", trace, expect=2)


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


def test_json_outputs_carry_schema_version(run, fam8):
    for args in (("validate", fam8, "--format", "json"),
                 ("analyze", fam8, "--x", "1", "--format", "json"),
                 ("frieze", fam8, "--format", "json"),
                 ("oracle", fam8, "--triangle", "1,2,3", "--format", "json")):
        out, _ = run(*args)
        assert json.loads(out)["schema_version"] == 1
