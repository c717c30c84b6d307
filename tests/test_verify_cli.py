from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies

from ferchar import cli, verify
from ferchar.errors import ConfigurationError
from ferchar.exactlin import FieldMode
from ferchar.gradedchar import Truncation
from ferchar.presented import Partition, build_presentation_A
from ferchar.verify import (build_evaluator, convex_partitions, parse_ints,
                            parse_matrix, run_case, run_cases,
                            scan_fusion_cases, scan_mf_cases, verify_custom,
                            verify_fusion, verify_gordon, verify_limform,
                            verify_mf, verify_points)
from helpers import presentation_to_json

W32 = Truncation(3, 2, 0)
MODE = FieldMode.two_prime(0)

GORDON1 = {(0, 0, 0): 1, (1, 0, 0): 1, (1, 0, 1): 1, (1, 0, 2): 1,
           (1, 0, 3): 1, (2, 0, 2): 1, (2, 0, 3): 1}


def test_report_json_schema():
    report, = verify_gordon(1, W32, MODE)
    data = report.to_json_dict()
    assert set(data) == {"case", "left", "right", "window", "verdict",
                         "first_diff", "millis", "field", "seed"}
    assert data["window"] == {"q": 3, "z": 2, "u": 0}
    assert data["verdict"] == "EQUAL" and data["first_diff"] is None
    assert data["field"] == "two-prime" and data["seed"] == 0
    assert report.passed


def test_informational_flag_only_on_literal_report():
    required, informational = verify_limform(0, 1, 0, 1, 3)
    assert "informational" not in required.to_json_dict()
    assert informational.to_json_dict()["informational"] is True
    assert informational.passed  # reported, never failed
    assert informational.verdict == "MISMATCH"


def test_millis_covers_the_two_compared_routes(monkeypatch):
    # a clock that advances one second per reading: each route takes 1 s
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
    assert [r.millis for r in verify_limform(0, 1, 0, 1, 3)] == [2000, 2000]
    reports = verify_fusion(0, 1, 0, 1, Truncation(2, 2, 1), MODE)
    assert [r.millis for r in reports] == [2000, 2000, 2000]


def test_nonconvex_mf_passes_on_le():
    report, = verify_mf((4, 2, 1), Truncation(3, 3, 2), MODE)
    assert report.verdict in ("EQUAL", "LE")
    assert report.passed


def test_verify_points_two_factor():
    report, = verify_points(((1, 1), (0, 1)), Truncation(3, 2, 2), (1, 0), (2, 5))
    assert report.verdict == "EQUAL"
    assert not report.informational
    assert report.field == "exact"


def test_verify_custom_pair():
    report, = verify_custom({"kind": "gordon", "k": 1},
                            {"kind": "algebra", "lambda": [1]}, W32, MODE)
    assert report.verdict == "EQUAL"


def test_build_evaluator_errors():
    with pytest.raises(ConfigurationError):
        build_evaluator({"kind": "nope"})
    with pytest.raises(ConfigurationError):
        build_evaluator({"kind": "gordon"})
    with pytest.raises(ConfigurationError):
        build_evaluator("gordon")


def test_build_evaluator_gordon_matches_frozen():
    label, fn = build_evaluator({"kind": "gordon", "k": 1})
    assert label == "gordon(k=1)"
    assert fn(W32, MODE).coeffs == GORDON1


def test_run_case_dispatch():
    reports = run_case(("gordon", {"k": 1, "window": W32, "mode": MODE}))
    assert len(reports) == 1 and reports[0].case == "gordon k=1"


def test_run_cases_preserves_order():
    descs = [("gordon", {"k": k, "window": W32, "mode": MODE}) for k in (2, 1)]
    reports, timed_out = run_cases(descs)
    assert not timed_out
    assert [r.case for r in reports] == ["gordon k=2", "gordon k=1"]


def test_run_cases_timeout():
    descs = [("gordon", {"k": 1, "window": W32, "mode": MODE})]
    reports, timed_out = run_cases(descs, timeout=-1.0)
    assert timed_out and reports == []


def test_run_cases_parallel():
    descs = [("gordon", {"k": k, "window": W32, "mode": MODE}) for k in (2, 1)]
    reports, timed_out = run_cases(descs, jobs=2)
    assert not timed_out
    assert [r.case for r in reports] == ["gordon k=2", "gordon k=1"]


def test_scan_helpers():
    assert convex_partitions(3) == [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    assert len(scan_mf_cases(3, W32, MODE)) == 6
    fusion_cases = scan_fusion_cases(1, Truncation(2, 2, 2), MODE)
    assert len(fusion_cases) == 4
    assert fusion_cases[0][0] == "fusion"


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_cli_char_gordon_json(capsys):
    code, out = run_cli(capsys, "char", "gordon", "--k", "1", "--qmax", "3",
                        "--zmax", "2", "--umax", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    got = {(r["z"], r["u"], r["q"]): r["dim"] for r in data["coefficients"]}
    assert got == GORDON1


def test_cli_char_formats(capsys):
    code, out = run_cli(capsys, "char", "lattice", "--matrix", "2",
                        "--shifts", "0", "--qmax", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "z,u,q,dim"
    code, out = run_cli(capsys, "char", "mf", "--lambda", "1,1", "--qmax", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("q ")


def test_cli_char_out_file(tmp_path, capsys):
    target = tmp_path / "char.json"
    code, out = run_cli(capsys, "char", "gordon", "--k", "1", "--qmax", "2",
                        "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["truncation"]["q_max"] == 2


def test_cli_verify_exit_codes(capsys):
    code, _ = run_cli(capsys, "verify", "gordon", "--k", "1", "--qmax", "3",
                      "--zmax", "2")
    assert code == 0
    # known finite-window counterexample to the fused-character formulas
    code, _ = run_cli(capsys, "verify", "fusion", "--i1", "1", "--k1", "2",
                      "--i2", "1", "--k2", "2", "--qmax", "2", "--zmax", "2",
                      "--umax", "2")
    assert code == 1
    code, _ = run_cli(capsys, "verify", "gordon", "--k", "1")
    assert code == 2
    code, _ = run_cli(capsys, "verify", "limform", "--i1", "0", "--k1", "1",
                      "--i2", "0", "--k2", "1", "--qmax", "3", "--nmax", "0")
    assert code == 3


def test_cli_verify_table_marks(capsys):
    code, out = run_cli(capsys, "verify", "limform", "--i1", "0", "--k1", "1",
                        "--i2", "0", "--k2", "1", "--qmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[PASS]")
    assert lines[1].startswith("[info]") and "first diff" in lines[1]


def test_cli_verify_csv(capsys):
    code, out = run_cli(capsys, "verify", "gordon", "--k", "1", "--qmax", "2",
                        "--zmax", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("case,left,right,q,z,u,verdict")


def test_cli_verify_points(capsys):
    code, _ = run_cli(capsys, "verify", "points", "--levels", "1,1;0,1",
                      "--points", "1,0", "--alt-points", "2,5",
                      "--qmax", "3", "--zmax", "2")
    assert code == 0


def test_cli_verify_custom(capsys):
    code, _ = run_cli(capsys, "verify", "custom",
                      "--left", '{"kind": "gordon", "k": 1}',
                      "--right", '{"kind": "algebra", "lambda": [1]}',
                      "--qmax", "3", "--zmax", "2", "--umax", "0")
    assert code == 0


def test_cli_scan(capsys):
    code, out = run_cli(capsys, "scan", "mf", "--max-size", "2", "--qmax", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_cli_config_merge(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"k": 2, "qmax": 3, "zmax": 2, "format": "json"}))
    code, out = run_cli(capsys, "char", "gordon", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    # flags win over config values
    code, out = run_cli(capsys, "char", "gordon", "--config", str(cfg),
                        "--k", "1")
    got = {(r["z"], r["u"], r["q"]): r["dim"]
           for r in json.loads(out)["coefficients"]}
    assert got.get((2, 0, 0), 0) == 0  # level 1 kills a_0^2
    assert data["coefficients"][0]["dim"] == 1


def test_cli_config_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"i1": 0, "k1": 1, "i2": 0, "k2": 1, "qmax": 3}))
    code, _ = run_cli(capsys, "verify", "limform", "--config", str(cfg))
    assert code == 0


def test_cli_config_errors(tmp_path, capsys):
    code, _ = run_cli(capsys, "char", "gordon", "--k", "1", "--qmax", "2",
                      "--config", str(tmp_path / "missing.json"))
    assert code == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_flag": 1}))
    code, _ = run_cli(capsys, "char", "gordon", "--k", "1", "--qmax", "2",
                      "--config", str(cfg))
    assert code == 2


def test_cli_parsers():
    assert parse_ints("2,1") == (2, 1)
    assert parse_ints("") == ()
    assert parse_matrix("2,1;1,2") == ((2, 1), (1, 2))
    with pytest.raises(ConfigurationError):
        parse_ints("2,x")
    # JSON values: strings parse as on the command line, other types must fit
    assert parse_ints([2, "1"]) == (2, 1)
    assert parse_matrix([[2, 1], "1,2"]) == ((2, 1), (1, 2))
    for bad in (2, [1.5], [True], {"a": 1}):
        with pytest.raises(ConfigurationError):
            parse_ints(bad)


def test_config_strings_parse_as_flags(tmp_path, capsys):
    code, expected = run_cli(capsys, "char", "gordon", "--k", "1", "--qmax", "3")
    assert code == 0
    for data in ({"k": "1", "qmax": 3}, {"qmax": "3", "k": 1}):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(data))
        assert run_cli(capsys, "char", "gordon", "--config", str(cfg)) == (0, expected)


def test_custom_descriptor_strings_parse_as_flags(capsys):
    reports = []
    for k in (2, "2"):
        code, out = run_cli(capsys, "verify", "custom", "--left",
                            json.dumps({"kind": "gordon", "k": k}), "--right",
                            '{"kind": "algebra", "lambda": [2]}', "--qmax", "3",
                            "--zmax", "2", "--umax", "0", "--format", "json")
        assert code == 0
        reports.append([{key: v for key, v in r.items() if key != "millis"}
                        for r in json.loads(out)])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("data", [{"field": "Exact"}, {"format": "yaml"},
                                  {"lambda": {"a": 1}}, {"qmax": [3]},
                                  {"zmax": True}, {"out": 3}])
def test_config_values_of_the_wrong_form_exit_2(tmp_path, capsys, data):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"qmax": 2, "lambda": "1", **data}))
    code, out = run_cli(capsys, "char", "mf", "--config", str(cfg))
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ("char", "mf", "--lambda", "1", "--qmax", "-1"),
    ("char", "gordon", "--k", "1", "--qmax", "3", "--zmax", "-1"),
    ("char", "gordon", "--k", "1", "--qmax", "3", "--umax", "-1"),
    ("verify", "fusion", "--i1", "0", "--k1", "1", "--i2", "0", "--k2", "1",
     "--qmax", "-2"),
    # budgets: a negative or NaN --timeout, a negative --jobs
    ("scan", "mf", "--max-size", "1", "--qmax", "1", "--timeout", "-1"),
    ("scan", "mf", "--max-size", "1", "--qmax", "1", "--timeout", "nan"),
    ("scan", "mf", "--max-size", "1", "--qmax", "1", "--jobs", "-3"),
])
def test_negative_window_exits_2(capsys, argv):
    assert cli.main(list(argv)) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_malformed_case_values_exit_2(tmp_path, capsys):
    # levels that are not (i, k) pairs; an unknown descriptor key; an unwritable --out
    for argv in (("verify", "points", "--levels", "1,1,1;0,1", "--points", "1,0",
                  "--alt-points", "2,5", "--qmax", "3", "--zmax", "2"),
                 ("verify", "custom", "--left", '{"kind": "gordon", "k": 1, "lamda": [1]}',
                  "--right", '{"kind": "algebra", "lambda": [1]}', "--qmax", "2",
                  "--zmax", "2", "--umax", "0"),
                 ("char", "gordon", "--k", "1", "--qmax", "1",
                  "--out", str(tmp_path / "missing" / "out.txt"))):
        assert cli.main(list(argv)) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("family,relation", [
    ({"name": "a", "min_mode": "x"}, {"factors": [["a", 0, 2]]}),
    ({"name": "a", "min_mode": 1.0}, {"factors": [["a", 0, 2]]}),
    ({"name": "a", "u_increment": "0"}, {"factors": [["a", 0, 2]]}),
    ({"name": "a", "u_increment": True}, {"factors": [["a", 0, 2]]}),
    ({"name": 1}, {"factors": [[1, 0, 2]]}),
    ({"name": "a"}, {"factors": [["a", "0", 2]]}),
    ({"name": "a"}, {"factors": [["a", 0, 2.0]]}),
    ({"name": "a"}, {"factors": [["a", 0, 2]], "low": "1"}),
    ({"name": "a"}, {"factors": [["a", 0, 2]], "label": 7}),
])
def test_malformed_presentation_file_exits_2(tmp_path, capsys, family, relation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"families": [family], "relations": [relation]}))
    assert cli.main(["char", "presentation", "--file", str(path), "--qmax", "2"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


# ---------------------------------------------------------------------------
# every registered kind: the registry's flags on malformed values

# a valid value per flag name; with them every kind runs on a tiny window
VALID = {"k": "1", "lambda": "1", "c": "0", "i1": "0", "k1": "1", "i2": "0",
         "k2": "1", "matrix": "2", "shifts": "0", "levels": "0,1;0,1",
         "points": "1,0", "alt-points": "2,5", "left": '{"kind": "gordon", "k": 1}',
         "right": '{"kind": "mf", "lambda": [1]}', "max-size": "1", "kmax": "1",
         "qmax": "1"}
KINDS = [(command, name, kind) for command, (registry, _) in cli.COMMANDS.items()
         for name, kind in registry.items()]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    path = tmp_path_factory.mktemp("registry")
    pres = build_presentation_A(Partition.make((1,)))
    (path / "pres.json").write_text(json.dumps(presentation_to_json(pres)))
    return path


def baseline(name, kind, scratch, skip=None) -> dict:
    """Valid text for every required flag of kind, and for --qmax."""
    valid = dict(VALID, file=str(scratch / "pres.json"))
    return {f.name: valid[f.name] for f in kind.flags + cli.COMMON_FLAGS
            if f.required and f.name != skip}


@pytest.mark.parametrize("command,name,kind", KINDS)
def test_registry_baselines_run(capsys, scratch, command, name, kind):
    argv = [command, name] + [f"--{k}={v}" for k, v in
                              baseline(name, kind, scratch).items()]
    assert cli.main(argv) in (0, 1)


_NOT_A_NUMBER = strategies.text("xyz.;:", min_size=1)
_CONTAINERS = strategies.one_of(
    strategies.lists(strategies.integers(), max_size=2),
    strategies.dictionaries(strategies.text("ab", max_size=1), strategies.integers(),
                            max_size=1))
_NEGATIVE = strategies.integers(max_value=-1)
_NOT_SECONDS = strategies.one_of(_NEGATIVE, strategies.floats(max_value=-1e-6),
                                 strategies.just(float("nan")))
_NOT_TEXT = strategies.one_of(strategies.integers(), strategies.booleans(), _CONTAINERS)
_BAD_VECTOR = strategies.one_of(_NOT_A_NUMBER,
                                strategies.integers().map(lambda n: f"{n},x"))
_BAD_CHOICE = strategies.one_of(_NOT_A_NUMBER,
                                strategies.sampled_from(["Exact", "yaml", "JSON", ""]))
_BAD_DESCRIPTOR = strategies.sampled_from(
    ["{bad", "[1]", "3", '{"kind": "nope"}', '{"kind": "gordon"}',
     '{"kind": "gordon", "k": 1, "lamda": 1}'])

# parser -> (malformed command-line text, malformed JSON value); missing
# files name a path below a directory that does not exist
MALFORMED = {
    verify.parse_int: (_NOT_A_NUMBER, strategies.one_of(
        _NOT_A_NUMBER, strategies.booleans(), strategies.floats(), _CONTAINERS)),
    verify.parse_size: (strategies.one_of(_NOT_A_NUMBER, _NEGATIVE.map(str)),
                        strategies.one_of(_NOT_A_NUMBER, _NEGATIVE, strategies.floats(),
                                          _CONTAINERS)),
    verify.parse_seconds: (strategies.one_of(_NOT_A_NUMBER, _NOT_SECONDS.map(str)),
                           strategies.one_of(_NOT_A_NUMBER, _NOT_SECONDS,
                                             strategies.booleans(), _CONTAINERS)),
    verify.parse_ints: (_BAD_VECTOR, strategies.one_of(
        _BAD_VECTOR, strategies.integers(), strategies.booleans(),
        strategies.lists(_NOT_A_NUMBER, min_size=1),
        strategies.lists(strategies.floats(), min_size=1))),
    verify.parse_matrix: (_BAD_VECTOR, strategies.one_of(
        _BAD_VECTOR, strategies.integers(),
        strategies.lists(strategies.integers(), min_size=1),
        strategies.lists(strategies.lists(_NOT_A_NUMBER, min_size=1), min_size=1))),
    verify.parse_text: (strategies.just("no-such-dir/file.json"), _NOT_TEXT),
    verify.load_presentation: (strategies.just("no-such-dir/file.json"), _NOT_TEXT),
    verify.parse_json: (_BAD_DESCRIPTOR, strategies.one_of(
        _BAD_DESCRIPTOR, strategies.integers(), strategies.just({"kind": 3}))),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=strategies.data())
def test_malformed_values_exit_2(capsys, scratch, data):
    """A malformed value for any flag of any registered kind, given on the
    command line, in a --config file or in a custom descriptor, exits 2."""
    command, name, kind = data.draw(strategies.sampled_from(KINDS))
    channels = ["argv", "config"] + (["descriptor"] if command == "char" else [])
    channel = data.draw(strategies.sampled_from(channels))
    flags = kind.flags if channel == "descriptor" else kind.flags + cli.COMMON_FLAGS
    flag = data.draw(strategies.sampled_from(
        [f for f in flags if not (channel == "config" and f.name == "config")]))
    assert flag.name in ("field", "format") or flag.parse in MALFORMED
    text, value = MALFORMED.get(flag.parse, (_BAD_CHOICE, _BAD_CHOICE))
    values = baseline(name, kind, scratch, skip=flag.name)
    if channel == "descriptor":
        desc = {"kind": name, **{k: v for k, v in values.items() if k != "qmax"},
                flag.name: data.draw(value)}
        argv = ["verify", "custom", "--left", json.dumps(desc),
                "--right", VALID["left"], "--qmax=1", "--zmax=1", "--umax=0"]
    else:
        argv = [command, name] + [f"--{k}={v}" for k, v in values.items()]
        if channel == "argv":
            argv.append(f"--{flag.name}={data.draw(text)}")
        else:
            key = flag.name.replace("-", data.draw(strategies.sampled_from("-_")))
            cfg = scratch / "config.json"
            cfg.write_text(json.dumps({key: data.draw(value)}))
            argv.append(f"--config={cfg}")
    code = cli.main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_jobs_resolution(monkeypatch):
    ns = type("NS", (), {"jobs": 3})()
    monkeypatch.delenv("FERCHAR_THREADS", raising=False)
    assert cli.resolve_jobs(ns) == 3
    monkeypatch.setenv("FERCHAR_THREADS", "5")
    assert cli.resolve_jobs(ns) == 5
    monkeypatch.setenv("FERCHAR_THREADS", "zero")
    with pytest.raises(ConfigurationError):
        cli.resolve_jobs(ns)


def test_installed_entry_point():
    proc = subprocess.run(
        ["ferchar", "verify", "gordon", "--k", "1", "--qmax", "3",
         "--zmax", "2", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report, = json.loads(proc.stdout)
    assert report["case"] == "gordon k=1" and report["verdict"] == "EQUAL"
