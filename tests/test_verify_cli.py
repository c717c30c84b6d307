from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import pytest

from ferchar import cli
from ferchar.errors import ConfigurationError
from ferchar.exactlin import FieldMode
from ferchar.gradedchar import Truncation
from ferchar.verify import (build_evaluator, convex_partitions, run_case,
                            run_cases, scan_fusion_cases, scan_mf_cases,
                            verify_custom, verify_fusion, verify_gordon,
                            verify_limform, verify_mf, verify_points)

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
    assert cli.parse_ints("2,1") == (2, 1)
    assert cli.parse_ints("") == ()
    assert cli.parse_matrix("2,1;1,2") == ((2, 1), (1, 2))
    with pytest.raises(ConfigurationError):
        cli.parse_ints("2,x")


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
