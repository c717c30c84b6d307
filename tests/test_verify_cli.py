from __future__ import annotations

import argparse
import csv
import functools
import importlib
import io
import itertools
import json
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies

import ferchar
from ferchar import cli, fermionic, fusion, presented, verify
from ferchar.errors import ConfigurationError, ResourceLimitError
from ferchar.exactlin import FieldMode
from ferchar.gradedchar import Truncation
from ferchar.presented import Partition, build_presentation_A
from ferchar.verify import (build_evaluator, convex_partitions, parse_ints,
                            parse_matrix, run_case, run_cases,
                            scan_fusion_cases, scan_mf_cases, verify_custom,
                            verify_fusion, verify_gordon, verify_limform,
                            verify_gmf, verify_lattice, verify_mf, verify_points)
from helpers import build_parser, presentation_to_json

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


def test_fusion_levels_in_either_order():
    # k1 > k2 and k1 < k2: the fusion rule and the limit exponent are
    # symmetric in the two factors, so both orders give the same reports
    w = Truncation(5, 3, 3)
    for levels in ((1, 2, 0, 1), (0, 2, 1, 1)):
        i1, k1, i2, k2 = levels
        for run in (lambda *a: verify_fusion(*a, w, MODE),
                    lambda *a: verify_limform(*a, 3, 2)):
            swapped, reports = run(i2, k2, i1, k1), run(i1, k1, i2, k2)
            assert ([(r.verdict, r.first_diff) for r in reports]
                    == [(r.verdict, r.first_diff) for r in swapped])


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


@pytest.mark.parametrize("preset,left,right,window,verdict", [
    (lambda w: verify_gordon(2, w, MODE), {"kind": "algebra", "lambda": [2]},
     {"kind": "gordon", "k": 2}, Truncation(5, 4, 0), "EQUAL"),
    (lambda w: verify_mf((3, 1), w, MODE), {"kind": "algebra", "lambda": [3, 1]},
     {"kind": "mf", "lambda": [3, 1]}, Truncation(5, 4, 3), "EQUAL"),
    # not convex: the sum is only an upper bound, and exceeds the algebra here
    (lambda w: verify_mf((2, 1, 1), w, MODE), {"kind": "algebra", "lambda": [2, 1, 1]},
     {"kind": "mf", "lambda": [2, 1, 1]}, Truncation(5, 4, 3), "LE"),
    (lambda w: verify_gmf((2, 1), (1, 0), (1,), w, MODE),
     {"kind": "algebra", "lambda": [2, 1], "c": [1, 0], "d": [1]},
     {"kind": "gmf", "lambda": [2, 1], "c": [1, 0], "d": [1]}, Truncation(5, 4, 3), "EQUAL"),
    (lambda w: verify_lattice(((2, 1), (1, 2)), (0, 1), w, MODE),
     {"kind": "quadratic", "matrix": [[2, 1], [1, 2]], "shifts": [0, 1]},
     {"kind": "lattice", "matrix": [[2, 1], [1, 2]], "shifts": [0, 1]},
     Truncation(5, 3, 0), "EQUAL"),
], ids=["gordon", "mf-convex", "mf-not-convex", "gmf", "lattice"])
def test_presets_match_their_custom_pair(preset, left, right, window, verdict):
    # a preset builds its two routes itself; on the same window it reads as
    # verify custom of the matching descriptors
    report, = preset(window)
    custom, = verify_custom(left, right, window, MODE)
    assert (report.verdict, report.first_diff, report.window) == \
        (custom.verdict, custom.first_diff, custom.window)
    assert report.verdict == verdict and report.passed


def test_build_evaluator_errors():
    with pytest.raises(ConfigurationError):
        build_evaluator({"kind": "nope"}, W32, MODE)
    with pytest.raises(ConfigurationError):
        build_evaluator({"kind": "gordon"}, W32, MODE)
    with pytest.raises(ConfigurationError):
        build_evaluator("gordon", W32, MODE)


def test_build_evaluator_gordon_matches_frozen():
    label, fn = build_evaluator({"kind": "gordon", "k": 1}, W32, MODE)
    assert label == "gordon(k=1)"
    assert fn().coeffs == GORDON1


def test_run_case_dispatch():
    reports = run_case(("gordon", {"k": 1, "window": W32, "mode": MODE}))
    assert len(reports) == 1 and reports[0].case == "gordon k=1"


def test_run_cases_preserves_order():
    descs = [("gordon", {"k": k, "window": W32, "mode": MODE}) for k in (2, 1)]
    reports, timed_out = run_cases(descs)
    assert not timed_out
    assert [r.case for r in reports] == ["gordon k=2", "gordon k=1"]


def test_run_cases_timeout(monkeypatch):
    descs = [("gordon", {"k": 1, "window": W32, "mode": MODE})]
    reports, timed_out = run_cases(descs, timeout=-1.0)
    assert timed_out and reports == []
    # a pool checks the same deadline before each case's result (on the
    # real clock: shutting a pool down waits on time.monotonic)
    assert run_cases(descs, jobs=2, timeout=0.0) == ([], True)
    # the budget is spent once elapsed >= timeout, also on a clock that
    # has not ticked
    monkeypatch.setattr(time, "monotonic", lambda: 100.0)
    assert run_cases(descs, 1, 0.0) == ([], True)


def test_run_cases_parallel():
    descs = [("gordon", {"k": k, "window": W32, "mode": MODE}) for k in (2, 1)]
    reports, timed_out = run_cases(descs, jobs=2)
    assert not timed_out
    assert [r.case for r in reports] == ["gordon k=2", "gordon k=1"]


def test_run_cases_parallel_raises_the_case_error():
    # a worker's exception reaches the caller as its own type: the loop
    # catches only the pool's TimeoutError
    descs = [("gordon", {"k": k, "window": W32, "mode": MODE}) for k in (1, 0)]
    with pytest.raises(ConfigurationError, match="level must be >= 1") as info:
        run_cases(descs, jobs=2, timeout=60.0)
    assert type(info.value) is ConfigurationError


def test_run_cases_parallel_budget_spent_inside_a_case():
    # starting the pool takes a few tens of ms and the one case about 0.3 s,
    # so the budget runs out inside result(timeout), whose TimeoutError the
    # loop catches (on Python 3.10 it is not the builtin TimeoutError)
    slow = [("gordon", {"k": 2, "window": Truncation(20, 8, 0), "mode": MODE})]
    assert run_cases(slow, jobs=2, timeout=0.1) == ([], True)


MF_SCAN = scan_mf_cases(4, Truncation(4, 3, 2), FieldMode.exact())
FUSION_SCAN = scan_fusion_cases(2, Truncation(3, 2, 2), MODE)


def cache_sizes() -> list:
    return [cache.cache_info().currsize for cache in presented._CACHES]


# an mf scan builds no cyclic module and no predicted algebra
@pytest.mark.parametrize("scan, idle", [
    (MF_SCAN, {fusion.principal_subspace, verify._fusion_algebra}),
    (FUSION_SCAN, set())], ids=["mf", "fusion"])
def test_caches_live_for_one_run_cases(monkeypatch, scan, idle):
    # each run_cache fills during the scan, is never cleared between its
    # cases, and is empty after a normal return, a raised error and a timeout
    filled = [cache not in idle for cache in presented._CACHES]
    empty = [0] * len(presented._CACHES)
    compare = verify.compare
    warm = []

    def observed(*args):
        warm.append(cache_sizes())
        return compare(*args)

    def fail(*args):
        warm.append(cache_sizes())
        raise RuntimeError("comparison failed")

    presented.clear_caches()
    monkeypatch.setattr(verify, "compare", observed)
    reports, timed_out = run_cases(scan)
    assert not timed_out and len(reports) == len(warm)
    assert [bool(size) for size in warm[0]] == filled
    assert all(a <= b for w0, w1 in zip(warm, warm[1:]) for a, b in zip(w0, w1))
    assert cache_sizes() == empty
    warm.clear()
    monkeypatch.setattr(verify, "compare", fail)
    with pytest.raises(RuntimeError):
        run_cases(scan)
    assert [bool(size) for size in warm[0]] == filled
    assert cache_sizes() == empty
    # a clock that advances one second per reading: the scan times out
    # after its first case
    warm.clear()
    monkeypatch.setattr(verify, "compare", observed)
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
    reports, timed_out = run_cases(scan, timeout=1.5)
    assert timed_out and len(reports) == len(warm) and len({r.case for r in reports}) == 1
    assert [bool(size) for size in warm[0]] == filled
    assert cache_sizes() == empty


def test_a_wrapped_cache_is_still_cleared(monkeypatch):
    # tracing replaces fusion.principal_subspace with a plain wrapper, as
    # perfbench/spans.py does; the registry holds the cache itself, so
    # run_cases still empties it
    memo, calls = fusion.principal_subspace, []

    @functools.wraps(memo)
    def traced(*args):
        calls.append(args)
        return memo(*args)

    monkeypatch.setattr(fusion, "principal_subspace", traced)
    run_cases(FUSION_SCAN)
    assert len(calls) == 2 * len(FUSION_SCAN) and not hasattr(traced, "cache_clear")
    assert cache_sizes() == [0] * len(presented._CACHES)


def test_mf_scan_builds_each_component_once(monkeypatch):
    # the components depend on the families alone: one family for a
    # one-part lambda, a and b for the others; so every case after the
    # first of its family count finds all its components cached
    misses = []
    run_one = verify.run_case

    def counted(desc):
        before = presented.component_monomials.cache_info().misses
        reports = run_one(desc)
        nfam = min(len(desc[1]["lambda"]), 2)
        misses.append((nfam, presented.component_monomials.cache_info().misses - before))
        return reports

    monkeypatch.setattr(verify, "run_case", counted)
    run_cases(MF_SCAN)
    for nfam in (1, 2):
        first, *later = [m for n, m in misses if n == nfam]
        assert first > 0 and later == [0] * len(later)
    assert len(misses) == len(MF_SCAN) == 10


def test_mf_scan_asks_for_no_infeasible_component(monkeypatch):
    # relation_rows skips a relation whose complementary tridegree no
    # monomial of the families can reach
    asked = []
    codes = presented._component_codes

    def counted(free, tridegree, width):
        asked.append(presented._feasible(free, *tridegree))
        return codes(free, tridegree, width)

    monkeypatch.setattr(presented, "_component_codes", counted)
    run_cases(MF_SCAN)
    assert asked and all(asked)


def test_every_cache_has_a_stated_lifetime():
    # the run_caches in presented._CACHES last one run_cases call;
    # fermionic._poch_product, a table of q-series, and
    # fermionic._suffix_forms, the determinants and adjugates of a gram's
    # suffix blocks, depend on nothing else and last the process, so the
    # commands of one process share them
    modules = [importlib.import_module(f"ferchar.{m.name}")
               for m in pkgutil.iter_modules(ferchar.__path__)]
    caches = {f for module in modules for f in vars(module).values()
              if hasattr(f, "cache_clear")}
    assert len(set(presented._CACHES)) == len(presented._CACHES)
    assert caches == {*presented._CACHES, fermionic._poch_product,
                      fermionic._suffix_forms}


def without_millis(reports) -> list:
    return [r._replace(millis=0) for r in reports]


def assert_shared_caches_change_no_report(descs) -> None:
    """A scan reports what its cases report alone with cold caches, and
    with two workers what it reports with one."""
    scanned, _ = run_cases(descs)
    # run_cases clears every cache when it returns: each case runs cold
    alone = [r for desc in descs for r in run_cases([desc])[0]]
    assert without_millis(scanned) == without_millis(alone)
    parallel, _ = run_cases(descs, jobs=2)
    assert without_millis(parallel) == without_millis(scanned)


def test_mf_scan_caches_never_change_a_report():
    assert_shared_caches_change_no_report(MF_SCAN)


def test_fusion_scan_builds_each_module_and_algebra_once(monkeypatch):
    # 5 level pairs, each built once modulo the product of the two primes;
    # 14 distinct predicted presentations
    presented.clear_caches()
    memos = (fusion.principal_subspace, verify._fusion_algebra)
    info = []
    run_one = verify.run_case

    def counted(desc):
        reports = run_one(desc)
        info.append([memo.cache_info() for memo in memos])
        return reports

    monkeypatch.setattr(verify, "run_case", counted)
    run_cases(FUSION_SCAN)
    (module_hits, module_misses, _, _), (algebra_hits, algebra_misses, _, _) = info[-1]
    assert len(info) == 25
    assert (module_misses, module_hits) == (5, 45)
    assert (algebra_misses, algebra_hits) == (14, 11)
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]


def test_fusion_memos_never_change_a_report():
    assert_shared_caches_change_no_report(FUSION_SCAN)


def test_fusion_memo_keys_hold_window_and_mode():
    # over the field of 2 elements (forced primes (2, 1), product 2) the
    # (0,1)x(0,1) characters differ from the exact ones, so a key without
    # the mode shows in the reports
    runs = list(itertools.product(
        (Truncation(3, 2, 2), Truncation(4, 3, 2)),
        (MODE, FieldMode.exact(), FieldMode("two-prime", None, (2, 1)))))
    fresh = []
    for window, mode in runs:
        presented.clear_caches()
        fresh.append(without_millis(verify_fusion(0, 1, 0, 1, window, mode)))
    presented.clear_caches()
    warm = [without_millis(verify_fusion(0, 1, 0, 1, window, mode))
            for window, mode in runs]
    presented.clear_caches()
    assert warm == fresh
    assert len({tuple(r.verdict for r in reports) for reports in fresh}) > 1


def test_repeated_scan_in_one_process(capsys):
    argv = ["scan", "mf", "--max-size", "2", "--qmax", "4", "--zmax", "3",
            "--umax", "2", "--format", "json"]
    runs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        runs.append([{k: v for k, v in r.items() if k != "millis"}
                     for r in json.loads(capsys.readouterr().out)])
    assert len(runs[0]) == 3 and runs[0] == runs[1]


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


def test_cli_fusion_point_divisible_by_a_prime(capsys, caplog):
    # z_1 = p is not a unit mod p * p2, but p - 1 is, so that run stays
    # modular; p * p2 + 1 and 1 are one point modulo either prime, a
    # non-unit difference, so that run computes over the rationals
    p, p2 = MODE.primes
    argv = ["verify", "fusion", "--i1", "0", "--k1", "1", "--i2", "0", "--k2", "1",
            "--qmax", "3", "--zmax", "2", "--umax", "2", "--format", "json"]
    runs = []
    for extra in ([], ["--points", f"{p},1"], ["--points", f"{p * p2 + 1},1"]):
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0
        runs.append([(r["verdict"], r["first_diff"]) for r in json.loads(out)])
    assert runs[0] == runs[1] == runs[2]
    assert "computing exactly" in caplog.text


def test_cli_verify_exact_field(capsys):
    code, out = run_cli(capsys, "verify", "mf", "--lambda", "2,1", "--qmax", "4",
                        "--field", "exact", "--format", "json")
    assert code == 0
    report, = json.loads(out)
    assert report["field"] == "exact" and report["verdict"] == "EQUAL"


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
    # a spent budget stops the scan between cases and exits 3
    argv = ["scan", "mf", "--max-size", "3", "--qmax", "2", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    code, cut = run_cli(capsys, *argv, "--timeout", "0")
    assert code == 3
    assert len(json.loads(cut)) < len(json.loads(out))
    # a scan with no case says so
    assert run_cli(capsys, "scan", "mf", "--max-size", "0", "--qmax", "2",
                   "--format", "table") == (0, "(no cases)\n")


def test_cli_verify_honours_timeout(capsys):
    # verify and scan share one budget rule: a spent budget exits 3
    argv = ["verify", "mf", "--lambda", "2,1", "--qmax", "3", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)
    code, cut = run_cli(capsys, *argv, "--timeout", "0")
    assert code == 3
    assert json.loads(cut) == []


def test_cli_char_honours_timeout(capsys, monkeypatch):
    # char checks the budget before it evaluates, as verify does per case;
    # on a clock that has not ticked, --timeout 0 is spent all the same
    monkeypatch.setattr(time, "monotonic", lambda: 100.0)
    argv = ["char", "gordon", "--k", "1", "--qmax", "3"]
    code, out = run_cli(capsys, *argv, "--timeout", "60")
    assert code == 0 and out
    assert run_cli(capsys, *argv, "--timeout", "0") == (3, "")


LIMFORM = {"i1": 0, "k1": 1, "i2": 0, "k2": 1}


@pytest.mark.parametrize("argv", [
    ["char", "limform", *(f"--{k}={v}" for k, v in LIMFORM.items())],
    ["verify", "limform", *(f"--{k}={v}" for k, v in LIMFORM.items())],
    ["verify", "custom", "--left", json.dumps({"kind": "limform", **LIMFORM}),
     "--right", json.dumps({"kind": "limform", **LIMFORM})],
])
def test_limform_refuses_a_z_bound(capsys, argv):
    # the limit character, and verify's two checks of it, run over every z
    assert cli.main([*argv, "--qmax", "2"]) == 0
    capsys.readouterr()
    assert cli.main([*argv, "--qmax", "2", "--zmax", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error: ")


@pytest.mark.parametrize("argv", [
    ["char", "limform", "--i1", "1", "--k1", "1", "--i2", "0", "--k2", "2",
     "--qmax", "3", "--format", "json"],
    ["verify", "custom", "--left", json.dumps({"kind": "limform", **LIMFORM}),
     "--right", json.dumps({"kind": "limform", **LIMFORM}), "--qmax", "3"],
])
def test_limform_evaluator_runs_no_check(capsys, monkeypatch, argv):
    # the evaluator is the stabilized character alone; verify limform's
    # reconstruction and literal route are not run to be thrown away; the
    # text report's millis differ from run to run, so they are masked
    def run_masked():
        code, out = run_cli(capsys, *argv)
        return code, re.sub(r"\(\d+ ms\)", "(N ms)", out)

    expected = run_masked()

    def never(*args, **kwargs):
        raise ResourceLimitError("a check ran in the limform evaluator")

    monkeypatch.setattr(fermionic, "_literal_limit_character", never)
    monkeypatch.setattr(fermionic, "_reconstruction_check", never)
    assert run_masked() == expected
    assert expected[0] == 0 and expected[1]


ALGEBRA_42 = json.dumps({"kind": "algebra", "lambda": [4, 2]})


@pytest.mark.parametrize("argv", [
    # limform refuses the z bound; the algebra alone takes seconds
    ["--left", ALGEBRA_42, "--right", json.dumps({"kind": "limform", **LIMFORM}),
     "--qmax", "12", "--zmax", "8", "--umax", "4"],
    # the algebra needs the z bound that custom does not default
    ["--left", json.dumps({"kind": "limform", **LIMFORM}), "--right", ALGEBRA_42,
     "--qmax", "12", "--umax", "4"],
])
def test_custom_checks_both_sides_before_either_runs(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("an evaluator ran before both were checked")

    monkeypatch.setattr(verify, "graded_character", never)
    monkeypatch.setattr(fermionic, "stabilized_limit", never)
    assert cli.main(["verify", "custom", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error: ")


@pytest.mark.parametrize("argv", [
    ["fusion", "--i1", "0", "--k1", "1", "--i2", "0", "--k2", "1", "--qmax", "2"],
    ["mf", "--lambda", "2,1", "--qmax", "2"],
    ["limform", *(f"--{k}={v}" for k, v in LIMFORM.items()), "--qmax", "2"],
])
def test_cli_verify_csv_rows_are_the_json_reports(capsys, argv):
    # case names and labels hold commas, so the fields are quoted
    code, out = run_cli(capsys, "verify", *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    code, out = run_cli(capsys, "verify", *argv, "--format", "json")
    reports = json.loads(out)
    assert header == ["case", "left", "right", "q", "z", "u", "verdict",
                      "first_diff", "millis", "field", "seed"]
    assert len(rows) == len(reports) > 0
    for row, r in zip(rows, reports):
        assert len(row) == len(header)
        fields = dict(zip(header, row))
        for key in ("case", "left", "right", "verdict", "field", "seed"):
            assert fields[key] == str(r[key])
        # limform's z column reads None
        assert [fields[k] for k in "qzu"] == [str(r["window"][k]) for k in "qzu"]


def test_gmf_d_defaults_to_zero(capsys):
    # as for algebra, a missing d is zero; a d given with the wrong length
    # still exits 2
    def reports_without_millis(out):
        return [{k: v for k, v in r.items() if k != "millis"} for r in json.loads(out)]

    base = ["--lambda", "2,1", "--c", "0,0", "--qmax", "2", "--format", "json"]
    for command in ("char", "verify"):
        argv = [command, "gmf", *base]
        code, zero = run_cli(capsys, *argv, "--d", "0")
        assert code == 0
        code, out = run_cli(capsys, *argv)
        assert code == 0
        if command == "char":
            assert out == zero
        else:
            assert reports_without_millis(out) == reports_without_millis(zero)
        for d in ("0,0", ""):
            assert cli.main([*argv, "--d", d]) == 2
            assert capsys.readouterr().err.startswith("configuration error: ")
    code, _ = run_cli(capsys, "verify", "custom", "--left",
                      '{"kind": "gmf", "lambda": [2, 1], "c": [0, 0]}', "--right",
                      '{"kind": "algebra", "lambda": [2, 1]}', "--qmax", "3",
                      "--zmax", "3", "--umax", "3")
    assert code == 0


def readme_commands() -> list:
    """The argv of each `ferchar ...` line of the README's CLI block, with
    continued lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("ferchar ")]


def test_readme_examples_run(capsys):
    # scan fusion meets criterion 4's LE verdicts and exits 1
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        expected = 1 if argv[:2] == ["scan", "fusion"] else 0
        assert (argv, cli.main(argv)) == (argv, expected)
    capsys.readouterr()


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
    cfg.write_text(json.dumps([{"k": 1}]))
    assert cli.main(["char", "gordon", "--k", "1", "--qmax", "2",
                     "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "configuration error: config must be a JSON object\n")


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


def test_custom_config_takes_descriptor_objects(tmp_path, capsys):
    # a config file holds the descriptors as JSON objects, not as text
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"left": {"kind": "gordon", "k": 1},
                               "right": {"kind": "algebra", "lambda": [1]},
                               "qmax": 3, "zmax": 2, "umax": 0, "format": "json"}))
    code, out = run_cli(capsys, "verify", "custom", "--config", str(cfg))
    assert code == 0
    assert [r["verdict"] for r in json.loads(out)] == ["EQUAL"]


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
    # a negative matrix entry, refused by the lattice sum and the quadratic
    # presentation alike, as kinds and in custom descriptors
    lattice = {"matrix": [[2, -1], [-1, 2]], "shifts": [0, 0]}
    kinds = [[command, name, "--matrix", "2,-1;-1,2", "--shifts", "0,0"]
             for command, name in (("char", "quadratic"), ("char", "lattice"),
                                   ("verify", "lattice"))]
    descriptors = [["verify", "custom", "--left", json.dumps({"kind": kind, **lattice}),
                    "--right", '{"kind": "gordon", "k": 1}', "--umax", "0"]
                   for kind in ("quadratic", "lattice")]
    for argv in kinds + descriptors:
        assert cli.main([*argv, "--qmax", "3", "--zmax", "2"]) == 2
        assert capsys.readouterr() == \
            ("", "configuration error: matrix entries must be nonnegative\n")


def test_presentation_file_refuses_unknown_keys(tmp_path, capsys):
    # a misspelt key would be dropped and change the algebra: with "lo" for
    # "low", a(z)^2 would vanish at every power of z, not at z^0 alone
    relation = {"factors": [["a", 0, 2]]}
    argv = ["char", "presentation", "--file", str(tmp_path / "p.json"), "--qmax", "3",
            "--zmax", "2", "--format", "csv"]
    (tmp_path / "p.json").write_text(json.dumps(
        {"families": [{"name": "a"}], "relations": [{**relation, "low": 1}]}))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == ["2,0,1,1", "2,0,2,2", "2,0,3,2"]
    for data, message in (
            ({"families": [{"name": "a"}], "relations": [{**relation, "lo": 1}]},
             "a relation has no key 'lo'"),
            ({"families": [{"name": "a", "u": 1}], "relations": [relation]},
             "a family has no key 'u'"),
            ({"families": [{"name": "a"}], "relation": [relation], "relations": []},
             "a presentation has no key 'relation'")):
        (tmp_path / "p.json").write_text(json.dumps(data))
        assert cli.main(argv) == 2
        assert capsys.readouterr() == \
            ("", f"configuration error: malformed presentation JSON: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (("verify", "custom", "--left", '{"kind": "algebra", "lambda": [1]}', "--right",
      '{"kind": "gordon", "k": 1}', "--qmax", "3", "--zmax", "2"),
     "brute-force cases need a finite u window"),
    (("verify", "points", "--levels", "1,1", "--points", "1", "--alt-points", "2",
      "--qmax", "3"), "need at least two (i, k) pairs"),
    # one rule, one message: the fused modules' levels, the brute-force and
    # the closed routes alike
    *[((command, kind, "--i1", "0", "--k1", "0", "--i2", "0", "--k2", "1",
        "--qmax", "2"), "need 1 <= k and 0 <= i <= k, got i=0, k=0")
      for command, kind in (("char", "fusion"), ("char", "fusion-w"),
                            ("verify", "limform"))],
    # the initial conditions' lengths, the algebra and the gmf sum alike
    *[(("char", kind, "--lambda", "2,1", "--c", "1", "--qmax", "2"),
       "initial conditions c (len 1) and d (len 1) must have lengths 2 and 1")
      for kind in ("algebra", "gmf")],
])
def test_case_values_out_of_range_exit_2(capsys, argv, message):
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")


FUSION_LEVELS = ("--i1", "0", "--k1", "1", "--i2", "0", "--k2", "1", "--qmax", "2")


@pytest.mark.parametrize("argv,source", [
    (("char", "fusion", *FUSION_LEVELS), "argv"),
    (("char", "fusion", *FUSION_LEVELS), "config"),
    (("verify", "fusion", *FUSION_LEVELS), "argv"),
    (("verify", "fusion", *FUSION_LEVELS), "config"),
    (("verify", "points", "--levels", "0,1;0,1", "--alt-points", "2,5", "--qmax", "2"),
     "argv"),
    (("verify", "points", "--levels", "0,1;0,1", "--alt-points", "2,5", "--qmax", "2"),
     "config"),
    (("verify", "custom", "--right", '{"kind": "fusion-w", "i1": 0, "k1": 1, '
      '"i2": 0, "k2": 1}', "--qmax", "2", "--zmax", "2", "--umax", "2"), "descriptor"),
])
def test_empty_points_exit_2(tmp_path, capsys, argv, source):
    # an empty --points list is refused wherever it comes from, never read
    # as the default points
    extra = {"argv": ["--points="], "config": ["--config", str(tmp_path / "c.json")],
             "descriptor": ["--left", json.dumps(
                 {"kind": "fusion", "i1": 0, "k1": 1, "i2": 0, "k2": 1, "points": []})]}
    (tmp_path / "c.json").write_text(json.dumps({"points": []}))
    assert cli.main([*argv, *extra[source]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "configuration error: one evaluation point per module\n"


POINTS_ARGV = ("verify", "points", "--levels", "0,1;0,1", "--points", "1,0",
               "--alt-points", "2,5", "--qmax", "2", "--format", "json")
REFUSED = "configuration error: verify points runs over the rationals alone and takes no "


@pytest.mark.parametrize("source,values,message", [
    ("argv", {"field": "two-prime"}, REFUSED + "--field two-prime\n"),
    ("argv", {"seed": 3}, REFUSED + "--seed\n"),
    ("argv", {"field": "exact", "seed": 3}, REFUSED + "--seed\n"),
    ("config", {"field": "two-prime"}, REFUSED + "--field two-prime\n"),
    ("config", {"seed": 3}, REFUSED + "--seed\n"),
    ("descriptor", {"field": "two-prime"},
     "configuration error: fusion evaluator has no key 'field'\n"),
    ("descriptor", {"seed": 3}, "configuration error: fusion evaluator has no key 'seed'\n"),
], ids=["argv-field", "argv-seed", "argv-exact-seed", "config-field", "config-seed",
        "descriptor-field", "descriptor-seed"])
def test_points_refuses_a_field_it_ignores(tmp_path, capsys, source, values, message):
    # verify points runs over the rationals alone: a two-prime field or a
    # seed is refused wherever it comes from, never reported as exact; no
    # evaluator descriptor takes a field mode either
    (tmp_path / "c.json").write_text(json.dumps(values))
    desc = {"kind": "fusion", "i1": 0, "k1": 1, "i2": 0, "k2": 1, **values}
    argv = {"argv": [*POINTS_ARGV, *(f"--{k}={v}" for k, v in values.items())],
            "config": [*POINTS_ARGV, "--config", str(tmp_path / "c.json")],
            "descriptor": ["verify", "custom", "--left", json.dumps(desc), "--right",
                           '{"kind": "fusion-w", "i1": 0, "k1": 1, "i2": 0, "k2": 1}',
                           "--qmax", "2", "--zmax", "2", "--umax", "2"]}
    assert cli.main(argv[source]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message


def test_points_default_and_exact_field_report_exact(capsys):
    reports = []
    for extra in ([], ["--field", "exact"]):
        assert cli.main([*POINTS_ARGV, *extra]) == 0
        reports.append([{k: v for k, v in r.items() if k != "millis"}
                        for r in json.loads(capsys.readouterr().out)])
    assert reports[0] == reports[1]
    assert [(r["field"], r["seed"]) for r in reports[0]] == [("exact", None)]


@pytest.mark.parametrize("extra,flag", [
    (["--field", "two-prime"], "--field two-prime"),
    (["--field", "two-prime", "--seed", "3"], "--seed"),
], ids=["field", "field-seed"])
def test_limform_refuses_a_field_it_ignores(capsys, extra, flag):
    # verify limform evaluates closed formulas alone: a two-prime field or a
    # seed is refused, never reported as exact; --field exact is accepted
    argv = ["verify", "limform", *(f"--{k}={v}" for k, v in LIMFORM.items()),
            "--qmax", "2", "--format", "json"]
    assert cli.main([*argv, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("configuration error: verify limform runs over the "
                                 f"rationals alone and takes no {flag}\n")
    assert cli.main([*argv, "--field", "exact"]) == 0
    assert [r["field"] for r in json.loads(capsys.readouterr().out)] == ["exact"] * 2


CLOSED_PAIR = ("verify", "custom", "--left", '{"kind": "gordon", "k": 1}',
               "--right", '{"kind": "mf", "lambda": [1]}', "--qmax", "3",
               "--format", "json")


def test_custom_closed_pair_reports_exact(capsys):
    # two closed evaluators do no linear algebra: the report says exact
    # with no seed, with or without --field exact
    for extra in ([], ["--field", "exact"]):
        assert cli.main([*CLOSED_PAIR, *extra]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [(r["verdict"], r["field"], r["seed"]) for r in reports] == \
            [("EQUAL", "exact", None)]


@pytest.mark.parametrize("source,values,flag", [
    ("argv", {"field": "two-prime"}, "--field two-prime"),
    ("argv", {"seed": 5}, "--seed"),
    ("argv", {"field": "exact", "seed": 5}, "--seed"),
    ("config", {"field": "two-prime"}, "--field two-prime"),
    ("config", {"seed": 5}, "--seed"),
], ids=["argv-field", "argv-seed", "argv-exact-seed", "config-field", "config-seed"])
def test_custom_closed_pair_refuses_a_field(tmp_path, capsys, source, values, flag):
    # as the closed char kinds do: a two-prime field or a seed is refused,
    # from argv or a config file, never reported as if it had been used
    (tmp_path / "c.json").write_text(json.dumps(values))
    extra = ([f"--{k}={v}" for k, v in values.items()] if source == "argv"
             else ["--config", str(tmp_path / "c.json")])
    assert cli.main([*CLOSED_PAIR, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("configuration error: verify custom runs over the "
                                 f"rationals alone and takes no {flag}\n")


@pytest.mark.parametrize("left,right", [
    ('{"kind": "gordon", "k": 1}', '{"kind": "algebra", "lambda": [1]}'),
    ('{"kind": "algebra", "lambda": [1]}', '{"kind": "gordon", "k": 1}'),
], ids=["brute-right", "brute-left"])
def test_custom_pair_with_a_brute_side_takes_a_field(capsys, left, right):
    # a brute-force side does linear algebra: two-prime with seed 0 by
    # default, and --seed and --field exact are honoured
    argv = ["verify", "custom", "--left", left, "--right", right, "--qmax", "3",
            "--zmax", "2", "--umax", "0", "--format", "json"]
    for extra, expected in (([], ("two-prime", 0)), (["--seed", "5"], ("two-prime", 5)),
                            (["--field", "exact"], ("exact", None))):
        assert cli.main([*argv, *extra]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [(r["verdict"], r["field"], r["seed"]) for r in reports] == \
            [("EQUAL", *expected)]


# the char kinds that do no linear algebra over a finite field, with flags
CLOSED_CHARS = {
    "limform": [f"--{k}={v}" for k, v in LIMFORM.items()],
    "gordon": ["--k", "2"],
    "mf": ["--lambda", "2,1"],
    "gmf": ["--lambda", "2,1", "--c", "1,0"],
    "fusion-w": ["--i1", "0", "--k1", "1", "--i2", "1", "--k2", "2"],
    "lattice": ["--matrix", "2,1;1,2", "--shifts", "0,1"],
}


@pytest.mark.parametrize("values,flag", [
    ({"field": "two-prime"}, "--field two-prime"),
    ({"seed": 3}, "--seed"),
    ({"field": "two-prime", "seed": 3}, "--seed"),
], ids=["field", "seed", "field-seed"])
def test_char_limform_refuses_a_field_it_ignores(tmp_path, capsys, values, flag):
    # the limform evaluator and the closed sums are closed formulas: char
    # refuses a two-prime field or a seed, from argv or a config file, as
    # verify limform does; --field exact and no flag print the same character
    (tmp_path / "c.json").write_text(json.dumps(values))
    for kind, kind_argv in CLOSED_CHARS.items():
        argv = ["char", kind, *kind_argv, "--qmax", "2", "--format", "json"]
        for extra in ([f"--{k}={v}" for k, v in values.items()],
                      ["--config", str(tmp_path / "c.json")]):
            assert cli.main([*argv, *extra]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (f"configuration error: char {kind} runs over "
                                         f"the rationals alone and takes no {flag}\n")
        printed = []
        for field in ([], ["--field", "exact"]):
            assert cli.main([*argv, *field]) == 0
            printed.append(json.loads(capsys.readouterr().out))
        assert printed[0] == printed[1] and printed[0]["coefficients"]


@pytest.mark.parametrize("kind,kind_argv", [
    ("gordon", ["--k", "2"]), ("mf", ["--lambda", "2,1"]),
    ("gmf", ["--lambda", "2,1", "--c", "1,0"]),
    ("fusion", ["--i1", "0", "--k1", "1", "--i2", "1", "--k2", "2"]),
    ("lattice", ["--matrix", "2,1;1,2", "--shifts", "0,1"])])
def test_cases_of_closed_chars_take_a_field(capsys, kind, kind_argv):
    # the cases pair a closed sum with a brute-force route, so they keep
    # --field two-prime and --seed
    argv = ["verify", kind, *kind_argv, "--qmax", "2", "--format", "json"]
    assert cli.main([*argv, "--field", "two-prime", "--seed", "3"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {(r["field"], r["seed"]) for r in reports} == {("two-prime", 3)}


@pytest.mark.parametrize("command", ["char", "verify"])
def test_gordon_level_zero_has_one_message(capsys, command):
    # verify refuses the level before the algebra side's partition check
    assert cli.main([command, "gordon", "--k", "0", "--qmax", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "configuration error: level must be >= 1\n"


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
    ({"name": "a", "u_increment": 2}, {"factors": [["a", 0, 2]]}),
    ({"name": "a", "min_mode": -1}, {"factors": [["a", 0, 2]]}),
    ({"name": "a"}, {"factors": []}),
    ({"name": "a"}, {"factors": [["a", -1, 2]]}),
    ({"name": "a"}, {"factors": [["a", 0, 0]]}),
])
def test_malformed_presentation_file_exits_2(tmp_path, capsys, family, relation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"families": [family], "relations": [relation]}))
    assert cli.main(["char", "presentation", "--file", str(path), "--qmax", "2"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_presentation_without_families_exits_2(tmp_path, capsys):
    # a presentation file with no family, and the empty lattice, whose
    # quadratic presentation has none; the lattice sum alone is 1
    pres, lattice = tmp_path / "f.json", tmp_path / "q.json"
    pres.write_text(json.dumps({"families": [], "relations": []}))
    lattice.write_text(json.dumps({"matrix": [], "shifts": []}))
    for argv in (("char", "presentation", "--file", str(pres)),
                 ("char", "quadratic", "--config", str(lattice)),
                 ("verify", "lattice", "--config", str(lattice))):
        assert cli.main([*argv, "--qmax", "2"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
    code, out = run_cli(capsys, "char", "lattice", "--config", str(lattice),
                        "--qmax", "2", "--format", "json")
    assert code == 0
    assert [r["dim"] for r in json.loads(out)["coefficients"]] == [1]


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


# parser -> fixed malformed (command-line texts, JSON values) that the
# parser itself rejects; a path or descriptor that fails only once it is
# used is left to the property below
MALFORMED_FIXED = {
    verify.parse_int: (["x", "", "1.5", "1,2"], ["x", True, 1.5, [1], {"a": 1}]),
    verify.parse_size: (["x", "-1", "1.5"], [-1, -7, 2.0, True, "-1", [1], {"a": 1}]),
    verify.parse_seconds: (["x", "-1", "-1e-06", "nan", "NaN"],
                           [-1, -0.5, float("nan"), True, "nan", [1], {"a": 1}]),
    verify.parse_ints: (["x", "1,x", "1,,2", "1.5"], [3, True, ["x"], [1.5], {"a": 1}]),
    verify.parse_matrix: (["x", "1,x;2", "2,1;1,y"], [3, [1, 2], [["x"]], {"a": 1}]),
    verify.parse_text: ([], [3, True, 1.5, [1], {"a": 1}]),
    verify.load_presentation: (["no-such-dir/file.json", ""], [3, True, [1]]),
    verify.parse_json: (["{bad", "[1", ""], []),
}


@pytest.mark.parametrize("parse", list(MALFORMED), ids=lambda parse: parse.__name__)
def test_each_parser_rejects_fixed_malformed_values(parse):
    texts, values = MALFORMED_FIXED[parse]
    for value in texts + values:
        with pytest.raises(ConfigurationError):
            parse(value)


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


def test_jobs_resolution(tmp_path, capsys):
    # --jobs is a flag of the scan kinds alone: char and verify refuse it on
    # the command line and in a config file; scan reads 0 as one worker
    (tmp_path / "c.json").write_text(json.dumps({"jobs": 2}))
    for argv in (("verify", "gordon", "--k", "1", "--qmax", "3"),
                 ("char", "gordon", "--k", "1", "--qmax", "3")):
        with pytest.raises(SystemExit) as stop:
            cli.main([*argv, "--jobs", "2"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert cli.main([*argv, "--config", str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err == \
            "configuration error: config key 'jobs' does not match a flag\n"
    argv = ["scan", "mf", "--max-size", "2", "--qmax", "2", "--format", "json"]
    runs = []
    for extra in ([], ["--jobs", "0"], ["--config", str(tmp_path / "c.json")]):
        code, out = run_cli(capsys, *argv, *extra)
        runs.append((code, [{k: v for k, v in r.items() if k != "millis"}
                            for r in json.loads(out)]))
    assert runs[0][0] == 0 and len(runs[0][1]) == 3 and runs == [runs[0]] * 3


# every kind's help, and the errors of each level of the tree
GOLDEN_ARGVS = (
    [[], ["-h"]]
    + [[command, *h] for command in cli.COMMANDS for h in ([], ["-h"])]
    + [[command, kind, "-h"] for command, (registry, _) in cli.COMMANDS.items()
       for kind in registry]
    + [["bogus"], ["verify", "bogus"], ["verify", "lattice", "--bogus", "1"],
       ["verify", "lattice", "--qmax"]]
    # names after other arguments, which argparse reads as options or
    # refuses as names
    + [["--x", "verify", "lattice", "-h"], ["-1", "verify", "lattice"],
       ["verify", "-x", "lattice", "--qmax", "1"], ["verify", "--qmax", "1"],
       ["--", "verify", "lattice", "-h"], ["char", "verify", "-h"]]
    # a kind's flags and then something else, which its parser leaves over
    # or which Python versions read differently
    + [["verify", "lattice", "--qmax", "1", "extra"],
       ["verify", "lattice", "--qmax", "1", "--"],
       ["verify", "lattice", "--", "--qmax", "1"]])


def exit_of(capsys, parse, argv) -> tuple:
    """(exit code, stdout, stderr) of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=lambda a: " ".join(a) or "(none)")
def test_cli_text_matches_the_whole_tree(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    assert exit_of(capsys, cli.main, argv) == \
        exit_of(capsys, build_parser().parse_args, argv)


def test_cli_builds_only_the_selected_kind(capsys, monkeypatch):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    argv = ["verify", "lattice", "--matrix", "2", "--shifts", "0", "--qmax", "1"]
    flags = len(verify.CASES["lattice"].flags) + len(cli.COMMON_FLAGS)
    for calls_made in (1, 2):  # a second call builds a second parser
        assert cli.main(argv) == 0
        # one parser, the kind's: its -h and its flags
        assert len([c for c in calls if c != "-h"]) == calls_made * flags
        assert calls.count("-h") == calls_made
    calls.clear()
    with pytest.raises(SystemExit):
        cli.main(["verify", "lattice", "--bogus", "1"])
    # the kind's parser leaves --bogus 1 over, and the whole tree reports it
    kinds = [kind for registry, _ in cli.COMMANDS.values() for kind in registry.values()]
    assert calls.count("-h") == 1 + 1 + len(cli.COMMANDS) + len(kinds)
    assert len([c for c in calls if c != "-h"]) == flags + sum(
        len(kind.flags) + len(cli.COMMON_FLAGS) for kind in kinds)


def unique_prefix(option: str, options) -> str | None:
    """The shortest abbreviation of option that argparse reads as it alone,
    or None when only the whole option does."""
    for end in range(3, len(option)):
        if not any(o.startswith(option[:end]) for o in options if o != option):
            return option[:end]
    return None


@pytest.mark.parametrize("equals", [False, True], ids=["space", "equals"])
@pytest.mark.parametrize("command,kind", [
    (command, kind) for command, (registry, _) in cli.COMMANDS.items() for kind in registry])
def test_parse_argv_matches_the_whole_tree(monkeypatch, command, kind, equals):
    options = ["--" + f.name for f in cli.COMMANDS[command][0][kind].flags + cli.COMMON_FLAGS]
    values = {option[2:]: f"v{i}" for i, option in enumerate(options)}
    # abbreviate the first flag that has an abbreviation
    short = next(p for o in options if (p := unique_prefix(o, options + ["--help"])))
    argv = [command, kind]
    for option, value in zip(options, values.values()):
        option = short if option.startswith(short) else option
        argv += [f"{option}={value}"] if equals else [option, value]
    expected = build_parser().parse_args(argv)
    assert vars(expected) == {"command": command, "kind": kind, **values}
    # the kind's parser alone: the whole tree is never built
    monkeypatch.setattr(cli, "build_parser", None)
    assert cli.parse_argv(argv) == expected


def test_cli_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(fermionic, "evaluate_fermionic_sum", exhausted)
    for command in ("char", "verify"):
        assert cli.main([command, "gordon", "--k", "1", "--qmax", "3"]) == 3
        assert capsys.readouterr() == ("", "resource limit: out of memory\n")


@pytest.mark.parametrize("argv", [
    ["char", "gordon", "--k", "1", "--qmax", "3"],
    ["verify", "lattice", "-h"],
    ["verify", "lattice", "--bogus", "1"],
])
def test_cli_reads_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def run(*args) -> tuple:
        try:
            code = cli.main(*args)
        except SystemExit as stop:
            code = stop.code
        out = capsys.readouterr()
        return code, out.out, out.err

    expected = run(argv)
    monkeypatch.setattr(sys, "argv", ["ferchar", *argv])
    assert run() == expected


def test_installed_entry_point():
    proc = subprocess.run(
        ["ferchar", "verify", "gordon", "--k", "1", "--qmax", "3",
         "--zmax", "2", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report, = json.loads(proc.stdout)
    assert report["case"] == "gordon k=1" and report["verdict"] == "EQUAL"
