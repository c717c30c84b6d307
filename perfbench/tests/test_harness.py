"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests

Smoke-runs every workload traced and untraced, checks that every metric
emitted is declared in BENCHMARK.json with the same unit, and that the
correctness check, the cold-pass guard and the boundary check fail when
they should.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def declared(group: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[group]}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload, trace, group):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared(group)


def observed_from(reference: dict) -> list:
    """Child-style command records that reproduce the reference exactly."""
    out = []
    for cmd in reference["commands"]:
        reports = [dict(r, millis=7, seed=11) for case in cmd["cases"] for r in case]
        out.append({"code": cmd["code"], "reports": reports})
    return out


def test_reference_matches_itself_ignoring_millis_and_seed():
    for workload in run.WORKLOADS:
        reference = run.load_reference(workload)
        cases = sum(len(c["cases"]) for c in reference["commands"])
        assert run.check_pass(reference, observed_from(reference)) == (cases, 0)


def test_flipped_verdict_is_an_error():
    reference = run.load_reference("fusion-scan")
    observed = observed_from(reference)
    report = observed[0]["reports"][4]
    assert report["verdict"] == "EQUAL"
    report["verdict"] = "MISMATCH"
    attempted, failed = run.check_pass(reference, observed)
    assert (attempted, failed) == (25, 1)
    assert failed / attempted > 0


def test_exit_code_or_exception_fails_every_case_of_the_command():
    reference = run.load_reference("lattice-rank")
    observed = observed_from(reference)
    observed[3]["code"] = 1
    observed[5] = {"code": None, "error": "RuntimeError()"}
    assert run.check_pass(reference, observed) == (12, 2)
    reference = run.load_reference("mf-exact")
    truncated = observed_from(reference)
    truncated[0]["reports"].pop()
    assert run.check_pass(reference, truncated) == (29, 29)


def test_each_case_is_calibrated_by_the_loop_times_around_it():
    ref = run.CAL_REF_S
    steady = {"pass_s": 2.5, "case_s": [1.0, 1.0], "cal": [ref, ref, ref]}
    assert run.calibrated_pass(steady) == (pytest.approx(2.5), [1.0, 1.0])
    # the box runs at half speed around the first case only
    slow_first = {"pass_s": 4.5, "case_s": [3.0, 1.0], "cal": [2 * ref, 2 * ref, ref]}
    pass_s, cases = run.calibrated_pass(slow_first)
    assert cases == pytest.approx([1.5, 1 / 1.5])
    assert pass_s == pytest.approx(1.5 + 1 / 1.5 + 0.5 / 2)


def test_missing_boundary_is_named(monkeypatch):
    import ferchar.fusion
    spans.check_boundaries()
    monkeypatch.delattr(ferchar.fusion, "normal_form_basis")
    with pytest.raises(spans.BoundaryMissing, match="ferchar.fusion.normal_form_basis"):
        spans.check_boundaries()


def test_pass_refuses_a_worker_pool_override(tmp_path):
    env = dict(os.environ, FERCHAR_THREADS="2",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, run.CHILD, "pass", "limit-sums", "0",
                           "0", str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "FERCHAR_THREADS" in proc.stderr


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mf-exact", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
