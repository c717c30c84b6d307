"""Time-to-verdict benchmark for ferchar.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --record-reference

Run from the root of a ferchar checkout.  Every pass runs the workload's
command list once through `ferchar.cli.main`, in a fresh interpreter, one
child process at a time, so every pass starts cold as a user's `ferchar`
invocation does.  Passes repeat until `--seconds` is used up.  End-to-end
times are in calibrated seconds (see CAL_REF_S and perfbench/README.md).

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics (see spans.py).  Every
pass is checked against the workload's reference output; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` (cases) and
`metrics`.  `--record-reference` runs one pass at seed 0 and writes the
reference instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOADS = ("lattice-rank", "mf-exact", "fusion-scan", "limit-sums")
WORK_ROOT = ".perfbench_tmp"
SETUP_PROBES = 6  # import-only children per run, besides one per pass
# Times are reported in calibrated seconds: measured seconds scaled by
# CAL_REF_S over the time of child.calibrate() taken next to them, i.e. as
# if that loop took 5 ms (about what it takes when the box runs fast).
CAL_REF_S = 0.005
CHILD_TIMEOUT = 150
VOLATILE_FIELDS = ("millis", "seed")  # timing, and the echoed --seed


class HarnessError(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.startswith("case_s."):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# correctness


def comparable(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in VOLATILE_FIELDS}


def check_pass(reference: dict, commands: list) -> tuple[int, int]:
    """(cases attempted, cases failed) of one pass against the reference.

    A case fails when its command raised or returned another exit code, or
    when any of its reports differs from the reference in a field other
    than millis and seed.  Reports are split into cases by the reference's
    case sizes; a command whose report count differs fails every case.
    """
    attempted = failed = 0
    for i, ref in enumerate(reference["commands"]):
        cases = ref["cases"]
        attempted += len(cases)
        got = commands[i] if i < len(commands) else {}
        reports = got.get("reports")
        if ("error" in got or got.get("code") != ref["code"] or reports is None
                or len(reports) != sum(map(len, cases))):
            failed += len(cases)
            continue
        pos = 0
        for case in cases:
            observed = [comparable(r) for r in reports[pos:pos + len(case)]]
            failed += observed != case
            pos += len(case)
    return attempted, failed


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def make_reference(workload: str, commands: list) -> dict:
    out = []
    for cmd in commands:
        if "error" in cmd:
            raise HarnessError(f"cannot record a raising command: {cmd['error']}")
        reports = [comparable(r) for r in cmd["reports"]]
        cases, pos = [], 0
        for size in cmd["case_sizes"]:
            cases.append(reports[pos:pos + size])
            pos += size
        out.append({"argv": cmd["argv"], "code": cmd["code"], "cases": cases})
    return {"workload": workload, "commands": out}


# ---------------------------------------------------------------------------
# child processes


class Runner:
    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.env = dict(os.environ)
        self.env.pop("FERCHAR_THREADS", None)
        # an installed package runs from compiled bytecode; let the warm-up
        # child write it so setup_s does not time compiling the sources
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def spawn(self, mode: str, trace: str) -> tuple[float, dict]:
        """Run one child to completion; (setup seconds, its JSON payload)."""
        argv = [sys.executable, CHILD, mode, self.workload, str(self.seed),
                trace, self.work_dir]
        t0 = clock()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{mode} child ran past {CHILD_TIMEOUT} s") from exc
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise HarnessError(f"{mode} child exited with {proc.returncode}: "
                               f"{proc.stderr.strip().splitlines()[-1:]}")
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        return payload["ready"] - t0, payload


# ---------------------------------------------------------------------------
# measurement


def calibrated_pass(payload: dict) -> tuple[float, list]:
    """One untraced pass's time and case times, in calibrated seconds.

    Each case lies between two calibration times and is scaled by their
    mean, so a long case counts for the speed it ran at.  The rest of the
    pass (argument parsing, rendering, writing) is scaled by the pass's
    median calibration time."""
    cal, raw = payload["cal"], payload["case_s"]
    cases = [t * CAL_REF_S * 2 / (cal[i] + cal[i + 1]) for i, t in enumerate(raw)]
    rest = (payload["pass_s"] - sum(raw)) * CAL_REF_S / statistics.median(cal)
    return sum(cases) + rest, cases


def measure(runner: Runner, seconds: float, trace: bool, reference: dict) -> dict:
    deadline = clock() + seconds
    # warm the bytecode and file caches; a traced run checks its boundaries
    runner.spawn("probe", "1" if trace else "0")
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        setup, payload = runner.spawn("probe", "0")
        setups.append(setup * CAL_REF_S / payload["ready_cal"])
    kinds = ("0", "1") if trace else ("0",)
    passes: dict = {k: [] for k in kinds}
    attempted = failed = 0
    durations = []
    while True:
        kind = kinds[len(durations) % len(kinds)]
        t0 = clock()
        setup, payload = runner.spawn("pass", kind)
        durations.append(clock() - t0)
        setups.append(setup * CAL_REF_S / payload["ready_cal"])
        passes[kind].append(payload)
        a, f = check_pass(reference, payload["commands"])
        attempted, failed = attempted + a, failed + f
        # stop before a pass of typical length would end past the deadline
        if all(passes.values()) and clock() + statistics.median(durations) > deadline:
            break

    plain = passes["0"]
    if trace:
        traced = passes["1"]
        values = {}
        for k in traced[0]["layers"]:
            # counts repeat exactly between passes; keep them whole numbers
            pick = statistics.median_low if unit_of(k) == "count" else statistics.median
            values[k] = pick(p["layers"][k] for p in traced)
        # traced passes run no calibration loop, so this compares measured
        # seconds of passes that alternate through the same run
        values["trace.overhead_frac"] = (
            statistics.median(p["pass_s"] for p in traced)
            / statistics.median(p["pass_s"] for p in plain) - 1)
        summary = {"passes": len(plain), "traced_passes": len(traced)}
    else:
        calibrated = [calibrated_pass(p) for p in plain]
        # the same cases run in the same order in every pass: a case's
        # latency is its median over the passes, and the quantiles are
        # taken over the workload's cases
        cases = [statistics.median(times)
                 for times in zip(*(c for _, c in calibrated))]
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(t for t, _ in calibrated),
            "case_s.p50": statistics.median(cases),
            "case_s.p90": statistics.quantiles(cases, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        summary = {"passes": len(plain), "cases": len(cases),
                   "setups": len(setups),
                   "measured_pass_s": statistics.median(p["pass_s"] for p in plain)}
    summary["error_rate"] = failed / attempted
    print(f"perfbench {runner.workload} seed={runner.seed} "
          + " ".join(f"{k}={v}" for k, v in summary.items()))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ferchar", "cli.py")):
        print("perfbench: src/ferchar not found; run from the root of a "
              "ferchar checkout", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        if args.record_reference:
            runner = Runner(args.workload, 0, work_dir)
            reference = make_reference(args.workload,
                                       runner.spawn("pass", "0")[1]["commands"])
            with open(os.path.join(REFERENCE_DIR, f"{args.workload}.json"), "w") as fh:
                json.dump(reference, fh, indent=1)
                fh.write("\n")
            return 0
        result = measure(Runner(args.workload, args.seed, work_dir),
                         args.seconds, args.trace == "1",
                         load_reference(args.workload))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
