"""One cold pass of a workload, in a fresh interpreter.

    python3 child.py MODE WORKLOAD SEED TRACE OUT_DIR

MODE is `pass` (run every command of the workload once through
`ferchar.cli.main`) or `probe` (stop once ready; with TRACE 1 it also
checks that every traced boundary exists).  `src/` must be on PYTHONPATH.
The child prints one JSON object: `ready`, the CLOCK_MONOTONIC reading once
`ferchar` is imported and the argv lists are built, `ready_cal`, one
calibration time taken right after that, and for a pass the per-command
exit codes and reports, `pass_s`, the peak RSS, and either the case
latencies with the calibration times around them (untraced) or the
per-layer values (traced).
"""

import json
import os
import resource
import sys
import time
from fractions import Fraction

import ferchar.cli
import ferchar.presented
import ferchar.verify

import workloads


def cold_guard() -> None:
    """A pass must start with empty caches and no worker-pool override."""
    warm = ferchar.presented.component_monomials.cache_info().currsize
    if warm:
        raise SystemExit(f"pass starts warm: {warm} cached monomial components")
    if "FERCHAR_THREADS" in os.environ:
        raise SystemExit("FERCHAR_THREADS is set in the pass's process")


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now.

    The box's speed moves by up to a factor of two for tens of seconds at a
    time, whatever runs on it, so every timing is reported against this
    loop timed next to it.  The loop mixes the kinds of work ferchar does
    (rationals with growing denominators, modular products, dict traffic)
    and touches nothing of ferchar's, so a change to ferchar cannot move it.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i % 97, i)
    table: dict = {}
    x = 1
    for i in range(15000):
        x = x * 3 % 1000003
        table[x % 499] = table.get(x % 499, 0) + i
    return time.perf_counter() - t0


def time_cases(cases: list, cal: list) -> None:
    """The untraced run's only wrapper: one clock pair around each case.

    Appends (seconds, number of reports) per case to `cases`, and the
    calibration time taken just before each case to `cal`."""
    run_case = ferchar.verify.run_case

    def timed(desc):
        cal.append(calibrate())
        t0 = time.perf_counter()
        reports = run_case(desc)
        cases.append((time.perf_counter() - t0, len(reports)))
        return reports

    ferchar.verify.run_case = timed


def run_pass(argvs: list, out_dir: str, tracer) -> dict:
    cold_guard()
    cases: list[tuple[float, int]] = []
    cal: list[float] = []
    if tracer is None:
        time_cases(cases, cal)
    else:
        tracer.install()
    commands = []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        out = os.path.join(out_dir, f"cmd{i}.json")
        first = len(cases)
        try:
            cmd = {"code": ferchar.cli.main(
                argv + ["--format", "json", "--out", out])}
        except Exception as exc:  # a raising command fails its cases
            cmd = {"code": None, "error": repr(exc)}
        cmd["argv"] = argv
        cmd["case_sizes"] = [n for _, n in cases[first:]]
        commands.append(cmd)
    pass_s = time.perf_counter() - start - sum(cal)
    for i, cmd in enumerate(commands):
        out = os.path.join(out_dir, f"cmd{i}.json")
        if os.path.exists(out):
            with open(out) as fh:
                cmd["reports"] = json.load(fh)
            os.remove(out)
    result = {"pass_s": pass_s, "commands": commands,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is None:
        result["case_s"] = [t for t, _ in cases]
        # one more after the last case, so every case lies between two
        result["cal"] = cal + [calibrate()]
    else:
        result["layers"] = tracer.summary(pass_s)
    return result


def main() -> None:
    mode, workload, seed, trace, out_dir = sys.argv[1:6]
    argvs = workloads.commands(workload, int(seed))
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    result["ready_cal"] = calibrate()
    tracer = None
    if trace == "1":
        import spans
        if mode == "probe":
            spans.check_boundaries()
        tracer = spans.Tracer()
    if mode == "pass":
        result.update(run_pass(argvs, out_dir, tracer))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
