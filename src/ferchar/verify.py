"""Verification cases: each pits an exact brute-force construction against
a closed formula on a shared window and reports the verdict.

A case produces one or more VerificationReport records.  Reports marked
informational can state a MISMATCH without failing the run; that is how
the literal integer-lattice reading of the limit sum is surfaced (that
lattice is known to be questionable, so it is reported, never asserted).
Expected verdicts: EQUAL everywhere, except that the closed sum for a
non-convex partition is only an upper bound, where LE also passes.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass

from . import fermionic, fusion
from .errors import ConfigurationError
from .exactlin import FieldMode
from .gradedchar import Comparison, GradedCharacter, Truncation, compare
from .presented import (InitialConditions, Partition, build_presentation_A,
                        build_presentation_quadratic, graded_character,
                        presentation_from_json)


@dataclass(frozen=True)
class VerificationReport:
    case: str
    left: str
    right: str
    window: Truncation
    verdict: str
    first_diff: tuple | None
    millis: int
    field: str
    seed: int | None
    informational: bool = False
    passed: bool = True

    def to_json_dict(self) -> dict:
        w = self.window
        fd = None
        if self.first_diff is not None:
            z, u, q, left, right = self.first_diff
            fd = {"z": z, "u": u, "q": q, "left": left, "right": right}
        out = {
            "case": self.case,
            "left": self.left,
            "right": self.right,
            "window": {"q": w.q_max, "z": w.z_max, "u": w.u_max},
            "verdict": self.verdict,
            "first_diff": fd,
            "millis": self.millis,
            "field": self.field,
            "seed": self.seed,
        }
        if self.informational:
            out["informational"] = True
        return out


def _finish(case, left, right, cmp_result: Comparison, seconds: float,
            mode: FieldMode, expected="EQUAL",
            informational=False) -> VerificationReport:
    """A report whose millis is the time spent on the two compared routes."""
    millis = int(seconds * 1000)
    verdict = cmp_result.verdict
    passed = informational or verdict == "EQUAL" or \
        (expected == "LE" and verdict == "LE")
    return VerificationReport(case, left, right, cmp_result.window, verdict,
                              cmp_result.first_diff, millis, mode.kind,
                              mode.seed, informational, passed)


def _brute_window(window: Truncation, u_max: int | None) -> Truncation:
    if window.z_max is None:
        raise ConfigurationError("brute-force cases need a finite z window")
    u = window.u_max if u_max is None else u_max
    if u is None:
        raise ConfigurationError("brute-force cases need a finite u window")
    return Truncation(window.q_max, window.z_max, u)


# ---------------------------------------------------------------------------
# catalog


def verify_gordon(k: int, window: Truncation, mode: FieldMode) -> list:
    w = _brute_window(window, 0)
    t0 = time.monotonic()
    brute = graded_character(build_presentation_A(Partition.make((k,))), w, mode)
    formula = fermionic.gordon_character(k, w)
    return [_finish(f"gordon k={k}", "algebra-bruteforce", "fermionic-sum",
                    compare(brute, formula), time.monotonic() - t0, mode)]


def verify_mf(parts, window: Truncation, mode: FieldMode) -> list:
    lam = Partition.make(parts)
    w = _brute_window(window, None)
    t0 = time.monotonic()
    brute = graded_character(build_presentation_A(lam), w, mode)
    formula = fermionic.character_A_lambda(lam, w)
    expected = "EQUAL" if lam.is_convex() else "LE"
    return [_finish(f"mf lambda={lam.parts}", "algebra-bruteforce",
                    "fermionic-sum", compare(brute, formula),
                    time.monotonic() - t0, mode,
                    expected=expected)]


def verify_gmf(parts, c, d, window: Truncation, mode: FieldMode) -> list:
    lam = Partition.make(parts)
    ic = InitialConditions.make(c, d)
    w = _brute_window(window, None)
    t0 = time.monotonic()
    brute = graded_character(build_presentation_A(lam, ic), w, mode)
    formula = fermionic.character_A_lambda_cd(lam, ic, w)
    expected = "EQUAL" if lam.is_convex() else "LE"
    return [_finish(f"gmf lambda={lam.parts} c={ic.c} d={ic.d}",
                    "algebra-bruteforce", "fermionic-sum",
                    compare(brute, formula), time.monotonic() - t0, mode,
                    expected=expected)]


def fusion_presentation(i1: int, k1: int, i2: int, k2: int):
    """The series presentation predicted for W_{i1,k1} * W_{i2,k2}."""
    if k1 > k2:
        (i1, k1), (i2, k2) = (i2, k2), (i1, k1)
    lam = fermionic.fusion_partition(k1, k2)
    ic = InitialConditions.make(
        fermionic.delta_vector(i1 + i2 + 1, lam.lam0),
        fermionic.delta_vector(min(i1, i2) + 1, lam.s))
    return build_presentation_A(lam, ic)


def verify_fusion(i1: int, k1: int, i2: int, k2: int, window: Truncation,
                  mode: FieldMode, points=None) -> list:
    w = _brute_window(window, None)
    case = f"fusion ({i1},{k1})x({i2},{k2})"
    t0 = time.monotonic()
    fused = fusion.principal_fusion_character(i1, k1, i2, k2, w, mode, points)
    t1 = time.monotonic()
    formula = fermionic.character_W_fusion(i1, k1, i2, k2, w)
    t2 = time.monotonic()
    algebra = graded_character(fusion_presentation(i1, k1, i2, k2), w, mode)
    t3 = time.monotonic()
    fused_s, formula_s, algebra_s = t1 - t0, t2 - t1, t3 - t2
    first = _finish(case, "fusion-bruteforce", "w-fusion-sum",
                    compare(fused, formula), fused_s + formula_s, mode)
    second = _finish(case, "fusion-bruteforce", "algebra-bruteforce",
                     compare(fused, algebra), fused_s + algebra_s, mode)
    third = _finish(case, "w-fusion-sum", "algebra-bruteforce",
                    compare(formula, algebra), formula_s + algebra_s, mode)
    return [first, second, third]


def verify_lattice(gram, shifts, window: Truncation, mode: FieldMode) -> list:
    spec = fermionic.LatticeSpec.make(gram, shifts)
    w = _brute_window(window, 0)
    t0 = time.monotonic()
    brute = graded_character(build_presentation_quadratic(gram, shifts), w, mode)
    formula = fermionic.lattice_principal_character(spec, w)
    return [_finish(f"lattice M={spec.gram} v={spec.shifts}",
                    "quadratic-bruteforce", "lattice-sum",
                    compare(brute, formula), time.monotonic() - t0, mode)]


def verify_limform(i1: int, k1: int, i2: int, k2: int, q_max: int,
                   u_max: int | None = None, n_max: int = 8) -> list:
    mode = FieldMode.exact()  # formula-only case
    case = f"limform ({i1},{k1})x({i2},{k2})"
    window = Truncation(q_max, None, u_max)
    result = fermionic.character_L_fusion(i1, k1, i2, k2, q_max, u_max, n_max)
    limit_s, recon_s, literal_s = result.seconds
    recon = Comparison("EQUAL" if result.reconstructed_match else "MISMATCH",
                       window)
    first = _finish(case, "limit-stabilized", "reconstructed-closed-form",
                    recon, limit_s + recon_s, mode)
    second = _finish(case, "limit-stabilized", "literal-integer-lattice",
                     result.literal_comparison, limit_s + literal_s, mode,
                     informational=True)
    return [first, second]


def verify_points(levels, window: Truncation, points_a, points_b,
                  mode: FieldMode | None = None) -> list:
    """Compare a multi-factor fusion character across two point sets.

    Equality is guaranteed for two factors; for more it is reported
    without being asserted.  Always computed over the rationals."""
    mode = FieldMode.exact()
    levels = tuple(tuple(x) for x in levels)
    if len(levels) < 2:
        raise ConfigurationError("need at least two (i, k) pairs")
    w = _brute_window(window, None)
    field = None
    t0 = time.monotonic()
    chars = []
    for points in (points_a, points_b):
        mods = tuple(fusion.principal_subspace(i, k, w.q_max, w.z_max, field)
                     for i, k in levels)
        chars.append(fusion.fusion_character(fusion.FusionSpec.make(mods, points, w)))
    case = f"fusion-points {levels}"
    return [_finish(case, f"points={tuple(points_a)}", f"points={tuple(points_b)}",
                    compare(chars[0], chars[1]), time.monotonic() - t0, mode,
                    informational=len(levels) > 2)]


def verify_custom(left_desc: dict, right_desc: dict, window: Truncation,
                  mode: FieldMode) -> list:
    left_label, left_fn = build_evaluator(left_desc)
    right_label, right_fn = build_evaluator(right_desc)
    t0 = time.monotonic()
    a, b = left_fn(window, mode), right_fn(window, mode)
    return [_finish(f"custom {left_label} vs {right_label}", left_label,
                    right_label, compare(a, b), time.monotonic() - t0, mode)]


# ---------------------------------------------------------------------------
# evaluator descriptors (shared by the char command and custom pairs)


def build_evaluator(desc: dict):
    """(label, fn(window, mode) -> GradedCharacter) from a descriptor dict."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigurationError(f"evaluator descriptor needs a kind: {desc!r}")
    d = dict(desc)
    kind = d.pop("kind")

    def need(*keys):
        missing = [k for k in keys if k not in d]
        if missing:
            raise ConfigurationError(f"{kind} evaluator needs {missing}")

    if kind == "gordon":
        need("k")
        return (f"gordon(k={d['k']})",
                lambda w, m: fermionic.gordon_character(d["k"], w))
    if kind == "algebra":
        need("lambda")
        lam = Partition.make(d["lambda"])
        ic = None
        if d.get("c") is not None or d.get("d") is not None:
            ic = InitialConditions.make(d.get("c") or (0,) * lam.lam0,
                                        d.get("d") or (0,) * lam.s)
        pres = build_presentation_A(lam, ic)
        return (f"algebra(lambda={lam.parts})",
                lambda w, m: graded_character(pres, _brute_window(w, None), m))
    if kind == "presentation":
        need("presentation")
        pres = presentation_from_json(d["presentation"])
        return ("presentation",
                lambda w, m: graded_character(pres, _brute_window(w, None), m))
    if kind == "mf":
        need("lambda")
        lam = Partition.make(d["lambda"])
        return (f"mf(lambda={lam.parts})",
                lambda w, m: fermionic.character_A_lambda(lam, w))
    if kind == "gmf":
        need("lambda", "c", "d")
        lam = Partition.make(d["lambda"])
        ic = InitialConditions.make(d["c"], d["d"])
        return (f"gmf(lambda={lam.parts})",
                lambda w, m: fermionic.character_A_lambda_cd(lam, ic, w))
    if kind == "fusion-w":
        need("i1", "k1", "i2", "k2")
        a = (d["i1"], d["k1"], d["i2"], d["k2"])
        return (f"fusion-w{a}",
                lambda w, m: fermionic.character_W_fusion(*a, w))
    if kind == "fusion":
        need("i1", "k1", "i2", "k2")
        a = (d["i1"], d["k1"], d["i2"], d["k2"])
        points = tuple(d["points"]) if d.get("points") else None
        return (f"fusion{a}",
                lambda w, m: fusion.principal_fusion_character(
                    *a, _brute_window(w, None), m, points))
    if kind == "quadratic":
        need("matrix", "shifts")
        pres = build_presentation_quadratic(d["matrix"], d["shifts"])
        return ("quadratic",
                lambda w, m: graded_character(pres, _brute_window(w, 0), m))
    if kind == "lattice":
        need("matrix", "shifts")
        spec = fermionic.LatticeSpec.make(d["matrix"], d["shifts"])
        return ("lattice",
                lambda w, m: fermionic.lattice_principal_character(spec, w))
    if kind == "limform":
        need("i1", "k1", "i2", "k2")
        a = (d["i1"], d["k1"], d["i2"], d["k2"])
        n_max = d.get("nmax", 8)
        return (f"limform{a}",
                lambda w, m: fermionic.character_L_fusion(
                    *a, w.q_max, w.u_max, n_max).character)
    raise ConfigurationError(f"unknown evaluator kind {kind!r}")


# ---------------------------------------------------------------------------
# scans


def partitions_of(total: int, largest: int | None = None):
    if total == 0:
        yield ()
        return
    largest = total if largest is None else min(largest, total)
    for first in range(largest, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


def convex_partitions(max_size: int) -> list[tuple]:
    out = []
    for total in range(1, max_size + 1):
        for parts in partitions_of(total):
            if Partition.make(parts).is_convex():
                out.append(parts)
    return out


def scan_mf_cases(max_size: int, window: Truncation, mode: FieldMode) -> list:
    return [("mf", {"parts": parts, "window": window, "mode": mode})
            for parts in convex_partitions(max_size)]


def scan_fusion_cases(kmax: int, window: Truncation, mode: FieldMode) -> list:
    out = []
    for k1 in range(1, kmax + 1):
        for k2 in range(1, kmax + 1):
            for i1 in range(k1 + 1):
                for i2 in range(k2 + 1):
                    out.append(("fusion", {"i1": i1, "k1": k1, "i2": i2, "k2": k2,
                                           "window": window, "mode": mode}))
    return out


# ---------------------------------------------------------------------------
# case runner

_CASE_FUNCS = {
    "gordon": verify_gordon,
    "mf": verify_mf,
    "gmf": verify_gmf,
    "fusion": verify_fusion,
    "lattice": verify_lattice,
    "limform": verify_limform,
    "points": verify_points,
    "custom": verify_custom,
}


def run_case(desc) -> list:
    kind, kwargs = desc
    return _CASE_FUNCS[kind](**kwargs)


def run_cases(descs: list, jobs: int = 1,
              timeout: float | None = None) -> tuple[list, bool]:
    """Run cases in declared order; returns (reports, timed_out)."""
    reports: list = []
    start = time.monotonic()
    if jobs <= 1:
        for desc in descs:
            if timeout is not None and time.monotonic() - start > timeout:
                return reports, True
            reports.extend(run_case(desc))
        return reports, False
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_case, d) for d in descs]
        for fut in futures:
            remaining = None
            if timeout is not None:
                remaining = timeout - (time.monotonic() - start)
                if remaining <= 0:
                    for other in futures:
                        other.cancel()
                    return reports, True
            try:
                reports.extend(fut.result(timeout=remaining))
            except concurrent.futures.TimeoutError:
                for other in futures:
                    other.cancel()
                return reports, True
    return reports, False
