"""Verification cases: each pits an exact brute-force construction against
a closed formula on a shared window and reports the verdict.

A case produces one or more VerificationReport records.  Reports marked
informational can state a MISMATCH without failing the run; that is how
the literal integer-lattice reading of the limit sum is surfaced (that
lattice is known to be questionable, so it is reported, never asserted).
Expected verdicts: EQUAL everywhere, except that the closed sum for a
non-convex partition is only an upper bound, where LE also passes.

Three registries declare every kind once: EVALUATORS (one character,
for `char` and `custom` pairs), CASES (for `verify` and `run_case`) and
SCANS.  A kind lists its flags; a flag's name is its command-line flag
(`--lambda`), its config key and its descriptor key (`"lambda"`), and its
parser takes command-line text or a JSON value alike.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from dataclasses import dataclass
from typing import Callable

from . import fermionic, fusion
from .errors import ConfigurationError
from .exactlin import FieldMode
from .gradedchar import Comparison, Truncation, compare
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
# flag values: command-line text, or the JSON value of a config file or
# descriptor; text parses as it does on the command line


def _scalar(value, kind):
    if isinstance(value, str):
        try:
            return kind(value)
        except ValueError:
            pass
    elif isinstance(value, (int, kind)) and not isinstance(value, bool):
        return kind(value)
    raise ConfigurationError(f"bad {kind.__name__} {value!r}")


def parse_int(value) -> int:
    return _scalar(value, int)


def parse_seconds(value) -> float:
    """A nonnegative number of seconds (not NaN)."""
    x = _scalar(value, float)
    if not x >= 0:
        raise ConfigurationError(f"expected a nonnegative number of seconds, got {x}")
    return x


def parse_size(value) -> int:
    """A nonnegative integer: a window bound or a count."""
    n = parse_int(value)
    if n < 0:
        raise ConfigurationError(f"expected a nonnegative integer, got {n}")
    return n


def parse_ints(value) -> tuple[int, ...]:
    """An integer vector: comma-separated text or a JSON list."""
    items = value
    if isinstance(value, str):
        items = value.split(",") if value.strip() else ()
    if isinstance(items, (list, tuple)):
        try:
            return tuple(parse_int(x) for x in items)
        except ConfigurationError:
            pass
    raise ConfigurationError(f"bad integer list {value!r}")


def parse_matrix(value) -> tuple:
    """Integer rows: semicolon-separated vectors or a JSON list of rows."""
    rows = value.strip().split(";") if isinstance(value, str) else value
    if not isinstance(rows, (list, tuple)):
        raise ConfigurationError(f"bad matrix {value!r}")
    return tuple(parse_ints(row) for row in rows)


def parse_text(value) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"expected a string, got {value!r}")
    return value


def parse_json(value):
    """A JSON value, or text holding one."""
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bad JSON {value!r}: {exc}") from None


def choice(*options: str) -> Callable:
    def parse(value):
        if value not in options:
            raise ConfigurationError(
                f"expected one of {', '.join(options)}, got {value!r}")
        return value
    return parse


def load_presentation(value):
    """The presentation in the JSON file that value names."""
    path = parse_text(value)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read presentation {path}: {exc}") from None
    return presentation_from_json(data)


@dataclass(frozen=True)
class Flag:
    """--name on the command line, name in config files and descriptors."""

    name: str
    parse: Callable  # command-line text or JSON value -> value
    required: bool = False


@dataclass(frozen=True)
class Kind:
    """One registered evaluator, case or scan."""

    flags: tuple
    finite: bool  # without --zmax/--umax, z runs to q_max and u to z_max
    run: Callable  # flag values -> evaluator, reports or case descriptors


def parse_values(flags, raw: dict) -> dict:
    """Each flag's parsed value from raw (name -> value); None when absent."""
    return {f.name: None if raw.get(f.name) is None else f.parse(raw[f.name])
            for f in flags}


K = Flag("k", parse_int, True)
LAMBDA = Flag("lambda", parse_ints, True)
C, D = Flag("c", parse_ints), Flag("d", parse_ints)
LEVELS = tuple(Flag(name, parse_int, True) for name in ("i1", "k1", "i2", "k2"))
POINTS = Flag("points", parse_ints)
NMAX = Flag("nmax", parse_size)
LATTICE = (Flag("matrix", parse_matrix, True), Flag("shifts", parse_ints, True))


def _levels(v: dict) -> tuple:
    return v["i1"], v["k1"], v["i2"], v["k2"]


def _n_max(v: dict) -> int:
    return 8 if v.get("nmax") is None else v["nmax"]


# ---------------------------------------------------------------------------
# evaluators: (label, fn(window, mode) -> GradedCharacter), validated when built


def _closed(label: str, spec):
    return label, lambda w, m: fermionic.evaluate_fermionic_sum(spec, w)


def _brute(label: str, pres, u_max: int | None = None):
    return label, lambda w, m: graded_character(pres, _brute_window(w, u_max), m)


def _algebra(v):
    lam = Partition.make(v["lambda"])
    ic = None
    if v["c"] is not None or v["d"] is not None:
        ic = InitialConditions.make((0,) * lam.lam0 if v["c"] is None else v["c"],
                                    (0,) * lam.s if v["d"] is None else v["d"])
    return _brute(f"algebra(lambda={lam.parts})", build_presentation_A(lam, ic))


def _mf(v):
    lam = Partition.make(v["lambda"])
    return _closed(f"mf(lambda={lam.parts})", fermionic.mf_spec(lam))


def _gmf(v):
    lam = Partition.make(v["lambda"])
    ic = InitialConditions.make(v["c"], v["d"] or ())
    return _closed(f"gmf(lambda={lam.parts})", fermionic.gmf_spec(lam, ic))


def _fusion(v):
    a, points = _levels(v), v["points"] or None
    return (f"fusion{a}", lambda w, m: fusion.principal_fusion_character(
        *a, _brute_window(w, None), m, points))


def _limform(v):
    a, n_max = _levels(v), _n_max(v)
    return (f"limform{a}", lambda w, m: fermionic.character_L_fusion(
        *a, w.q_max, w.u_max, n_max).character)


def _lattice(v):
    spec = fermionic.LatticeSpec.make(v["matrix"], v["shifts"])
    return "lattice", lambda w, m: fermionic.lattice_principal_character(spec, w)


EVALUATORS = {
    "gordon": Kind((K,), False, lambda v: _closed(
        f"gordon(k={v['k']})", fermionic.gordon_spec(v["k"]))),
    "algebra": Kind((LAMBDA, C, D), True, _algebra),
    "mf": Kind((LAMBDA,), False, _mf),
    "gmf": Kind((LAMBDA, Flag("c", parse_ints, True), D), False, _gmf),
    "fusion-w": Kind(LEVELS, False, lambda v: _closed(
        f"fusion-w{_levels(v)}", fermionic.w_fusion_spec(*_levels(v)))),
    "fusion": Kind(LEVELS + (POINTS,), True, _fusion),
    "limform": Kind(LEVELS + (NMAX,), False, _limform),
    "lattice": Kind(LATTICE, False, _lattice),
    "quadratic": Kind(LATTICE, True, lambda v: _brute(
        "quadratic", build_presentation_quadratic(v["matrix"], v["shifts"]), 0)),
    "presentation": Kind((Flag("file", load_presentation, True),), True,
                         lambda v: _brute("presentation", v["file"])),
}


def build_evaluator(desc: dict):
    """(label, fn(window, mode) -> GradedCharacter) from a descriptor dict:
    "kind" plus values of that evaluator's flags."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigurationError(f"evaluator descriptor needs a kind: {desc!r}")
    name = desc["kind"]
    kind = EVALUATORS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ConfigurationError(f"unknown evaluator kind {name!r}")
    names = {f.name for f in kind.flags}
    for key in desc:
        if key != "kind" and key not in names:
            raise ConfigurationError(f"{name} evaluator has no key {key!r}")
    values = parse_values(kind.flags, desc)
    missing = [f.name for f in kind.flags if f.required and values[f.name] is None]
    if missing:
        raise ConfigurationError(f"{name} evaluator needs {missing}")
    return kind.run(values)


# ---------------------------------------------------------------------------
# catalog

_ALGEBRA_VS_SUM = ("algebra-bruteforce", "fermionic-sum")


def _expected(lam: Partition) -> str:
    return "EQUAL" if lam.is_convex() else "LE"


def verify_custom(left_desc: dict, right_desc: dict, window: Truncation,
                  mode: FieldMode, case: str | None = None,
                  labels: tuple | None = None, expected: str = "EQUAL") -> list:
    """One report comparing two evaluators on window.

    Both are built, and so validated, before either runs.  case and the
    (left, right) labels default to the evaluators' own labels."""
    (left, left_fn), (right, right_fn) = (build_evaluator(left_desc),
                                          build_evaluator(right_desc))
    t0 = time.monotonic()
    a, b = left_fn(window, mode), right_fn(window, mode)
    return [_finish(case or f"custom {left} vs {right}", *(labels or (left, right)),
                    compare(a, b), time.monotonic() - t0, mode, expected)]


def verify_gordon(k: int, window: Truncation, mode: FieldMode) -> list:
    return verify_custom({"kind": "algebra", "lambda": (k,)},
                         {"kind": "gordon", "k": k}, _brute_window(window, 0),
                         mode, f"gordon k={k}", _ALGEBRA_VS_SUM)


def verify_mf(parts, window: Truncation, mode: FieldMode) -> list:
    lam = Partition.make(parts)
    return verify_custom({"kind": "algebra", "lambda": lam.parts},
                         {"kind": "mf", "lambda": lam.parts},
                         _brute_window(window, None), mode,
                         f"mf lambda={lam.parts}", _ALGEBRA_VS_SUM, _expected(lam))


def verify_gmf(parts, c, d, window: Truncation, mode: FieldMode) -> list:
    lam, ic = Partition.make(parts), InitialConditions.make(c, d)
    values = {"lambda": lam.parts, "c": ic.c, "d": ic.d}
    return verify_custom({"kind": "algebra", **values}, {"kind": "gmf", **values},
                         _brute_window(window, None), mode,
                         f"gmf lambda={lam.parts} c={ic.c} d={ic.d}",
                         _ALGEBRA_VS_SUM, _expected(lam))


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
    values = {"matrix": spec.gram, "shifts": spec.shifts}
    return verify_custom({"kind": "quadratic", **values}, {"kind": "lattice", **values},
                         _brute_window(window, 0), mode,
                         f"lattice M={spec.gram} v={spec.shifts}",
                         ("quadratic-bruteforce", "lattice-sum"))


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


def verify_points(levels, window: Truncation, points_a, points_b) -> list:
    """Compare a multi-factor fusion character across two point sets.

    Equality is guaranteed for two factors; for more it is reported
    without being asserted.  Always computed over the rationals."""
    levels = tuple(tuple(x) for x in levels)
    if len(levels) < 2:
        raise ConfigurationError("need at least two (i, k) pairs")
    if any(len(x) != 2 for x in levels):
        raise ConfigurationError(f"levels must be (i, k) pairs, got {levels}")
    w = _brute_window(window, None)
    t0 = time.monotonic()
    mods = tuple(fusion.principal_subspace(i, k, w.q_max, w.z_max) for i, k in levels)
    a, b = (fusion.fusion_character(fusion.FusionSpec.make(mods, points, w))
            for points in (points_a, points_b))
    return [_finish(f"fusion-points {levels}", f"points={tuple(points_a)}",
                    f"points={tuple(points_b)}", compare(a, b),
                    time.monotonic() - t0, FieldMode.exact(),
                    informational=len(levels) > 2)]


# a case runs on its flag values plus "window" and "mode"
CASES = {
    "gordon": Kind((K,), True, lambda v: verify_gordon(v["k"], v["window"], v["mode"])),
    "mf": Kind((LAMBDA,), True, lambda v: verify_mf(v["lambda"], v["window"], v["mode"])),
    "gmf": Kind(EVALUATORS["gmf"].flags, True, lambda v: verify_gmf(
        v["lambda"], v["c"], v.get("d") or (), v["window"], v["mode"])),
    "fusion": Kind(LEVELS + (POINTS,), True, lambda v: verify_fusion(
        *_levels(v), v["window"], v["mode"], v.get("points"))),
    "lattice": Kind(LATTICE, True, lambda v: verify_lattice(
        v["matrix"], v["shifts"], v["window"], v["mode"])),
    "limform": Kind(LEVELS + (NMAX,), False, lambda v: verify_limform(
        *_levels(v), v["window"].q_max, v["window"].u_max, _n_max(v))),
    "points": Kind((Flag("levels", parse_matrix, True), Flag("points", parse_ints, True),
                    Flag("alt-points", parse_ints, True)), True,
                   lambda v: verify_points(v["levels"], v["window"], v["points"],
                                           v["alt-points"])),
    "custom": Kind((Flag("left", parse_json, True), Flag("right", parse_json, True)),
                   False, lambda v: verify_custom(v["left"], v["right"], v["window"],
                                                  v["mode"])),
}


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
    return [("mf", {"lambda": parts, "window": window, "mode": mode})
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


SCANS = {
    "mf": Kind((Flag("max-size", parse_size, True),), True,
               lambda v: scan_mf_cases(v["max-size"], v["window"], v["mode"])),
    "fusion": Kind((Flag("kmax", parse_size, True),), True,
                   lambda v: scan_fusion_cases(v["kmax"], v["window"], v["mode"])),
}


# ---------------------------------------------------------------------------
# case runner


def run_case(desc) -> list:
    """Reports of one case descriptor (kind, values), a CASES kind."""
    kind, values = desc
    return CASES[kind].run(values)


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
