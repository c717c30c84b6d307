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

`run_cases` runs every case of `verify` and `scan`, in a process pool
only with jobs > 1, which is when it imports `concurrent.futures`.  Every
cache but fermionic's table of q-series products and trailing-block
forms, which depend on their arguments alone, lasts one `run_cases`
call: the components of presented (keyed on the generator families), the
component dimensions it shares across presentations by their live
relation families, and the cyclic modules and predicted-algebra
characters of the fusion route, so a scan builds each once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import namedtuple
from collections.abc import Callable

from . import fermionic, fusion
from .errors import ConfigurationError
from .exactlin import FieldMode
from .gradedchar import Comparison, Truncation, compare
from .presented import (InitialConditions, Partition, build_presentation_A,
                        build_presentation_quadratic, clear_caches,
                        graded_character, presentation_from_json)


class VerificationReport(namedtuple(
        "VerificationReport", "case left right window verdict first_diff millis field seed"
        " informational passed", defaults=(False, True))):
    """case, left and right, strs; window, a Truncation; verdict, a str;
    first_diff, a tuple or None; millis, an int; field, a str; seed, an int
    or None; informational and passed, bools."""

    __slots__ = ()

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
    verdict = cmp_result.verdict
    return VerificationReport(case, left, right, cmp_result.window, verdict,
                              cmp_result.first_diff, int(seconds * 1000), mode.kind,
                              mode.seed, informational,
                              informational or verdict in ("EQUAL", expected))


def _compare_routes(case, routes, pairs, mode: FieldMode, expected="EQUAL",
                    informational=False) -> list:
    """One report per (i, j) in pairs, comparing route i with route j.

    routes are (label, fn() -> GradedCharacter) pairs; each fn runs once,
    in order, and a report's millis is the time of its two routes."""
    characters, seconds = [], []
    for _, fn in routes:
        t0 = time.monotonic()
        characters.append(fn())
        seconds.append(time.monotonic() - t0)
    return [_finish(case, routes[i][0], routes[j][0],
                    compare(characters[i], characters[j]),
                    seconds[i] + seconds[j], mode, expected, informational)
            for i, j in pairs]


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


class Flag(namedtuple("Flag", "name parse required", defaults=(False,))):
    """--name on the command line, name in config files and descriptors.

    name, a str; parse, a Callable: command-line text or JSON value ->
    value; required, a bool."""

    __slots__ = ()


class Kind(namedtuple("Kind", "flags finite run exact", defaults=(False,))):
    """One registered evaluator, case or scan.

    flags, a tuple of Flag; finite, a bool: without --zmax/--umax, z runs to
    q_max and u to z_max; run, a Callable: flag values, "window", "mode" ->
    evaluator, reports or cases; exact, a bool: over Q alone, so --field
    two-prime and --seed are refused."""

    __slots__ = ()


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
    return fermionic.N_MAX if v.get("nmax") is None else v["nmax"]


# ---------------------------------------------------------------------------
# evaluators: (label, fn() -> GradedCharacter) from flag values plus "window"
# and "mode"; every check, the window's included, runs when one is built


def _closed(label: str, spec, v):
    return label, lambda: fermionic.evaluate_fermionic_sum(spec, v["window"])


def _brute(label: str, pres, v, u_max: int | None = None):
    w, mode = _brute_window(v["window"], u_max), v["mode"]
    return label, lambda: graded_character(pres, w, mode)


def _lambda_cd(parts, c, d) -> tuple[Partition, InitialConditions]:
    """The partition and its initial conditions; c and d are zero when absent."""
    lam = Partition.make(parts)
    return lam, InitialConditions.make((0,) * lam.lam0 if c is None else c,
                                       (0,) * lam.s if d is None else d)


def _algebra(v):
    lam, ic = _lambda_cd(v["lambda"], v["c"], v["d"])
    return _brute(f"algebra(lambda={lam.parts})", build_presentation_A(lam, ic), v)


def _mf(v):
    lam = Partition.make(v["lambda"])
    return _closed(f"mf(lambda={lam.parts})", fermionic.mf_spec(lam), v)


def _gmf(v):
    lam, ic = _lambda_cd(v["lambda"], v["c"], v["d"])
    return _closed(f"gmf(lambda={lam.parts})", fermionic.gmf_spec(lam, ic), v)


def _fusion(v):
    a, w, mode = _levels(v), _brute_window(v["window"], None), v["mode"]
    return f"fusion{a}", functools.partial(fusion.principal_fusion_character,
                                           (a[:2], a[2:]), w, mode, v["points"])


def _every_z(window: Truncation) -> Truncation:
    """window, refused when it bounds z: the limit character and its
    checks run over every z."""
    if window.z_max is not None:
        raise ConfigurationError("limform runs over every z and takes no z bound")
    return window


def _limform(v):
    a, n_max, w = _levels(v), _n_max(v), _every_z(v["window"])
    return (f"limform{a}", lambda: fermionic.stabilized_limit(
        *a, w.q_max, w.u_max, n_max)[0])


def _lattice(v):
    spec = fermionic.LatticeSpec.make(v["matrix"], v["shifts"])
    return "lattice", lambda: fermionic.lattice_principal_character(spec, v["window"])


EVALUATORS = {
    "gordon": Kind((K,), False, lambda v: _closed(
        f"gordon(k={v['k']})", fermionic.gordon_spec(v["k"]), v)),
    "algebra": Kind((LAMBDA, C, D), True, _algebra),
    "mf": Kind((LAMBDA,), False, _mf),
    "gmf": Kind((LAMBDA, Flag("c", parse_ints, True), D), False, _gmf),
    "fusion-w": Kind(LEVELS, False, lambda v: _closed(
        f"fusion-w{_levels(v)}", fermionic.w_fusion_spec(*_levels(v)), v)),
    "fusion": Kind(LEVELS + (POINTS,), True, _fusion),
    "limform": Kind(LEVELS + (NMAX,), False, _limform, exact=True),
    "lattice": Kind(LATTICE, False, _lattice),
    "quadratic": Kind(LATTICE, True, lambda v: _brute(
        "quadratic", build_presentation_quadratic(v["matrix"], v["shifts"]), v, 0)),
    "presentation": Kind((Flag("file", load_presentation, True),), True,
                         lambda v: _brute("presentation", v["file"], v)),
}


def build_evaluator(desc: dict, window: Truncation, mode: FieldMode):
    """(label, fn() -> GradedCharacter) on window and mode from a descriptor
    dict: "kind" plus values of that evaluator's flags."""
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
    return kind.run({**values, "window": window, "mode": mode})


# ---------------------------------------------------------------------------
# catalog

_ALGEBRA_VS_SUM = ("algebra-bruteforce", "fermionic-sum")


def _expected(lam: Partition) -> str:
    return "EQUAL" if lam.is_convex() else "LE"


def verify_custom(left_desc: dict, right_desc: dict, window: Truncation,
                  mode: FieldMode, case: str | None = None,
                  labels: tuple | None = None, expected: str = "EQUAL") -> list:
    """One report comparing two evaluators on window.

    Both are built on window and mode, and so validated, window included,
    before either runs.  case and the (left, right) labels default to the
    evaluators' own labels."""
    (left, left_fn), (right, right_fn) = (build_evaluator(left_desc, window, mode),
                                          build_evaluator(right_desc, window, mode))
    routes = tuple(zip(labels or (left, right), (left_fn, right_fn)))
    return _compare_routes(case or f"custom {left} vs {right}", routes, ((0, 1),),
                           mode, expected)


def verify_gordon(k: int, window: Truncation, mode: FieldMode) -> list:
    fermionic.gordon_spec(k)  # refuse k < 1 as char gordon does, before the algebra
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
    lam, ic = _lambda_cd(parts, c, d)
    values = {"lambda": lam.parts, "c": ic.c, "d": ic.d}
    return verify_custom({"kind": "algebra", **values}, {"kind": "gmf", **values},
                         _brute_window(window, None), mode,
                         f"gmf lambda={lam.parts} c={ic.c} d={ic.d}",
                         _ALGEBRA_VS_SUM, _expected(lam))


# A fusion scan meets each cyclic module and each predicted algebra (which
# depends only on the sorted levels, i1 + i2 and min(i1, i2)) many times;
# no other brute-force character repeats within a scan.
_fusion_algebra = functools.lru_cache(maxsize=None)(graded_character)
_MEMOS = (fusion.module_memo, _fusion_algebra)  # run_cases clears both


def verify_fusion(i1: int, k1: int, i2: int, k2: int, window: Truncation,
                  mode: FieldMode, points=None) -> list:
    w = _brute_window(window, None)
    routes = (("fusion-bruteforce", functools.partial(
                   fusion.principal_fusion_character, ((i1, k1), (i2, k2)), w, mode,
                   points)),
              ("w-fusion-sum", lambda: fermionic.character_W_fusion(i1, k1, i2, k2, w)),
              ("algebra-bruteforce", lambda: _fusion_algebra(build_presentation_A(
                  *fermionic.fusion_rule(i1, k1, i2, k2)), w, mode)))
    return _compare_routes(f"fusion ({i1},{k1})x({i2},{k2})", routes,
                           ((0, 1), (0, 2), (1, 2)), mode)


def verify_lattice(gram, shifts, window: Truncation, mode: FieldMode) -> list:
    spec = fermionic.LatticeSpec.make(gram, shifts)
    values = {"matrix": spec.gram, "shifts": spec.shifts}
    return verify_custom({"kind": "quadratic", **values}, {"kind": "lattice", **values},
                         _brute_window(window, 0), mode,
                         f"lattice M={spec.gram} v={spec.shifts}",
                         ("quadratic-bruteforce", "lattice-sum"))


def verify_limform(i1: int, k1: int, i2: int, k2: int, q_max: int,
                   u_max: int | None = None, n_max: int = fermionic.N_MAX) -> list:
    case, mode = f"limform ({i1},{k1})x({i2},{k2})", FieldMode.exact()  # formulas only
    result = fermionic.character_L_fusion(i1, k1, i2, k2, q_max, u_max, n_max)
    limit_s, recon_s, literal_s = result.seconds
    recon = Comparison("EQUAL" if result.reconstructed_match else "MISMATCH",
                       Truncation(q_max, None, u_max))
    return [_finish(case, "limit-stabilized", "reconstructed-closed-form",
                    recon, limit_s + recon_s, mode),
            _finish(case, "limit-stabilized", "literal-integer-lattice",
                    result.literal_comparison, limit_s + literal_s, mode,
                    informational=True)]


def verify_points(levels, window: Truncation, points_a, points_b) -> list:
    """Compare a multi-factor fusion character across two point sets.

    Equality is guaranteed for two factors; for more it is reported
    without being asserted.  Always computed over the rationals."""
    levels = tuple(tuple(x) for x in levels)
    if len(levels) < 2:
        raise ConfigurationError("need at least two (i, k) pairs")
    if any(len(x) != 2 for x in levels):
        raise ConfigurationError(f"levels must be (i, k) pairs, got {levels}")
    w, mode = _brute_window(window, None), FieldMode.exact()
    # the modules are memos: the second point set reuses the first's
    return _compare_routes(f"fusion-points {levels}",
                           [(f"points={tuple(p)}", functools.partial(
                               fusion.principal_fusion_character, levels, w, mode, p))
                            for p in (points_a, points_b)], ((0, 1),),
                           mode, informational=len(levels) > 2)


CASES = {
    "gordon": Kind((K,), True, lambda v: verify_gordon(v["k"], v["window"], v["mode"])),
    "mf": Kind((LAMBDA,), True, lambda v: verify_mf(v["lambda"], v["window"], v["mode"])),
    "gmf": Kind(EVALUATORS["gmf"].flags, True, lambda v: verify_gmf(
        v["lambda"], v["c"], v["d"], v["window"], v["mode"])),
    "fusion": Kind(LEVELS + (POINTS,), True, lambda v: verify_fusion(
        *_levels(v), v["window"], v["mode"], v.get("points"))),
    "lattice": Kind(LATTICE, True, lambda v: verify_lattice(
        v["matrix"], v["shifts"], v["window"], v["mode"])),
    "limform": Kind(LEVELS + (NMAX,), False, lambda v: verify_limform(
        *_levels(v), v["window"].q_max, _every_z(v["window"]).u_max, _n_max(v)),
        exact=True),
    "points": Kind((Flag("levels", parse_matrix, True), Flag("points", parse_ints, True),
                    Flag("alt-points", parse_ints, True)), True,
                   lambda v: verify_points(v["levels"], v["window"], v["points"],
                                           v["alt-points"]), exact=True),
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
    """Run cases in declared order; returns (reports, timed_out).

    The timeout budget is spent once the elapsed time reaches it, and is
    checked before each case, with or without a pool; a pool cancels the
    cases it has not started when the run ends.  Every cache lives
    for one call: the memos of cyclic modules and predicted-algebra
    characters, and the components, relation terms and component
    dimensions of presented, so later cases of a scan reuse what earlier
    ones built.  With jobs > 1 each worker keeps its own, and they end
    with the pool; only then is `concurrent.futures` imported, so the
    sequential path never names it."""
    reports: list = []
    start = time.monotonic()
    # expired: what result(timeout) raises once its timeout passes; a
    # sequential result raises nothing of the kind
    pool, expired = None, ()
    if jobs > 1:
        import concurrent.futures
        pool = concurrent.futures.ProcessPoolExecutor(jobs)
        expired = concurrent.futures.TimeoutError
    try:
        # result(timeout) -> the reports of one case; without a pool a case
        # runs when its result is asked for
        results = ((lambda timeout, d=d: run_case(d)) for d in descs) if pool is None \
            else [pool.submit(run_case, d).result for d in descs]
        for result in results:
            remaining = None if timeout is None else timeout - (time.monotonic() - start)
            if remaining is not None and remaining <= 0:
                return reports, True
            try:
                reports.extend(result(timeout=remaining))
            except expired:
                return reports, True
        return reports, False
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        for memo in _MEMOS:
            memo.cache_clear()
        clear_caches()
