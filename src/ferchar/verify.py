"""Verification cases: each pits an exact brute-force construction against
a closed formula on a shared window and reports the verdict.

A case produces one or more VerificationReport records.  Reports marked
informational can state a MISMATCH without failing the run; that is how
the literal integer-lattice reading of the limit sum is surfaced (that
lattice is known to be questionable, so it is reported, never asserted).
Expected verdicts: EQUAL everywhere, except that the closed sum for a
non-convex partition is only an upper bound, where LE also passes.

Three registries declare every kind once: EVALUATORS (one character,
for `char` and the descriptor pairs of `verify custom`), CASES (for
`verify` and `run_case`) and SCANS.  Evaluators and cases build each
route with the one builder of its kind: `_brute` (a presented algebra),
`_closed` (a closed sum) or `_fused` (a fusion filtration).  A kind lists
its flags; a flag's name is its command-line flag (`--lambda`), its
config key and its descriptor key (`"lambda"`), and its parser takes
command-line text or a JSON value alike.

`run_cases` runs every case of `verify` and `scan`, in a process pool
only with jobs > 1, which is when it imports `concurrent.futures`; its
cases share the caches of `presented.run_cache`, so a scan builds each
component, cyclic module and predicted algebra once.
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
                        graded_character, presentation_from_json, run_cache)


class VerificationReport(namedtuple(
        "VerificationReport", "case left right window verdict first_diff millis field seed"
        " informational passed", defaults=(False, True))):
    """case, left and right, strs; window, a Truncation; verdict, a str;
    first_diff, a tuple or None; millis, an int; field, a str; seed, an int
    or None; informational and passed, bools."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The fields in order, less passed, and informational only when true."""
        out = self._asdict()
        w = self.window
        out["window"] = {"q": w.q_max, "z": w.z_max, "u": w.u_max}
        if self.first_diff is not None:
            out["first_diff"] = dict(zip("z u q left right".split(), self.first_diff))
        del out["passed"]
        if not self.informational:
            del out["informational"]
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
    """The finite window of a brute-force route: z runs to q_max and u to
    z, unless window bounds them; u_max, when given, is the u bound (0 for
    an algebra whose every element has u-degree 0)."""
    z = window.q_max if window.z_max is None else window.z_max
    u = window.u_max if u_max is None else u_max
    return Truncation(window.q_max, z, z if u is None else u)


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


class Kind(namedtuple("Kind", "flags run exact", defaults=(False,))):
    """One registered evaluator, case or scan.

    flags, a tuple of Flag; run, a Callable: flag values, "window", "mode"
    -> evaluator, reports or cases, each brute-force route on its own
    default window (see _brute_window); exact, a bool or a Callable: flag
    values -> bool: over Q alone or with no linear algebra at all, so
    --field two-prime and --seed are refused."""

    __slots__ = ()

    def over_q(self, values: dict) -> bool:
        """Whether the kind runs over Q alone on these flag values."""
        return self.exact(values) if callable(self.exact) else self.exact


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
# routes: (label, fn() -> GradedCharacter), one builder per route kind,
# which the cases and the evaluators (a route from flag values plus
# "window" and "mode") share; every check, the window's included, runs
# when a route is built


def _closed(label: str, spec, window: Truncation):
    return label, lambda: fermionic.evaluate_fermionic_sum(spec, window)


def _brute(label: str, pres, window: Truncation, mode: FieldMode):
    w = _brute_window(window, None)
    return label, lambda: graded_character(pres, w, mode)


def _fused(label: str, levels, window: Truncation, mode: FieldMode, points):
    return label, functools.partial(fusion.principal_fusion_character, levels,
                                    _brute_window(window, None), mode, points)


def _lambda_cd(parts, c, d) -> tuple[Partition, InitialConditions]:
    """The partition and its initial conditions; c and d are zero when absent."""
    lam = Partition.make(parts)
    return lam, InitialConditions.make((0,) * lam.lam0 if c is None else c,
                                       (0,) * lam.s if d is None else d)


def _algebra(v):
    lam, ic = _lambda_cd(v["lambda"], v["c"], v["d"])
    return _brute(f"algebra(lambda={lam.parts})", build_presentation_A(lam, ic),
                  v["window"], v["mode"])


def _gmf(v):
    lam, ic = _lambda_cd(v["lambda"], v["c"], v["d"])
    return _closed(f"gmf(lambda={lam.parts})", fermionic.gmf_spec(lam, ic), v["window"])


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


EVALUATORS = {
    "gordon": Kind((K,), lambda v: _closed(
        f"gordon(k={v['k']})", fermionic.gordon_spec(v["k"]), v["window"]), exact=True),
    "algebra": Kind((LAMBDA, C, D), _algebra),
    "mf": Kind((LAMBDA,), lambda v: _closed(
        f"mf(lambda={v['lambda']})", fermionic.mf_spec(Partition.make(v["lambda"])),
        v["window"]), exact=True),
    "gmf": Kind((LAMBDA, Flag("c", parse_ints, True), D), _gmf, exact=True),
    "fusion-w": Kind(LEVELS, lambda v: _closed(
        f"fusion-w{_levels(v)}", fermionic.w_fusion_spec(*_levels(v)), v["window"]),
        exact=True),
    "fusion": Kind(LEVELS + (POINTS,), lambda v: _fused(
        f"fusion{_levels(v)}", ((v["i1"], v["k1"]), (v["i2"], v["k2"])), v["window"],
        v["mode"], v["points"])),
    "limform": Kind(LEVELS + (NMAX,), _limform, exact=True),
    "lattice": Kind(LATTICE, lambda v: _closed(
        "lattice", fermionic.LatticeSpec.make(v["matrix"], v["shifts"]), v["window"]),
        exact=True),
    "quadratic": Kind(LATTICE, lambda v: _brute(
        "quadratic", build_presentation_quadratic(v["matrix"], v["shifts"]),
        _brute_window(v["window"], 0), v["mode"])),
    "presentation": Kind((Flag("file", load_presentation, True),), lambda v: _brute(
        "presentation", v["file"], v["window"], v["mode"])),
}


def evaluator_kind(desc) -> Kind:
    """The evaluator that a descriptor dict's "kind" names."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigurationError(f"evaluator descriptor needs a kind: {desc!r}")
    name = desc["kind"]
    kind = EVALUATORS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ConfigurationError(f"unknown evaluator kind {name!r}")
    return kind


def build_evaluator(desc: dict, window: Truncation, mode: FieldMode):
    """(label, fn() -> GradedCharacter) on window and mode from a descriptor
    dict: "kind" plus values of that evaluator's flags."""
    kind, name = evaluator_kind(desc), desc["kind"]
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


def verify_custom(left_desc: dict, right_desc: dict, window: Truncation,
                  mode: FieldMode) -> list:
    """One report comparing two evaluator descriptors on window.

    Both are built on window and mode, and so validated, before either
    runs; a brute-force side runs on its default window (_brute_window)
    and the comparison on the meet of the two."""
    routes = [build_evaluator(desc, window, mode) for desc in (left_desc, right_desc)]
    return _compare_routes(f"custom {routes[0][0]} vs {routes[1][0]}", routes,
                           ((0, 1),), mode)


def _algebra_vs_sum(case: str, window: Truncation, mode: FieldMode,
                    lam: Partition, ic: InitialConditions) -> list:
    """The algebra of (lam, ic) against its closed sum, both on the algebra's
    window; the sum of a partition that is not convex is only an upper
    bound (LE)."""
    w = _brute_window(window, None)
    routes = (_brute("algebra-bruteforce", build_presentation_A(lam, ic), w, mode),
              _closed("fermionic-sum", fermionic.gmf_spec(lam, ic), w))
    return _compare_routes(case, routes, ((0, 1),), mode,
                           "EQUAL" if lam.is_convex() else "LE")


def verify_gordon(k: int, window: Truncation, mode: FieldMode) -> list:
    fermionic.gordon_spec(k)  # refuse k < 1 as char gordon does, before the algebra
    return _algebra_vs_sum(f"gordon k={k}", _brute_window(window, 0), mode,
                           *_lambda_cd((k,), None, None))


def verify_mf(parts, window: Truncation, mode: FieldMode) -> list:
    lam, ic = _lambda_cd(parts, None, None)
    return _algebra_vs_sum(f"mf lambda={lam.parts}", window, mode, lam, ic)


def verify_gmf(parts, c, d, window: Truncation, mode: FieldMode) -> list:
    lam, ic = _lambda_cd(parts, c, d)
    return _algebra_vs_sum(f"gmf lambda={lam.parts} c={ic.c} d={ic.d}", window, mode,
                           lam, ic)


# A fusion scan meets each cyclic module and each predicted algebra (which
# depends only on the sorted levels, i1 + i2 and min(i1, i2)) many times;
# no other brute-force character repeats within a scan.
_fusion_algebra = run_cache(graded_character)


def verify_fusion(i1: int, k1: int, i2: int, k2: int, window: Truncation,
                  mode: FieldMode, points=None) -> list:
    """The filtration, the closed sum and the algebra of the (lambda, c, d)
    that fusion_rule predicts, compared pairwise."""
    w = _brute_window(window, None)
    lam, ic = fermionic.fusion_rule(i1, k1, i2, k2)
    routes = (_fused("fusion-bruteforce", ((i1, k1), (i2, k2)), w, mode, points),
              _closed("w-fusion-sum", fermionic.gmf_spec(lam, ic), w),
              ("algebra-bruteforce", lambda: _fusion_algebra(
                  build_presentation_A(lam, ic), w, mode)))
    return _compare_routes(f"fusion ({i1},{k1})x({i2},{k2})", routes,
                           ((0, 1), (0, 2), (1, 2)), mode)


def verify_lattice(gram, shifts, window: Truncation, mode: FieldMode) -> list:
    spec, w = fermionic.LatticeSpec.make(gram, shifts), _brute_window(window, 0)
    routes = (_brute("quadratic-bruteforce",
                     build_presentation_quadratic(spec.gram, spec.shifts), w, mode),
              _closed("lattice-sum", spec, w))
    return _compare_routes(f"lattice M={spec.gram} v={spec.shifts}", routes, ((0, 1),),
                           mode)


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
    mode = FieldMode.exact()
    # the modules are memos: the second point set reuses the first's
    return _compare_routes(f"fusion-points {levels}",
                           [_fused(f"points={tuple(p)}", levels, window, mode, p)
                            for p in (points_a, points_b)], ((0, 1),),
                           mode, informational=len(levels) > 2)


CASES = {
    "gordon": Kind((K,), lambda v: verify_gordon(v["k"], v["window"], v["mode"])),
    "mf": Kind((LAMBDA,), lambda v: verify_mf(v["lambda"], v["window"], v["mode"])),
    "gmf": Kind(EVALUATORS["gmf"].flags, lambda v: verify_gmf(
        v["lambda"], v["c"], v["d"], v["window"], v["mode"])),
    "fusion": Kind(LEVELS + (POINTS,), lambda v: verify_fusion(
        *_levels(v), v["window"], v["mode"], v.get("points"))),
    "lattice": Kind(LATTICE, lambda v: verify_lattice(
        v["matrix"], v["shifts"], v["window"], v["mode"])),
    "limform": Kind(LEVELS + (NMAX,), lambda v: verify_limform(
        *_levels(v), v["window"].q_max, _every_z(v["window"]).u_max, _n_max(v)),
        exact=True),
    "points": Kind((Flag("levels", parse_matrix, True), Flag("points", parse_ints, True),
                    Flag("alt-points", parse_ints, True)),
                   lambda v: verify_points(v["levels"], v["window"], v["points"],
                                           v["alt-points"]), exact=True),
    # two closed evaluators do no linear algebra, so the pair is exact
    "custom": Kind((Flag("left", parse_json, True), Flag("right", parse_json, True)),
                   lambda v: verify_custom(v["left"], v["right"], v["window"], v["mode"]),
                   exact=lambda v: all(evaluator_kind(v[side]).exact
                                       for side in ("left", "right"))),
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


JOBS = Flag("jobs", parse_size)  # the worker count; 0 means 1
SCANS = {
    "mf": Kind((Flag("max-size", parse_size, True), JOBS),
               lambda v: scan_mf_cases(v["max-size"], v["window"], v["mode"])),
    "fusion": Kind((Flag("kmax", parse_size, True), JOBS),
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
    cases it has not started when the run ends.  Each run_cache lasts one
    call.  Only with jobs > 1 is `concurrent.futures` imported, so the
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
        clear_caches()
