"""Closed fermionic sum evaluators.

One enumerator, _lattice_terms, lists the terms of every closed sum

    z^z0 q^q0 sum over nonnegative integer vectors x
        z^(z_weights.x) u^(u_weights.x) q^(xGx/2 - sum_i G_ii x_i/2 + shifts.x)
        / (q)_x

on a truncation window, and _lattice_character adds them up into a
GradedCharacter, where (q)_x = prod_i (q)_{x_i} and (z0, q0) is the
origin, (0, 0) but in the limit route.  The lattice characters weight
every coordinate z^1 u^0.  The fermionic sums

    sum over n (and m) u^|m| (z/q)^(|n|+|m|)
        q^(nAn/2 + nBm + mAm/2 + linear terms) / ((q)_n (q)_m),

with |n| = n_1 + 2 n_2 + 3 n_3 + ... the weighted length, are the case
x = (n, m) with the block Gram matrix [[A, B], [B^T, A']] (_block): the
diagonal of A(k) is 2, 4, ..., 2k, so sum_i G_ii x_i / 2 is |n| + |m|.
Every entry of G and of the weights is nonnegative, so z, u and every
cross term never decrease as one coordinate grows.  A shift may be
negative: the exponent is then convex in each coordinate, falling first
and rising after.  Each node of the enumeration solves for the integer
range of its coordinate.  The least amount each later coordinate can add
on its own (low) bounds it; when a later shift is negative and G is
positive definite on the coordinates from the node on, so does the real
minimum of the remaining quadratic form (Fincke-Pohst), tested in
integers through the determinant and adjugate of the later block,
8 det (q - q_max) <= c^T adj c.  Elsewhere low alone bounds it, and with
nonnegative shifts low is zero and exact.

fusion_rule states the predicted (lambda, c, d) of the fused character
once: w_fusion_spec is its gmf sum, and verify builds its algebra.  The
limit evaluator (stabilized_limit) stabilizes a sequence of finite-level
sums, each the w_fusion_spec lattice sum reweighted (_level_terms).
character_L_fusion also re-derives every term exponent of the stabilized
level through the closed polynomial P, in integers on K times the
reconstructed rational indices, and evaluates the literal integer-lattice
form of the limit sum so callers can report how it compares.  P is written
once, as the integer coefficients of K P = K |s|^2 + lin(m).s + const(m)
with K = k1 + k2 (_limit_exponent), and all three read them:
limit_sum_polynomial divides K P by K in Fractions, the reconstruction
checks K^2 P on t = K s, and the literal form widens its box by shells in
integers, without enumerating the inner box again.  For fixed m, K P is a
separable convex quadratic in s, so each shell visits only the terms with
K P <= K q_max, which are all that it counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import namedtuple
from fractions import Fraction
from operator import add, mul

from .errors import ConfigurationError, ResourceLimitError, StabilizationError
from .gradedchar import (Comparison, GradedCharacter, Truncation, compare,
                         convolve, inv_pochhammer)
from .presented import InitialConditions, Partition, check_lattice, low_ranges

# ---------------------------------------------------------------------------
# matrices


def A_matrix(k: int) -> tuple:
    """k x k matrix with entries 2 min(i, j)."""
    if k < 0:
        raise ConfigurationError("size must be nonnegative")
    return tuple(tuple(2 * min(i, j) for j in range(1, k + 1)) for i in range(1, k + 1))


def B_matrix(lam: Partition) -> tuple:
    """lam0 x s matrix with entries max(0, i - lam_j)."""
    if lam.s < 1:
        raise ConfigurationError("B matrix needs at least two parts")
    return tuple(tuple(max(0, i - lam.parts[j]) for j in range(1, lam.s + 1))
                 for i in range(1, lam.lam0 + 1))


def gram_matrix_for_partition(lam: Partition) -> tuple:
    """Gram matrix on p_1..p_{lam0}, q_1..q_s: all diagonal entries 2,
    (p_i, q_j) = 1 exactly when lam_{j-1} >= i > lam_j.

    No command calls it; it stays here because the benchmark harness
    (perfbench/workloads.py) builds the fourth Gram matrix of its
    lattice-rank workload with it, as the criterion 5 test does."""
    n, s = lam.lam0, lam.s
    size = n + s
    rows = [[0] * size for _ in range(size)]
    for t in range(size):
        rows[t][t] = 2
    for i in range(1, n + 1):
        for j in range(1, s + 1):
            if lam.parts[j - 1] >= i > lam.parts[j]:
                rows[i - 1][n + j - 1] = 1
                rows[n + j - 1][i - 1] = 1
    return tuple(tuple(r) for r in rows)


def fusion_partition(k1: int, k2: int) -> Partition:
    """(k1+k2, k1+k2-2, ..., |k1-k2|), one part per 0..min(k1,k2)."""
    return Partition.make(tuple(k1 + k2 - 2 * j for j in range(min(k1, k2) + 1)))


def delta_vector(index: int, length: int) -> tuple[int, ...]:
    """1-based unit vector, or the zero vector when index > length."""
    if index < 1:
        raise ConfigurationError("index must be >= 1")
    return tuple(1 if t == index else 0 for t in range(1, length + 1))


# ---------------------------------------------------------------------------
# closed sums


class FermionicSumSpec(namedtuple("FermionicSumSpec", "a_n a_m b n_linear m_linear")):
    """a_n, a tuple: the quadratic form on n; a_m, a tuple: the quadratic
    form on m; b, a tuple: the coupling, n_len x m_len; n_linear, a tuple of
    ints: the extra exponent sum_i n_i * n_linear[i]; m_linear, a tuple of
    ints: its like on m."""

    __slots__ = ()

    @property
    def n_len(self) -> int:
        return len(self.a_n)

    @property
    def m_len(self) -> int:
        return len(self.a_m)


def gordon_spec(k: int) -> FermionicSumSpec:
    if k < 1:
        raise ConfigurationError("level must be >= 1")
    return mf_spec(Partition.make((k,)))


def mf_spec(lam: Partition) -> FermionicSumSpec:
    b = B_matrix(lam) if lam.s >= 1 else tuple(() for _ in range(lam.lam0))
    return FermionicSumSpec(A_matrix(lam.lam0), A_matrix(lam.s), b,
                            (0,) * lam.lam0, (0,) * lam.s)


def gmf_spec(lam: Partition, ic: InitialConditions) -> FermionicSumSpec:
    if len(ic.c) != lam.lam0 or len(ic.d) != lam.s:
        raise ConfigurationError(
            f"initial conditions must have lengths {lam.lam0} and {lam.s}")
    base = mf_spec(lam)
    return FermionicSumSpec(base.a_n, base.a_m, base.b,
                            low_ranges(ic.c), low_ranges(ic.d))


def _check_levels(i1, k1, i2, k2):
    if k1 < 1 or k2 < 1:
        raise ConfigurationError("levels must be >= 1")
    if not (0 <= i1 <= k1 and 0 <= i2 <= k2):
        raise ConfigurationError(f"need 0 <= i <= k, got ({i1},{k1}), ({i2},{k2})")


def fusion_rule(i1: int, k1: int, i2: int,
                k2: int) -> tuple[Partition, InitialConditions]:
    """The partition and initial conditions predicted for the fused principal
    subspaces W_{i1,k1} * W_{i2,k2}: lambda = (k1+k2, k1+k2-2, ..., |k1-k2|),
    c = delta_{i1+i2+1} and d = delta_{min(i1,i2)+1}.  Each part is
    symmetric in the two factors."""
    _check_levels(i1, k1, i2, k2)
    lam = fusion_partition(k1, k2)
    return lam, InitialConditions.make(delta_vector(i1 + i2 + 1, lam.lam0),
                                       delta_vector(min(i1, i2) + 1, lam.s))


def w_fusion_spec(i1: int, k1: int, i2: int, k2: int) -> FermionicSumSpec:
    """Closed sum for W_{i1,k1} * W_{i2,k2}: the gmf sum of fusion_rule."""
    return gmf_spec(*fusion_rule(i1, k1, i2, k2))


@functools.lru_cache(maxsize=None)
def _poch_product(counts: tuple, q_cap: int) -> tuple:
    series = (1,) + (0,) * q_cap
    for c in counts:
        series = convolve(series, inv_pochhammer(c, q_cap), q_cap)
    return series


def _term_series(x: tuple, q_cap: int) -> tuple:
    """1 / (q)_x up to q^q_cap."""
    return _poch_product(tuple(sorted(c for c in x if c)), q_cap)


def _add_series(coeffs: dict, z: int, u: int, q0: int, series) -> None:
    """Add series (coefficients of q^0, q^1, ...) to coeffs at (z, u, q0 + t)."""
    for t, cnt in enumerate(series):
        if cnt:
            key = (z, u, q0 + t)
            coeffs[key] = coeffs.get(key, 0) + cnt


def _quadratic_range(a, b, c) -> tuple[int, int]:
    """(lo, hi): the integers v with a v^2 + b v + c <= 0 are lo..hi, for
    a > 0; lo > hi when there are none."""
    d = b * b - 4 * a * c
    if d < 0:
        return 1, 0
    r = math.isqrt(d)
    return -((b + r) // (2 * a)), (r - b) // (2 * a)


@functools.lru_cache(maxsize=None)
def _suffix_forms(gram) -> tuple:
    """Per coordinate i, (D, M, w, det) when the block of gram on
    i, i+1, ... is positive definite, else None.  D and M are the
    determinant and adjugate of the block on i+1, ... (1 and the empty
    matrix for i the last), w = M r with r = gram[i][i+1:], and
    det = D G_ii - r.w is the determinant of the block on i, ...  The
    bordered block's adjugate is [[D, -w^T], [-w, (det M + w w^T) / D]]."""
    out = [None] * len(gram)
    d, adj = 1, ()
    for i in range(len(gram) - 1, -1, -1):
        r = gram[i][i + 1:]
        w = tuple(sum(map(mul, row, r)) for row in adj)
        det = d * gram[i][i] - sum(map(mul, r, w))
        if det <= 0:  # nor is any larger block positive definite
            break
        out[i] = (d, adj, w, det)
        adj = ((d,) + tuple(-x for x in w),) + tuple(
            (-wj,) + tuple((det * mjk + wj * wk) // d for mjk, wk in zip(row, w))
            for wj, row in zip(w, adj))
        d = det
    return tuple(out)


def _lattice_terms(gram, shifts, z_weights, u_weights, window,
                   origin=(0, 0)) -> list:
    """The terms (x, z, u, q) of the closed sum of the module docstring with
    G = gram and origin (z0, q0) whose (z, u, q) lies in window.

    Each node fixes x_0..x_{i-1} and solves for the integer range of x_i;
    the last coordinate adds its terms in a loop.  The node carries
    step_j = shifts_j + sum_{t<i} G_tj x_t for j >= i; with
    c_j = 2 step_j - G_jj, x_i = v adds q(v) - q = (c_i v + G_ii v^2) / 2
    to the exponent q.  The range is cut three ways:

    - low[i] is the least exponent that x_i, x_{i+1}, ... add on their
      own, each at its vertex (the first v with G_ii v + shifts_i >= 0);
      their cross terms only add, so x_i = v needs q(v) + low[i+1] <= q_max.
    - When low[i+1] < 0 and the block of G on i, i+1, ... is positive
      definite, the coordinates y after i add at least the real minimum
      -c^T G^-1 c / 8 of (y^T G y + c.y) / 2 (Fincke-Pohst).  In integers,
      with D and M the determinant and adjugate of the block on i+1, ...
      (_suffix_forms), x_i = v needs 8 D (q(v) - q_max) <= c(v)^T M c(v),
      where c(v) = c_{>i} + 2 v G_{i,>i}: a quadratic in v with leading
      coefficient 4 det > 0, det that of the block on i, ...  Where
      low[i+1] is 0 (every later shift nonnegative) low is exact and the
      bound is skipped; where the block is not positive definite low
      alone cuts.
    - z and u never decrease as one x_i grows (no entry of gram or the
      weights is negative), so x_i stops at their caps, and a node entered
      past a cap on a zero weight has no terms."""
    size = len(gram)
    if not size:
        return [((), origin[0], 0, origin[1])]
    q_max, z_cap, u_cap = window.q_max, window.z_max, window.u_max
    low = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        g, s = gram[i][i], shifts[i]
        v = max(0, -(s // g))
        low[i] = low[i + 1] + g * v * (v - 1) // 2 + s * v
    # low[1] < 0: some shift after the first is negative
    forms = _suffix_forms(gram) if low[1] else (None,) * size
    depths = [(gram[i][i], z_weights[i], u_weights[i], gram[i][i + 1:],
               forms[i] if low[i + 1] else None, 2 * (low[i + 1] - q_max))
              for i in range(size)]
    terms = []

    def rec(i, q, z, u, acc, step):
        g, zw, uw, row, form, slack = depths[i]
        ci = 2 * step[0] - g
        lo, hi = _quadratic_range(g, ci, 2 * q + slack)
        if lo < 0:
            lo = 0
        if form is not None:
            d, adj, w, det = form
            c = [2 * s - gram[j][j] for j, s in enumerate(step[1:], i + 1)]
            lo_b, hi_b = _quadratic_range(
                4 * det, 4 * (d * ci - sum(map(mul, w, c))),
                8 * d * (q - q_max) - sum(x * sum(map(mul, a, c)) for x, a in zip(c, adj)))
            lo, hi = max(lo, lo_b), min(hi, hi_b)
        if z_cap is not None:
            if zw:
                t = (z_cap - z) // zw
                if t < hi:
                    hi = t
            elif z > z_cap:
                return
        if u_cap is not None:
            if uw:
                t = (u_cap - u) // uw
                if t < hi:
                    hi = t
            elif u > u_cap:
                return
        if i == size - 1:
            for v in range(lo, hi + 1):
                terms.append((acc + (v,), z + zw * v, u + uw * v, q + v * (ci + g * v) // 2))
            return
        step = tuple(s + r * lo for s, r in zip(step[1:], row)) if lo else step[1:]
        for v in range(lo, hi + 1):
            rec(i + 1, q + v * (ci + g * v) // 2, z + zw * v, u + uw * v, acc + (v,), step)
            step = tuple(map(add, step, row))

    rec(0, origin[1], origin[0], 0, (), tuple(shifts))
    return terms


def _lattice_character(terms, window) -> GradedCharacter:
    """The sum of terms (x, z, u, q), each z^z u^u q^q / (q)_x, on window."""
    coeffs, q_max = {}, window.q_max
    for x, z, u, q in terms:
        _add_series(coeffs, z, u, q, _term_series(x, q_max - q))
    return GradedCharacter.make(coeffs, window)


def _block(spec: FermionicSumSpec) -> tuple:
    """(gram, shifts, z_weights, u_weights) of spec as a lattice sum over
    x = (n, m): Gram matrix [[a_n, b], [b^T, a_m]], z-weights
    (1..n_len, 1..m_len) and u-weights (0, ..., 0, 1..m_len)."""
    n_w, m_w = tuple(range(1, spec.n_len + 1)), tuple(range(1, spec.m_len + 1))
    gram = tuple(a + b for a, b in zip(spec.a_n, spec.b))
    gram += tuple(tuple(row[j] for row in spec.b) + spec.a_m[j] for j in range(spec.m_len))
    return gram, spec.n_linear + spec.m_linear, n_w + m_w, (0,) * spec.n_len + m_w


def evaluate_fermionic_sum(spec: FermionicSumSpec, window: Truncation) -> GradedCharacter:
    """The lattice sum of _block(spec) on window."""
    return _lattice_character(_lattice_terms(*_block(spec), window), window)


# ---------------------------------------------------------------------------
# named characters


def gordon_character(k: int, window: Truncation) -> GradedCharacter:
    return evaluate_fermionic_sum(gordon_spec(k), window)


def character_A_lambda(lam: Partition, window: Truncation) -> GradedCharacter:
    return evaluate_fermionic_sum(mf_spec(lam), window)


def character_A_lambda_cd(lam: Partition, ic: InitialConditions,
                          window: Truncation) -> GradedCharacter:
    return evaluate_fermionic_sum(gmf_spec(lam, ic), window)


def character_W_fusion(i1: int, k1: int, i2: int, k2: int,
                       window: Truncation) -> GradedCharacter:
    return evaluate_fermionic_sum(w_fusion_spec(i1, k1, i2, k2), window)


# ---------------------------------------------------------------------------
# lattice principal characters


class LatticeSpec(namedtuple("LatticeSpec", "gram shifts")):
    """gram, a tuple of rows; shifts, a tuple of ints."""

    __slots__ = ()

    @staticmethod
    def make(gram, shifts) -> LatticeSpec:
        gram, shifts = check_lattice(gram, shifts)
        if any(x < 0 for row in gram for x in row):
            raise ConfigurationError("enumeration assumes nonnegative entries")
        return LatticeSpec(gram, shifts)


def lattice_principal_character(spec: LatticeSpec, window: Truncation) -> GradedCharacter:
    """sum over n >= 0 of z^(n_1+...+n_N) q^(nMn/2 + sum n_i (v_i - m_ii/2)) / (q)_n.

    The z-grading counts generators (each has z-degree 1); u is not used.
    """
    size = len(spec.gram)
    terms = _lattice_terms(spec.gram, spec.shifts, (1,) * size, (0,) * size, window)
    return _lattice_character(terms, window)


# ---------------------------------------------------------------------------
# limit characters


class LimitFusionResult(namedtuple(
        "LimitFusionResult", "character stabilized_at reconstructed_match reconstructed_detail"
        " literal_comparison literal_fractional_terms seconds")):
    """character, a GradedCharacter; stabilized_at, an int: the first level
    whose window character equals the next; reconstructed_match, a bool;
    reconstructed_detail, a str or None; literal_comparison, a Comparison;
    literal_fractional_terms, an int; seconds, a tuple[float, float, float]:
    the limit, reconstruction and literal routes."""

    __slots__ = ()


def _level_terms(i1, k1, i2, k2, level, window) -> list:
    """The terms (x, z, u, q), x = (n, m), of the level-`level` sum on window:
    the w_fusion_spec lattice sum reweighted by z -> 2z - i1 - i2 - 2 level K
    and q -> q - 2 level z + level^2 K + level (i1 + i2), K = k1 + k2.

    The level sum's exponent is level^2 K + level (i1 + i2) + sum f(N_i)
    + sum f(M_j) + coupling + linear, with N_i = n_i + n_{i+1} + ... and
    f(N) = N^2 - (2 level + 1) N = (N^2 - N) - 2 level N, and a
    w_fusion_spec term has z = sum N_i + sum M_j.
    """
    gram, shifts, z_w, u_w = _block(w_fusion_spec(i1, k1, i2, k2))
    big = k1 + k2
    return _lattice_terms(gram, tuple(s - 2 * level * w for s, w in zip(shifts, z_w)),
                          tuple(2 * w for w in z_w), u_w, window,
                          (-i1 - i2 - 2 * level * big, level * level * big + level * (i1 + i2)))


def _limit_exponent(i1, k1, i2, k2, m):
    """(|m|, const, lin): the closed exponent P(s, m) of the limit sum as

        K P(s, m) = K |s|^2 + sum_i lin_i s_i + const,    K = k1 + k2,

    with lin_i = K sum_{j: i+2j >= K+1} m_j - 2|m| - K [i <= i1 + i2] and
    m of min(k1, k2) entries.  const and lin are integers for integer m.
    This is the one hand-written statement of P.
    """
    big, mn = k1 + k2, min(i1, i2)
    wm = sum(j * x for j, x in enumerate(m, 1))
    const = big * (sum(min(i, j) * a * b for i, a in enumerate(m, 1) for j, b in enumerate(m, 1))
                   + sum((j - mn) * x for j, x in enumerate(m, 1) if j > mn))
    const -= wm * (wm + big - i1 - i2)
    lin = tuple(big * sum(x for j, x in enumerate(m, 1) if i + 2 * j >= big + 1)
                - 2 * wm - big * (i <= i1 + i2) for i in range(1, big + 1))
    return wm, const, lin


def limit_sum_polynomial(s, m, i1, k1, i2, k2):
    """The closed exponent P(s, m) of the limit sum; s may be rational."""
    big = k1 + k2
    _, const, lin = _limit_exponent(i1, k1, i2, k2, m)
    return Fraction(big * sum(x * x for x in s) + sum(map(mul, lin, s)) + const, big)


def _reconstruction_check(i1, k1, i2, k2, level, terms):
    """Re-derive each term's (z, q) through P on the reconstructed rational
    indices s_i = N_i - level + |m|/K; returns (ok, detail).  In integers on
    t = K s: 2 sum(t) = K (z + i1 + i2) and K^2 P = |t|^2 + lin.t + K const
    = K^2 q.  Only a mismatch's detail goes through the Fraction form.
    P's coefficients are computed once per distinct m."""
    big = k1 + k2
    exponents = {}
    for x, z0, u0, q0 in terms:
        n, m = x[:big], x[big:]
        t = tuple(big * (sum(n[i:]) - level) + u0 for i in range(big))
        if m not in exponents:
            exponents[m] = _limit_exponent(i1, k1, i2, k2, m)
        _, const, lin = exponents[m]
        if (2 * sum(t) != big * (z0 + i1 + i2)
                or sum(v * v for v in t) + sum(map(mul, lin, t)) + big * const
                != big * big * q0):
            s = tuple(Fraction(v, big) for v in t)
            z_p = -i1 - i2 + 2 * sum(s)
            q_p = limit_sum_polynomial(s, m, i1, k1, i2, k2)
            return False, (f"term n={n} m={m} at level {level}: "
                           f"direct (z,q)=({z0},{q0}), closed form ({z_p},{q_p})")
    return True, None


def _literal_shell(i1, k1, i2, k2, q_max, u_max, old, cap, rows) -> tuple[int, int]:
    """Add the literal limit sum's terms with old < max(|s_i|, m_j) <= cap
    to rows, where rows[(z, u)][q] holds the series before the division by
    (q)_infinity; old = -1 takes the whole box.  Returns the number of
    integral terms added and the number of fractional terms seen, both
    among the terms with K P <= K q_max, the only ones visited: for fixed
    m, K P = const + sum_i f_i(s_i) with the convex f_i(x) = K x^2 + b x,
    b = lin_i (_limit_exponent).  low[i] is the least that s_i, s_{i+1},
    ... add, each at the minimum of its f over its range in the box, so
    s_i runs over the interval |2 K s_i + b| <= r where the exponent so
    far plus f_i(s_i) plus low[i+1] stays within K q_max.
    """
    big = k1 + k2
    floor = (0,) * (big - 1) + (-cap,)  # s_1 >= ... >= s_{K-1} >= 0, s_K >= -cap
    kept = fractional = 0
    for m in itertools.product(range(cap + 1), repeat=min(k1, k2)):
        wm, const, lin = _limit_exponent(i1, k1, i2, k2, m)
        if u_max is not None and wm > u_max:
            continue
        low = [0] * (big + 1)
        for i in range(big - 1, -1, -1):
            v = min(max((big - lin[i]) // (2 * big), floor[i]), cap)
            low[i] = low[i + 1] + big * v * v + lin[i] * v
        # (s_1..s_i, const + f_1(s_1) + ... + f_i(s_i)); low keeps r real
        stack = [((), const)] if const + low[0] <= big * q_max else []
        while stack:
            s, kp = stack.pop()
            i = len(s)
            if i < big:
                b = lin[i]
                r = math.isqrt(b * b + 4 * big * (big * q_max - kp - low[i + 1]))
                hi = min(s[-1] if s else cap, (r - b) // (2 * big))
                if i == big - 1 and max(s[0], *m) <= old:
                    hi = min(hi, -old - 1)  # the shell rule: s_K < -old
                stack.extend((s + (x,), kp + big * x * x + b * x)
                             for x in range(max(floor[i], -((r + b) // (2 * big))), hi + 1))
                continue
            p, rem = divmod(kp, big)
            if rem:
                fractional += 1
                continue
            kept += 1
            row = rows.setdefault((2 * sum(s) - i1 - i2, wm), [0] * (q_max + 1))
            for t, cnt in enumerate(_term_series(s[:-1] + m, q_max - p), p):
                row[t] += cnt
    return kept, fractional


def _literal_limit_character(i1, k1, i2, k2, q_max, u_max) -> tuple[GradedCharacter, int]:
    """The closed limit sum read literally: s over the integer lattice with
    s_1 >= ... >= s_K, denominators (q)_m prod_{i<K} (q)_{s_i}, prefactor
    1/(q)_infinity, and the u^|m| weight carried over from the finite-level
    sum.  Terms with 1/(q)_{negative} are dropped (that factor is zero);
    terms whose exponent is not an integer cannot contribute to an integer
    q-grading and are counted separately.

    The exponent is evaluated as the integer K P with K = k1 + k2, and only
    at the terms with K P <= K q_max (_literal_shell).  The box
    max(|s_i|, m_j) <= cap starts at cap = q_max + 4 and widens by shells of
    3 until a shell adds no integral term: every such term adds at least 1
    at its own (z, u, q), so that is when the character stops changing.
    The fractional count is over the final box.  Each (z, u) row is divided
    by (q)_infinity once, at the end.
    """
    rows: dict = {}
    cap = q_max + 4
    _, fractional = _literal_shell(i1, k1, i2, k2, q_max, u_max, -1, cap, rows)
    for _ in range(6):
        kept, shell_fractional = _literal_shell(i1, k1, i2, k2, q_max, u_max,
                                                cap, cap + 3, rows)
        cap += 3
        fractional += shell_fractional
        if not kept:
            break
    else:
        raise ResourceLimitError("literal limit sum did not exhaust its window")
    euler = inv_pochhammer(None, q_max)
    coeffs: dict = {}
    for (z, u), row in rows.items():
        _add_series(coeffs, z, u, 0, convolve(row, euler, q_max))
    return GradedCharacter.make(coeffs, Truncation(q_max, None, u_max)), fractional


# the default n_max: the highest level that may start an agreeing pair
N_MAX = 8


def stabilized_limit(i1: int, k1: int, i2: int, k2: int, q_max: int,
                     u_max: int | None = None, n_max: int = N_MAX) -> tuple:
    """(character, level, terms): the limit character of the fused level-k1
    and level-k2 modules.  Evaluates the reweighted finite-level sums for level = 1, 2, ... until
    two consecutive levels agree on the whole window (q <= q_max, optional
    u cap, z unbounded); level is the second of the agreeing pair, and
    terms are its _level_terms.  Raises StabilizationError when the first
    of the pair would exceed n_max.
    """
    _check_levels(i1, k1, i2, k2)
    window = Truncation(q_max, None, u_max)
    prev = None
    for level in range(1, n_max + 2):
        terms = _level_terms(i1, k1, i2, k2, level, window)
        cur = _lattice_character(terms, window)
        if prev is not None and compare(prev, cur).verdict == "EQUAL":
            return cur, level, terms
        prev = cur
    raise StabilizationError(
        f"no stabilization for ({i1},{k1})*({i2},{k2}) on q<={q_max} "
        f"within {n_max} levels")


def character_L_fusion(i1: int, k1: int, i2: int, k2: int, q_max: int,
                       u_max: int | None = None, n_max: int = N_MAX) -> LimitFusionResult:
    """stabilized_limit, the reconstruction of its terms and the literal
    route; stabilized_at is the first level of the agreeing pair."""
    t0 = time.monotonic()
    cur, matched, terms = stabilized_limit(i1, k1, i2, k2, q_max, u_max, n_max)
    t1 = time.monotonic()
    ok, detail = _reconstruction_check(i1, k1, i2, k2, matched, terms)
    t2 = time.monotonic()
    literal, fractional = _literal_limit_character(i1, k1, i2, k2, q_max, u_max)
    literal_cmp = compare(cur, literal)
    return LimitFusionResult(cur, matched - 1, ok, detail, literal_cmp, fractional,
                             (t1 - t0, t2 - t1, time.monotonic() - t2))
