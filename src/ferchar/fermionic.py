"""Closed fermionic sum evaluators.

Every evaluator here expands a sum of the shape

    sum over nonnegative integer vectors n (and m)
        u^|m| (z/q)^(|n|+|m|) q^(nAn/2 + nBm + mAm/2 + linear terms)
        / ((q)_n (q)_m)

into a truncated GradedCharacter, where |n| = n_1 + 2 n_2 + 3 n_3 + ...
is the weighted length and (q)_n = prod_i (q)_{n_i}.  Writing N_i for the
partial sums n_i + n_{i+1} + ..., the quadratic-minus-prefactor part is
sum_i N_i (N_i - 1) >= 0, which drives all enumeration bounds.

The limit evaluator (character_L_fusion) stabilizes a sequence of
reweighted finite-level sums, re-derives every term exponent of the
stabilized level through the closed polynomial P on exactly reconstructed
rational indices (limit_sum_polynomial, in Fraction arithmetic), and also
evaluates the literal integer-lattice form of the limit sum so callers
can report how it compares.  The literal form works on K P with
K = k1 + k2 in integers, widens its box by shells without enumerating
the inner box again, and counts literal_fractional_terms over the final
box.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

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
    (p_i, q_j) = 1 exactly when lam_{j-1} >= i > lam_j."""
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
# generic double sum


@dataclass(frozen=True)
class FermionicSumSpec:
    a_n: tuple  # quadratic form on n
    a_m: tuple  # quadratic form on m
    b: tuple  # coupling, n_len x m_len
    n_linear: tuple[int, ...]  # extra exponent sum_i n_i * n_linear[i]
    m_linear: tuple[int, ...]

    @property
    def n_len(self) -> int:
        return len(self.a_n)

    @property
    def m_len(self) -> int:
        return len(self.a_m)


def gordon_spec(k: int) -> FermionicSumSpec:
    if k < 1:
        raise ConfigurationError("level must be >= 1")
    return FermionicSumSpec(A_matrix(k), (), tuple(() for _ in range(k)),
                            (0,) * k, ())


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


def w_fusion_spec(i1: int, k1: int, i2: int, k2: int) -> FermionicSumSpec:
    """Closed sum for the fused principal subspaces W_{i1,k1} * W_{i2,k2},
    built directly: n runs over Z^{k1+k2}, m over Z^{min(k1,k2)},
    B_{ij} = max(0, i - k1 - k2 + 2j), linear terms (j - i1 - i2) n_j for
    j > i1 + i2 and (j - min(i1,i2)) m_j for j > min(i1,i2)."""
    _check_levels(i1, k1, i2, k2)
    if k1 > k2:
        (i1, k1), (i2, k2) = (i2, k2), (i1, k1)
    big, small = k1 + k2, k1
    b = tuple(tuple(max(0, i - (big - 2 * j)) for j in range(1, small + 1))
              for i in range(1, big + 1))
    n_lin = tuple(max(0, j - i1 - i2) for j in range(1, big + 1))
    mn = min(i1, i2)
    m_lin = tuple(max(0, j - mn) for j in range(1, small + 1))
    return FermionicSumSpec(A_matrix(big), A_matrix(small), b, n_lin, m_lin)


def _monotone_partial_sums(length: int, q_max: int, z_cap: int | None):
    """Weakly decreasing nonnegative tuples (N_1 >= ... >= N_len) with
    sum N_i (N_i - 1) <= q_max and, if given, sum N_i <= z_cap."""
    out: list[tuple] = []

    def rec(i, hi, qacc, zacc, acc):
        if i == length:
            out.append(tuple(acc))
            return
        for v in range(hi + 1):
            q2 = qacc + v * (v - 1)
            if q2 > q_max:
                break
            if z_cap is not None and zacc + v > z_cap:
                break
            rec(i + 1, v, q2, zacc + v, acc + [v])

    cap = (1 + math.isqrt(1 + 4 * q_max)) // 2
    if z_cap is not None:
        cap = min(cap, z_cap)
    rec(0, cap, 0, 0, [])
    return out


def _diffs(partial: tuple) -> tuple:
    ext = partial + (0,)
    return tuple(ext[i] - ext[i + 1] for i in range(len(partial)))


@functools.lru_cache(maxsize=None)
def _poch_product(counts: tuple, q_cap: int) -> tuple:
    series = (1,) + (0,) * q_cap
    for c in counts:
        series = convolve(series, inv_pochhammer(c, q_cap), q_cap)
    return series


def _term_series(n: tuple, m: tuple, q_cap: int) -> tuple:
    counts = tuple(sorted(c for c in n + m if c))
    return _poch_product(counts, q_cap)


def _coupling(b: tuple, n: tuple, m: tuple) -> int:
    """The coupling exponent: the sum over i, j of n_i b_ij m_j."""
    return sum(ni * sum(bij * mj for bij, mj in zip(b[i], m) if mj)
               for i, ni in enumerate(n) if ni)


def _add_series(coeffs: dict, z: int, u: int, q0: int, series) -> None:
    """Add series (coefficients of q^0, q^1, ...) to coeffs at (z, u, q0 + t)."""
    for t, cnt in enumerate(series):
        if cnt:
            key = (z, u, q0 + t)
            coeffs[key] = coeffs.get(key, 0) + cnt


def evaluate_fermionic_sum(spec: FermionicSumSpec, window: Truncation) -> GradedCharacter:
    q_max = window.q_max
    z_cap = window.z_max
    m_cap = z_cap
    if window.u_max is not None:
        m_cap = window.u_max if m_cap is None else min(m_cap, window.u_max)
    n_cands = _monotone_partial_sums(spec.n_len, q_max, z_cap)
    m_cands = _monotone_partial_sums(spec.m_len, q_max, m_cap)
    coeffs: dict = {}
    for npart in n_cands:
        wn = sum(npart)
        n = _diffs(npart)
        qn = sum(v * (v - 1) for v in npart) + sum(a * b for a, b in zip(n, spec.n_linear))
        if qn > q_max:
            continue
        for mpart in m_cands:
            wm = sum(mpart)
            if z_cap is not None and wn + wm > z_cap:
                continue
            m = _diffs(mpart)
            q0 = qn + sum(v * (v - 1) for v in mpart)
            q0 += sum(a * b for a, b in zip(m, spec.m_linear)) + _coupling(spec.b, n, m)
            if q0 > q_max:
                continue
            _add_series(coeffs, wn + wm, wm, q0, _term_series(n, m, q_max - q0))
    return GradedCharacter.make(coeffs, window)


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


@dataclass(frozen=True)
class LatticeSpec:
    gram: tuple
    shifts: tuple[int, ...]

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
    gram, shifts = spec.gram, spec.shifts
    size = len(gram)
    q_max, z_cap = window.q_max, window.z_max
    coeffs: dict = {}

    def rec(i, qacc, zacc, acc):
        if i == size:
            _add_series(coeffs, zacc, 0, qacc, _term_series(tuple(acc), (), q_max - qacc))
            return
        v = 0
        while True:
            q2 = qacc + gram[i][i] * v * (v - 1) // 2 + v * shifts[i]
            q2 += v * sum(gram[t][i] * acc[t] for t in range(i))
            if q2 > q_max:
                break
            if z_cap is not None and zacc + v > z_cap:
                break
            rec(i + 1, q2, zacc + v, acc + [v])
            v += 1

    rec(0, 0, 0, [])
    return GradedCharacter.make(coeffs, window)


# ---------------------------------------------------------------------------
# limit characters


@dataclass(frozen=True)
class LimitFusionResult:
    character: GradedCharacter
    stabilized_at: int  # first level whose window character equals the next
    reconstructed_match: bool
    reconstructed_detail: str | None
    literal_comparison: Comparison
    literal_fractional_terms: int
    seconds: tuple[float, float, float]  # limit, reconstruction, literal routes


def _finite_level_terms(i1, k1, i2, k2, level, q_max, u_max) -> list:
    """Terms of the level-`level` reweighted fused-character sum.

    Returns (n_partial, n, m, z_exp, u_exp, q_exp) with q_exp <= q_max.
    The exponent is base + sum f(N_i) + sum f(M_j) + coupling + linear with
    f(x) = x^2 - (2*level+1)*x and base = level^2(k1+k2) + level(i1+i2);
    coupling and linear parts are nonnegative, and f >= -level*(level+1),
    which gives the per-coordinate cap and prefix pruning below.
    """
    spec = w_fusion_spec(i1, k1, i2, k2)
    big, small = spec.n_len, spec.m_len
    base = level * level * big + level * (i1 + i2)
    f_min = -level * (level + 1)
    disc = (2 * level + 1) ** 2 + 4 * (q_max - base - (big + small - 1) * f_min)
    if disc < 0:
        return []
    cap = ((2 * level + 1) + math.isqrt(disc)) // 2

    def f(x):
        return x * x - (2 * level + 1) * x

    def vectors(length, others_min):
        out = []

        def rec(i, hi, facc, acc):
            if i == length:
                out.append((tuple(acc), facc))
                return
            for v in range(hi + 1):
                f2 = facc + f(v)
                rest = (length - 1 - i) * f_min + others_min
                if f2 + rest + base > q_max and v > level:
                    break
                if f2 + rest + base <= q_max:
                    rec(i + 1, v, f2, acc + [v])

        rec(0, cap, 0, [])
        return out

    # per m: (m, |m|, its exponent part with the base, the vector B m)
    m_side = []
    for mpart, fm in vectors(small, big * f_min):
        wm = sum(mpart)
        if u_max is not None and wm > u_max:
            continue
        m = _diffs(mpart)
        m_side.append((m, wm, base + fm + sum(map(mul, m, spec.m_linear)),
                       tuple(sum(map(mul, row, m)) for row in spec.b)))
    terms = []
    for npart, fn in vectors(big, small * f_min):
        n = _diffs(npart)
        qn = fn + sum(map(mul, n, spec.n_linear))
        zn = 2 * sum(npart) - i1 - i2 - 2 * level * big
        for m, wm, qm, bm in m_side:
            q0 = qn + qm + sum(map(mul, n, bm))
            if q0 <= q_max:
                terms.append((npart, n, m, zn + 2 * wm, wm, q0))
    return terms


def _finite_level_character(terms, q_max, u_max) -> GradedCharacter:
    coeffs: dict = {}
    for _, n, m, z0, u0, q0 in terms:
        _add_series(coeffs, z0, u0, q0, _term_series(n, m, q_max - q0))
    return GradedCharacter.make(coeffs, Truncation(q_max, None, u_max))


def limit_sum_polynomial(s, m, i1, k1, i2, k2):
    """The closed exponent P(s, m) of the limit sum; s may be rational."""
    if k1 > k2:
        (i1, k1), (i2, k2) = (i2, k2), (i1, k1)
    big, mn = k1 + k2, min(i1, i2)
    wm = sum((j + 1) * m[j] for j in range(len(m)))
    mu = Fraction(wm, big)
    total = sum(x * x for x in s)
    total -= mu * (wm + big - i1 - i2 + 2 * sum(s))
    total += sum(m[j - 1] * s[i - 1]
                 for i in range(1, big + 1) for j in range(1, k1 + 1)
                 if i + 2 * j >= big + 1)
    amat = A_matrix(k1)
    total += Fraction(sum(amat[i][j] * m[i] * m[j]
                          for i in range(k1) for j in range(k1)), 2)
    total -= sum(s[i] for i in range(i1 + i2))
    total += sum((j - mn) * m[j - 1] for j in range(mn + 1, k1 + 1))
    return total


def _reconstruction_check(i1, k1, i2, k2, level, terms):
    """Re-derive each term's (z, q) through P on reconstructed rational
    indices s_i = N_i - level + |m|/(k1+k2); returns (ok, detail)."""
    big = k1 + k2
    for npart, n, m, z0, u0, q0 in terms:
        mu = Fraction(u0, big)
        s = tuple(Fraction(v) - level + mu for v in npart)
        z_p = -i1 - i2 + 2 * sum(s)
        q_p = limit_sum_polynomial(s, m, i1, k1, i2, k2)
        if z_p != z0 or q_p != q0:
            return False, (f"term n={n} m={m} at level {level}: "
                           f"direct (z,q)=({z0},{q0}), closed form ({z_p},{q_p})")
    return True, None


def _scaled_limit_polynomial(i1, k1, i2, k2):
    """Split K P(s, m), K = k1 + k2, into integer parts for integer s, m:

        K P(s, m) = s_part(s) + const + sum_i s_i coef_i,
        (|m|, const, coef) = m_part(m),

    with the coupling coefficient coef_i = K sum_{j: i+2j >= K+1} m_j - 2|m|.
    Returns (K, the smaller level, s_part, m_part); m has that many entries.
    """
    if k1 > k2:
        (i1, k1), (i2, k2) = (i2, k2), (i1, k1)
    big, mn = k1 + k2, min(i1, i2)
    amat = A_matrix(k1)

    def s_part(s):
        return big * (sum(x * x for x in s) - sum(s[:i1 + i2]))

    def m_part(m):
        wm = sum((j + 1) * x for j, x in enumerate(m))
        const = big * (sum(amat[i][j] * m[i] * m[j]
                           for i in range(k1) for j in range(k1)) // 2
                       + sum((j - mn) * m[j - 1] for j in range(mn + 1, k1 + 1)))
        const -= wm * (wm + big - i1 - i2)
        coef = tuple(big * sum(m[j - 1] for j in range(1, k1 + 1) if i + 2 * j >= big + 1)
                     - 2 * wm for i in range(1, big + 1))
        return wm, const, coef

    return big, k1, s_part, m_part


def _literal_shell(i1, k1, i2, k2, q_max, u_max, old, cap, rows) -> tuple[int, int]:
    """Add the literal limit sum's terms with old < max(|s_i|, m_j) <= cap
    to rows, where rows[(z, u)][q] holds the series before the division by
    (q)_infinity; old = -1 takes the whole box.  Returns the number of
    integral terms added and the number of fractional terms seen.
    """
    big, small, s_part, m_part = _scaled_limit_polynomial(i1, k1, i2, k2)
    k_q = big * q_max
    all_m, new_m = [], []
    for m in itertools.product(range(cap + 1), repeat=small):
        wm, const, coef = m_part(m)
        if u_max is None or wm <= u_max:
            all_m.append((m, wm, const, coef))
            if max(m) > old:
                new_m.append(all_m[-1])
    kept = fractional = 0
    # s_1 >= ... >= s_{K-1} >= 0 (the head) and s_{K-1} >= s_K >= -cap
    for head in itertools.combinations_with_replacement(range(cap, -1, -1), big - 1):
        for tail in range(-cap, head[-1] + 1):
            m_terms = all_m if max(head[0], -tail) > old else new_m
            if not m_terms:
                continue
            s = head + (tail,)
            s_k = s_part(s)
            z = 2 * sum(s) - i1 - i2
            for m, wm, const, coef in m_terms:
                kp = s_k + const + sum(map(mul, s, coef))
                if kp > k_q:
                    continue
                p, rem = divmod(kp, big)
                if rem:
                    fractional += 1
                    continue
                kept += 1
                row = rows.get((z, wm))
                if row is None:
                    row = rows[(z, wm)] = [0] * (q_max + 1)
                for t, cnt in enumerate(_term_series(head, m, q_max - p), p):
                    row[t] += cnt
    return kept, fractional


def _literal_limit_character(i1, k1, i2, k2, q_max, u_max) -> tuple[GradedCharacter, int]:
    """The closed limit sum read literally: s over the integer lattice with
    s_1 >= ... >= s_K, denominators (q)_m prod_{i<K} (q)_{s_i}, prefactor
    1/(q)_infinity, and the u^|m| weight carried over from the finite-level
    sum.  Terms with 1/(q)_{negative} are dropped (that factor is zero);
    terms whose exponent is not an integer cannot contribute to an integer
    q-grading and are counted separately.

    The exponent is evaluated as the integer K P with K = k1 + k2.  The box
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


def character_L_fusion(i1: int, k1: int, i2: int, k2: int, q_max: int,
                       u_max: int | None = None, n_max: int = 8) -> LimitFusionResult:
    """Stabilized limit character of the fused level-k1 and level-k2 modules.

    Evaluates the reweighted finite-level sums for level = 1, 2, ... until
    two consecutive levels agree on the whole window (q <= q_max, optional
    u cap, z unbounded); stabilized_at is the first level of the agreeing
    pair.  Raises StabilizationError when stabilized_at would exceed n_max.
    """
    _check_levels(i1, k1, i2, k2)
    t0 = time.monotonic()
    prev = None
    matched = None
    for level in range(1, n_max + 2):
        terms = _finite_level_terms(i1, k1, i2, k2, level, q_max, u_max)
        cur = _finite_level_character(terms, q_max, u_max)
        if prev is not None and compare(prev, cur).verdict == "EQUAL":
            matched = level
            break
        prev = cur
    if matched is None:
        raise StabilizationError(
            f"no stabilization for ({i1},{k1})*({i2},{k2}) on q<={q_max} "
            f"within {n_max} levels")
    t1 = time.monotonic()
    ok, detail = _reconstruction_check(i1, k1, i2, k2, matched, terms)
    t2 = time.monotonic()
    literal, fractional = _literal_limit_character(i1, k1, i2, k2, q_max, u_max)
    literal_cmp = compare(cur, literal)
    return LimitFusionResult(cur, matched - 1, ok, detail, literal_cmp, fractional,
                             (t1 - t0, t2 - t1, time.monotonic() - t2))
