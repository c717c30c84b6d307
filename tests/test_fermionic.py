from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies

from ferchar import fermionic
from ferchar.errors import ConfigurationError, StabilizationError
from ferchar.fermionic import (A_matrix, B_matrix, LatticeSpec, _add_series, _check_levels,
                               _lattice_terms, _level_terms,
                               _limit_exponent, _literal_limit_character,
                               _literal_shell, _reconstruction_check,
                               _term_series, character_A_lambda,
                               character_A_lambda_cd, character_L_fusion,
                               character_W_fusion, delta_vector,
                               evaluate_fermionic_sum, fusion_partition,
                               fusion_rule, gmf_spec, gordon_character,
                               gordon_spec,
                               gram_matrix_for_partition,
                               lattice_principal_character,
                               limit_sum_polynomial, mf_spec, stabilized_limit,
                               w_fusion_spec)
from ferchar.gradedchar import (GradedCharacter, Truncation, compare, convolve,
                                inv_pochhammer)
from ferchar.presented import (InitialConditions, Partition, build_presentation_A,
                               build_presentation_quadratic)


def test_A_matrix():
    assert A_matrix(3) == ((2, 2, 2), (2, 4, 4), (2, 4, 6))
    assert A_matrix(0) == ()
    with pytest.raises(ConfigurationError):
        A_matrix(-1)


def test_B_matrix():
    lam = Partition.make((4, 2))
    assert B_matrix(lam) == ((0,), (0,), (1,), (2,))
    with pytest.raises(ConfigurationError):
        B_matrix(Partition.make((3,)))


def test_gram_matrix_for_partition():
    assert gram_matrix_for_partition(Partition.make((2, 1))) == \
        ((2, 0, 0), (0, 2, 1), (0, 1, 2))


def test_fusion_partition():
    assert fusion_partition(1, 2).parts == (3, 1)
    assert fusion_partition(2, 2).parts == (4, 2, 0)
    assert fusion_partition(3, 1).parts == (4, 2)


def test_delta_vector():
    assert delta_vector(1, 3) == (1, 0, 0)
    assert delta_vector(3, 3) == (0, 0, 1)
    assert delta_vector(2, 1) == (0,)  # index past the end: zero vector
    with pytest.raises(ConfigurationError):
        delta_vector(0, 3)


def test_gordon_character_frozen():
    c = gordon_character(1, Truncation(3, 2, 0))
    assert c.coeffs == {(0, 0, 0): 1, (1, 0, 0): 1, (1, 0, 1): 1,
                        (1, 0, 2): 1, (1, 0, 3): 1, (2, 0, 2): 1, (2, 0, 3): 1}
    with pytest.raises(ConfigurationError):
        gordon_character(0, Truncation(3, 2, 0))


def test_characters_respect_window():
    w = Truncation(4, 3, 1)
    for c in (gordon_character(2, w),
              character_A_lambda(Partition.make((2, 1)), w),
              character_W_fusion(1, 1, 0, 2, w)):
        assert all(w.contains(k) for k in c.coeffs)
        assert c.truncation == w


def test_mf_character_u_slice():
    c = character_A_lambda(Partition.make((1, 1)), Truncation(4, 1, 1))
    assert [c.get(1, 1, q) for q in range(5)] == [1, 1, 1, 1, 1]


def test_gmf_needs_matching_lengths():
    lam = Partition.make((2, 1))
    with pytest.raises(ConfigurationError):
        character_A_lambda_cd(lam, InitialConditions.make((1,), ()),
                              Truncation(3, 3, 3))


def test_w_fusion_is_symmetric_in_the_factors():
    w = Truncation(4, 3, 2)
    a = character_W_fusion(1, 2, 0, 1, w)
    b = character_W_fusion(0, 1, 1, 2, w)
    assert a.coeffs == b.coeffs


def test_w_fusion_validates_levels():
    w = Truncation(3, 3, 3)
    with pytest.raises(ConfigurationError):
        character_W_fusion(2, 1, 0, 1, w)
    with pytest.raises(ConfigurationError):
        character_W_fusion(0, 0, 0, 1, w)


# ---------------------------------------------------------------------------
# the spec builders, the fusion rule and the limit exponent against the
# forms that stated them on their own: the paper's (A, A', B, linear) form
# of each fermionic sum, the predicted algebra and P in Fraction arithmetic


# the paper's form of a fermionic sum over (n, m): the quadratic forms on n
# and on m, the coupling b (len(a_n) x len(a_m)) and the linear terms
PaperForm = namedtuple("PaperForm", "a_n a_m b n_linear m_linear")


def block(form: PaperForm) -> tuple:
    """(gram, shifts, z_weights, u_weights) of form as a lattice sum over
    x = (n, m): Gram matrix [[a_n, b], [b^T, a_m]], z-weights (1..len(n),
    1..len(m)) and u-weights (0, ..., 0, 1..len(m))."""
    n_len, m_len = len(form.a_n), len(form.a_m)
    gram = tuple(a + b for a, b in zip(form.a_n, form.b))
    gram += tuple(tuple(row[j] for row in form.b) + form.a_m[j] for j in range(m_len))
    n_w, m_w = tuple(range(1, n_len + 1)), tuple(range(1, m_len + 1))
    return gram, form.n_linear + form.m_linear, n_w + m_w, (0,) * n_len + m_w


def paper_form(parts, c, d) -> PaperForm:
    """The gmf sum of (lambda, c, d) in the paper's form: A(lambda_0) and
    A(s), B_ij = max(0, i - lambda_j), and the linear terms
    sum_{t <= i} (i - t + 1) c_t on n_i and their like of d on m_j."""
    def linear(values):
        return tuple(sum((i - t) * values[t] for t in range(i))
                     for i in range(1, len(values) + 1))

    s = len(parts) - 1
    b = tuple(tuple(max(0, i - parts[j]) for j in range(1, s + 1))
              for i in range(1, parts[0] + 1))
    return PaperForm(A_matrix(parts[0]), A_matrix(s), b, linear(c), linear(d))


def reference_w_fusion_spec(i1: int, k1: int, i2: int, k2: int) -> PaperForm:
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
    return PaperForm(A_matrix(big), A_matrix(small), b, n_lin, m_lin)


def reference_fusion_presentation(i1: int, k1: int, i2: int, k2: int):
    """The series presentation predicted for W_{i1,k1} * W_{i2,k2}."""
    if k1 > k2:
        (i1, k1), (i2, k2) = (i2, k2), (i1, k1)
    lam = fermionic.fusion_partition(k1, k2)
    ic = InitialConditions.make(
        fermionic.delta_vector(i1 + i2 + 1, lam.lam0),
        fermionic.delta_vector(min(i1, i2) + 1, lam.s))
    return build_presentation_A(lam, ic)


def reference_limit_sum_polynomial(s, m, i1, k1, i2, k2):
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


def test_fusion_rule_matches_the_direct_forms():
    levels = [(i1, k1, i2, k2) for k1 in range(1, 6) for k2 in range(1, 6)
              for i1 in range(k1 + 1) for i2 in range(k2 + 1)]
    assert len(levels) == 400
    for a in levels:
        assert w_fusion_spec(*a) == block(reference_w_fusion_spec(*a)), a
        assert build_presentation_A(*fusion_rule(*a)) == \
            reference_fusion_presentation(*a), a


def partitions(max_size: int) -> list:
    """Every partition of 1..max_size, also with a zero part appended."""
    out = []

    def rec(rest, largest, acc):
        if acc:
            out.extend((acc, acc + (0,)))
        for p in range(min(rest, largest), 0, -1):
            rec(rest - p, p, acc + (p,))

    rec(max_size, max_size, ())
    return out


def test_spec_builders_are_blocks_of_the_paper_form():
    for k in range(1, 5):
        assert gordon_spec(k) == block(paper_form((k,), (0,) * k, ())), k
    lams = partitions(4)
    assert len(lams) == 22
    for parts in lams:
        lam, s = Partition.make(parts), len(parts) - 1
        assert mf_spec(lam) == block(paper_form(parts, (0,) * parts[0], (0,) * s)), parts
        for c in itertools.product((0, 1), repeat=parts[0]):
            for d in itertools.product((0, 1), repeat=s):
                assert gmf_spec(lam, InitialConditions.make(c, d)) == \
                    block(paper_form(parts, c, d)), (parts, c, d)


# ---------------------------------------------------------------------------
# the closed sums against the partial-sum evaluator they replaced


def _diffs(partial: tuple) -> tuple:
    """n from its partial sums N_i = n_i + n_{i+1} + ..."""
    ext = partial + (0,)
    return tuple(ext[i] - ext[i + 1] for i in range(len(partial)))


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


def _coupling(b: tuple, n: tuple, m: tuple) -> int:
    """The coupling exponent: the sum over i, j of n_i b_ij m_j."""
    return sum(ni * sum(bij * mj for bij, mj in zip(b[i], m) if mj)
               for i, ni in enumerate(n) if ni)


def reference_fermionic_sum(form: PaperForm, window: Truncation) -> GradedCharacter:
    """The closed sum of the paper's form enumerated over the partial sums
    N_i = n_i + n_{i+1} + ... of n and of m, whose sum N_i (N_i - 1) bounds
    the exponent."""
    q_max = window.q_max
    z_cap = window.z_max
    m_cap = z_cap
    if window.u_max is not None:
        m_cap = window.u_max if m_cap is None else min(m_cap, window.u_max)
    n_cands = _monotone_partial_sums(len(form.a_n), q_max, z_cap)
    m_cands = _monotone_partial_sums(len(form.a_m), q_max, m_cap)
    coeffs: dict = {}
    for npart in n_cands:
        wn = sum(npart)
        n = _diffs(npart)
        qn = sum(v * (v - 1) for v in npart) + sum(a * b for a, b in zip(n, form.n_linear))
        if qn > q_max:
            continue
        for mpart in m_cands:
            wm = sum(mpart)
            if z_cap is not None and wn + wm > z_cap:
                continue
            m = _diffs(mpart)
            q0 = qn + sum(v * (v - 1) for v in mpart)
            q0 += sum(a * b for a, b in zip(m, form.m_linear)) + _coupling(form.b, n, m)
            if q0 > q_max:
                continue
            _add_series(coeffs, wn + wm, wm, q0, _term_series(n + m, q_max - q0))
    return GradedCharacter.make(coeffs, window)


def _closed_specs():
    """(library spec, paper form) of the same sum."""
    for k in (1, 2, 3):
        yield pytest.param(gordon_spec(k), paper_form((k,), (0,) * k, ()),
                           id=f"gordon k={k}")
    for parts in ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1),
                  (2, 2), (2, 1, 1), (1, 1, 1, 1), (2, 1, 0)):
        lam = Partition.make(parts)
        yield pytest.param(mf_spec(lam), paper_form(parts, (0,) * lam.lam0, (0,) * lam.s),
                           id=f"mf {parts}")
        for c in itertools.product((0, 1), repeat=lam.lam0):
            for d in itertools.product((0, 1), repeat=lam.s):
                yield pytest.param(gmf_spec(lam, InitialConditions.make(c, d)),
                                   paper_form(parts, c, d), id=f"gmf {parts} c={c} d={d}")
    levels = [(i1, k1, i2, k2) for k1, k2 in ((1, 1), (1, 2), (2, 2))
              for i1 in range(k1 + 1) for i2 in range(k2 + 1)]
    for a in levels + [(1, 3, 2, 3)]:
        yield pytest.param(w_fusion_spec(*a), reference_w_fusion_spec(*a), id=f"w {a}")


CLOSED_WINDOWS = (Truncation(5, None, None), Truncation(5, 3, None),
                  Truncation(4, None, 1), Truncation(4, 4, 2), Truncation(3, 0, 0),
                  Truncation(4, 2, 0), Truncation(0, None, None))


@pytest.mark.parametrize("spec,form", list(_closed_specs()))
def test_closed_sum_matches_partial_sum_reference(spec, form):
    for window in CLOSED_WINDOWS:
        assert evaluate_fermionic_sum(spec, window) == \
            reference_fermionic_sum(form, window), window


@strategies.composite
def lattice_sums(draw):
    """A 1-3 dimensional closed sum with possibly negative shifts, an origin
    and a window."""
    small = strategies.integers
    size = draw(small(1, 3))
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        gram[i][i] = draw(small(1, 4))
        for j in range(i + 1, size):
            gram[i][j] = gram[j][i] = draw(small(0, 3))

    def vector(lo, hi):
        return tuple(draw(small(lo, hi)) for _ in range(size))

    window = Truncation(draw(small(0, 5)), draw(strategies.none() | small(-2, 6)),
                        draw(strategies.none() | small(0, 3)))
    return (tuple(map(tuple, gram)), vector(-6, 3), vector(0, 2), vector(0, 2),
            window, (draw(small(-3, 3)), draw(small(-3, 6))))


def reference_lattice_terms(gram, shifts, z_weights, u_weights, window, origin,
                            box=None):
    """Every term of the box within window; box is one range per coordinate,
    by default 0 <= x_i < 20.  On its own a coordinate adds
    G_ii v(v-1)/2 + shift v >= -21 (G_ii >= 1, shift >= -6) and cross terms
    are nonnegative, so a term with q - q0 <= 5 + 3 has
    G_ii v(v-1)/2 + shift v <= 8 + 2 * 21 for each coordinate: v <= 18."""
    out = []
    for x in itertools.product(*box or [range(20)] * len(gram)):
        q = origin[1] + sum(gram[i][j] * x[i] * x[j] for i in range(len(x))
                            for j in range(i + 1, len(x)))
        q += sum(gram[i][i] * v * (v - 1) // 2 + s * v
                 for i, (v, s) in enumerate(zip(x, shifts)))
        z = origin[0] + sum(w * v for w, v in zip(z_weights, x))
        u = sum(w * v for w, v in zip(u_weights, x))
        if window.contains((z, u, q)):
            out.append((x, z, u, q))
    return sorted(out)


@given(lattice_sums())
# the vertex of 4 v(v-1)/2 - v is v = 1, not the floor 0 of the real vertex 3/4
@example((((1, 0), (0, 4)), (0, -1), (0, 0), (0, 0), Truncation(0), (0, 1)))
@settings(max_examples=100, deadline=None)
def test_lattice_terms_match_the_box(args):
    assert sorted(_lattice_terms(*args)) == reference_lattice_terms(*args)


def ellipsoid_box(gram, shifts, origin, q_max):
    """One range per coordinate holding every x >= 0 with exponent <= q_max,
    for positive definite G: the exponent is e + (x - c)^T G (x - c) / 2,
    with c = -G^-1 b, b_i = shifts_i - G_ii / 2 and e its least real value,
    so |x_i - c_i| <= sqrt(2 (q_max - e) (G^-1)_ii), widened by 1."""
    size = len(gram)
    rows = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(size)]
            for i, row in enumerate(gram)]
    for j in range(size):  # Gauss-Jordan; pivots of a positive definite G are positive
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for r in range(size):
            if r != j:
                rows[r] = [x - rows[r][j] * y for x, y in zip(rows[r], rows[j])]
    inv = [row[size:] for row in rows]
    b = [s - Fraction(gram[i][i], 2) for i, s in enumerate(shifts)]
    c = [-sum(map(mul, row, b)) for row in inv]
    radius = 2 * (q_max - origin[1] - sum(map(mul, b, c)) / 2)
    half = [math.sqrt(max(radius * inv[i][i], 0)) + 1 for i in range(size)]
    return [range(max(0, math.floor(c[i] - half[i])), math.floor(c[i] + half[i]) + 1)
            for i in range(size)]


@pytest.mark.parametrize("levels", [(1, 1, 1, 2), (0, 2, 1, 2)])
def test_level_terms_match_the_box(monkeypatch, levels):
    # the finite-level sums of a limit, every level up to stabilization:
    # sizes 4 and 6, shifts down to -45 and a nonzero origin, beyond what the
    # hypothesis strategy draws; each call is checked as the library makes it
    calls = []

    def spy(*args):
        calls.append(args)
        return _lattice_terms(*args)

    monkeypatch.setattr(fermionic, "_lattice_terms", spy)
    _, level, _ = stabilized_limit(*levels, 5)
    assert len(calls) == level and min(calls[-1][1]) < -40
    for gram, shifts, z_w, u_w, window, origin in calls:
        box = ellipsoid_box(gram, shifts, origin, window.q_max)
        assert sorted(_lattice_terms(gram, shifts, z_w, u_w, window, origin)) == \
            reference_lattice_terms(gram, shifts, z_w, u_w, window, origin, box)


def lattice_nodes(run) -> int:
    """The number of calls run() makes to _lattice_terms' node function."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        count += (event == "call" and code.co_name == "rec"
                  and code.co_filename == fermionic.__file__)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def test_limit_levels_visit_few_nodes():
    # the real-minimum bound cuts the four finite-level sums of a K = 6
    # limit to 1,001 nodes for 197 terms; low alone enters 203,281
    nodes = lattice_nodes(lambda: stabilized_limit(0, 3, 0, 3, 3))
    assert 0 < nodes < 2500


def test_k8_limit_reconstructs():
    r = character_L_fusion(0, 4, 0, 4, 3)
    assert r.reconstructed_match and r.reconstructed_detail is None


def test_lattice_spec_validation():
    for gram, shifts in ((((2, 1),), (0,)),
                         (((2, 1), (2, 2)), (0, 0)),
                         (((3,),), (0,)),
                         (((2, -1), (-1, 2)), (0, 0)),
                         (((2,),), (0, 0)),
                         (((2,),), (-1,))):
        # the lattice sum and the quadratic presentation refuse alike
        for build in (LatticeSpec.make, build_presentation_quadratic):
            with pytest.raises(ConfigurationError):
                build(gram, shifts)


def test_lattice_rank_one_character():
    spec = LatticeSpec.make(((2,),), (0,))
    assert spec == (((2,),), (0,), (1,), (0,))  # z^1 u^0 per coordinate
    # one function, so that a traced call is one fermionic.sum span
    assert lattice_principal_character is evaluate_fermionic_sum
    c = lattice_principal_character(spec, Truncation(6, 3, 0))
    assert c.coeffs == {(0, 0, 0): 1,
                        (1, 0, 0): 1, (1, 0, 1): 1, (1, 0, 2): 1, (1, 0, 3): 1,
                        (1, 0, 4): 1, (1, 0, 5): 1, (1, 0, 6): 1,
                        (2, 0, 2): 1, (2, 0, 3): 1, (2, 0, 4): 2, (2, 0, 5): 2,
                        (2, 0, 6): 3, (3, 0, 6): 1}


def test_lattice_unit_shift_moves_weights():
    base = LatticeSpec.make(((2,),), (0,))
    shifted = LatticeSpec.make(((2,),), (1,))
    w = Truncation(5, 2, 0)
    a = lattice_principal_character(base, w)
    b = lattice_principal_character(shifted, w)
    # the shift adds n to the exponent of the z^n term
    assert [b.get(1, 0, q) for q in range(6)] == \
        [0] + [a.get(1, 0, q) for q in range(5)]


def test_limit_sum_polynomial_hand_value():
    s = (Fraction(-1, 2), Fraction(-1, 2))
    assert limit_sum_polynomial(s, (1,), 0, 1, 0, 1) == 1
    assert limit_sum_polynomial((0, 0), (0,), 0, 1, 0, 1) == 0


def test_character_L_fusion_fields():
    r = character_L_fusion(0, 1, 0, 1, 3)
    assert r.stabilized_at == 3
    assert r.reconstructed_match and r.reconstructed_detail is None
    assert r.literal_comparison.verdict == "MISMATCH"
    assert r.literal_comparison.first_diff == (-4, 0, 2, 1, 0)
    assert r.literal_fractional_terms == 5
    assert r.character.get(0, 0, 0) == 1
    assert min(z for z, _, _ in r.character.coeffs) == -4
    assert all(v > 0 for v in r.character.coeffs.values())


def test_character_L_fusion_stabilization_limit():
    with pytest.raises(StabilizationError):
        character_L_fusion(0, 1, 0, 1, 3, n_max=0)


def test_character_L_fusion_u_cap():
    r = character_L_fusion(0, 1, 0, 1, 3, u_max=0)
    assert all(u == 0 for _, u, _ in r.character.coeffs)


@given(strategies.integers(0, 4), strategies.integers(-3, 3),
       strategies.integers(-3, 3))
def test_limit_polynomial_parity_on_integer_vectors(m1, s1, s2):
    # on integer s the fractional part of P is -m1(m1 + K - i1 - i2)/K mod 1
    # with K = 2, so it vanishes iff m1 is even when i1 + i2 is even, always
    # when i1 + i2 is odd
    s = (s1, s2)
    even = limit_sum_polynomial(s, (m1,), 0, 1, 0, 1)
    assert (even.denominator == 1) == (m1 % 2 == 0)
    odd = limit_sum_polynomial(s, (m1,), 0, 1, 1, 1)
    assert odd.denominator == 1


# ---------------------------------------------------------------------------
# the limit routes against from-scratch references


def reference_literal(i1, k1, i2, k2, q_max, u_max):
    """The literal limit sum term by term through the Fraction P, every box
    enumerated from scratch: (character, fractional terms of the final box)."""
    if k1 > k2:
        (i1, k1), (i2, k2) = (i2, k2), (i1, k1)
    big = k1 + k2
    euler = inv_pochhammer(None, q_max)

    def box(cap):
        coeffs, fractional = {}, 0
        heads = itertools.combinations_with_replacement(range(cap, -1, -1), big - 1)
        for head in heads:
            for tail in range(-cap, head[-1] + 1):
                s = head + (tail,)
                for m in itertools.product(range(cap + 1), repeat=k1):
                    wm = sum((j + 1) * x for j, x in enumerate(m))
                    if u_max is not None and wm > u_max:
                        continue
                    p = reference_limit_sum_polynomial(s, m, i1, k1, i2, k2)
                    if p > q_max:
                        continue
                    if p.denominator != 1:
                        fractional += 1
                        continue
                    p = int(p)
                    series = euler[:q_max - p + 1]
                    for c in head + m:
                        series = convolve(series, inv_pochhammer(c, q_max), q_max - p)
                    z = -i1 - i2 + 2 * sum(s)
                    for t, cnt in enumerate(series):
                        key = (z, wm, p + t)
                        coeffs[key] = coeffs.get(key, 0) + cnt
        return GradedCharacter.make(coeffs, Truncation(q_max, None, u_max)), fractional

    cap = q_max + 4
    literal, _ = box(cap)
    while True:
        cap += 3
        wider, fractional = box(cap)
        if compare(literal, wider).verdict == "EQUAL":
            return wider, fractional
        literal = wider


def reference_level_terms(i1, k1, i2, k2, level, q_max, u_max):
    """(n_partial, m, z, u, q) of the level-`level` reweighted sum with
    q <= q_max, from a box of partial sums wider than the library prunes to."""
    spec = reference_w_fusion_spec(i1, k1, i2, k2)
    bound = 2 * level + q_max + 3

    def partials(length):
        return itertools.combinations_with_replacement(range(bound, -1, -1), length)

    def f(x):
        return x * x - (2 * level + 1) * x

    out = []
    n_len, m_len = len(spec.a_n), len(spec.a_m)
    for npart in partials(n_len):
        n = tuple(a - b for a, b in zip(npart, npart[1:] + (0,)))
        for mpart in partials(m_len):
            m = tuple(a - b for a, b in zip(mpart, mpart[1:] + (0,)))
            wm = sum(mpart)
            if u_max is not None and wm > u_max:
                continue
            q = (level * level * n_len + level * (i1 + i2)
                 + sum(map(f, npart + mpart))
                 + sum(a * b for a, b in zip(n, spec.n_linear))
                 + sum(a * b for a, b in zip(m, spec.m_linear))
                 + sum(n[i] * spec.b[i][j] * m[j]
                       for i in range(n_len) for j in range(m_len)))
            if q <= q_max:
                z = 2 * (sum(npart) + wm) - i1 - i2 - 2 * level * n_len
                out.append((npart, m, z, wm, q))
    return sorted(out)


LEVELS = [(i1, k1, i2, k2) for k1, k2 in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3))
          for i1 in range(k1 + 1) for i2 in range(k2 + 1)]


@strategies.composite
def scaled_inputs(draw):
    i1, k1, i2, k2 = draw(strategies.sampled_from(LEVELS))

    def vector(length, lo, hi):
        return tuple(draw(strategies.lists(strategies.integers(lo, hi),
                                           min_size=length, max_size=length)))

    return (i1, k1, i2, k2), vector(k1 + k2, -6, 6), vector(min(k1, k2), 0, 5)


@given(scaled_inputs())
def test_scaled_polynomial_is_k_times_the_fraction_form(inputs):
    levels, s, m = inputs
    big = levels[1] + levels[3]
    wm, const, lin = _limit_exponent(*levels, m)
    kp = big * sum(x * x for x in s) + sum(map(mul, lin, s)) + const
    p = reference_limit_sum_polynomial(s, m, *levels)
    assert len(lin) == big
    assert wm == sum((j + 1) * x for j, x in enumerate(m))
    assert kp == big * p
    assert (kp % big == 0) == (p.denominator == 1)


@given(scaled_inputs())
def test_limit_polynomial_matches_the_fraction_form(inputs):
    # on integer s, and on s_i = integer / K, the form of the reconstructed
    # indices N_i - level + |m| / K
    levels, s, m = inputs
    big = levels[1] + levels[3]
    for point in (s, tuple(Fraction(x, big) for x in s)):
        assert limit_sum_polynomial(point, m, *levels) == \
            reference_limit_sum_polynomial(point, m, *levels)


@pytest.mark.parametrize("levels,q_max,u_max", [
    ((0, 1, 0, 1), 3, None), ((1, 1, 0, 1), 3, 1), ((1, 1, 1, 1), 2, 0),
    ((0, 1, 1, 2), 2, None), ((1, 1, 2, 2), 2, 1), ((2, 2, 0, 1), 2, None),
    ((1, 2, 1, 2), 2, 1), ((0, 1, 3, 3), 1, 2), ((0, 1, 2, 3), 3, 1),
])
def test_limit_routes_match_references(levels, q_max, u_max):
    r = character_L_fusion(*levels, q_max, u_max)
    literal, fractional = reference_literal(*levels, q_max, u_max)
    assert r.literal_comparison == compare(r.character, literal)
    assert r.literal_fractional_terms == fractional
    assert _literal_limit_character(*levels, q_max, u_max) == (literal, fractional)
    level = r.stabilized_at + 1
    big = levels[1] + levels[3]
    terms = _level_terms(*levels, level, Truncation(q_max, None, u_max))
    assert sorted((tuple(sum(x[i:big]) for i in range(big)), x[big:], z, u, q)
                  for x, z, u, q in terms) == \
        reference_level_terms(*levels, level, q_max, u_max)
    # the reconstruction on the reused terms, and on terms enumerated again
    assert (r.reconstructed_match, r.reconstructed_detail) == \
        _reconstruction_check(*levels, level, terms) == (True, None)


@given(strategies.sampled_from(LEVELS), strategies.integers(0, 3),
       strategies.sampled_from([None, 0, 2]), strategies.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_literal_shell_equals_the_box(levels, q_max, u_max, cap):
    widened, from_scratch = {}, {}
    counts = [_literal_shell(*levels, q_max, u_max, -1, cap, widened),
              _literal_shell(*levels, q_max, u_max, cap, cap + 3, widened)]
    kept, fractional = _literal_shell(*levels, q_max, u_max, -1, cap + 3, from_scratch)
    assert widened == from_scratch
    assert sum(k for k, _ in counts) == kept
    assert sum(f for _, f in counts) == fractional


# ---------------------------------------------------------------------------
# the pruned literal shell and the integer reconstruction against their
# parent forms


def reference_literal_shell(i1, k1, i2, k2, q_max, u_max, old, cap, rows) -> tuple[int, int]:
    """Add the literal limit sum's terms with old < max(|s_i|, m_j) <= cap
    to rows, where rows[(z, u)][q] holds the series before the division by
    (q)_infinity; old = -1 takes the whole box.  Returns the number of
    integral terms added and the number of fractional terms seen.
    """
    big = k1 + k2
    k_q = big * q_max
    all_m, new_m = [], []
    for m in itertools.product(range(cap + 1), repeat=min(k1, k2)):
        wm, const, lin = _limit_exponent(i1, k1, i2, k2, m)
        if u_max is None or wm <= u_max:
            all_m.append((m, wm, const, lin))
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
            s_k = big * sum(x * x for x in s)
            z = 2 * sum(s) - i1 - i2
            for m, wm, const, lin in m_terms:
                kp = s_k + const + sum(map(mul, s, lin))
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
                for t, cnt in enumerate(_term_series(head + m, q_max - p), p):
                    row[t] += cnt
    return kept, fractional


# LEVELS and a K = 5 tuple, where the box is widest
SHELL_LEVELS = LEVELS + [(1, 2, 2, 3)]


def test_scaled_polynomial_is_positive_definite():
    # K P is a positive definite quadratic form in (s, m), so the literal
    # window {K P <= K q_max} is finite and the shell widening stops.  The
    # second differences of K P are twice the form's matrix; Sylvester's
    # criterion asks every leading principal minor to be positive.
    levels = [(i1, k1, i2, k2) for k1 in range(1, 5) for k2 in range(1, 5)
              for i1 in range(k1 + 1) for i2 in range(k2 + 1)]
    assert len(levels) == 196
    for i1, k1, i2, k2 in levels:
        big, small = k1 + k2, min(k1, k2)
        size = big + small

        def kp(v):
            _, const, lin = _limit_exponent(i1, k1, i2, k2, v[big:])
            return big * sum(x * x for x in v[:big]) + sum(map(mul, lin, v[:big])) + const

        def point(*axes):
            return tuple(sum(a == t for a in axes) for t in range(size))

        zero = kp(point())
        rows = [[Fraction(kp(point(a, b)) - kp(point(a)) - kp(point(b)) + zero)
                 for b in range(size)] for a in range(size)]
        # elimination without pivoting: the j-th leading minor is the
        # product of the first j pivots
        minor = Fraction(1)
        for j in range(size):
            minor *= rows[j][j]
            assert minor > 0, ((i1, k1, i2, k2), j + 1)
            for r in range(j + 1, size):
                ratio = rows[r][j] / rows[j][j]
                rows[r] = [x - ratio * y for x, y in zip(rows[r], rows[j])]


@given(strategies.sampled_from(SHELL_LEVELS), strategies.integers(0, 3),
       strategies.sampled_from([None, 0, 2]), strategies.integers(0, 6),
       strategies.integers(-1, 5))
@settings(max_examples=60, deadline=None)
@example((0, 1, 0, 1), 3, None, 6, -1)
@example((1, 2, 2, 3), 3, None, 5, 2)
def test_literal_shell_matches_the_full_box(levels, q_max, u_max, cap, old):
    # the shell visits only the terms with K P <= K q_max; the parent form
    # evaluates every point of the box
    old = min(old, cap - 1)
    pruned, full = {}, {}
    assert _literal_shell(*levels, q_max, u_max, old, cap, pruned) == \
        reference_literal_shell(*levels, q_max, u_max, old, cap, full)
    assert pruned == full


def reference_reconstruction_check(i1, k1, i2, k2, level, terms):
    """Re-derive each term's (z, q) through P on reconstructed rational
    indices s_i = N_i - level + |m|/(k1+k2); returns (ok, detail)."""
    big = k1 + k2
    for x, z0, u0, q0 in terms:
        n, m = x[:big], x[big:]
        mu = Fraction(u0, big)
        s = tuple(sum(n[i:]) - level + mu for i in range(big))
        z_p = -i1 - i2 + 2 * sum(s)
        q_p = limit_sum_polynomial(s, m, i1, k1, i2, k2)
        if z_p != z0 or q_p != q0:
            return False, (f"term n={n} m={m} at level {level}: "
                           f"direct (z,q)=({z0},{q0}), closed form ({z_p},{q_p})")
    return True, None


@pytest.mark.parametrize("levels", [(0, 1, 0, 1), (1, 1, 1, 2), (2, 2, 1, 2),
                                    (0, 1, 3, 3), (1, 2, 2, 3)])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_reconstruction_check_rejects_as_the_fraction_form(levels, level):
    terms = _level_terms(*levels, level, Truncation(3, None, None))
    assert _reconstruction_check(*levels, level, terms) == (True, None)
    for j in sorted({0, len(terms) // 2, len(terms) - 1}):
        for field, delta in itertools.product((1, 2, 3), (-1, 1)):
            bad = list(terms[j])
            bad[field] += delta
            perturbed = terms[:j] + [tuple(bad)] + terms[j + 1:]
            expected = reference_reconstruction_check(*levels, level, perturbed)
            assert not expected[0]
            assert _reconstruction_check(*levels, level, perturbed) == expected
