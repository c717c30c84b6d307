from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from ferchar.errors import ConfigurationError, StabilizationError
from ferchar.fermionic import (A_matrix, B_matrix, LatticeSpec,
                               _finite_level_terms, _literal_limit_character,
                               _literal_shell, _reconstruction_check,
                               _scaled_limit_polynomial, character_A_lambda,
                               character_A_lambda_cd, character_L_fusion,
                               character_W_fusion, delta_vector,
                               fusion_partition, gordon_character,
                               gram_matrix_for_partition,
                               lattice_principal_character,
                               limit_sum_polynomial, w_fusion_spec)
from ferchar.gradedchar import (GradedCharacter, Truncation, compare, convolve,
                                inv_pochhammer)
from ferchar.presented import InitialConditions, Partition


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


def test_lattice_spec_validation():
    for gram, shifts in ((((2, 1),), (0,)),
                         (((2, 1), (2, 2)), (0, 0)),
                         (((3,),), (0,)),
                         (((2, -1), (-1, 2)), (0, 0)),
                         (((2,),), (0, 0)),
                         (((2,),), (-1,))):
        with pytest.raises(ConfigurationError):
            LatticeSpec.make(gram, shifts)


def test_lattice_rank_one_character():
    spec = LatticeSpec.make(((2,),), (0,))
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
                    p = limit_sum_polynomial(s, m, i1, k1, i2, k2)
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
    spec = w_fusion_spec(i1, k1, i2, k2)
    bound = 2 * level + q_max + 3

    def partials(length):
        return itertools.combinations_with_replacement(range(bound, -1, -1), length)

    def f(x):
        return x * x - (2 * level + 1) * x

    out = []
    for npart in partials(spec.n_len):
        n = tuple(a - b for a, b in zip(npart, npart[1:] + (0,)))
        for mpart in partials(spec.m_len):
            m = tuple(a - b for a, b in zip(mpart, mpart[1:] + (0,)))
            wm = sum(mpart)
            if u_max is not None and wm > u_max:
                continue
            q = (level * level * spec.n_len + level * (i1 + i2)
                 + sum(map(f, npart + mpart))
                 + sum(a * b for a, b in zip(n, spec.n_linear))
                 + sum(a * b for a, b in zip(m, spec.m_linear))
                 + sum(n[i] * spec.b[i][j] * m[j]
                       for i in range(spec.n_len) for j in range(spec.m_len)))
            if q <= q_max:
                z = 2 * (sum(npart) + wm) - i1 - i2 - 2 * level * spec.n_len
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
    big, small, s_part, m_part = _scaled_limit_polynomial(*levels)
    wm, const, coef = m_part(m)
    kp = s_part(s) + const + sum(x * c for x, c in zip(s, coef))
    p = limit_sum_polynomial(s, m, *levels)
    assert (big, small) == (levels[1] + levels[3], len(m))
    assert wm == sum((j + 1) * x for j, x in enumerate(m))
    assert kp == big * p
    assert (kp % big == 0) == (p.denominator == 1)


@pytest.mark.parametrize("levels,q_max,u_max", [
    ((0, 1, 0, 1), 3, None), ((1, 1, 0, 1), 3, 1), ((1, 1, 1, 1), 2, 0),
    ((0, 1, 1, 2), 2, None), ((1, 1, 2, 2), 2, 1), ((2, 2, 0, 1), 2, None),
    ((1, 2, 1, 2), 2, 1), ((0, 1, 3, 3), 1, 2),
])
def test_limit_routes_match_references(levels, q_max, u_max):
    r = character_L_fusion(*levels, q_max, u_max)
    literal, fractional = reference_literal(*levels, q_max, u_max)
    assert r.literal_comparison == compare(r.character, literal)
    assert r.literal_fractional_terms == fractional
    assert _literal_limit_character(*levels, q_max, u_max) == (literal, fractional)
    level = r.stabilized_at + 1
    terms = _finite_level_terms(*levels, level, q_max, u_max)
    assert sorted((t[0], t[2], t[3], t[4], t[5]) for t in terms) == \
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
