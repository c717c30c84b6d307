from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from ferchar import presented
from ferchar.errors import ConfigurationError
from ferchar.exactlin import FieldMode, int_rank, reduce_rows
from ferchar.fermionic import gram_matrix_for_partition
from ferchar.gradedchar import Truncation
from ferchar.presented import (GeneratorFamily, InitialConditions, Partition,
                               Presentation, RelationFamily,
                               build_presentation_A,
                               build_presentation_quadratic, clear_caches,
                               component_dimension, component_monomials,
                               graded_character, low_ranges,
                               normal_form_basis, presentation_from_json,
                               relation_rows)
from helpers import (every_low_presentation_A, full_presentation_quadratic,
                     presentation_to_json)


def test_partition_validation():
    assert Partition.make((3, 2, 0)).parts == (3, 2, 0)
    for bad in ((), (0,), (-1,), (1, 2), (2, -1)):
        with pytest.raises(ConfigurationError):
            Partition.make(bad)


def test_partition_accessors():
    lam = Partition.make((4, 2, 0))
    assert lam.lam0 == 4 and lam.s == 2


def test_is_convex():
    assert Partition.make((3, 2, 1)).is_convex()
    assert Partition.make((1, 1)).is_convex()  # no interior part
    assert Partition.make((2, 2, 1)).is_convex()
    assert not Partition.make((4, 2, 1)).is_convex()


def test_initial_conditions_validation():
    assert InitialConditions.make((1, 0), ()).c == (1, 0)
    with pytest.raises(ConfigurationError):
        InitialConditions.make((-1,), ())


def test_low_ranges():
    # v_i = values_i + 2 values_{i-1} + ... + i values_1
    assert low_ranges((1,)) == (1,)
    assert low_ranges((2, 1)) == (2, 5)
    assert low_ranges((0, 0, 1)) == (0, 0, 1)
    assert low_ranges(()) == ()


def test_build_presentation_A_structure():
    p = build_presentation_A(Partition.make((2, 1)))
    assert [f.name for f in p.families] == ["a", "b"]
    labels = [r.label for r in p.relations]
    assert labels == ["a^3", "a^2 b^1", "b^2"]
    assert all(r.low is None for r in p.relations)


def test_build_presentation_A_single_row_has_no_b():
    p = build_presentation_A(Partition.make((2,)))
    assert [f.name for f in p.families] == ["a"]
    assert [r.label for r in p.relations] == ["a^3"]


def test_build_presentation_A_initial_conditions():
    lam = Partition.make((2, 1))
    p = build_presentation_A(lam, InitialConditions.make((0, 1), (1,)))
    lows = {r.label: r.low for r in p.relations if r.low is not None}
    # low_ranges((0, 1)) = (0, 1): only a^2 gets a divisibility condition
    assert lows == {"a^2 low 1": 1, "b^1 low 1": 1}
    with pytest.raises(ConfigurationError):
        build_presentation_A(lam, InitialConditions.make((1,), (1,)))


def test_presentation_validation():
    fam = GeneratorFamily("a", 0, 0)
    with pytest.raises(ConfigurationError):
        Presentation.make((fam, fam), ())
    with pytest.raises(ConfigurationError):
        Presentation.make((fam,), (RelationFamily((("x", 0, 1),), None),))
    with pytest.raises(ConfigurationError):
        Presentation.make((fam,), (RelationFamily((("a", 0, 1),), 0),))


def test_quadratic_builder_and_validation():
    p = build_presentation_quadratic(((2,),), (0,))
    # the pairs (k, l) with k + l < 2 leave one new family: a1(z)^2, whose
    # derivative is 2 a1 a1'
    assert [r.label for r in p.relations] == ["a1^(0) a1^(0)"]
    for gram, shifts in ((((2, 1),), (0,)), (((2, 1), (2, 2)), (0, 0)),
                         (((1,),), (0,)), (((2,),), (0, 0))):
        with pytest.raises(ConfigurationError):
            build_presentation_quadratic(gram, shifts)


# the criterion-5 grams, grams with diagonal 4 or 6 and off-diagonal 2 or 3,
# and two 3x3 grams
MINIMAL_FAMILY_GRAMS = (
    ((2,),), ((2, 0), (0, 2)), ((2, 1), (1, 2)),
    gram_matrix_for_partition(Partition.make((2, 1))),
    ((4,),), ((6,),), ((4, 2), (2, 4)), ((4, 3), (3, 4)), ((4, 3), (3, 6)),
    ((6, 2), (2, 4)),
    ((2, 1, 0), (1, 2, 1), (0, 1, 2)), ((4, 2, 1), (2, 2, 0), (1, 0, 2)),
)


@pytest.mark.parametrize("gram", MINIMAL_FAMILY_GRAMS)
def test_minimal_quadratic_families_match_full(gram):
    # one family per new derivative order spans every pair k + l < M_ij
    window = Truncation(7, 5, 0)
    n = len(gram)
    assert len(build_presentation_quadratic(gram, (0,) * n).relations) == sum(
        -(-gram[i][i] // 2) for i in range(n)) + sum(
        max(gram[i][j], 0) for i in range(n) for j in range(i + 1, n))
    for shifts in itertools.product((0, 1), repeat=n):
        full = full_presentation_quadratic(gram, shifts)
        minimal = build_presentation_quadratic(gram, shifts)
        for mode in (FieldMode.exact(), FieldMode.two_prime(0)):
            assert graded_character(minimal, window, mode) == \
                graded_character(full, window, mode), (shifts, mode)


def _low_cases():
    """(lambda, c, d): the partitions of size <= 4, with every 0/1 vector
    and every doubled unit vector as c and as d"""
    def vectors(n):
        out = set(itertools.product((0, 1), repeat=n))
        out.update(tuple(2 if t == i else 0 for t in range(n)) for i in range(n))
        return sorted(out)
    for parts in ((1,), (2,), (3,), (4,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1)):
        lam = Partition.make(parts)
        for c in vectors(lam.lam0):
            for d in vectors(lam.s):
                yield lam, InitialConditions.make(c, d)


def test_minimal_low_families_match_every_power():
    # a LOW family on x^i is left out when those on x^{i-1} and x imply it
    window = Truncation(5, 4, 4)
    count = dropped = 0
    for lam, ic in _low_cases():
        count += 1
        every = every_low_presentation_A(lam, ic)
        minimal = build_presentation_A(lam, ic)
        dropped += len(every.relations) - len(minimal.relations)
        assert set(minimal.relations) <= set(every.relations)
        assert graded_character(minimal, window) == graded_character(every, window), \
            (lam.parts, ic)
    assert count > 100 and dropped > 50


def test_presentation_json_round_trip():
    p = build_presentation_A(Partition.make((2, 1)),
                             InitialConditions.make((1, 0), (0,)))
    assert presentation_from_json(presentation_to_json(p)) == p
    with pytest.raises(ConfigurationError):
        presentation_from_json({"families": []})


def test_component_monomials_grevlex_order():
    p = build_presentation_A(Partition.make((1,)))
    monos = component_monomials(p, (2, 0, 2))
    # a_0 a_{-2} precedes a_{-1}^2
    assert monos == (((0, 0), (0, 2)), ((0, 1), (0, 1)))
    assert component_monomials(p, (1, 0, -1)) == ()


def test_normal_form_reduction():
    p = build_presentation_A(Partition.make((1,)))
    basis, expansion = normal_form_basis(p, (2, 0, 2))
    # coefficient of z^2 in a(z)^2 is 2 a_0 a_{-2} + a_{-1}^2: the pivot
    # a_0 a_{-2} leaves the basis and reduces to -1/2 a_{-1}^2
    assert basis == (((0, 1), (0, 1)),)
    assert expansion == {((0, 0), (0, 2)): ((0, Fraction(-1, 2)),),
                         ((0, 1), (0, 1)): ((0, 1),)}


def test_relation_rows_shape():
    p = build_presentation_A(Partition.make((1,)))
    rows, monos, killed = relation_rows(p, (2, 0, 2))
    assert len(monos) == 2
    # the z^2 coefficient of a(z)^2: 2 a_0 a_{-2} + a_{-1}^2
    assert rows == [{0: 2, 1: 1}] and killed == set()
    rows, monos, killed = relation_rows(p, (3, 0, 3))
    assert monos == (((0, 0), (0, 0), (0, 3)), ((0, 0), (0, 1), (0, 2)),
                     ((0, 1), (0, 1), (0, 1)))
    # a_0^2 a_{-3} and 2 a_0 a_{-1} a_{-2} come from the one-term
    # coefficients a_0^2 and 2 a_0 a_{-1}; (2 a_0 a_{-2} + a_{-1}^2) a_{-1}
    # keeps only a_{-1}^3, and (2 a_0 a_{-3} + 2 a_{-1} a_{-2}) a_0 is gone
    assert killed == {0, 1} and rows == [{2: 1}]
    assert component_dimension(p, (3, 0, 3)) == 0


def test_gordon_level_one_character():
    p = build_presentation_A(Partition.make((1,)))
    c = graded_character(p, Truncation(3, 2, 0))
    assert c.coeffs == {(0, 0, 0): 1, (1, 0, 0): 1, (1, 0, 1): 1,
                        (1, 0, 2): 1, (1, 0, 3): 1, (2, 0, 2): 1, (2, 0, 3): 1}


def test_character_with_divisibility_condition():
    p = build_presentation_A(Partition.make((1,)),
                             InitialConditions.make((1,), ()))
    c = graded_character(p, Truncation(4, 3, 3))
    assert c.coeffs == {(0, 0, 0): 1, (1, 0, 1): 1, (1, 0, 2): 1,
                        (1, 0, 3): 1, (1, 0, 4): 1, (2, 0, 4): 1}


def test_quadratic_character_frozen_slice():
    p = build_presentation_quadratic(((2, 1), (1, 2)), (1, 0))
    c = graded_character(p, Truncation(6, 2, 0))
    assert [c.get(2, 0, q) for q in range(7)] == [0, 0, 2, 3, 6, 7, 10]
    assert [c.get(1, 0, q) for q in range(7)] == [1, 2, 2, 2, 2, 2, 2]


def test_graded_character_needs_finite_window():
    p = build_presentation_A(Partition.make((1,)))
    with pytest.raises(ConfigurationError):
        graded_character(p, Truncation(3, None, 0))


def test_component_dimension_two_prime_matches_exact():
    p = build_presentation_A(Partition.make((2, 1)))
    for z in range(4):
        for u in range(3):
            for q in range(4):
                exact = component_dimension(p, (z, u, q), FieldMode.exact())
                two = component_dimension(p, (z, u, q), FieldMode.two_prime(1))
                assert exact == two


@given(strategies.integers(1, 3), strategies.integers(0, 3),
       strategies.integers(0, 4))
def test_low_components_are_free(k, z, q):
    # every relation of C[a]/(a(z)^{k+1}) has z-degree k+1, so components
    # with z <= k keep the full free-monomial basis
    if k < z:
        return
    p = build_presentation_A(Partition.make((k,)))
    free = len(component_monomials(p, (z, 0, q)))
    assert component_dimension(p, (z, 0, q)) == free


# ---------------------------------------------------------------------------
# reference construction: every monomial enumerated family by family, then
# sorted by its exponent vector; every product monomial sorted and looked up


def _ref_partitions(total, count, min_part, max_part=None):
    """Weakly decreasing tuples of the given length and sum, parts >= min_part."""
    if count == 0:
        if total == 0:
            yield ()
        return
    hi = total - min_part * (count - 1)
    if max_part is not None:
        hi = min(hi, max_part)
    lo = max(min_part, -(-total // count))
    for p in range(lo, hi + 1):
        for rest in _ref_partitions(total - p, count - 1, min_part, p):
            yield (p,) + rest


def _ref_splits(p, z, u):
    """Per-family mode counts with z modes in all and u-degree u."""
    fams = p.families
    out = []

    def rec(i, z_left, u_left, acc):
        if i == len(fams):
            if z_left == 0 and u_left == 0:
                out.append(tuple(acc))
            return
        for cnt in range(z_left + 1):
            du = cnt * fams[i].u_increment
            if du > u_left:
                break
            rec(i + 1, z_left - cnt, u_left - du, acc + [cnt])

    rec(0, z, u, [])
    return out


def ref_component_monomials(p, tridegree):
    z, u, q = tridegree
    if z < 0 or u < 0 or q < 0:
        return ()
    fams = p.families
    out = []

    def rec(split, f_idx, q_left, acc):
        if f_idx == len(fams):
            if q_left == 0:
                out.append(tuple(sorted(acc)))
            return
        cnt, min_f = split[f_idx], fams[f_idx].min_mode
        later = sum(split[g] * fams[g].min_mode for g in range(f_idx + 1, len(fams)))
        for q_f in range(cnt * min_f, q_left - later + 1):
            for part in _ref_partitions(q_f, cnt, min_f):
                rec(split, f_idx + 1, q_left - q_f, acc + [(f_idx, n) for n in part])

    for split in _ref_splits(p, z, u):
        rec(split, 0, q, [])
    pos = {}
    for f, fam in enumerate(fams):
        for n in range(fam.min_mode, q + 1):
            pos[(f, n)] = len(pos)

    def grevlex(mono):
        expo = [0] * len(pos)
        for mode in mono:
            expo[pos[mode]] += 1
        return tuple(-x for x in reversed(expo))

    return tuple(sorted(out, key=grevlex))


def _ref_series(p, rel, z_cap):
    """{z exponent: {monomial: coefficient}} of the relation series."""
    series = {0: {(): 1}}
    for name, der, power in rel.factors:
        f = [fam.name for fam in p.families].index(name)
        base = {}
        for n in range(max(p.families[f].min_mode, der), z_cap + der + 1):
            coef = 1
            for t in range(der):
                coef *= n - t
            if coef:
                base[n - der] = {((f, n),): coef}
        for _ in range(power):
            out = {}
            for r1, terms1 in series.items():
                for r2, terms2 in base.items():
                    if r1 + r2 > z_cap:
                        continue
                    bucket = out.setdefault(r1 + r2, {})
                    for m1, c1 in terms1.items():
                        for m2, c2 in terms2.items():
                            m = tuple(sorted(m1 + m2))
                            bucket[m] = bucket.get(m, 0) + c1 * c2
            series = {r: {m: c for m, c in terms.items() if c}
                      for r, terms in out.items()}
    return series


def ref_relation_rows(p, tridegree):
    z, u, q = tridegree
    monos = ref_component_monomials(p, tridegree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for rel in p.relations:
        z_g = sum(pw for _, _, pw in rel.factors)
        u_g = sum(pw * next(f.u_increment for f in p.families if f.name == nm)
                  for nm, _, pw in rel.factors)
        der = sum(d * pw for _, d, pw in rel.factors)
        zc, uc = z - z_g, u - u_g
        if zc < 0 or uc < 0:
            continue
        r_hi = q - der if rel.low is None else min(q - der, rel.low - 1)
        if r_hi < 0:
            continue
        series = _ref_series(p, rel, r_hi)
        for r in range(r_hi + 1):
            for mc in ref_component_monomials(p, (zc, uc, q - der - r)):
                row = {}
                for mono, coef in series.get(r, {}).items():
                    col = index[tuple(sorted(mono + mc))]
                    row[col] = row.get(col, 0) + coef
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows, monos


def ref_killed_rows(p, tridegree):
    """relation_rows' output from the reference rows.  A coefficient of
    several terms times one monomial has as many distinct columns, so the
    one-entry rows are those of one-term coefficients: their columns are
    killed, and the other rows, in order, lose the killed columns, with
    the rows left empty dropped."""
    rows, monos = ref_relation_rows(p, tridegree)
    killed = {col for row in rows if len(row) == 1 for col in row}
    stripped = ({c: v for c, v in row.items() if c not in killed}
                for row in rows if len(row) > 1)
    return [row for row in stripped if row], monos, killed


def ref_normal_form_basis(p, tridegree, field):
    """normal_form_basis from the reduced form of all reference rows."""
    rows, monos = ref_relation_rows(p, tridegree)
    reduced = dict(reduce_rows(rows, field))
    free = [col for col in range(len(monos)) if col not in reduced]
    position = {col: i for i, col in enumerate(free)}
    expansion = {}
    for col, mono in enumerate(monos):
        row = reduced.get(col)
        expansion[mono] = ((position[col], 1),) if row is None else tuple(
            (position[c], -v) for c, v in sorted(row.items()) if c != col)
    return tuple(monos[col] for col in free), expansion


@strategies.composite
def presentations(draw):
    """Quadratic (lattice) presentations, and presentations of 1-3
    families with mixed u-increments, minimal modes and relations."""
    ints = strategies.integers
    if draw(strategies.booleans()):
        n = draw(ints(1, 2))
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = draw(strategies.sampled_from((2, 4)))
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = draw(ints(0, 2))
        return build_presentation_quadratic(gram, [draw(ints(0, 1)) for _ in range(n)])
    nfam = draw(ints(1, 3))
    families = [GeneratorFamily(f"g{i}", draw(ints(0, 1)), draw(ints(0, 2)))
                for i in range(nfam)]
    relations = [RelationFamily(tuple((f"g{draw(ints(0, nfam - 1))}", draw(ints(0, 2)),
                                       draw(ints(1, 2)))
                                      for _ in range(draw(ints(1, 2)))),
                                draw(strategies.one_of(strategies.none(), ints(1, 3))))
                 for _ in range(draw(ints(1, 3)))]
    return Presentation.make(families, relations)


@settings(max_examples=150, deadline=None)
@given(presentations(), strategies.data())
def test_component_build_matches_reference(p, data):
    # a tridegree within reach of the families, most of the time
    z = data.draw(strategies.integers(0, 5))
    u = data.draw(strategies.integers(0, z if any(f.u_increment for f in p.families) else 0))
    q = data.draw(strategies.integers(-1, 6)) + z * min(f.min_mode for f in p.families)
    try:
        assert component_monomials(p, (z, u, q)) == ref_component_monomials(p, (z, u, q))
        assert relation_rows(p, (z, u, q)) == ref_killed_rows(p, (z, u, q))
    finally:
        clear_caches()


@settings(max_examples=100, deadline=None)
@given(presentations(), strategies.data())
def test_component_builds_share_one_cache_lifetime(p, data):
    # several tridegrees in one cache lifetime, the largest q first and z of
    # different bit lengths, so cached relation terms meet other caps on
    # the z-power and other code widths than those they were built for
    ints = strategies.integers
    u_reach = max(f.u_increment for f in p.families)
    mode_lo = min(f.min_mode for f in p.families)
    drawn = data.draw(strategies.lists(strategies.tuples(ints(1, 5), ints(0, 5), ints(0, 6)),
                                       min_size=2, max_size=4))
    tridegrees = [(z, min(u, z * u_reach), q + z * mode_lo)
                  for z, u, q in sorted(drawn, key=lambda t: -t[2])]
    try:
        for t in tridegrees:
            assert component_monomials(p, t) == ref_component_monomials(p, t)
            assert relation_rows(p, t) == ref_killed_rows(p, t)
    finally:
        clear_caches()


@strategies.composite
def presentations_sharing_families(draw):
    """2-3 presentations on equal, separately built families, each with
    its own relations."""
    ints = strategies.integers
    specs = [(draw(ints(0, 1)), draw(ints(0, 2))) for _ in range(draw(ints(1, 3)))]
    out = []
    for _ in range(draw(ints(2, 3))):
        families = [GeneratorFamily(f"g{i}", u, m) for i, (u, m) in enumerate(specs)]
        relations = [RelationFamily(tuple((f"g{draw(ints(0, len(specs) - 1))}",
                                           draw(ints(0, 2)), draw(ints(1, 2)))
                                          for _ in range(draw(ints(1, 2)))),
                                    draw(strategies.one_of(strategies.none(), ints(1, 3))))
                     for _ in range(draw(ints(1, 3)))]
        out.append(Presentation.make(families, relations))
    return out


def assert_rows_match_reference(ps, tridegrees) -> None:
    """relation_rows of every presentation and tridegree, all in one cache
    lifetime, against the reference rows."""
    try:
        for p in ps:
            for t in tridegrees:
                assert relation_rows(p, t) == ref_killed_rows(p, t)
    finally:
        clear_caches()


@settings(max_examples=100, deadline=None)
@given(presentations_sharing_families(), strategies.data())
def test_shared_families_never_change_relation_rows(ps, data):
    # the presentations share one free object, so their components and
    # codes, and the terms of equal factor copies; the terms of other
    # relations must not leak between them
    ints = strategies.integers
    p = ps[0]
    assert all(other._free is p._free for other in ps)
    u_reach = max(f.u_increment for f in p.families)
    mode_lo = min(f.min_mode for f in p.families)
    drawn = data.draw(strategies.lists(strategies.tuples(ints(1, 4), ints(0, 4), ints(0, 5)),
                                       min_size=1, max_size=3))
    assert_rows_match_reference(
        ps, [(z, min(u, z * u_reach), q + z * mode_lo) for z, u, q in drawn])


def test_lattice_shifts_never_share_components():
    # one Gram matrix, so the same family names, u-increments and
    # relations: the families differ only in their minimal modes
    gram = ((2, 1), (1, 2))
    ps = [build_presentation_quadratic(gram, shifts) for shifts in ((0, 0), (1, 0), (0, 1))]
    assert len({p._free for p in ps}) == 3
    assert_rows_match_reference(ps, [(z, 0, q) for z in range(1, 4) for q in range(5)])


def test_relation_rows_at_large_z_degree():
    # a(z)^k at z^0 is a_0^k: one row on the one monomial a_0^z, whose
    # exponent z overflows any code field narrower than z.bit_length();
    # the terms of a(z)^300 recurse once per factor copy, 300 levels deep
    for power, z in ((2, 256), (2, 300), (300, 300)):
        p = Presentation.make((GeneratorFamily("a"),),
                              (RelationFamily((("a", 0, power),)),))
        rows, monos, killed = relation_rows(p, (z, 0, 0))
        assert monos == (((0, 0),) * z,)
        assert killed == {0} and rows == []
    clear_caches()


# a prime above every relation coefficient met below: the modes of one
# sum to at most q <= 13 over at most 4 factor copies, so it is below
# 4! * 4^8; no coefficient vanishes, as over the rationals
BIG_PRIME = 2**31 - 1


@settings(max_examples=100, deadline=None)
@given(presentations(), strategies.data())
def test_quotient_data_match_reference_rows(p, data):
    # normal forms and dimensions from the killed columns and the other
    # rows match those from every reference row, over the rationals, a
    # prime field and the two-prime product
    ints = strategies.integers
    z = data.draw(ints(0, 4))
    u = data.draw(ints(0, z if any(f.u_increment for f in p.families) else 0))
    t = (z, u, data.draw(ints(0, 5)) + z * min(f.min_mode for f in p.families))
    two = FieldMode.two_prime(data.draw(ints(0, 3)))
    try:
        for field in (None, BIG_PRIME, math.prod(two.primes)):
            assert normal_form_basis(p, t, field) == ref_normal_form_basis(p, t, field)
        rows, monos = ref_relation_rows(p, t)
        for mode in (FieldMode.exact(), two):
            rank = int_rank(rows, mode).rank if rows else 0
            assert component_dimension(p, t, mode) == len(monos) - rank
    finally:
        clear_caches()


@strategies.composite
def presentations_with_overlapping_relations(draw):
    """2-3 presentations on equal, separately built families, each with the
    first relation family of one pool and its own choice of the others, in
    pool order."""
    ints = strategies.integers
    specs = [(draw(ints(0, 1)), draw(ints(0, 2))) for _ in range(draw(ints(1, 2)))]
    pool = [RelationFamily(tuple((f"g{draw(ints(0, len(specs) - 1))}", draw(ints(0, 2)),
                                  draw(ints(1, 2)))
                                 for _ in range(draw(ints(1, 2)))),
                           draw(strategies.one_of(strategies.none(), ints(1, 3))))
            for _ in range(draw(ints(2, 4)))]
    subsets = draw(strategies.lists(strategies.frozensets(ints(1, len(pool) - 1)),
                                    min_size=2, max_size=3, unique=True))
    out = []
    for picked in subsets:
        families = [GeneratorFamily(f"g{i}", u, m) for i, (u, m) in enumerate(specs)]
        out.append(Presentation.make(families, [pool[i] for i in sorted({0, *picked})]))
    return out


@settings(max_examples=100, deadline=None)
@given(presentations_with_overlapping_relations(), strategies.data())
def test_shared_dimensions_match_reference_rows(ps, data):
    # presentations that reach a component through equal live relation
    # families share its dimension; each must still read its own
    # reference dimension, exactly and modulo two primes, whichever
    # presentation or field mode filled the entry
    p = ps[0]
    u_reach = max(f.u_increment for f in p.families)
    mode_lo = min(f.min_mode for f in p.families)
    two = FieldMode.two_prime(data.draw(strategies.integers(0, 3)))
    try:
        for z, u, q in itertools.product(range(4), range(3), range(5)):
            if u > z * u_reach:
                continue
            t = (z, u, q + z * mode_lo)
            for other in ps:
                rows, monos = ref_relation_rows(other, t)
                for mode in (FieldMode.exact(), two):
                    rank = int_rank(rows, mode).rank if rows else 0
                    assert component_dimension(other, t, mode) == len(monos) - rank
    finally:
        clear_caches()


def test_equal_live_relations_share_a_component(monkeypatch):
    # at u = 0 only a(z)^{lambda_0 + 1} is live, and (3, 1) and (3, 2)
    # share it: after the character of (3, 1), every u = 0 component of
    # (3, 2) comes from the memo with no new relation rows; at u = 1,
    # a^3 b is live for (3, 2) alone, so those components build rows
    window = Truncation(6, 5, 1)
    lam31, lam32 = (build_presentation_A(Partition.make(parts)) for parts in ((3, 1), (3, 2)))
    cold = graded_character(lam32, window)
    clear_caches()
    graded_character(lam31, window)
    calls = []
    rows_of = presented.relation_rows

    def counted(p, tridegree, *live):
        calls.append(tridegree)
        return rows_of(p, tridegree, *live)

    monkeypatch.setattr(presented, "relation_rows", counted)
    try:
        hits = presented._live_dimension.cache_info().hits
        components = [(z, 0, q) for z in range(6) for q in range(7)]
        assert [component_dimension(lam32, t) for t in components] == \
            [cold.coeffs.get(t, 0) for t in components]
        assert calls == []
        # a^4 is live from z = 4 on, in 2 * 7 components
        assert presented._live_dimension.cache_info().hits - hits == 14
        assert [component_dimension(lam32, (z, 1, q)) for z in (4, 5) for q in range(7)] == \
            [cold.coeffs.get((z, 1, q), 0) for z in (4, 5) for q in range(7)]
        assert calls
    finally:
        clear_caches()
