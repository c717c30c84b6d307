from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies

from ferchar.exactlin import (FieldMode, NonUnit, RankResult, echelon, int_rank,
                              random_prime_31, reduce_rows, two_prime)


def dense(reduced, ncols):
    out = []
    for _, row in reduced:
        out.append([row.get(c, 0) for c in range(ncols)])
    return out


def test_reduce_rows_canonical_rref():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 7}, {1: 1, 2: 1}]
    reduced = reduce_rows(rows)
    assert [p for p, _ in reduced] == [0, 1, 2]
    assert dense(reduced, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_reduce_rows_dependent_rows_drop_out():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 3, 1: 6}]
    reduced = reduce_rows(rows)
    assert len(reduced) == 1
    assert reduced[0] == (0, {0: Fraction(1), 1: Fraction(2)})


def test_reduce_rows_does_not_modify_input():
    rows = [{0: 2, 1: 4}, {0: 1}]
    snapshot = [dict(r) for r in rows]
    reduce_rows(rows)
    assert rows == snapshot


def test_reduce_rows_mod_p():
    # 5 vanishes mod 5, so the rank drops
    rows = [{0: 5, 1: 1}, {1: 5}]
    assert len(reduce_rows(rows, 5)) == 1
    assert len(reduce_rows(rows, 7)) == 2
    reduced = reduce_rows([{0: 3}], 7)
    assert reduced == [(0, {0: 1})]


def test_rank_and_row_reduce():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}, {2: 3}]
    assert len(echelon(rows)) == 2
    rref = reduce_rows(rows)
    assert [p for p, _ in rref] == [0, 2]
    # the RREF of an RREF is itself
    assert reduce_rows([row for _, row in rref]) == rref


def test_random_prime_31_deterministic():
    import random
    p = random_prime_31(random.Random(7))
    q = random_prime_31(random.Random(7))
    assert p == q
    assert 2**30 < p < 2**31


def test_two_prime_mode_is_reproducible():
    a, b = FieldMode.two_prime(3), FieldMode.two_prime(3)
    assert a.primes == b.primes
    assert a.primes[0] != a.primes[1]
    assert FieldMode.two_prime(4).primes != a.primes


def test_int_rank_exact():
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}, {0: 2}]
    assert int_rank(rows, FieldMode.exact()) == RankResult(2)


def test_int_rank_two_prime_agreement():
    rows = [{0: 1, 1: 1}, {1: 3}]
    res = int_rank(rows, FieldMode.two_prime(0))
    assert res == RankResult(2)


def test_int_rank_escalates_on_prime_disagreement():
    # entry 5 vanishes mod the first forced prime only, so it is a
    # non-unit mod 35 and the rank is taken over the rationals
    bad = FieldMode("two-prime", None, (5, 7))
    assert int_rank([{0: 5}], bad) == RankResult(1, True)


def test_two_prime_escalates_any_value():
    # a value that is not a rank: which entries survive.  Like an
    # elimination, it raises NonUnit where an entry is a non-unit mod a
    # composite field, the one place its primes may diverge; otherwise its
    # value is the same in every field.
    calls = []

    def surviving(entries):
        def compute(field):
            calls.append(field)
            if field is None:
                return [x != 0 for x in entries]
            if any(x % field and math.gcd(x, field) != 1 for x in entries):
                raise NonUnit(field)
            return [x % field != 0 for x in entries]
        return compute

    # a non-unit modulo the product sends the run to the rationals, whether
    # or not the primes would have agreed
    mode = FieldMode("two-prime", None, (5, 7))
    for entries in ((5, 12), (5, 14)):
        assert two_prime(surviving(entries), mode) == ([True, True], True)
        assert calls == [35, None]
        calls.clear()
    # otherwise the one run modulo the product stands
    assert two_prime(surviving((5, 12)), FieldMode("two-prime", None, (7, 11))) == \
        ([True, True], False)
    assert calls == [77]
    calls.clear()
    assert two_prime(surviving((5, 12)), FieldMode.exact()) == ([True, True], False)
    assert calls == [None]


def test_int_rank_rejects_bad_mode():
    with pytest.raises(ValueError):
        int_rank([{0: 1}], FieldMode("two-prime"))


small_matrices = strategies.lists(
    strategies.lists(strategies.integers(-50, 50), min_size=3, max_size=3),
    min_size=1, max_size=4)


@given(strategies.data())
def test_rank_invariant_under_row_permutation(data):
    rows = data.draw(small_matrices)
    shuffled = data.draw(strategies.permutations(rows))
    ranks = [len(echelon([{c: v for c, v in enumerate(r) if v} for r in m]))
             for m in (rows, shuffled)]
    assert ranks[0] == ranks[1]


@given(small_matrices, strategies.integers(0, 2**16))
def test_two_prime_rank_matches_exact(rows, seed):
    dict_rows = [{c: v for c, v in enumerate(r) if v} for r in rows]
    exact = int_rank(dict_rows, FieldMode.exact()).rank
    assert int_rank(dict_rows, FieldMode.two_prime(seed)).rank == exact


def reference_rref(rows, field, ncols):
    """Textbook dense Gauss-Jordan: (pivot columns, RREF rows as lists)."""
    def norm(v):
        return Fraction(v) if field is None else v % field

    def inv(v):
        return 1 / v if field is None else pow(v, -1, field)

    m = [[norm(r.get(c, 0)) for c in range(ncols)] for r in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        found = next((i for i in range(top, len(m)) if m[i][c]), None)
        if found is None:
            continue
        m[top], m[found] = m[found], m[top]
        s = inv(m[top][c])
        m[top] = [norm(x * s) for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                f = m[i][c]
                m[i] = [norm(x - f * y) for x, y in zip(m[i], m[top])]
        pivots.append(c)
    return pivots, m[:len(pivots)]


FIELDS = (None, 2, 5, 7, 2**31 - 1)


@strategies.composite
def sparse_rows(draw):
    """(field, ncols, rows); rows over Q may carry Fraction entries."""
    field = draw(strategies.sampled_from(FIELDS))
    ncols = draw(strategies.integers(1, 7))
    scalars = strategies.integers(-6, 6)
    if field is None:
        scalars = scalars | strategies.fractions(-6, 6, max_denominator=5)
    rows = draw(strategies.lists(
        strategies.dictionaries(strategies.integers(0, ncols - 1), scalars,
                                max_size=ncols),
        max_size=9))
    return field, ncols, rows


@given(sparse_rows())
def test_echelon_rank_matches_reference(case):
    field, ncols, rows = case
    expected = len(reference_rref(rows, field, ncols)[0])
    assert len(echelon(rows, field)) == expected
    # stopping at full rank never changes the rank
    assert len(echelon(rows, field, ncols)) == expected
    assert int_rank(rows, FieldMode.exact(), ncols).rank == \
        len(reference_rref(rows, None, ncols)[0])


@given(sparse_rows(), strategies.integers(0, 9))
def test_echelon_extends_an_earlier_echelon(case, cut):
    field, ncols, rows = case
    pivots = echelon(rows[:cut], field)
    assert echelon(rows[cut:], field, None, pivots) is pivots
    assert len(pivots) == len(reference_rref(rows, field, ncols)[0])
    for lead, row in pivots.items():
        assert min(row) == lead
        assert all(type(v) is int for v in row.values())
        if field is None:
            assert row[lead] > 0 and math.gcd(*row.values()) == 1
        else:
            assert row[lead] == 1


@given(sparse_rows())
def test_reduce_rows_matches_reference_rref(case):
    field, ncols, rows = case
    pivots, expected = reference_rref(rows, field, ncols)
    reduced = reduce_rows(rows, field)
    assert [p for p, _ in reduced] == pivots
    assert dense(reduced, ncols) == expected
    scalar = Fraction if field is None else int
    assert all(type(v) is scalar for _, row in reduced for v in row.values())


SMALL_PRIME_PAIRS = ((2, 3), (3, 5), (5, 7), (7, 11))


@given(strategies.sampled_from(SMALL_PRIME_PAIRS), strategies.integers(1, 6),
       strategies.data())
def test_product_modulus_rank_or_exact_fallback(primes, ncols, data):
    rows = data.draw(strategies.lists(
        strategies.dictionaries(strategies.integers(0, ncols - 1),
                                strategies.integers(-12, 12), max_size=ncols),
        max_size=8))
    product = math.prod(primes)
    res = int_rank(rows, FieldMode("two-prime", None, primes), ncols)
    try:
        rank = len(echelon(rows, product, ncols))
    except NonUnit:
        assert res == RankResult(len(echelon(rows, None, ncols)), True)
    else:
        assert res == RankResult(rank, False)
    try:
        pivots = echelon(rows, product)
    except NonUnit:
        return
    for p in primes:
        assert list(echelon(rows, p)) == list(pivots)
        assert {lead: {c: v % p for c, v in row.items() if v % p}
                for lead, row in pivots.items()} == echelon(rows, p)


def test_product_modulus_drops_entries_that_vanish():
    # 3 * 2 = 0 mod 6 where the row has no entry
    assert echelon([{0: 1, 1: 2}, {0: 3}], 6) == {0: {0: 1, 1: 2}}
    with pytest.raises(NonUnit):
        echelon([{0: 2}], 6)
