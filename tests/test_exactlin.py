from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies

from ferchar.exactlin import (FieldMode, RankResult, SparseMatrix, echelon,
                              int_rank, random_prime_31, rank, reduce_rows,
                              row_reduce, two_prime)


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
    m = SparseMatrix.from_rows([[1, 2, 0], [2, 4, 1], [0, 0, 3]])
    assert rank(m) == 2
    rref, pivots = row_reduce(m)
    assert pivots == (0, 2)
    assert rref.nrows == 2 and rref.ncols == 3
    again, pivots2 = row_reduce(rref)
    assert pivots2 == pivots
    assert again.entries == rref.entries


def test_sparse_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseMatrix.make(1, 1, {(0, 1): 1})


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
    # entry 5 vanishes mod the first forced prime only
    bad = FieldMode("two-prime", None, (5, 7))
    res = int_rank([{0: 5}], bad)
    assert res.rank == 1
    assert res.escalated
    assert res.dropped_primes == (5,)


def test_two_prime_escalates_any_value():
    # a value that is not a rank: a residue vector, compared by a custom rule
    calls = []

    def residues(field):
        calls.append(field)
        return [x % field for x in (5, 12)] if field else [5, 12]

    def agree(a, b):
        return [x == 0 for x in a] == [x == 0 for x in b]

    mode = FieldMode("two-prime", None, (5, 7))
    assert two_prime(residues, mode, agree) == ([5, 12], [[0, 2], [5, 5]])
    assert calls == [5, 7, None]
    calls.clear()
    # agreeing primes keep the first prime's value and skip the rationals
    assert two_prime(residues, FieldMode("two-prime", None, (7, 11)), agree) == \
        ([5, 5], None)
    assert calls == [7, 11]
    assert two_prime(residues, FieldMode.exact(), agree) == ([5, 12], None)


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
    a = SparseMatrix.from_rows(rows)
    b = SparseMatrix.from_rows(shuffled)
    assert rank(a) == rank(b)


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
