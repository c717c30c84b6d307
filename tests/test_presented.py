from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies

from ferchar.errors import ConfigurationError
from ferchar.exactlin import FieldMode
from ferchar.gradedchar import Truncation
from ferchar.presented import (GeneratorFamily, InitialConditions, Partition,
                               Presentation, RelationFamily,
                               build_presentation_A,
                               build_presentation_quadratic,
                               component_dimension, component_monomials,
                               graded_character, low_ranges,
                               normal_form_basis, presentation_from_json,
                               relation_rows)
from helpers import presentation_to_json


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
    # derivative pairs (k, l) with k + l < 2: (0,0), (0,1), (1,0)
    assert [r.label for r in p.relations] == \
        ["a1^(0) a1^(0)", "a1^(0) a1^(1)", "a1^(1) a1^(0)"]
    for gram, shifts in ((((2, 1),), (0,)), (((2, 1), (2, 2)), (0, 0)),
                         (((1,),), (0,)), (((2,),), (0, 0))):
        with pytest.raises(ConfigurationError):
            build_presentation_quadratic(gram, shifts)


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
    nf = normal_form_basis(p, (2, 0, 2))
    assert nf.dimension == 1
    assert nf.pivots == (0,)
    # coefficient of z^2 in a(z)^2 is 2 a_0 a_{-2} + a_{-1}^2
    assert nf.reductions == {0: ((1, Fraction(-1, 2)),)}
    assert nf.basis_monomials() == (((0, 1), (0, 1)),)


def test_relation_rows_shape():
    p = build_presentation_A(Partition.make((1,)))
    rows, monos = relation_rows(p, (2, 0, 2))
    assert len(monos) == 2
    # the z^2 coefficient of a(z)^2: 2 a_0 a_{-2} + a_{-1}^2
    assert rows == [{0: 2, 1: 1}]


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
