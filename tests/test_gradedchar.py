from __future__ import annotations

import pytest
from hypothesis import given, strategies

from ferchar.gradedchar import (Comparison, GradedCharacter, Truncation,
                                char_mul, compare, convolve, inv_pochhammer,
                                render_csv, render_table, to_json_dict)

from helpers import char_reweight, restrict


def test_truncation_contains():
    t = Truncation(3, 2, None)
    assert t.contains((2, 100, 3))
    assert not t.contains((2, 0, 4))
    assert not t.contains((3, 0, 0))
    assert t.contains((-5, 0, 0))


def test_truncation_meet():
    a = Truncation(3, None, 2)
    b = Truncation(5, 4, None)
    assert a.meet(b) == Truncation(3, 4, 2)


def test_make_drops_zeros_and_out_of_window():
    c = GradedCharacter.make({(0, 0, 0): 1, (1, 0, 0): 0, (0, 0, 9): 3},
                             Truncation(2))
    assert c.coeffs == {(0, 0, 0): 1}
    assert c.get(0, 0, 0) == 1 and c.get(5, 5, 5) == 0


def test_char_mul_convolves_on_meet_window():
    a = GradedCharacter.make({(0, 0, 0): 1, (1, 0, 1): 1}, Truncation(3, 3, 0))
    b = GradedCharacter.make({(0, 0, 0): 1, (1, 0, 2): 2}, Truncation(2, 1, 0))
    out = char_mul(a, b)
    assert out.truncation == Truncation(2, 1, 0)
    assert out.coeffs == {(0, 0, 0): 1, (1, 0, 1): 1, (1, 0, 2): 2}


def test_char_mul_drops_factor_coefficients_outside_the_meet():
    # a's (0, 0, 3) and (2, 0, 0) lie in its own window but not in the meet
    a = GradedCharacter.make({(0, 0, 0): 1, (0, 0, 3): 5, (2, 0, 0): 7}, Truncation(3, 3, 0))
    b = GradedCharacter.make({(0, 0, 0): 2}, Truncation(2, 1, 0))
    assert char_mul(a, b).coeffs == {(0, 0, 0): 2}
    assert char_mul(b, a).coeffs == {(0, 0, 0): 2}


def test_char_mul_rejects_negative_degrees():
    t = Truncation(3, None, None)
    a = GradedCharacter.make({(-1, 0, 0): 1}, t)
    with pytest.raises(ValueError):
        char_mul(a, a)


def test_restrict():
    c = GradedCharacter.make({(0, 0, 0): 1, (0, 0, 3): 1}, Truncation(5))
    assert restrict(c, Truncation(2)).coeffs == {(0, 0, 0): 1}


def test_char_reweight_frozen():
    a = GradedCharacter.make({(1, 0, 0): 1}, Truncation(4, 1, 0))
    out = char_reweight(a, 2, -3, -5, 7)
    assert out.coeffs == {(-1, 0, 2): 1}
    # the q window shrinks by q_shift_per_z * z_max so coefficients stay exact
    assert out.truncation == Truncation(6, -1, 0)


def test_char_reweight_window_rules():
    a = GradedCharacter.make({(1, 0, 0): 1}, Truncation(4, None, 0))
    with pytest.raises(ValueError):
        char_reweight(a, 1, 0, -1, 0)
    with pytest.raises(ValueError):
        char_reweight(a, 0, 0, 0, 0)


small_chars = strategies.dictionaries(
    strategies.tuples(strategies.integers(0, 4), strategies.integers(0, 2),
                      strategies.integers(0, 4)),
    strategies.integers(-5, 5), max_size=6)


@given(small_chars, strategies.integers(0, 3), strategies.integers(0, 2),
       strategies.integers(0, 2), strategies.integers(0, 3),
       strategies.integers(0, 2), strategies.integers(0, 3))
def test_char_reweight_composition(coeffs, s1, p1, t1, s2, p2, t2):
    a = GradedCharacter.make(coeffs, Truncation(4, 4, 2))
    one = char_reweight(char_reweight(a, 1, s1, p1, t1), 1, s2, p2, t2)
    two = char_reweight(a, 1, s1 + s2, p1 + p2, t1 + t2 + p2 * s1)
    window = one.truncation.meet(two.truncation)
    assert restrict(one, window).coeffs == restrict(two, window).coeffs


def test_inv_pochhammer_frozen():
    assert inv_pochhammer(2, 4) == (1, 1, 2, 2, 3)
    assert inv_pochhammer(0, 3) == (1, 0, 0, 0)
    assert inv_pochhammer(None, 5) == (1, 1, 2, 3, 5, 7)
    with pytest.raises(ValueError):
        inv_pochhammer(-1, 3)


def brute_partition_count(total, max_parts):
    if total == 0:
        return 1
    count = 0

    def rec(left, largest, parts):
        nonlocal count
        if left == 0:
            count += 1
            return
        if parts == 0:
            return
        for p in range(min(left, largest), 0, -1):
            rec(left - p, p, parts - 1)

    rec(total, total, max_parts)
    return count


@given(strategies.integers(0, 5), strategies.integers(0, 12))
def test_inv_pochhammer_counts_partitions(n, m):
    assert inv_pochhammer(n, 12)[m] == brute_partition_count(m, n)


def test_convolve():
    assert convolve((1, 1), (1, 2, 1), 3) == (1, 3, 3, 1)


def test_compare_equal():
    t = Truncation(3, 3, 3)
    a = GradedCharacter.make({(0, 0, 0): 1}, t)
    assert compare(a, a) == Comparison("EQUAL", t)


def test_compare_le_and_mismatch():
    t = Truncation(3, 3, 3)
    a = GradedCharacter.make({(0, 0, 0): 1}, t)
    b = GradedCharacter.make({(0, 0, 0): 1, (1, 0, 1): 2}, t)
    le = compare(a, b)
    assert le.verdict == "LE"
    assert le.first_diff == (1, 0, 1, 0, 2)
    assert compare(b, a).verdict == "MISMATCH"


def test_compare_first_diff_is_lex_first():
    t = Truncation(5, 5, 5)
    a = GradedCharacter.make({(0, 0, 2): 1, (1, 0, 0): 5}, t)
    b = GradedCharacter.make({(0, 0, 2): 2, (1, 0, 0): 1}, t)
    assert compare(a, b).first_diff == (0, 0, 2, 1, 2)


def test_compare_ignores_keys_outside_meet():
    a = GradedCharacter.make({(0, 0, 0): 1, (0, 0, 3): 9}, Truncation(3))
    b = GradedCharacter.make({(0, 0, 0): 1}, Truncation(2))
    assert compare(a, b).verdict == "EQUAL"


def test_json_round_trip():
    c = GradedCharacter.make({(2, 1, 0): 3, (-1, 0, 2): 1}, Truncation(3, None, 2))
    data = to_json_dict(c)
    coeffs = {(r["z"], r["u"], r["q"]): r["dim"] for r in data["coefficients"]}
    assert GradedCharacter.make(coeffs, Truncation(**data["truncation"])) == c
    assert data["truncation"] == {"q_max": 3, "z_max": None, "u_max": 2}
    assert data["coefficients"][0] == {"z": -1, "u": 0, "q": 2, "dim": 1}


def test_render_csv():
    c = GradedCharacter.make({(1, 0, 2): 3}, Truncation(3, 3, 3))
    assert render_csv(c) == "z,u,q,dim\n1,0,2,3\n"


def test_render_table_smoke():
    c = GradedCharacter.make({(0, 0, 0): 1, (1, 0, 2): 3}, Truncation(3, 3, 3))
    text = render_table(c)
    assert "z=1,u=0" in text.splitlines()[0]
    assert render_table(GradedCharacter({}, Truncation(1))).startswith("(zero")
