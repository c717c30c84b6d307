from __future__ import annotations

import functools
import itertools
import logging
import math

import pytest

from ferchar import fusion
from ferchar.errors import ConfigurationError
from ferchar.exactlin import FieldMode, NonUnit, reduce_rows
from ferchar.fermionic import character_A_lambda_cd, character_W_fusion, delta_vector
from ferchar.fusion import (CyclicModule, FusionContext,
                            cyclic_module_from_presentation, default_points,
                            fusion_character, principal_fusion_character,
                            principal_subspace)
from ferchar.gradedchar import GradedCharacter, Truncation, char_mul, compare
from ferchar.presented import (GeneratorFamily, InitialConditions, Partition,
                               Presentation, RelationFamily,
                               build_presentation_A, graded_character,
                               normal_form_basis)
from helpers import char_reweight


def trivial_module(q_max: int, z_max: int, field: int | None = None) -> CyclicModule:
    """The trivial module C: its one generator is a relation."""
    pres = Presentation.make(
        (GeneratorFamily("a", 0, 0),),
        (RelationFamily((("a", 0, 1),), None, "a"),))
    return cyclic_module_from_presentation(pres, q_max, z_max, field)


def action_on_vector(module: CyclicModule, j: int, vec: dict) -> dict:
    """e_{-j} applied to a vector, both keyed by global index."""
    out: dict = {}
    p = module.field
    for src, coeff in vec.items():
        for tgt, c in module.actions.get((j, src), ()):
            w = out.get(tgt, 0) + coeff * c
            if p is not None:
                w %= p
            if w:
                out[tgt] = w
            else:
                del out[tgt]
    return out


def check_actions_commute(module: CyclicModule) -> bool:
    """e_{-j1} e_{-j2} = e_{-j2} e_{-j1} on every basis vector the window holds."""
    for src, (z, q) in enumerate(module.degrees):
        for j1 in range(module.q_max + 1):
            for j2 in range(j1, module.q_max + 1):
                if z + 2 > module.z_max or q + j1 + j2 > module.q_max:
                    continue
                vec = {src: 1}
                one = action_on_vector(module, j2, action_on_vector(module, j1, vec))
                two = action_on_vector(module, j1, action_on_vector(module, j2, vec))
                if one != two:
                    return False
    return True


def check_cyclic(module: CyclicModule) -> bool:
    """The mode closure of the cyclic vector spans every stored component."""
    spans = {(0, 0): [{0: 1}]}
    for (z, q) in sorted(set(module.degrees)):
        if (z, q) == (0, 0):
            continue
        vecs = []
        for j in range(q + 1):
            for v in spans.get((z - 1, q - j), []):
                w = action_on_vector(module, j, v)
                if w:
                    vecs.append(w)
        reduced = [row for _, row in reduce_rows(vecs, module.field)]
        spans[(z, q)] = reduced
        if len(reduced) != module.degrees.count((z, q)):
            return False
    return True


def w_char(i, k, q_max, z_max):
    pres = build_presentation_A(Partition.make((k,)),
                                InitialConditions.make(delta_vector(i + 1, k), ()))
    return graded_character(pres, Truncation(q_max, z_max, 0))


def collapse_u(c):
    out = {}
    for (z, u, q), v in c.coeffs.items():
        out[(z, q)] = out.get((z, q), 0) + v
    return out


def test_principal_subspace_validation():
    with pytest.raises(ConfigurationError):
        principal_subspace(2, 1, 3, 3)
    with pytest.raises(ConfigurationError):
        principal_subspace(0, 0, 3, 3)


def test_cyclic_modules_need_one_u_trivial_family():
    rel = RelationFamily((("a", 0, 2),), None, "a^2")
    two = Presentation.make((GeneratorFamily("a"), GeneratorFamily("b", 0, 1)), (rel,))
    u_graded = Presentation.make((GeneratorFamily("a", 1, 0),), (rel,))
    for pres in (two, u_graded):
        with pytest.raises(ConfigurationError, match="single u-trivial family"):
            cyclic_module_from_presentation(pres, 2, 2)


def test_principal_fusion_character_needs_a_finite_window():
    for window in (Truncation(2, None, 2), Truncation(2, 2, None)):
        with pytest.raises(ConfigurationError, match="finite window"):
            principal_fusion_character(((0, 1), (1, 1)), window)


def test_module_actions_commute_and_span():
    for i, k in ((0, 1), (1, 2)):
        mod = principal_subspace(i, k, 4, 3)
        assert check_actions_commute(mod)
        assert check_cyclic(mod)


def test_default_points():
    assert default_points(2) == (1, 0)
    assert default_points(4) == (1, 0, 2, 3)


def test_fusion_spec_validation():
    # FusionContext refuses a bad set of modules, points or window
    w = Truncation(2, 2, 2)
    a = principal_subspace(1, 1, 2, 2)
    b = principal_subspace(1, 1, 2, 2, field=5)
    with pytest.raises(ConfigurationError, match="at least two modules"):
        FusionContext((a,), (1,), w)
    with pytest.raises(ConfigurationError, match="pairwise distinct"):
        FusionContext((a, a), (1, 1), w)
    with pytest.raises(ConfigurationError, match="one evaluation point per module"):
        FusionContext((a, a), (), w)
    with pytest.raises(ConfigurationError, match="share one field"):
        FusionContext((a, b), (1, 0), w)
    # distinct integers, one point of the field of 5 elements: a non-unit
    # difference, which sends a two-prime run to the rationals
    with pytest.raises(NonUnit):
        FusionContext((b, b), (6, 1), w)
    FusionContext((a, a), (6, 1), w)
    # over the integers mod p1*p2, points equal modulo p1 alone
    p1, p2 = FieldMode.two_prime(0).primes
    c = principal_subspace(1, 1, 2, 2, field=p1 * p2)
    with pytest.raises(NonUnit):
        FusionContext((c, c), (1, 1 + p1), w)
    FusionContext((c, c), (2, 1), w)
    with pytest.raises(ConfigurationError, match="finite window"):
        FusionContext((a, a), (1, 0), Truncation(2, None, 2))
    with pytest.raises(ConfigurationError, match="window too small"):
        FusionContext((a, a), (1, 0), Truncation(3, 2, 2))


def test_apply_drops_terms_that_vanish_mod_a_composite():
    # mod 6: coefficient 2 at point 3 vanishes where out had no entry
    line = CyclicModule(1, 1, ((0, 0), (1, 1)), {(1, 0): ((1, 1),)}, 6)
    ctx = FusionContext((line, line), (3, 2), Truncation(1, 1, 1))
    # with strides (2, 1) the slot tuples (0, 1) and (1, 0) have codes 1 and 2
    assert ctx.apply(1, 1, {0: 2}) == {1: 4}
    assert ctx.apply(1, 1, {0: 1}) == {2: 3, 1: 2}


@pytest.mark.parametrize("levels", [((1, 1), (0, 2)), ((1, 1), (0, 2), (1, 2))])
def test_tensor_dimensions_count_the_cut_product(levels):
    w = Truncation(4, 3, 2)
    mods = [principal_subspace(i, k, 5, 4) for i, k in levels]
    brute: dict = {}
    for degrees in itertools.product(*(m.degrees for m in mods)):
        z, q = map(sum, zip(*degrees))
        if z <= w.z_max and q <= w.q_max:
            brute[(z, q)] = brute.get((z, q), 0) + 1
    ctx = FusionContext(mods, default_points(len(mods)), w)
    assert ctx.dimensions == brute
    assert list(ctx.dimensions) == sorted(brute)


LEVELS_K3 = [(i, k) for k in (1, 2, 3) for i in range(k + 1)]


@pytest.mark.parametrize("mode", [FieldMode.exact(), FieldMode.two_prime(0)])
def test_two_factor_fusion_is_symmetric(mode):
    # z -> 1 - z swaps the points (1, 0) and sends each E_j(m) to a
    # triangular combination of the E_j(m') with m' <= m, diagonal +-1, so
    # every F_l is kept; swapping the modules swaps the code strides
    w = Truncation(6, 4, 3)
    for a, b in itertools.combinations(LEVELS_K3, 2):
        assert principal_fusion_character((a, b), w, mode) == \
            principal_fusion_character((b, a), w, mode), (a, b)


def test_a_large_z_cap_costs_only_the_nonzero_z_range(monkeypatch):
    # a z + 1 monomial is a generator times a z monomial, so a module's z
    # loop ends at its first zero z-layer, and the filtration walks only
    # the nonzero tensor components
    calls = []

    def counted(p, tridegree, field=None):
        calls.append(tridegree)
        return normal_form_basis(p, tridegree, field)

    monkeypatch.setattr(fusion, "normal_form_basis", counted)
    pres = [build_presentation_A(Partition.make((k,)),
                                 InitialConditions.make(delta_vector(i + 1, k), ()))
            for i, k in ((0, 1), (1, 2))]

    def fused(z_max):
        w = Truncation(2, z_max, 1)
        mods = [cyclic_module_from_presentation(p, 2, z_max) for p in pres]
        return mods, fusion_character(mods, (1, 0), w)

    small = fused(20)[1]
    calls.clear()
    mods, big = fused(10**6)
    assert big.coeffs == small.coeffs
    # each module asks for its nonzero z-layers and one zero layer, q <= 2
    assert len(calls) == sum((max(z for z, _ in m.degrees) + 2) * 3 for m in mods)


def test_fusion_with_trivial_factor_is_u_trivial():
    w = Truncation(3, 3, 2)
    fused = fusion_character((principal_subspace(1, 1, 3, 3), trivial_module(3, 3)),
                             (1, 0), w)
    direct = w_char(1, 1, 3, 3)
    assert all(u == 0 for _, u, _ in fused.coeffs)
    assert collapse_u(fused) == collapse_u(direct)


def test_filtration_u_sum_is_the_tensor_character():
    # holds no matter what the filtration layers look like individually
    w = Truncation(4, 3, 3)
    fused = principal_fusion_character(((1, 1), (1, 2)), w)
    product = char_mul(w_char(1, 1, 4, 3), w_char(1, 2, 4, 3))
    assert collapse_u(fused) == collapse_u(product)


def test_fusion_is_point_independent():
    w = Truncation(4, 3, 3)
    a = principal_fusion_character(((0, 1), (1, 2)), w, points=(1, 0))
    b = principal_fusion_character(((0, 1), (1, 2)), w, points=(2, 5))
    assert compare(a, b).verdict == "EQUAL"


def test_fusion_two_prime_matches_exact():
    w = Truncation(3, 3, 2)
    exact = principal_fusion_character(((1, 1), (1, 1)), w, FieldMode.exact())
    two = principal_fusion_character(((1, 1), (1, 1)), w, FieldMode.two_prime(0))
    assert compare(exact, two).verdict == "EQUAL"


def test_k4_filtration_matches_the_closed_sum():
    # (4,4,4,4) is EQUAL by the fused-character match rule; the filtration
    # at k = 4, on a window where the standard monomials reach degree 6
    w = Truncation(8, 6, 6)
    fused = principal_fusion_character(((4, 4), (4, 4)), w, FieldMode.two_prime(0))
    assert compare(fused, character_W_fusion(4, 4, 4, 4, w)).verdict == "EQUAL"


@pytest.mark.parametrize("points", [None, (3, 5, 11)])
@pytest.mark.parametrize("levels", [((1, 1), (0, 2), (1, 2)), ((0, 1), (1, 1), (1, 1))])
def test_three_factor_two_prime_matches_exact(levels, points):
    w = Truncation(5, 4, 4)
    exact = principal_fusion_character(levels, w, FieldMode.exact(), points)
    two = principal_fusion_character(levels, w, FieldMode.two_prime(0), points)
    assert compare(exact, two).verdict == "EQUAL"


@pytest.mark.parametrize("primes", [(5, 7), (3, 5)])
@pytest.mark.parametrize("levels", [((0, 1), (0, 1)), ((1, 1), (0, 2)),
                                    ((2, 2), (1, 2))])
def test_fusion_small_primes_match_exact(levels, primes, caplog):
    # small forced primes: modulo 35 the run meets no non-unit; modulo 15
    # (1,1,0,2) and (2,2,1,2) meet one and escalate to the rationals, which
    # the warning shows
    w = Truncation(4, 3, 3)
    exact = principal_fusion_character(levels, w, FieldMode.exact())
    with caplog.at_level(logging.WARNING, logger="ferchar.exactlin"):
        small = principal_fusion_character(levels, w,
                                           FieldMode("two-prime", None, primes))
    assert compare(exact, small).verdict == "EQUAL"
    escalated = "recomputing exactly" in caplog.text
    assert escalated == (primes == (3, 5) and levels != ((0, 1), (0, 1)))


def compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


def apply_chain(ctx, js):
    vec = {0: 1}
    for j in reversed(js):
        vec = ctx.apply(j, 0, vec)
        if not vec:
            break
    return vec


def test_diagonal_current_power_annihilates():
    # e(z)^{k1+k2+1} = 0 on the tensor product, coefficient by coefficient
    ctx = FusionContext(
        (principal_subspace(1, 1, 4, 4), principal_subspace(1, 1, 4, 4)),
        (1, 0), Truncation(4, 4, 3))
    for n in range(3):
        total: dict = {}
        for js in compositions(n, 3):
            for key, v in apply_chain(ctx, js).items():
                w = total.get(key, 0) + v
                if w:
                    total[key] = w
                else:
                    del total[key]
        assert total == {}
    # the k1 + k2 power is still alive
    alive = {}
    for js in compositions(0, 2):
        for key, v in apply_chain(ctx, js).items():
            alive[key] = alive.get(key, 0) + v
    assert alive


def filtration_recomputed(ctx):
    """dim F_l with every layer spanned anew from all of F_{l-m} below it.

    Its l = 0 layer is the closure of the vacuum under the m = 0 operators."""
    w = ctx.window
    layers, dims = {}, {}
    for big_z in range(w.z_max + 1):
        for big_q in range(w.q_max + 1):
            if (big_z, big_q) not in ctx.dimensions:
                continue
            for l in range(w.u_max + 1):
                vecs = [{0: 1}] if (big_z, big_q) == (0, 0) else []
                for j in range(big_q + 1 if big_z else 0):
                    src = (big_z - 1, big_q - j)
                    for m in range(min(l, ctx.n - 1) + 1):
                        for v in layers.get(src + (l - m,), ()):
                            vecs.append(ctx.apply(j, m, v))
                layers[(big_z, big_q, l)] = [r for _, r in reduce_rows(vecs, ctx.field)]
                dims[(big_z, big_q, l)] = len(layers[(big_z, big_q, l)])
    return dims


def differenced(dims):
    """The layers dim F_l - dim F_{l-1}, keyed (z, l, q), where nonzero."""
    layers = {}
    for (big_z, big_q, l), d in dims.items():
        layer = d - dims.get((big_z, big_q, l - 1), 0)
        if layer:
            layers[(big_z, l, big_q)] = layer
    return layers


@pytest.mark.parametrize("field", [None, *FieldMode.two_prime(0).primes,
                                   math.prod(FieldMode.two_prime(0).primes)])
@pytest.mark.parametrize("levels", [(0, 1, 1, 1), (1, 1, 1, 2), (2, 2, 0, 2),
                                    (1, 2, 1, 2), (1, 1, 0, 2),
                                    (1, 3, 2, 3), (0, 2, 1, 3)])
def test_incremental_filtration_matches_recomputation(levels, field):
    check_incremental_filtration(levels, field, Truncation(4, 3, 3))


@pytest.mark.parametrize("field", [None, math.prod(FieldMode.two_prime(0).primes)])
@pytest.mark.parametrize("levels", [(2, 2, 2, 2), (1, 3, 2, 3), (1, 2, 2, 2)])
def test_incremental_filtration_matches_recomputation_on_a_wider_window(levels, field):
    # here the pivot rows that standard monomials are extended from differ
    # from their raw images
    check_incremental_filtration(levels, field, Truncation(6, 4, 4))


def check_incremental_filtration(levels, field, w):
    i1, k1, i2, k2 = levels
    ctx = FusionContext((principal_subspace(i1, k1, w.q_max, w.z_max, field),
                         principal_subspace(i2, k2, w.q_max, w.z_max, field)), (1, 0), w)
    assert ctx.layer_counts() == differenced(filtration_recomputed(ctx))


@pytest.mark.parametrize("field", [None, math.prod(FieldMode.two_prime(0).primes)])
@pytest.mark.parametrize("points", [(1, 0, 2), (3, 5, 11)])
def test_three_factor_filtration_matches_recomputation(points, field):
    # three points give the operators E_j(2), which two points reduce away
    w = Truncation(4, 4, 4)
    mods = [principal_subspace(i, k, 4, 4, field) for i, k in ((1, 1), (0, 2), (1, 2))]
    ctx = FusionContext(mods, points, w)
    assert ctx.layer_counts() == differenced(filtration_recomputed(ctx))



# ---------------------------------------------------------------------------
# recursions of the filtration characters

RECURSION_WINDOW = Truncation(9, 7, 7)
RECURSION_LEVELS = [(1, 1), (1, 2), (2, 1), (2, 2)]


@functools.cache
def fused(a1: int, k1: int, a2: int, k2: int):
    """F[a1, a2] at levels (k1, k2): the two-prime filtration character on
    RECURSION_WINDOW.  For one factor, ch W_{i,k} - ch W_{i-1,k} =
    z^i sigma ch W_{k-i,k}, where sigma maps (z, u, q) to (z, u, q + z):
    the kernel of W_{i,k} -> W_{i-1,k} is a shifted W_{k-i,k}
    (Feigin-Stoyanovsky, arXiv:hep-th/9308079).  The tests below check the
    two-factor forms that hold when one index is 0, and that the u = 0
    layer is the principal subspace of level k1 + k2."""
    return principal_fusion_character(((a1, k1), (a2, k2)), RECURSION_WINDOW,
                                      FieldMode.two_prime(0))


def sigma(c):
    return char_reweight(c, 1, 0, 1, 0)


def z_power(a: int, c):
    return char_reweight(c, 1, a, 0, 0)


def difference(a, b):
    """a - b on the meet of their windows."""
    out = dict(a.coeffs)
    for key, v in b.coeffs.items():
        out[key] = out.get(key, 0) - v
    return GradedCharacter.make(out, a.truncation.meet(b.truncation))


@pytest.mark.parametrize("k1,k2", RECURSION_LEVELS)
def test_filtration_r0(k1, k2):
    # F[0, 0] = sigma F[k1, k2]
    assert compare(fused(0, k1, 0, k2), sigma(fused(k1, k1, k2, k2))).verdict == "EQUAL"


@pytest.mark.parametrize("k1,k2", RECURSION_LEVELS)
def test_filtration_r1_with_one_index_zero(k1, k2):
    # F[a1, 0] - F[a1 - 1, 0] = z^a1 sigma F[k1 - a1, k2], and the same
    # with the factors swapped, lowering a2 while a1 = 0
    for a1 in range(1, k1 + 1):
        step = difference(fused(a1, k1, 0, k2), fused(a1 - 1, k1, 0, k2))
        rule = z_power(a1, sigma(fused(k1 - a1, k1, k2, k2)))
        assert compare(step, rule).verdict == "EQUAL", a1
    for a2 in range(1, k2 + 1):
        step = difference(fused(0, k1, a2, k2), fused(0, k1, a2 - 1, k2))
        rule = z_power(a2, sigma(fused(k1, k1, k2 - a2, k2)))
        assert compare(step, rule).verdict == "EQUAL", a2


@pytest.mark.parametrize("k1,k2", RECURSION_LEVELS)
def test_filtration_u0_layer_is_the_principal_subspace(k1, k2):
    layer_window = Truncation(9, 7, 0)
    for a1, a2 in itertools.product(range(k1 + 1), range(k2 + 1)):
        layer = GradedCharacter.make(fused(a1, k1, a2, k2).coeffs, layer_window)
        closed = character_A_lambda_cd(
            Partition.make((k1 + k2,)),
            InitialConditions.make(delta_vector(a1 + a2 + 1, k1 + k2), ()), layer_window)
        assert compare(layer, closed).verdict == "EQUAL", (a1, a2)


# ---------------------------------------------------------------------------
# where the closed rule of fermionic.fusion_rule is reproduced


def closed_rule_holds(i1: int, k1: int, i2: int, k2: int) -> bool:
    """The match rule, for k1 <= k2: the two vacuum principal subspaces
    (i1, i2) = (k1, k2); or i1 = 0 and i2 <= k2 - k1 + 1; or k1 = k2, i2 = 0
    and i1 <= 1."""
    return ((i1, i2) == (k1, k2) or (i1 == 0 and i2 <= k2 - k1 + 1)
            or (k1 == k2 and i2 == 0 and i1 <= 1))


def test_closed_fusion_rule_holds_on_the_match_rule():
    # every tuple with k1 <= k2 <= 3: the filtration equals the closed sum on
    # the match rule, and is at most it at every key elsewhere
    verdicts = {}
    for k1, k2 in itertools.combinations_with_replacement(range(1, 4), 2):
        for i1, i2 in itertools.product(range(k1 + 1), range(k2 + 1)):
            a = (i1, k1, i2, k2)
            verdicts[a] = compare(fused(*a), character_W_fusion(*a, RECURSION_WINDOW)).verdict
    assert len(verdicts) == 55
    assert [(a, v) for a, v in verdicts.items()
            if v not in (("EQUAL",) if closed_rule_holds(*a) else ("EQUAL", "LE"))] == []
