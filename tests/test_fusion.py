from __future__ import annotations

import logging
import math

import pytest

from ferchar.errors import ConfigurationError
from ferchar.exactlin import FieldMode, NonUnit, reduce_rows
from ferchar.fusion import (CyclicModule, FusionContext, FusionSpec,
                            cyclic_module_from_presentation, default_points,
                            fusion_character, principal_fusion_character,
                            principal_subspace)
from ferchar.gradedchar import Truncation, char_mul, compare
from ferchar.presented import (GeneratorFamily, InitialConditions, Partition,
                               Presentation, RelationFamily,
                               build_presentation_A, graded_character)


def trivial_module(q_max: int, z_max: int, field: int | None = None) -> CyclicModule:
    """The trivial module C: its one generator is a relation."""
    pres = Presentation.make(
        (GeneratorFamily("a", 0, 0),),
        (RelationFamily((("a", 0, 1),), None, "a"),))
    return cyclic_module_from_presentation(pres, q_max, z_max, field, "C")


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
    from ferchar.fermionic import delta_vector
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


def test_module_actions_commute_and_span():
    for i, k in ((0, 1), (1, 2)):
        mod = principal_subspace(i, k, 4, 3)
        assert check_actions_commute(mod)
        assert check_cyclic(mod)


def test_default_points():
    assert default_points(2) == (1, 0)
    assert default_points(4) == (1, 0, 2, 3)


def test_fusion_spec_validation():
    w = Truncation(2, 2, 2)
    a = principal_subspace(1, 1, 2, 2)
    b = principal_subspace(1, 1, 2, 2, field=5)
    with pytest.raises(ConfigurationError):
        FusionSpec.make((a,), (1,), w)
    with pytest.raises(ConfigurationError):
        FusionSpec.make((a, a), (1, 1), w)
    with pytest.raises(ConfigurationError):
        FusionSpec.make((a, b), (1, 0), w)
    # distinct integers, one point of the field of 5 elements: a non-unit
    # difference, which sends a two-prime run to the rationals
    with pytest.raises(NonUnit):
        FusionSpec.make((b, b), (6, 1), w)
    FusionSpec.make((a, a), (6, 1), w)
    # over the integers mod p1*p2, points equal modulo p1 alone
    p1, p2 = FieldMode.two_prime(0).primes
    c = principal_subspace(1, 1, 2, 2, field=p1 * p2)
    with pytest.raises(NonUnit):
        FusionSpec.make((c, c), (1, 1 + p1), w)
    FusionSpec.make((c, c), (2, 1), w)
    with pytest.raises(ConfigurationError):
        FusionSpec.make((a, a), (1, 0), Truncation(2, None, 2))
    with pytest.raises(ConfigurationError):
        FusionSpec.make((a, a), (1, 0), Truncation(3, 2, 2))


def test_apply_drops_terms_that_vanish_mod_a_composite():
    # mod 6: coefficient 2 at point 3 vanishes where out had no entry
    line = CyclicModule("line", 1, 1, ((0, 0), (1, 1)), {(1, 0): ((1, 1),)}, 6)
    ctx = FusionContext(FusionSpec.make((line, line), (3, 2), Truncation(1, 1, 1)))
    assert ctx.apply(1, 1, (0, 0), {0: 2}) == {ctx._pos[(0, 1)]: 4}
    assert ctx.apply(1, 1, (0, 0), {0: 1}) == {ctx._pos[(1, 0)]: 3,
                                                ctx._pos[(0, 1)]: 2}


def test_fusion_with_trivial_factor_is_u_trivial():
    w = Truncation(3, 3, 2)
    spec = FusionSpec.make((principal_subspace(1, 1, 3, 3),
                            trivial_module(3, 3)), (1, 0), w)
    fused = fusion_character(spec)
    direct = w_char(1, 1, 3, 3)
    assert all(u == 0 for _, u, _ in fused.coeffs)
    assert collapse_u(fused) == collapse_u(direct)


def test_filtration_u_sum_is_the_tensor_character():
    # holds no matter what the filtration layers look like individually
    w = Truncation(4, 3, 3)
    fused = principal_fusion_character(1, 1, 1, 2, w)
    product = char_mul(w_char(1, 1, 4, 3), w_char(1, 2, 4, 3))
    assert collapse_u(fused) == collapse_u(product)


def test_fusion_is_point_independent():
    w = Truncation(4, 3, 3)
    a = principal_fusion_character(0, 1, 1, 2, w, points=(1, 0))
    b = principal_fusion_character(0, 1, 1, 2, w, points=(2, 5))
    assert compare(a, b).verdict == "EQUAL"


def test_fusion_two_prime_matches_exact():
    w = Truncation(3, 3, 2)
    exact = principal_fusion_character(1, 1, 1, 1, w, FieldMode.exact())
    two = principal_fusion_character(1, 1, 1, 1, w, FieldMode.two_prime(0))
    assert compare(exact, two).verdict == "EQUAL"


@pytest.mark.parametrize("primes", [(5, 7), (3, 5)])
@pytest.mark.parametrize("levels", [(0, 1, 0, 1), (1, 1, 0, 2), (2, 2, 1, 2)])
def test_fusion_small_primes_match_exact(levels, primes, caplog):
    # small forced primes: modulo 35 the run meets no non-unit; modulo 15
    # (1,1,0,2) and (2,2,1,2) meet one and escalate to the rationals, which
    # the warning shows
    w = Truncation(4, 3, 3)
    exact = principal_fusion_character(*levels, w, FieldMode.exact())
    with caplog.at_level(logging.WARNING, logger="ferchar.exactlin"):
        small = principal_fusion_character(*levels, w,
                                           FieldMode("two-prime", None, primes))
    assert compare(exact, small).verdict == "EQUAL"
    escalated = "recomputing exactly" in caplog.text
    assert escalated == (primes == (3, 5) and levels != (0, 1, 0, 1))


def compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


def apply_chain(ctx, js):
    vec, comp = ctx.vacuum(), (0, 0)
    for j in reversed(js):
        vec = ctx.apply(j, 0, comp, vec)
        comp = (comp[0] + 1, comp[1] + j)
        if not vec:
            break
    return vec


def test_diagonal_current_power_annihilates():
    # e(z)^{k1+k2+1} = 0 on the tensor product, coefficient by coefficient
    ctx = FusionContext(FusionSpec.make(
        (principal_subspace(1, 1, 4, 4), principal_subspace(1, 1, 4, 4)),
        (1, 0), Truncation(4, 4, 3)))
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
    w = ctx.spec.window
    layers, dims = {}, {}
    for big_z in range(w.z_max + 1):
        for big_q in range(w.q_max + 1):
            if not ctx.tensor_dimension(big_z, big_q):
                continue
            for l in range(w.u_max + 1):
                vecs = [ctx.vacuum()] if (big_z, big_q) == (0, 0) else []
                for j in range(big_q + 1 if big_z else 0):
                    src = (big_z - 1, big_q - j)
                    for m in range(min(l, ctx.n - 1) + 1):
                        for v in layers.get(src + (l - m,), ()):
                            vecs.append(ctx.apply(j, m, src, v))
                layers[(big_z, big_q, l)] = [r for _, r in reduce_rows(vecs, ctx.field)]
                dims[(big_z, big_q, l)] = len(layers[(big_z, big_q, l)])
    return dims


@pytest.mark.parametrize("field", [None, *FieldMode.two_prime(0).primes,
                                   math.prod(FieldMode.two_prime(0).primes)])
@pytest.mark.parametrize("levels", [(0, 1, 1, 1), (1, 1, 1, 2), (2, 2, 0, 2),
                                    (1, 2, 1, 2), (1, 1, 0, 2),
                                    (1, 3, 2, 3), (0, 2, 1, 3)])
def test_incremental_filtration_matches_recomputation(levels, field):
    i1, k1, i2, k2 = levels
    w = Truncation(4, 3, 3)
    spec = FusionSpec.make((principal_subspace(i1, k1, 4, 3, field),
                            principal_subspace(i2, k2, 4, 3, field)), (1, 0), w)
    ctx = FusionContext(spec)
    assert ctx.filtration_dimensions() == filtration_recomputed(ctx)


@pytest.mark.parametrize("field", [None, math.prod(FieldMode.two_prime(0).primes)])
@pytest.mark.parametrize("points", [(1, 0, 2), (3, 5, 11)])
def test_three_factor_filtration_matches_recomputation(points, field):
    # three points give the operators E_j(2), which two points reduce away
    w = Truncation(4, 4, 4)
    mods = [principal_subspace(i, k, 4, 4, field) for i, k in ((1, 1), (0, 2), (1, 2))]
    ctx = FusionContext(FusionSpec.make(mods, points, w))
    assert ctx.filtration_dimensions() == filtration_recomputed(ctx)

