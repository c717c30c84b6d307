from __future__ import annotations

import pytest

from ferchar.errors import ConfigurationError
from ferchar.exactlin import FieldMode, reduce_rows
from ferchar.fusion import (FusionContext, FusionSpec, check_actions_commute,
                            check_cyclic, default_points,
                            diagonal_u0_dimensions, fusion_character,
                            principal_fusion_character, principal_subspace,
                            shifted_principal_character, trivial_module)
from ferchar.gradedchar import Truncation, char_mul, compare
from ferchar.presented import (InitialConditions, Partition,
                               build_presentation_A, graded_character)


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
    with pytest.raises(ConfigurationError):
        FusionSpec.make((a, a), (1, 0), Truncation(2, None, 2))
    with pytest.raises(ConfigurationError):
        FusionSpec.make((a, a), (1, 0), Truncation(3, 2, 2))


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


def test_diagonal_u0_matches_filtration_bottom():
    w = Truncation(3, 3, 2)
    spec = FusionSpec.make((principal_subspace(1, 1, 3, 3),
                            principal_subspace(0, 2, 3, 3)), (1, 0), w)
    diag = {k: v for k, v in diagonal_u0_dimensions(spec).items() if v}
    full = fusion_character(spec)
    u0 = {(z, q): v for (z, u, q), v in full.coeffs.items() if u == 0}
    assert diag == u0


def filtration_recomputed(ctx):
    """dim F_l with every layer spanned anew from all of F_{l-m} below it."""
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


@pytest.mark.parametrize("field", [None, *FieldMode.two_prime(0).primes])
@pytest.mark.parametrize("levels", [(0, 1, 1, 1), (1, 1, 1, 2), (2, 2, 0, 2),
                                    (1, 2, 1, 2)])
def test_incremental_filtration_matches_recomputation(levels, field):
    i1, k1, i2, k2 = levels
    w = Truncation(4, 3, 3)
    spec = FusionSpec.make((principal_subspace(i1, k1, 4, 3, field),
                            principal_subspace(i2, k2, 4, 3, field)), (1, 0), w)
    ctx = FusionContext(spec)
    assert ctx.filtration_dimensions() == filtration_recomputed(ctx)


def test_shifted_character_zero_shift_is_identity():
    w = Truncation(4, 2, 0)
    assert shifted_principal_character(0, 1, 0, w).coeffs == \
        w_char(0, 1, 4, 2).coeffs


def test_shifted_character_frozen():
    c = shifted_principal_character(0, 1, 1, Truncation(2, 2, 0))
    assert dict(sorted(c.coeffs.items())) == {
        (0, 0, 0): 1,
        (1, 0, -1): 1, (1, 0, 0): 1, (1, 0, 1): 1, (1, 0, 2): 1,
        (2, 0, 0): 1, (2, 0, 1): 1, (2, 0, 2): 2}


def test_shifted_character_validation():
    with pytest.raises(ConfigurationError):
        shifted_principal_character(0, 1, -1, Truncation(2, 2, 0))
    with pytest.raises(ConfigurationError):
        shifted_principal_character(0, 1, 1, Truncation(2, None, 0))
