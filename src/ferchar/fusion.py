"""Brute-force fusion of cyclic modules over a single current.

A CyclicModule packages exact per-component monomial bases of a quotient
algebra (components keyed by (z, q), u unused) together with the matrices
of multiplication by each generator mode e_{-j}.  Fusion evaluates n >= 2
such modules at pairwise distinct points z_1..z_n and filters the tensor
product by total point-power: the operators are

    E_j(m) = sum_t z_t^m  (e_{-j} acting in slot t),

and F_l is spanned by products of operators with m-weights summing to at
most l applied to the tensor of cyclic vectors.  Powers m >= n are linear
combinations of m <= n-1 (Vandermonde), so the recursion only uses
m = 0..n-1.  The u-degree-l layer of the fused character is
dim F_l - dim F_{l-1} per (z, q) component; all of this is exact on a
finite window because the operators strictly raise z and never lower q.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import ConfigurationError
from .exactlin import FieldMode, echelon, two_prime
# unused here, but perfbench/spans.py traces ferchar.fusion.reduce_rows as a
# boundary and stops with BoundaryMissing without it
from .exactlin import reduce_rows  # noqa: F401
from .fermionic import delta_vector
from .gradedchar import GradedCharacter, Truncation, compare
from .presented import (InitialConditions, Partition, Presentation,
                        build_presentation_A, normal_form_basis)

log = logging.getLogger("ferchar.fusion")


# ---------------------------------------------------------------------------
# cyclic modules


@dataclass(frozen=True)
class CyclicModule:
    label: str
    q_max: int
    z_max: int
    bases: dict  # (z, q) -> tuple of basis monomials
    actions: dict  # (j, z, q) -> per source index: ((target index, coeff), ...)
    offsets: dict  # (z, q) -> global index of the component's first basis vector
    field: int | None = None

    def dimension(self, z: int, q: int) -> int:
        return len(self.bases.get((z, q), ()))


def cyclic_module_from_presentation(p: Presentation, q_max: int, z_max: int,
                                    field: int | None = None,
                                    label: str = "") -> CyclicModule:
    """Exact bases and mode-action matrices for a one-family quotient."""
    if len(p.families) != 1 or p.families[0].u_increment != 0:
        raise ConfigurationError("cyclic modules need a single u-trivial family")
    min_mode = p.families[0].min_mode
    comps = {}
    for z in range(z_max + 1):
        for q in range(q_max + 1):
            nf = normal_form_basis(p, (z, 0, q), field)
            if nf.dimension:
                comps[(z, q)] = nf
    if (0, 0) not in comps or comps[(0, 0)].basis_monomials() != ((),):
        raise ConfigurationError("the cyclic vector was killed by the relations")
    bases = {zq: nf.basis_monomials() for zq, nf in comps.items()}
    offsets = {}
    total = 0
    for zq in sorted(bases):
        offsets[zq] = total
        total += len(bases[zq])
    # expansion of an arbitrary free monomial in the component basis
    expand = {}
    for zq, nf in comps.items():
        piv = set(nf.pivots)
        basis_pos = {}
        for i, mono in enumerate(nf.monomials):
            if i not in piv:
                basis_pos[i] = len(basis_pos)
        table = {}
        for i, mono in enumerate(nf.monomials):
            if i in piv:
                table[mono] = tuple((basis_pos[c], v) for c, v in nf.reductions[i])
            else:
                table[mono] = ((basis_pos[i], 1),)
        expand[zq] = table
    actions = {}
    for (z, q), monos in bases.items():
        for j in range(min_mode, q_max - q + 1):
            target = expand.get((z + 1, q + j))
            if z + 1 > z_max:
                continue
            images = []
            for mono in monos:
                if target is None:
                    images.append(())
                    continue
                merged = tuple(sorted(mono + ((0, j),)))
                images.append(target[merged])
            actions[(j, z, q)] = tuple(images)
    return CyclicModule(label, q_max, z_max, bases, actions, offsets, field)


def principal_subspace(i: int, k: int, q_max: int, z_max: int,
                       field: int | None = None) -> CyclicModule:
    """W_{i,k}: C[e modes]/(e(z)^{k+1}, e(z)^l divisible by z^{l-i} for l > i)."""
    if k < 1 or not 0 <= i <= k:
        raise ConfigurationError(f"need 1 <= k and 0 <= i <= k, got i={i}, k={k}")
    pres = build_presentation_A(Partition.make((k,)),
                                InitialConditions.make(delta_vector(i + 1, k), ()))
    return cyclic_module_from_presentation(pres, q_max, z_max, field, f"W[{i},{k}]")


# ---------------------------------------------------------------------------
# fusion


def default_points(n: int) -> tuple[int, ...]:
    return ((1, 0) + tuple(range(2, n)))[:n]


@dataclass(frozen=True)
class FusionSpec:
    modules: tuple
    points: tuple
    window: Truncation

    @staticmethod
    def make(modules, points, window: Truncation) -> FusionSpec:
        modules, points = tuple(modules), tuple(points)
        if len(modules) < 2:
            raise ConfigurationError("fusion needs at least two modules")
        if len(points) != len(modules):
            raise ConfigurationError("one evaluation point per module")
        if len(set(points)) != len(points):
            raise ConfigurationError(f"points must be pairwise distinct: {points}")
        if len({m.field for m in modules}) != 1:
            raise ConfigurationError("all modules must share one field")
        if window.z_max is None or window.u_max is None:
            raise ConfigurationError("fusion needs a finite window")
        for m in modules:
            if m.q_max < window.q_max or m.z_max < window.z_max:
                raise ConfigurationError(f"module {m.label} window too small")
        return FusionSpec(modules, points, window)


class FusionContext:
    """Tensor bases and filtration operators for one fusion computation."""

    def __init__(self, spec: FusionSpec):
        self.spec = spec
        self.field = spec.modules[0].field
        self.n = len(spec.modules)
        self._bases: dict = {}
        w = spec.window
        for big_z in range(w.z_max + 1):
            for big_q in range(w.q_max + 1):
                elems = self._build_elements(big_z, big_q)
                if elems:
                    self._bases[(big_z, big_q)] = (elems, {e: i for i, e in enumerate(elems)})

    def _build_elements(self, big_z, big_q):
        mods = self.spec.modules
        elems = []

        def rec(t, z_left, q_left, split):
            if t == self.n:
                if z_left == 0 and q_left == 0:
                    ranges = [range(mods[i].dimension(*split[i])) for i in range(self.n)]
                    idxs = [0] * self.n

                    def prod(i):
                        if i == self.n:
                            elems.append((tuple(split), tuple(idxs)))
                            return
                        for v in ranges[i]:
                            idxs[i] = v
                            prod(i + 1)

                    prod(0)
                return
            for z_t in range(z_left + 1):
                for q_t in range(q_left + 1):
                    if mods[t].dimension(z_t, q_t):
                        rec(t + 1, z_left - z_t, q_left - q_t, split + [(z_t, q_t)])

        rec(0, big_z, big_q, [])
        elems.sort(key=lambda e: tuple(self.spec.modules[t].offsets[e[0][t]] + e[1][t]
                                       for t in range(self.n)))
        return tuple(elems)

    def tensor_dimension(self, big_z: int, big_q: int) -> int:
        entry = self._bases.get((big_z, big_q))
        return len(entry[0]) if entry else 0

    def vacuum(self) -> dict:
        return {self._bases[(0, 0)][1][(((0, 0),) * self.n, (0,) * self.n)]: 1}

    def apply(self, j: int, m: int, component: tuple, vec: dict) -> dict:
        """E_j(m) applied to a vector in the (z, q) component."""
        big_z, big_q = component
        target = self._bases.get((big_z + 1, big_q + j))
        out: dict = {}
        if target is None:
            return out
        elems = self._bases[(big_z, big_q)][0]
        pos = target[1]
        p = self.field
        for src_pos, coeff in vec.items():
            split, idxs = elems[src_pos]
            for t, module in enumerate(self.spec.modules):
                point = self.spec.points[t]
                if m and not point:
                    continue
                scale = pow(point, m, p) if p is not None else point ** m
                act = module.actions.get((j,) + tuple(split[t]))
                if act is None:
                    continue
                for tgt_local, c in act[idxs[t]]:
                    new_split = split[:t] + ((split[t][0] + 1, split[t][1] + j),) + split[t + 1:]
                    new_idxs = idxs[:t] + (tgt_local,) + idxs[t + 1:]
                    key = pos[(new_split, new_idxs)]
                    w = out.get(key, 0) + coeff * scale * c
                    if p is not None:
                        w %= p
                    if w:
                        out[key] = w
                    else:
                        del out[key]
        return out

    def filtration_dimensions(self) -> dict:
        """dims[(z, q, l)] = dim F_l of the (z, q) tensor component.

        F_{l-1} lies in F_l, so each component keeps one echelon across l
        and remembers which basis vectors layer l added.  E_j(m) maps
        F_{l-m-1} of the source into F_{l-1}, so layer l only needs E_j(m)
        applied to the vectors added at layer l - m of the source.
        """
        w = self.spec.window
        dims: dict = {}
        added: dict = {}  # (z, q, l) -> basis vectors that F_l adds to F_{l-1}
        for big_z in range(w.z_max + 1):
            for big_q in range(w.q_max + 1):
                if (big_z, big_q) not in self._bases:
                    continue
                full = self.tensor_dimension(big_z, big_q)
                basis: dict = {}
                for l in range(w.u_max + 1):
                    before = len(basis)
                    if before < full:
                        echelon(self._layer_images(big_z, big_q, l, added),
                                self.field, full, basis)
                    added[(big_z, big_q, l)] = list(basis.values())[before:]
                    dims[(big_z, big_q, l)] = len(basis)
        return dims

    def _layer_images(self, big_z, big_q, l, added):
        if big_z == 0:
            if big_q == 0 and l == 0:
                yield self.vacuum()
            return
        for j in range(big_q + 1):
            src = (big_z - 1, big_q - j)
            for m_op in range(min(l, self.n - 1) + 1):
                for v in added.get(src + (l - m_op,), ()):
                    yield self.apply(j, m_op, src, v)


def fusion_character(spec: FusionSpec) -> GradedCharacter:
    ctx = FusionContext(spec)
    dims = ctx.filtration_dimensions()
    w = spec.window
    coeffs: dict = {}
    for (big_z, big_q, l), d in dims.items():
        below = dims.get((big_z, big_q, l - 1), 0) if l else 0
        if d - below:
            coeffs[(big_z, l, big_q)] = d - below
    return GradedCharacter.make(coeffs, w)


def principal_fusion_character(i1: int, k1: int, i2: int, k2: int,
                               window: Truncation,
                               mode: FieldMode | None = None,
                               points: tuple | None = None) -> GradedCharacter:
    """Fused character of W_{i1,k1} and W_{i2,k2} by the filtration.

    In two-prime mode the whole computation runs once per prime and the
    results must agree; otherwise it is redone over the rationals.
    """
    mode = mode or FieldMode.exact()
    points = default_points(2) if points is None else tuple(points)
    if window.z_max is None or window.u_max is None:
        raise ConfigurationError("fusion needs a finite window")

    def run(field):
        mods = (principal_subspace(i1, k1, window.q_max, window.z_max, field),
                principal_subspace(i2, k2, window.q_max, window.z_max, field))
        return fusion_character(FusionSpec.make(mods, points, window))

    fused, by_prime = two_prime(
        run, mode, lambda first, second: compare(first, second).verdict == "EQUAL")
    if by_prime is not None:
        log.warning("fusion dims differ between primes %s; recomputing exactly",
                    mode.primes)
    return fused

