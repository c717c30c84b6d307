"""Brute-force fusion of cyclic modules over a single current.

A CyclicModule numbers the exact monomial basis of a quotient algebra
(components keyed by (z, q), u unused) once: a basis vector's global index
runs by increasing (z, q), then by column order inside its component.  Its
matrices of multiplication by each generator mode e_{-j} are keyed by
(j, global index).  Fusion evaluates n >= 2 such modules at points
z_1..z_n whose pairwise differences are units in the modules' field (or
ring of integers mod N; a nonzero difference that is not a unit raises
`NonUnit`, which sends a two-prime run to the rationals), and filters the
tensor product by total point-power: the operators are

    E_j(m) = sum_t z_t^m  (e_{-j} acting in slot t),

and F_l is spanned by products of operators with m-weights summing to at
most l applied to the tensor of cyclic vectors; they commute, so these are
monomials in x_{j,m} = E_j(m), and F_l has a basis of standard monomials.
Powers m >= n are linear combinations of m <= n-1 (Vandermonde), so the
monomials only use m = 0..n-1.  A tensor basis element is coded by one
integer, sum_t g_t * stride_t over its slots' global indices g_t, with
the last slot's stride 1 and each other stride the product of the basis
sizes after it; so codes order as the tuples (g_1, ..., g_n) do, and
acting in slot t moves a code by a multiple of stride_t.  The u-degree-l
layer of the fused character is dim F_l - dim F_{l-1} per (z, q)
component, the number of standard monomials of degree l; all of this is
exact on a finite window because the operators strictly raise z and
never lower q.  A standard monomial M' is extended from the pivot row it
left in its component's echelon, not from its raw image: the two differ by
a unit factor and by images of smaller monomials, which x carries into the
span of the larger component's echelon (see `FusionContext.layer_counts`),
so the standard monomials are unchanged and x M' repeats none of the
eliminations M' went through.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, namedtuple

from .errors import ConfigurationError
from .exactlin import FieldMode, NonUnit, echelon, two_prime
# unused here, but perfbench/spans.py traces ferchar.fusion.reduce_rows as a
# boundary and stops with BoundaryMissing without it
from .exactlin import reduce_rows  # noqa: F401
from .fermionic import check_level, delta_vector
# compare is unused here, but perfbench/spans.py traces ferchar.fusion.compare
from .gradedchar import GradedCharacter, Truncation, compare  # noqa: F401
from .presented import (InitialConditions, Partition, Presentation,
                        build_presentation_A, normal_form_basis, run_cache)


# ---------------------------------------------------------------------------
# cyclic modules


class CyclicModule(namedtuple("CyclicModule", "q_max z_max degrees actions field",
                              defaults=(None,))):
    """q_max and z_max, ints: the window the module is built on; degrees, a
    tuple: global index -> (z, q) of the basis vector; actions, a dict:
    (j, global index) -> ((target global index, coeff), ...); field, an int
    or None."""

    __slots__ = ()


def cyclic_module_from_presentation(p: Presentation, q_max: int, z_max: int,
                                    field: int | None = None) -> CyclicModule:
    """Exact bases and mode-action matrices for a one-family quotient."""
    if len(p.families) != 1 or p.families[0].u_increment != 0:
        raise ConfigurationError("cyclic modules need a single u-trivial family")
    degrees = []
    comps = {}  # (z, q) -> (global index of its first vector, basis, expansion)
    for z in range(z_max + 1):
        layer = len(degrees)
        for q in range(q_max + 1):
            basis, expansion = normal_form_basis(p, (z, 0, q), field)
            if basis:
                comps[(z, q)] = len(degrees), basis, expansion
                degrees.extend([(z, q)] * len(basis))
        if len(degrees) == layer:
            break  # a z + 1 monomial is a generator times a z monomial
    actions = {}
    for (z, q), (first, basis, _) in comps.items():
        for j in range(p.families[0].min_mode, q_max - q + 1):
            if (z + 1, q + j) not in comps:
                continue
            target, _, expansion = comps[(z + 1, q + j)]
            for g, mono in enumerate(basis, first):
                image = expansion[tuple(sorted(mono + ((0, j),)))]
                actions[(j, g)] = tuple((target + pos, c) for pos, c in image)
    return CyclicModule(q_max, z_max, tuple(degrees), actions, field)


@run_cache
def principal_subspace(i: int, k: int, q_max: int, z_max: int,
                       field: int | None = None) -> CyclicModule:
    """W_{i,k}: C[e modes]/(e(z)^{k+1}, e(z)^l divisible by z^{l-i} for l > i)."""
    check_level(i, k)
    pres = build_presentation_A(Partition.make((k,)),
                                InitialConditions.make(delta_vector(i + 1, k), ()))
    return cyclic_module_from_presentation(pres, q_max, z_max, field)


# ---------------------------------------------------------------------------
# fusion


def default_points(n: int) -> tuple[int, ...]:
    return ((1, 0) + tuple(range(2, n)))[:n]


class FusionContext:
    """Tensor bases and filtration operators for one fusion computation."""

    def __init__(self, modules, points, window: Truncation):
        modules, points = tuple(modules), tuple(points)
        if len(modules) < 2:
            raise ConfigurationError("fusion needs at least two modules")
        if len(points) != len(modules):
            raise ConfigurationError("one evaluation point per module")
        if len({m.field for m in modules}) != 1:
            raise ConfigurationError("all modules must share one field")
        self.field = modules[0].field
        for x, y in itertools.combinations(points, 2):
            if x == y:
                raise ConfigurationError(f"points must be pairwise distinct: {points}")
            if self.field is not None and math.gcd(x - y, self.field) != 1:
                raise NonUnit(f"points {x} and {y} differ by a non-unit mod {self.field}")
        if window.z_max is None or window.u_max is None:
            raise ConfigurationError("fusion needs a finite window")
        for m in modules:
            if m.q_max < window.q_max or m.z_max < window.z_max:
                raise ConfigurationError("module window too small")
        self.window, self.n = window, len(modules)
        sizes = [len(module.degrees) for module in modules]
        strides = [math.prod(sizes[t + 1:]) for t in range(self.n)]
        # the dimension of each nonzero (z, q) tensor component in the window
        z_max, q_max = window.z_max, window.q_max
        dims = {(0, 0): 1}
        for module in modules:
            factor = Counter(module.degrees)
            dims, tensor = {}, dims
            for (z, q), d in tensor.items():
                for (dz, dq), e in factor.items():
                    if z + dz <= z_max and q + dq <= q_max:
                        dims[(z + dz, q + dq)] = dims.get((z + dz, q + dq), 0) + d * e
        self.dimensions = dict(sorted(dims.items()))
        # per power m < n: (stride, size, actions, z_t^m) of the slots whose
        # z_t^m does not vanish in the field
        p = self.field
        self._slots = []
        for m in range(self.n):
            scales = [pow(x, m, p) if p is not None else x ** m for x in points]
            self._slots.append([(stride, size, module.actions, scale)
                                for module, scale, stride, size
                                in zip(modules, scales, strides, sizes) if scale])

    def apply(self, j: int, m: int, vec: dict) -> dict:
        """E_j(m) applied to a vector of one (z, q) component, whose image
        lies in the (z + 1, q + j) component; the caller keeps that inside
        the window."""
        out: dict = {}
        p, slots = self.field, self._slots[m]
        for code, coeff in vec.items():
            for stride, size, actions, scale in slots:
                g = code // stride % size
                for tgt, c in actions.get((j, g), ()):
                    key = code + (tgt - g) * stride
                    w = out.get(key, 0) + coeff * scale * c
                    if p is not None:
                        w %= p
                    if w:
                        out[key] = w
                    else:
                        out.pop(key, None)
        return out

    def layer_counts(self) -> dict:
        """counts[(z, l, q)] = dim F_l - dim F_{l-1} of the (z, q) tensor
        component, where nonzero: its number of standard monomials of degree l.

        A monomial is the tuple of its variables (j, m) in descending order;
        monomials compare by degree l (the sum of the m's), then
        lexicographically, which is a monomial order.  A monomial is standard
        when its image is independent of the images of all smaller ones, so the
        standard monomials of degree <= l are a basis of F_l.  If M is not
        standard, neither is x M (multiply its relation by x): the standard
        monomials form an order ideal (Macaulay's basis theorem), and each is
        x M' with M' standard and x >= every variable of M'.  So a component
        echelons only these candidates, each monomial once and in order,
        until it is full.

        x is applied to the pivot row that M' left in its component's
        echelon, not to its raw image, so that x M' does not repeat the
        eliminations M' went through.  That row is a image(M') + sum b_k
        image(M_k) with a a unit and each M_k smaller than M'; the order is
        multiplicative, so each x M_k is smaller than x M', and the images of
        all monomials smaller than x M' already lie in the span of the
        component's echelon.  So x pivot(M') = a image(x M') modulo that
        span, and a candidate is standard exactly when it is standard from
        its raw image.  Over Q a pivot row is an integer multiple of such a
        row, which spans the same line.

        Modulo N = p1 p2, `echelon` either clears a column, the same step
        in both fields, or makes a pivot led by a unit, nonzero modulo both
        primes; otherwise it raises NonUnit.  So a candidate is standard
        modulo N exactly when it is standard modulo both primes, and the
        argument above holds in each field.
        """
        u_max = self.window.u_max
        counts: dict = {}
        standard: dict = {}  # (z, q) -> [(degree, monomial, pivot row)], in order
        for (big_z, big_q), full in self.dimensions.items():
            found = [(0, (), {0: 1})] if big_z == 0 else []
            candidates = sorted(
                ((l + m, ((j, m),) + mono, row)
                 for j in range(big_q + 1)
                 for l, mono, row in standard.get((big_z - 1, big_q - j), ())
                 for m in range(min(self.n, u_max - l + 1))
                 if not mono or (j, m) >= mono[0]),
                key=operator.itemgetter(0, 1))
            basis: dict = {}
            for l, mono, row in candidates:
                if len(basis) == full:
                    break
                j, m = mono[0]
                rank = len(basis)
                echelon((self.apply(j, m, row),), self.field, full, basis)
                if len(basis) > rank:
                    # the pivot row just inserted, the newest in the echelon
                    found.append((l, mono, basis[next(reversed(basis))]))
            standard[(big_z, big_q)] = found
            for l, _, _ in found:
                counts[(big_z, l, big_q)] = counts.get((big_z, l, big_q), 0) + 1
        return counts


def fusion_character(modules, points, window: Truncation) -> GradedCharacter:
    return GradedCharacter.make(
        FusionContext(modules, points, window).layer_counts(), window)


def principal_fusion_character(levels, window: Truncation,
                               mode: FieldMode | None = None,
                               points: tuple | None = None) -> GradedCharacter:
    """Fused character of the W_{i,k}, one per (i, k) pair of levels, by the
    filtration, at points (default `default_points`).

    In two-prime mode the modules and the filtration are built once,
    modulo the product of the two primes, and over the rationals when that
    meets a non-unit: a pivot, or two points equal modulo a prime.
    """
    levels = tuple(levels)
    points = default_points(len(levels)) if points is None else points
    if window.z_max is None or window.u_max is None:
        raise ConfigurationError("fusion needs a finite window")

    def run(field):
        mods = [principal_subspace(i, k, window.q_max, window.z_max, field)
                for i, k in levels]
        return fusion_character(mods, points, window)

    return two_prime(run, mode or FieldMode.exact())[0]
