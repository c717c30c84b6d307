"""Brute-force construction of algebras presented by series relations.

A presentation consists of generator families (each a generating series
a_f(z) = sum_{n >= min_mode} a_{f,-n} z^n, with z-degree 1 and a fixed
u-increment per factor) and relation families.  A relation family is a
product of derivatives of the generating series, and imposes either all
of its z-coefficients (range ALL) or the coefficients of z^0..z^{low-1}
(range LOW(low), the divisibility-by-z^low conditions).

The builders emit only families that add relations.  A derivative adds
none: its z^r coefficient is r + 1 times the family's z^{r+1} one.  So a
lattice gets one family a_i(z) a_j^{(t)}(z) per t < M_ij, even t alone
when i = j, and a LOW family that lower powers imply is left out.

Every graded component of the quotient is computed exactly: enumerate the
free monomials of the component, expand the relation coefficients times
complementary monomials into integer rows, and take the corank.  Monomial
columns are ordered by graded reverse lexicographic order on exponent
vectors, with modes ordered family-major and by q-degree inside a family,
so pivots and normal forms are deterministic.

A component is built in one pass, already in column order, by extending
the (z-1)-components with their largest mode (see component_monomials).
Relation rows find a product's column by an additive code: a monomial's
exponent vector packed into fields of z.bit_length() bits, so a product's
code is the sum of its factors' codes and no field carries.  Relation
coefficients are expanded straight into codes, one cache entry per
relation's factor copies, z-power and code width, so every cap on the
z-power reuses the coefficients below it.  Components and their codes
depend only on the generator families, and a relation's terms only on
the families and its factor copies, so they are cached on the
presentation's `_free` part, one object per family tuple: presentations
that share their families, such as every two-family lambda of an mf
scan, share their components.  A component's dimension depends only on
the families, the relation families live there (those with a row: the
complementary tridegree is within reach) and the field, so it is cached
on the presentation restricted to its live relations, keyed by value:
presentations that reach a component through equal live relations, such
as the lambdas of an mf scan with equal first parts in low u-degrees,
share its rows and rank, and a component with no live relation is its
free monomials.
"""

from __future__ import annotations

import bisect
import functools
from collections import namedtuple

from .errors import ConfigurationError
from .exactlin import FieldMode, int_rank, reduce_rows
from .gradedchar import GradedCharacter, Truncation

Mode = tuple  # (family index, q-degree n) for the coefficient a_{f,-n}
Monomial = tuple  # modes sorted ascending, with repetition

_CACHES: list = []  # every run_cache, in definition order


def run_cache(fn):
    """fn, memoized for one verify.run_cases call: an unbounded cache that
    run_cases empties through clear_caches() when it returns, raises or
    times out, so the later cases of a scan reuse what earlier ones built
    and the next call starts cold.  Registered here when it is defined, so
    a wrapper that later replaces its module's name does not hide it.
    With jobs > 1 each worker keeps its own until the pool ends; what a
    command that runs no case builds lasts until its process ends."""
    cache = functools.lru_cache(maxsize=None)(fn)
    _CACHES.append(cache)
    return cache


def clear_caches() -> None:
    """Empty every run_cache."""
    for cache in _CACHES:
        cache.cache_clear()


# ---------------------------------------------------------------------------
# presentation data


class Partition(namedtuple("Partition", "parts")):
    """parts, a tuple of ints."""

    __slots__ = ()

    @staticmethod
    def make(parts) -> Partition:
        parts = tuple(int(x) for x in parts)
        if not parts:
            raise ConfigurationError("partition must be nonempty")
        if parts[0] < 1:
            raise ConfigurationError("largest part must be >= 1")
        if any(x < 0 for x in parts):
            raise ConfigurationError("parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ConfigurationError(f"parts must be weakly decreasing: {parts}")
        return Partition(parts)

    @property
    def lam0(self) -> int:
        return self.parts[0]

    @property
    def s(self) -> int:
        return len(self.parts) - 1

    def is_convex(self) -> bool:
        """parts[i-1] - parts[i] <= parts[i] - parts[i+1] for all interior i
        (vacuous when there are at most two parts)."""
        p = self.parts
        return all(p[i - 1] - p[i] <= p[i] - p[i + 1] for i in range(1, len(p) - 1))


class InitialConditions(namedtuple("InitialConditions", "c d")):
    """c and d, tuples of ints."""

    __slots__ = ()

    @staticmethod
    def make(c, d) -> InitialConditions:
        c, d = tuple(int(x) for x in c), tuple(int(x) for x in d)
        if any(x < 0 for x in c) or any(x < 0 for x in d):
            raise ConfigurationError("initial conditions must be nonnegative")
        return InitialConditions(c, d)


class GeneratorFamily(namedtuple("GeneratorFamily", "name u_increment min_mode",
                                 defaults=(0, 0))):
    """name, a str; u_increment and min_mode, ints."""

    __slots__ = ()


class RelationFamily(namedtuple("RelationFamily", "factors low label",
                                defaults=(None, ""))):
    """factors, a tuple: ((family name, derivative order, power), ...); low,
    an int or None: None = ALL coefficients, r = coefficients of
    z^0..z^{r-1}; label, a str."""

    __slots__ = ()


class Presentation(namedtuple("Presentation", "families relations")):
    """families, a tuple of GeneratorFamily; relations, a tuple of
    RelationFamily.  No __slots__: the cached properties below keep their
    values in the instance dict."""

    @staticmethod
    def make(families, relations) -> Presentation:
        families, relations = tuple(families), tuple(relations)
        if not families:
            raise ConfigurationError("a presentation needs a generator family")
        names = [f.name for f in families]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate family names: {names}")
        for f in families:
            if f.u_increment not in (0, 1) or f.min_mode < 0:
                raise ConfigurationError(f"bad family {f}")
        for rel in relations:
            if not rel.factors:
                raise ConfigurationError("relation with no factors")
            for name, der, power in rel.factors:
                if name not in names:
                    raise ConfigurationError(f"relation uses unknown family {name!r}")
                if der < 0 or power < 1:
                    raise ConfigurationError(f"bad factor {(name, der, power)}")
            if rel.low is not None and rel.low < 1:
                raise ConfigurationError(f"LOW range must be >= 1, got {rel.low}")
        return Presentation(families, relations)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # the caches key on _free and on restrictions: hash them once
        return hash((self.families, self.relations))

    @functools.cached_property
    def _free(self) -> Presentation:
        """The free algebra on the families, one object per family tuple:
        the component caches key on it, with its hash computed once."""
        return _presentation(self.families, ())

    @functools.cached_property
    def _reach(self) -> tuple[int, int, int]:
        """(least, largest) u-increment and least mode: z modes carry u in
        [z * least, z * largest] and q at least z * least mode."""
        return (min(f.u_increment for f in self.families),
                max(f.u_increment for f in self.families),
                min(f.min_mode for f in self.families))

    @functools.cached_property
    def _relation_slots(self) -> tuple:
        """Per relation: its factor copies (family index, derivative order),
        one per unit of power."""
        index = {f.name: i for i, f in enumerate(self.families)}
        return tuple(tuple((index[nm], d) for nm, d, pw in rel.factors for _ in range(pw))
                     for rel in self.relations)

    @functools.cached_property
    def _relation_degrees(self) -> tuple:
        """Per relation: its z-degree, u-degree and total derivative order."""
        return tuple((len(slots), sum(self.families[f].u_increment for f, _ in slots),
                      sum(d for _, d in slots)) for slots in self._relation_slots)


@run_cache
def _presentation(families: tuple, relations: tuple) -> Presentation:
    """One object per value, so its hash and cached properties are built once."""
    return Presentation(families, relations)


# ---------------------------------------------------------------------------
# builders


def low_ranges(values: tuple[int, ...]) -> tuple[int, ...]:
    """Divisibility exponents: i-th power of the series is divisible by
    z^{v_i} with v_i = values_i + 2 values_{i-1} + ... + i values_1."""
    out = []
    for i in range(1, len(values) + 1):
        out.append(sum((i - t + 1) * values[t - 1] for t in range(1, i + 1)))
    return tuple(out)


def check_initial_conditions(lam: Partition, ic: InitialConditions) -> None:
    """Refuse initial conditions whose c and d do not have lengths lam0 and s."""
    if len(ic.c) != lam.lam0 or len(ic.d) != lam.s:
        raise ConfigurationError(
            f"initial conditions c (len {len(ic.c)}) and d (len {len(ic.d)}) "
            f"must have lengths {lam.lam0} and {lam.s}")


def build_presentation_A(lam: Partition, ic: InitialConditions | None = None) -> Presentation:
    """Quotient of C[a modes; b modes] by a(z)^{lam_j+1} b(z)^j (j = 0..s)
    and b(z)^{s+1}, plus the divisibility conditions from ic: z^{v_i}
    divides x(z)^i (low_ranges).  That of x^i is left out when v_i <= v_{i-1}
    + v_1, since then each term of the z^r coefficient of x^{i-1} x, r < v_i,
    has a factor x^{i-1} at z^{<v_{i-1}} or x at z^{<v_1}."""
    s = lam.s
    families = [GeneratorFamily("a", 0, 0)]
    if s >= 1:
        families.append(GeneratorFamily("b", 1, 0))
    relations = []
    for j in range(s + 1):
        i = lam.parts[j] + 1
        factors = [("a", 0, i)]
        label = f"a^{i}"
        if j >= 1:
            factors.append(("b", 0, j))
            label += f" b^{j}"
        relations.append(RelationFamily(tuple(factors), None, label))
    if s >= 1:
        relations.append(RelationFamily((("b", 0, s + 1),), None, f"b^{s + 1}"))
    if ic is not None:
        check_initial_conditions(lam, ic)
        for name, values in (("a", ic.c), ("b", ic.d)):
            v = (0,) + low_ranges(values)
            for i in range(1, len(v)):
                if v[i] >= 1 and (i == 1 or v[i] > v[i - 1] + v[1]):
                    relations.append(RelationFamily(((name, 0, i),), v[i],
                                                    f"{name}^{i} low {v[i]}"))
    return Presentation.make(families, relations)


def check_lattice(gram, shifts) -> tuple[tuple, tuple]:
    """gram and shifts as integer tuples, checked: a square symmetric
    matrix with nonnegative entries and positive even diagonal, and one
    nonnegative shift per row.  A negative M_ij, a pole, would give the
    quadratic presentation no relation and break the lattice sum
    enumerator's rule that cross terms only add."""
    gram = tuple(tuple(int(x) for x in row) for row in gram)
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ConfigurationError("matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        raise ConfigurationError("matrix must be symmetric")
    if any(gram[i][i] <= 0 or gram[i][i] % 2 for i in range(n)):
        raise ConfigurationError("diagonal must be positive even")
    shifts = tuple(int(x) for x in shifts)
    if len(shifts) != n or any(x < 0 for x in shifts):
        raise ConfigurationError(f"need {n} nonnegative shifts, got {shifts}")
    if any(x < 0 for row in gram for x in row):
        raise ConfigurationError("matrix entries must be nonnegative")
    return gram, shifts


def build_presentation_quadratic(gram, shifts) -> Presentation:
    """Quadratic presentation a_i(z) a_j(w) ~ (z - w)^{M_ij}: M symmetric
    with positive even diagonal, generator i from mode -shifts[i].

    Of the relations a_i^{(k)}(z) a_j^{(l)}(z), k + l < M_ij, one family per
    order t is new: (a_i^{(k)} a_j^{(t-1-k)})' = a_i^{(k+1)} a_j^{(t-1-k)} +
    a_i^{(k)} a_j^{(t-k)}, so each order-t product is +-a_i a_j^{(t)} plus
    derivatives of order t - 1.  For i = j the pairs k and t - k coincide,
    so odd t gives 2 a_i a_i^{(t)} in those derivatives: the families are
    a_i(z)^2 and a_i a_i^{(t)} for even t.  The span equals the full list's
    over Q and modulo every odd prime."""
    gram, shifts = check_lattice(gram, shifts)
    n = len(gram)
    families = [GeneratorFamily(f"a{i + 1}", 0, shifts[i]) for i in range(n)]
    relations = []
    for i in range(n):
        for j in range(i, n):
            a, b = f"a{i + 1}", f"a{j + 1}"
            for t in range(0, gram[i][j], 2 if i == j else 1):
                factors = ((a, 0, 2),) if i == j and t == 0 else ((a, 0, 1), (b, t, 1))
                relations.append(RelationFamily(factors, None, f"{a}^(0) {b}^({t})"))
    return Presentation.make(families, relations)


# ---------------------------------------------------------------------------
# JSON form


def _typed(value, kind, field: str, optional: bool = False):
    """value, if it has the JSON type kind (bools are not ints); else TypeError."""
    if (value is None and optional) or (isinstance(value, kind)
                                        and not isinstance(value, bool)):
        return value
    raise TypeError(f"{field} must be {kind.__name__}, got {value!r}")


def presentation_from_json(data: dict) -> Presentation:
    try:
        _known((data,), Presentation._fields, "a presentation")
        families = [GeneratorFamily(_typed(f["name"], str, "name"),
                                    _typed(f.get("u_increment", 0), int, "u_increment"),
                                    _typed(f.get("min_mode", 0), int, "min_mode"))
                    for f in _known(data["families"], GeneratorFamily._fields, "a family")]
        relations = [RelationFamily(tuple((_typed(n, str, "factor name"),
                                           _typed(d, int, "factor derivative"),
                                           _typed(pw, int, "factor power"))
                                          for n, d, pw in rel["factors"]),
                                    _typed(rel.get("low"), int, "low", optional=True),
                                    _typed(rel.get("label", ""), str, "label"))
                     for rel in _known(data["relations"], RelationFamily._fields,
                                       "a relation")]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed presentation JSON: {exc}") from exc
    return Presentation.make(families, relations)


def _known(objs, fields: tuple, what: str):
    """objs, JSON values; a key of one that names none of fields is a
    ValueError, so that a typo cannot change the presentation."""
    for obj in objs:
        for key in obj if isinstance(obj, dict) else ():
            if key not in fields:
                raise ValueError(f"{what} has no key {key!r}")
    return objs


# ---------------------------------------------------------------------------
# monomial enumeration


def _largest_mode_key(mono: Monomial) -> tuple:
    """Ascending along a component: its monomials run by decreasing largest mode."""
    f, n = mono[-1]
    return -f, -n


def _feasible(p: Presentation, z: int, u: int, q: int) -> bool:
    """Necessary for the component to hold a monomial."""
    u_lo, u_hi, mode_lo = p._reach
    return z * u_lo <= u <= z * u_hi and q >= z * mode_lo


@run_cache
def component_monomials(p: Presentation, tridegree: tuple) -> tuple:
    """All free monomials of the tridegree, in increasing grevlex order.

    For monomials of one z-degree, increasing grevlex is decreasing order of
    the mode tuple read from its largest mode down.  So the component is
    built from the (z-1)-components: for each largest mode v, from the
    highest down, the monomials m of (z-1, u - u_v, q - n_v) whose largest
    mode is at most v (a tail of that component), each extended to m + (v,).
    The (z-1)-components come from the cache, so a cold call recurses z
    levels deep; a window built by increasing z stays one level deep.
    """
    z, u, q = tridegree
    if z == 0:
        return ((),) if u == q == 0 else ()
    if z < 0 or not _feasible(p, z, u, q):
        return ()
    out = []
    for f in range(len(p.families) - 1, -1, -1):
        fam = p.families[f]
        u_rest = u - fam.u_increment
        for n in range(q, fam.min_mode - 1, -1):
            if not _feasible(p, z - 1, u_rest, q - n):
                continue
            v = (f, n)
            rest = component_monomials(p, (z - 1, u_rest, q - n))
            if z > 1:
                rest = rest[bisect.bisect_left(rest, (-f, -n), key=_largest_mode_key):]
            out.extend(m + (v,) for m in rest)
    return tuple(out)


# ---------------------------------------------------------------------------
# relation expansion


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _mode_code(nfam: int, width: int, f: int, n: int) -> int:
    """The code of mode (f, n): 1 in field n * nfam + f of `width` bits.

    A monomial's code, the sum of its modes' codes, packs its exponent
    vector in these fields.  While every exponent stays below 1 << width,
    the code of a product is the sum of its factors' codes.
    """
    return 1 << width * (n * nfam + f)


@run_cache
def _mode_codes(nfam: int, width: int, q: int):
    """The lookup mode (f, n) -> its code, for every mode with n <= q."""
    return {(f, n): _mode_code(nfam, width, f, n)
            for f in range(nfam) for n in range(q + 1)}.__getitem__


@run_cache
def _component_codes(p: Presentation, tridegree: tuple, width: int) -> list:
    """The codes of component_monomials(p, tridegree), in column order."""
    codes = _mode_codes(len(p.families), width, tridegree[2])
    return [sum(map(codes, m)) for m in component_monomials(p, tridegree)]


@run_cache
def _relation_terms(p: Presentation, slots: tuple, r: int, width: int,
                    slot: int = 0) -> tuple:
    """The z^r coefficient of the product of the factor copies slots[slot:]
    over the families of p, as (code, coefficient) pairs.

    A copy (f, der) contributes der-th derivative terms n!/(n-der)! a_{f,-n}
    z^{n-der}, so its mode n leaves z^{r-n+der} to the later copies.
    """
    if slot == len(slots):
        return ((0, 1),) if r == 0 else ()
    f, der = slots[slot]
    nfam = len(p.families)
    out: dict = {}
    for n in range(max(p.families[f].min_mode, der), r + der + 1):
        code, weight = _mode_code(nfam, width, f, n), _falling(n, der)
        for c, v in _relation_terms(p, slots, r - n + der, width, slot + 1):
            out[c + code] = out.get(c + code, 0) + weight * v
    # every weight is positive (n >= der), so no coefficient cancels
    return tuple(out.items())


def _live_relations(p: Presentation, tridegree: tuple) -> tuple:
    """Indices of the relation families with rows at tridegree: those whose
    complementary tridegree (tridegree less the family's z-degree, u-degree
    and derivative order) is _feasible, tested inline since this runs once
    per component."""
    z, u, q = tridegree
    u_lo, u_hi, mode_lo = p._reach
    live = []
    for i, (z_g, u_g, der) in enumerate(p._relation_degrees):
        zc = z - z_g
        if zc >= 0 and zc * u_lo <= u - u_g <= zc * u_hi and q - der >= zc * mode_lo:
            live.append(i)
    return tuple(live)


def relation_rows(p: Presentation, tridegree: tuple,
                  live: tuple | range | None = None) -> tuple[list[dict], tuple, set]:
    """(rows, monos, killed): the relation subspace of the free component
    is spanned by the integer rows and the unit vectors of the killed
    columns; columns index monos = component_monomials(p, tridegree).

    A relation is a z^r coefficient of a relation family times a
    complementary free monomial m.  A coefficient with one term c x^a
    kills the column of each x^a m instead of making a row c e.  This is
    exact: every weight is positive, so c != 0 and c e spans e over Q, and
    modulo N whenever c is a unit.  c is a product of small falling
    factorials and multinomial counts, far below the two-prime primes
    (above 2^30).  Only a small prime field that divides c, such as 3 for
    c = 3, differs: there the row c e vanished and the column is now
    killed, as over Q.  Results are stated over Q, and two-prime mode
    still recomputes over Q after a non-unit pivot.  The other rows leave
    the killed columns out and empty rows are dropped, so the relation
    rank is len(killed) plus their rank; no rows are built once every
    column is killed.

    A product's column is found by its code, the sum of its factors'
    codes; exponents are at most z, so codes of width z.bit_length() never
    carry.  Each z^r coefficient is expanded in codes once per (families,
    factor copies, r, width) and cached, whatever the cap on r; components
    and their codes are cached on the families alone (p._free).  Only the
    live relation families contribute: live, the indices that
    _live_relations(p, tridegree) gives, selected here when not given.
    """
    z, u, q = tridegree
    free = p._free
    monos = component_monomials(free, tridegree)
    if not monos:
        return [], monos, set()
    width = z.bit_length()
    index = {code: i for i, code in enumerate(_component_codes(free, tridegree, width))}
    coefficients = []  # (terms, complementary codes) of each nonzero coefficient
    for i in _live_relations(p, tridegree) if live is None else live:
        rel, slots, (z_g, u_g, der) = (p.relations[i], p._relation_slots[i],
                                       p._relation_degrees[i])
        zc, uc = z - z_g, u - u_g
        r_hi = q - der
        if rel.low is not None:
            r_hi = min(r_hi, rel.low - 1)
        for r in range(r_hi + 1):
            terms = _relation_terms(free, slots, r, width)
            if terms:
                coefficients.append(
                    (terms, _component_codes(free, (zc, uc, q - der - r), width)))
    killed = {index[terms[0][0] + cc] for terms, codes in coefficients
              if len(terms) == 1 for cc in codes}
    rows: list[dict] = []
    if len(killed) < len(monos):
        for terms, codes in coefficients:
            if len(terms) == 1:
                continue
            for cc in codes:
                # distinct terms times one monomial are distinct columns
                row = {col: c for tc, c in terms
                       if (col := index[tc + cc]) not in killed}
                if row:
                    rows.append(row)
    return rows, monos, killed


# ---------------------------------------------------------------------------
# quotient data


def component_dimension(p: Presentation, tridegree: tuple,
                        mode: FieldMode | None = None) -> int:
    """Dimension of one graded component of the quotient: the free
    monomials less the killed columns and the rank of the other rows.

    It depends only on the families, the relation families live at the
    tridegree and the field, so presentations that reach the component
    through equal live families share one computation of it."""
    live = _live_relations(p, tridegree)
    if not live:
        return len(component_monomials(p._free, tridegree))
    mode = mode or FieldMode.exact()
    return _live_dimension(_restriction(p, live), tridegree, mode)


@run_cache
def _restriction(p: Presentation, live: tuple) -> Presentation:
    """p with only the relation families of indices live: p itself when
    they are all of them, else one object per value (_presentation)."""
    if len(live) == len(p.relations):
        return p
    return _presentation(p.families, tuple(p.relations[i] for i in live))


@run_cache
def _live_dimension(p: Presentation, tridegree: tuple, mode: FieldMode) -> int:
    """component_dimension of p, all of whose relation families are live,
    in the field mode.  Presentations are keyed by value, so equal
    restrictions of different presentations share an entry.  relation_rows
    is told that every family is live, not asked again."""
    rows, monos, killed = relation_rows(p, tridegree, range(len(p.relations)))
    free = len(monos) - len(killed)
    if not rows:
        return free
    return free - int_rank(rows, mode, free).rank


def graded_character(p: Presentation, truncation: Truncation,
                     mode: FieldMode | None = None) -> GradedCharacter:
    """Exact character of the quotient on a finite window."""
    if truncation.z_max is None or truncation.u_max is None:
        raise ConfigurationError("graded_character needs finite z_max and u_max")
    coeffs = {}
    u_reach = max(f.u_increment for f in p.families)
    for z in range(truncation.z_max + 1):
        layer = len(coeffs)
        for u in range(min(truncation.u_max, z * u_reach) + 1):
            for q in range(truncation.q_max + 1):
                d = component_dimension(p, (z, u, q), mode)
                if d:
                    coeffs[(z, u, q)] = d
        if len(coeffs) == layer:
            # a z + 1 monomial is a generator (z-degree 1, u and q not
            # lowered) times a z monomial, so the quotient ends here
            break
    return GradedCharacter(coeffs, truncation)


def normal_form_basis(p: Presentation, tridegree: tuple,
                      field: int | None = None) -> tuple[tuple, dict]:
    """Monomial normal forms of one graded component, as (basis, expansion).

    basis: the monomials that lead no reduced relation row, in column order;
    expansion: every free monomial of the component -> ((basis position,
    coefficient), ...), its normal form in that basis.

    Only the rows of relation_rows are reduced: they are zero on the
    killed columns, so their reduced form plus the unit row of each
    killed column is the canonical reduced form of the whole relation
    subspace, and a killed monomial's normal form is 0, the empty
    expansion.
    """
    rows, monos, killed = relation_rows(p, tridegree)
    reduced = dict(reduce_rows(rows, field))
    reduced.update((col, {col: 1}) for col in killed)
    free = [col for col in range(len(monos)) if col not in reduced]
    position = {col: i for i, col in enumerate(free)}
    expansion = {}
    for col, mono in enumerate(monos):
        row = reduced.get(col)
        expansion[mono] = ((position[col], 1),) if row is None else tuple(
            (position[c], -v) for c, v in sorted(row.items()) if c != col)
    return tuple(monos[col] for col in free), expansion
