"""Brute-force construction of algebras presented by series relations.

A presentation consists of generator families (each a generating series
a_f(z) = sum_{n >= min_mode} a_{f,-n} z^n, with z-degree 1 and a fixed
u-increment per factor) and relation families.  A relation family is a
product of derivatives of the generating series, and imposes either all
of its z-coefficients (range ALL) or the coefficients of z^0..z^{low-1}
(range LOW(low), the divisibility-by-z^low conditions).

Every graded component of the quotient is computed exactly: enumerate the
free monomials of the component, expand the relation coefficients times
complementary monomials into integer rows, and take the corank.  Monomial
columns are ordered by graded reverse lexicographic order on exponent
vectors, with modes ordered family-major and by q-degree inside a family,
so pivots and normal forms are deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ConfigurationError
from .exactlin import FieldMode, int_rank, reduce_rows
from .gradedchar import GradedCharacter, Truncation

Mode = tuple  # (family index, q-degree n) for the coefficient a_{f,-n}
Monomial = tuple  # modes sorted ascending, with repetition


# ---------------------------------------------------------------------------
# presentation data


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

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


@dataclass(frozen=True)
class InitialConditions:
    c: tuple[int, ...]
    d: tuple[int, ...]

    @staticmethod
    def make(c, d) -> InitialConditions:
        c, d = tuple(int(x) for x in c), tuple(int(x) for x in d)
        if any(x < 0 for x in c) or any(x < 0 for x in d):
            raise ConfigurationError("initial conditions must be nonnegative")
        return InitialConditions(c, d)


@dataclass(frozen=True)
class GeneratorFamily:
    name: str
    u_increment: int = 0
    min_mode: int = 0


@dataclass(frozen=True)
class RelationFamily:
    factors: tuple  # ((family name, derivative order, power), ...)
    low: int | None = None  # None = ALL coefficients, r = coefficients of z^0..z^{r-1}
    label: str = ""


@dataclass(frozen=True)
class Presentation:
    families: tuple
    relations: tuple

    @staticmethod
    def make(families, relations) -> Presentation:
        families, relations = tuple(families), tuple(relations)
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

    def family_index(self, name: str) -> int:
        for i, f in enumerate(self.families):
            if f.name == name:
                return i
        raise KeyError(name)


# ---------------------------------------------------------------------------
# builders


def low_ranges(values: tuple[int, ...]) -> tuple[int, ...]:
    """Divisibility exponents: i-th power of the series is divisible by
    z^{v_i} with v_i = values_i + 2 values_{i-1} + ... + i values_1."""
    out = []
    for i in range(1, len(values) + 1):
        out.append(sum((i - t + 1) * values[t - 1] for t in range(1, i + 1)))
    return tuple(out)


def build_presentation_A(lam: Partition, ic: InitialConditions | None = None) -> Presentation:
    """Quotient of C[a modes; b modes] by a(z)^{lam_j+1} b(z)^j (j = 0..s)
    and b(z)^{s+1}, plus the divisibility conditions from ic."""
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
        if len(ic.c) != lam.lam0 or len(ic.d) != s:
            raise ConfigurationError(
                f"initial conditions c (len {len(ic.c)}) and d (len {len(ic.d)}) "
                f"must have lengths {lam.lam0} and {s}")
        for i, lb in enumerate(low_ranges(ic.c), start=1):
            if lb >= 1:
                relations.append(RelationFamily((("a", 0, i),), lb, f"a^{i} low {lb}"))
        for j, lb in enumerate(low_ranges(ic.d), start=1):
            if lb >= 1:
                relations.append(RelationFamily((("b", 0, j),), lb, f"b^{j} low {lb}"))
    return Presentation.make(families, relations)


def check_lattice(gram, shifts) -> tuple[tuple, tuple]:
    """gram and shifts as integer tuples, checked: a square symmetric
    matrix with positive even diagonal, and one nonnegative shift per row."""
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
    return gram, shifts


def build_presentation_quadratic(gram, shifts) -> Presentation:
    """Quadratic presentation from a symmetric integer matrix with positive
    even diagonal: relations a_i^{(k)}(z) a_j^{(l)}(z) for all i <= j and
    all k, l >= 0 with k + l < gram[i][j]; generator i starts at mode
    -shifts[i]."""
    gram, shifts = check_lattice(gram, shifts)
    n = len(gram)
    families = [GeneratorFamily(f"a{i + 1}", 0, shifts[i]) for i in range(n)]
    relations = []
    for i in range(n):
        for j in range(i, n):
            for k in range(gram[i][j]):
                for l in range(gram[i][j] - k):
                    if i == j and k == l:
                        factors = ((f"a{i + 1}", k, 2),)
                    else:
                        factors = ((f"a{i + 1}", k, 1), (f"a{j + 1}", l, 1))
                    label = f"a{i + 1}^({k}) a{j + 1}^({l})"
                    relations.append(RelationFamily(factors, None, label))
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
        families = [GeneratorFamily(_typed(f["name"], str, "name"),
                                    _typed(f.get("u_increment", 0), int, "u_increment"),
                                    _typed(f.get("min_mode", 0), int, "min_mode"))
                    for f in data["families"]]
        relations = [RelationFamily(tuple((_typed(n, str, "factor name"),
                                           _typed(d, int, "factor derivative"),
                                           _typed(pw, int, "factor power"))
                                          for n, d, pw in rel["factors"]),
                                    _typed(rel.get("low"), int, "low", optional=True),
                                    _typed(rel.get("label", ""), str, "label"))
                     for rel in data["relations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed presentation JSON: {exc}") from exc
    return Presentation.make(families, relations)


# ---------------------------------------------------------------------------
# monomial enumeration


def _partitions_exact(total, count, min_part, max_part=None):
    """Weakly decreasing tuples of the given length and sum, parts >= min_part."""
    if count == 0:
        if total == 0:
            yield ()
        return
    hi = total - min_part * (count - 1)
    if max_part is not None:
        hi = min(hi, max_part)
    lo = max(min_part, -(-total // count))
    for p in range(lo, hi + 1):
        for rest in _partitions_exact(total - p, count - 1, min_part, p):
            yield (p,) + rest


def _family_splits(p: Presentation, z: int, u: int):
    fams = p.families
    out = []

    def rec(i, z_left, u_left, acc):
        if i == len(fams):
            if z_left == 0 and u_left == 0:
                out.append(tuple(acc))
            return
        for cnt in range(z_left + 1):
            du = cnt * fams[i].u_increment
            if du > u_left:
                break
            rec(i + 1, z_left - cnt, u_left - du, acc + [cnt])

    rec(0, z, u, [])
    return out


def _grevlex_index(p: Presentation, q_cap: int) -> dict:
    pos = {}
    for f, fam in enumerate(p.families):
        for n in range(fam.min_mode, q_cap + 1):
            pos[(f, n)] = len(pos)
    return pos


@functools.lru_cache(maxsize=None)
def component_monomials(p: Presentation, tridegree: tuple) -> tuple:
    """All free monomials of the tridegree, in increasing grevlex order."""
    z, u, q = tridegree
    if z < 0 or u < 0 or q < 0:
        return ()
    fams = p.families
    out = []

    def rec(split, f_idx, q_left, acc):
        if f_idx == len(fams):
            if q_left == 0:
                out.append(tuple(sorted(acc)))
            return
        cnt, min_f = split[f_idx], fams[f_idx].min_mode
        later = sum(split[g] * fams[g].min_mode for g in range(f_idx + 1, len(fams)))
        for q_f in range(cnt * min_f, q_left - later + 1):
            for part in _partitions_exact(q_f, cnt, min_f):
                rec(split, f_idx + 1, q_left - q_f,
                    acc + [(f_idx, n) for n in part])

    for split in _family_splits(p, z, u):
        rec(split, 0, q, [])
    pos = _grevlex_index(p, q)
    nvars = len(pos)

    def key(mono):
        expo = [0] * nvars
        for mode in mono:
            expo[pos[mode]] += 1
        return tuple(-x for x in reversed(expo))

    out.sort(key=key)
    return tuple(out)


# ---------------------------------------------------------------------------
# relation expansion


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _family_series(p: Presentation, f_idx: int, der: int, z_cap: int) -> dict:
    fam = p.families[f_idx]
    out = {}
    for n in range(max(fam.min_mode, der), z_cap + der + 1):
        coef = _falling(n, der)
        if coef:
            out[n - der] = {((f_idx, n),): coef}
    return out


def _series_mul(s1: dict, s2: dict, z_cap: int) -> dict:
    out: dict = {}
    for r1, terms1 in s1.items():
        for r2, terms2 in s2.items():
            if r1 + r2 > z_cap:
                continue
            bucket = out.setdefault(r1 + r2, {})
            for m1, c1 in terms1.items():
                for m2, c2 in terms2.items():
                    m = tuple(sorted(m1 + m2))
                    w = bucket.get(m, 0) + c1 * c2
                    if w:
                        bucket[m] = w
                    else:
                        del bucket[m]
    return {r: terms for r, terms in out.items() if terms}


@functools.lru_cache(maxsize=None)
def _relation_series(p: Presentation, rel: RelationFamily, z_cap: int) -> dict:
    """z-coefficients of the relation series, {z_exp: {monomial: int}}."""
    series = {0: {(): 1}}
    for name, der, power in rel.factors:
        base = _family_series(p, p.family_index(name), der, z_cap)
        for _ in range(power):
            series = _series_mul(series, base, z_cap)
    return series


def _relation_degrees(p: Presentation, rel: RelationFamily) -> tuple[int, int, int]:
    z_g = sum(pw for _, _, pw in rel.factors)
    u_g = sum(pw * p.families[p.family_index(nm)].u_increment
              for nm, _, pw in rel.factors)
    der = sum(d * pw for _, d, pw in rel.factors)
    return z_g, u_g, der


def relation_rows(p: Presentation, tridegree: tuple) -> tuple[list[dict], tuple]:
    """Integer rows spanning the relation subspace of the free component.

    Rows are coefficient-of-z^r of a relation family times a complementary
    free monomial; columns index component_monomials(p, tridegree).
    """
    z, u, q = tridegree
    monos = component_monomials(p, tridegree)
    index = {m: i for i, m in enumerate(monos)}
    rows: list[dict] = []
    for rel in p.relations:
        z_g, u_g, der = _relation_degrees(p, rel)
        zc, uc = z - z_g, u - u_g
        if zc < 0 or uc < 0:
            continue
        r_hi = q - der
        if rel.low is not None:
            r_hi = min(r_hi, rel.low - 1)
        if r_hi < 0:
            continue
        series = _relation_series(p, rel, r_hi)
        for r in range(r_hi + 1):
            terms = series.get(r)
            if not terms:
                continue
            for mc in component_monomials(p, (zc, uc, q - der - r)):
                row: dict = {}
                for mono, coef in terms.items():
                    col = index[tuple(sorted(mono + mc))]
                    w = row.get(col, 0) + coef
                    if w:
                        row[col] = w
                    else:
                        del row[col]
                if row:
                    rows.append(row)
    return rows, monos


# ---------------------------------------------------------------------------
# quotient data


def component_dimension(p: Presentation, tridegree: tuple,
                        mode: FieldMode | None = None) -> int:
    mode = mode or FieldMode.exact()
    rows, monos = relation_rows(p, tridegree)
    if not monos:
        return 0
    if not rows:
        return len(monos)
    return len(monos) - int_rank(rows, mode, len(monos)).rank


def graded_character(p: Presentation, truncation: Truncation,
                     mode: FieldMode | None = None) -> GradedCharacter:
    """Exact character of the quotient on a finite window."""
    if truncation.z_max is None or truncation.u_max is None:
        raise ConfigurationError("graded_character needs finite z_max and u_max")
    coeffs = {}
    u_reach = max(f.u_increment for f in p.families)
    for z in range(truncation.z_max + 1):
        for u in range(min(truncation.u_max, z * u_reach) + 1):
            for q in range(truncation.q_max + 1):
                d = component_dimension(p, (z, u, q), mode)
                if d:
                    coeffs[(z, u, q)] = d
    return GradedCharacter(coeffs, truncation)


@dataclass(frozen=True)
class ComponentBasis:
    """Monomial normal form of one graded component.

    monomials: every free monomial of the component, in column order;
    pivots: indices of monomials eliminated as leading terms;
    reductions: pivot index -> ((monomial index, coefficient), ...) writing
    the pivot monomial as a combination of non-pivot monomials.
    """

    monomials: tuple
    pivots: tuple[int, ...]
    reductions: dict
    field: int | None = None

    @property
    def dimension(self) -> int:
        return len(self.monomials) - len(self.pivots)

    def basis_monomials(self) -> tuple:
        piv = set(self.pivots)
        return tuple(m for i, m in enumerate(self.monomials) if i not in piv)


def normal_form_basis(p: Presentation, tridegree: tuple,
                      field: int | None = None) -> ComponentBasis:
    rows, monos = relation_rows(p, tridegree)
    reduced = reduce_rows(rows, field)
    reductions = {}
    for piv, row in reduced:
        reductions[piv] = tuple((c, -v) for c, v in sorted(row.items()) if c != piv)
    return ComponentBasis(monos, tuple(piv for piv, _ in reduced), reductions, field)
