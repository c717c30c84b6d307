"""Exact sparse linear algebra over the rationals and modulo an integer.

All elimination runs through one kernel, `echelon`: each incoming row is
reduced against the pivot rows kept so far, in input order, with no
back-substitution, and becomes a new pivot row if anything survives.
Modulo N (entries are integers, taken mod N) pivot rows have leading
coefficient 1; a new pivot whose leading entry is not a unit mod N raises
`NonUnit`, which for a prime N never happens.  Over the rationals (field
None; entries are ints or `fractions.Fraction`s) each row is first scaled
to integers and the elimination is fraction-free (Bareiss 1968):
r <- a*r - b*pivot with a, b divided by their gcd, and a new pivot row is
divided by its content.  The rank is the number of pivot rows; with
`ncols` the kernel stops once every column has a pivot.

`reduce_rows` adds a back-substitution pass to obtain the canonical
reduced row echelon form, which is unique, so normal forms do not depend
on the order in which rows arrive.

The two-prime protocol lives here as well (`two_prime`): a computation
runs once modulo p1*p2 for two independently chosen 31-bit primes p1, p2
(Z/p1p2 = F_p1 x F_p2).  Clearing a column against a pivot led by 1 is
the same step in both fields, and a pivot is only made where its leading
entry is a unit, so the elimination is the two per-prime ones side by
side, with the same pivot columns.  A non-unit leading entry, where the
primes may diverge, is the one exception, and it sends the computation
to the rationals with a warning to the "ferchar.exactlin" logger; the
module imports `logging` only then, so importing ferchar does not load
it.  `int_rank` applies the protocol to ranks; the fusion filtration
applies it to whole fused characters.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .frozen import frozen


class NonUnit(ArithmeticError):
    """A new pivot's leading entry is not invertible modulo the field."""


# ---------------------------------------------------------------------------
# row reduction


def _entry_row(row: dict, field: int | None) -> dict:
    """Nonzero entries of row: reduced mod p, or scaled to integers over Q."""
    if field is not None:
        out = {}
        for c, v in row.items():
            v %= field
            if v:
                out[c] = v
        return out
    if all(type(v) is int for v in row.values()):
        return {c: v for c, v in row.items() if v}
    den = math.lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _subtract(r: dict, coef, pivot: dict, field: int | None) -> None:
    """r -= coef * pivot in place, dropping entries that vanish."""
    for c, v in pivot.items():
        w = r.get(c, 0) - coef * v
        if field is not None:
            w %= field
        if w:
            r[c] = w
        else:
            # mod a composite N, coef * v may vanish where r had no entry
            r.pop(c, None)


def _eliminate(r: dict, col: int, pivot: dict, field: int | None) -> dict:
    """Clear column col of r with the pivot row led there (mod p, led by 1)."""
    if field is not None:
        _subtract(r, r[col], pivot, field)
        return r
    a, b = pivot[col], r[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        r = {c: a * v for c, v in r.items()}
    _subtract(r, b, pivot, None)
    return r


def _new_pivot(r: dict, lead: int, field: int | None) -> dict:
    if field is not None:
        try:
            inv = pow(r[lead], -1, field)
        except ValueError:
            raise NonUnit(f"pivot {r[lead]} at column {lead} mod {field}") from None
        return {c: v * inv % field for c, v in r.items()}
    g = math.gcd(*r.values())
    if r[lead] < 0:
        g = -g
    return {c: v // g for c, v in r.items()} if g != 1 else r


def echelon(rows, field: int | None = None, ncols: int | None = None,
            pivots: dict | None = None) -> dict:
    """Row echelon form of the span of rows, as {leading column: row}.

    Rows are sparse dicts col -> scalar and are not modified.  Pivot rows
    hold ints: mod N with leading coefficient 1, or over Q primitive
    integer rows with positive leading coefficient.  Raises NonUnit when
    a new pivot's leading entry is not a unit mod N.  Passing the dict of
    an earlier call as pivots extends that echelon in place; pivot rows
    are inserted in the order they are found.  Stops reading rows once
    there are ncols pivots.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        if ncols is not None and len(pivots) >= ncols:
            break
        r = _entry_row(row, field)
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _new_pivot(r, lead, field)
                break
            r = _eliminate(r, lead, pivot, field)
    return pivots


def reduce_rows(rows: list[dict], field: int | None = None) -> list[tuple[int, dict]]:
    """Canonical reduced row echelon form of the span of sparse rows.

    Returns the nonzero rows as (pivot column, row dict) pairs sorted by
    pivot column; each row has a 1 at its pivot and 0 at every other
    pivot column.  Scalars are Fractions over Q and ints mod N.  Input
    rows are not modified.
    """
    pivots = echelon(rows, field)
    reduced: dict = {}
    for piv in sorted(pivots, reverse=True):
        r = dict(pivots[piv])
        for c in [c for c in r if c != piv and c in reduced]:
            r = _eliminate(r, c, reduced[c], field)
        reduced[piv] = r if field is not None else _new_pivot(r, piv, None)
    if field is not None:
        return sorted(reduced.items())
    return [(piv, {c: Fraction(v, r[piv]) for c, v in r.items()})
            for piv, r in sorted(reduced.items())]


# ---------------------------------------------------------------------------
# primes and field modes

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin below 3_215_031_751


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_31(rng: random.Random) -> int:
    """A random prime strictly between 2^30 and 2^31."""
    while True:
        c = rng.randrange(2**30 + 1, 2**31) | 1
        if _is_prime(c):
            return c


@frozen
class FieldMode:
    """Where ranks are computed: exact rationals, or two random prime fields."""

    kind: str  # "exact" | "two-prime"
    seed: int | None = None
    primes: tuple[int, int] | None = None

    @staticmethod
    def exact() -> FieldMode:
        return FieldMode("exact")

    @staticmethod
    def two_prime(seed: int = 0) -> FieldMode:
        rng = random.Random(seed)
        p1 = random_prime_31(rng)
        p2 = random_prime_31(rng)
        while p2 == p1:
            p2 = random_prime_31(rng)
        return FieldMode("two-prime", seed, (p1, p2))


@frozen
class RankResult:
    rank: int
    escalated: bool = False


def two_prime(compute, mode: FieldMode):
    """(value, escalated) of compute(field) in mode; field None is the rationals.

    compute must do its linear algebra with `echelon`/`reduce_rows` and
    return a value that does not depend on the field as long as the
    elimination picks the same pivot columns (a rank, dimensions, a
    character).  Two-prime mode runs it once modulo p1*p2; when that run
    raises NonUnit it logs a warning to the "ferchar.exactlin" logger and
    recomputes over the rationals, with escalated True."""
    if mode.kind == "exact":
        return compute(None), False
    if mode.kind != "two-prime" or not mode.primes:
        raise ValueError(f"bad field mode {mode!r}")
    try:
        return compute(math.prod(mode.primes)), False
    except NonUnit as exc:
        import logging  # loaded only when the fallback warns
        logging.getLogger("ferchar.exactlin").warning(
            "%s (primes %s); recomputing exactly", exc, mode.primes)
    return compute(None), True


def int_rank(rows: list[dict], mode: FieldMode,
             ncols: int | None = None) -> RankResult:
    """Rank of a matrix with integer entries, given as sparse rows.

    ncols, when given, is the number of columns; elimination stops once
    the rank reaches it.  In two-prime mode the rank is taken modulo
    p1*p2, or over the rationals after a non-unit pivot (escalated).
    """
    return RankResult(*two_prime(lambda field: len(echelon(rows, field, ncols)), mode))
