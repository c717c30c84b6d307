"""Exact sparse linear algebra over the rationals and over prime fields.

All elimination runs through one kernel, `echelon`: each incoming row is
reduced against the pivot rows kept so far, in input order, with no
back-substitution, and becomes a new pivot row if anything survives.  Over
a prime field p (entries are integers, taken mod p) pivot rows have
leading coefficient 1.  Over the rationals (field None; entries are ints
or `fractions.Fraction`s) each row is first scaled to integers and the
elimination is fraction-free (Bareiss 1968): r <- a*r - b*pivot with a, b
divided by their gcd, and a new pivot row is divided by its content.  The
rank is the number of pivot rows; with `ncols` the kernel stops once every
column has a pivot.

`reduce_rows` adds a back-substitution pass to obtain the canonical
reduced row echelon form, which is unique, so normal forms do not depend
on the order in which rows arrive.

The two-prime protocol lives here as well (`two_prime`): a computation
runs modulo two independently chosen 31-bit primes and its result is only
reported when they agree; on disagreement it is redone over the
rationals.  `int_rank` applies it to ranks and records the offending
prime; the fusion filtration applies it to whole fused characters.
"""

from __future__ import annotations

import logging
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

log = logging.getLogger("ferchar.exactlin")

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
            del r[c]


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
        inv = pow(r[lead], -1, field)
        return {c: v * inv % field for c, v in r.items()}
    g = math.gcd(*r.values())
    if r[lead] < 0:
        g = -g
    return {c: v // g for c, v in r.items()} if g != 1 else r


def echelon(rows, field: int | None = None, ncols: int | None = None,
            pivots: dict | None = None) -> dict:
    """Row echelon form of the span of rows, as {leading column: row}.

    Rows are sparse dicts col -> scalar and are not modified.  Pivot rows
    hold ints: mod p with leading coefficient 1, or over Q primitive
    integer rows with positive leading coefficient.  Passing the dict of
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
    pivot column.  Scalars are Fractions over Q and ints mod p.  Input
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RankResult:
    rank: int
    escalated: bool = False
    dropped_primes: tuple[int, ...] = ()


def two_prime(compute, mode: FieldMode, agree=operator.eq):
    """(value, by_prime) of compute(field) in mode; field None is the rationals.

    Two-prime mode keeps the first prime's value when agree(first, second)
    and otherwise recomputes over the rationals; by_prime lists the
    per-prime values when they disagreed, else None."""
    if mode.kind == "exact":
        return compute(None), None
    if mode.kind != "two-prime" or not mode.primes:
        raise ValueError(f"bad field mode {mode!r}")
    by_prime = [compute(p) for p in mode.primes]
    if agree(*by_prime):
        return by_prime[0], None
    return compute(None), by_prime


def int_rank(rows: list[dict], mode: FieldMode,
             ncols: int | None = None) -> RankResult:
    """Rank of a matrix with integer entries, given as sparse rows.

    ncols, when given, is the number of columns; elimination stops once
    the rank reaches it.  In two-prime mode the rank is accepted only if
    both primes agree; otherwise the exact rational rank is computed and
    any prime that reported a smaller rank is flagged.
    """
    rank, by_prime = two_prime(lambda field: len(echelon(rows, field, ncols)), mode)
    if by_prime is None:
        return RankResult(rank)
    dropped = tuple(p for p, r in zip(mode.primes, by_prime) if r < rank)
    log.warning("prime rank disagreement %s; exact rank %d, dropped by %s",
                dict(zip(mode.primes, by_prime)), rank, dropped)
    return RankResult(rank, escalated=True, dropped_primes=dropped)
