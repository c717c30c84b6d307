"""Truncated characters in three gradings (z, u, q).

A GradedCharacter is a sparse mapping (z_deg, u_deg, q_deg) -> dimension
together with the truncation window on which it is complete: exact up to
q_max, and in z and u either exact everywhere (None) or up to the stated
bound.  All arithmetic tracks windows so that a coefficient inside the
window of a result is always exact.

Key choices:
  * coefficients with value 0 are never stored;
  * binary operations restrict to the meet of the two windows;
  * comparison verdicts are EQUAL, LE (left <= right coefficientwise,
    not equal) or MISMATCH, with the lexicographically first differing
    key reported.
"""

from __future__ import annotations

from collections import namedtuple

Key = tuple  # (z_deg, u_deg, q_deg)


def _min_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Truncation(namedtuple("Truncation", "q_max z_max u_max", defaults=(None, None))):
    """The window q <= q_max, z <= z_max, u <= u_max.  q_max, an int;
    z_max and u_max, ints or None: None leaves that degree unbounded."""

    __slots__ = ()

    def contains(self, key: Key) -> bool:
        z, u, q = key
        q_max, z_max, u_max = self
        if q > q_max:
            return False
        if z_max is not None and z > z_max:
            return False
        if u_max is not None and u > u_max:
            return False
        return True

    def meet(self, other: Truncation) -> Truncation:
        return Truncation(min(self.q_max, other.q_max),
                          _min_opt(self.z_max, other.z_max),
                          _min_opt(self.u_max, other.u_max))


class GradedCharacter(namedtuple("GradedCharacter", "coeffs truncation")):
    """coeffs, a dict: (z, u, q) -> dimension; truncation, a Truncation:
    the window on which coeffs is complete."""

    __slots__ = ()

    @staticmethod
    def make(coeffs: dict, truncation: Truncation) -> GradedCharacter:
        clean = {k: v for k, v in coeffs.items() if v and truncation.contains(k)}
        return GradedCharacter(clean, truncation)

    def get(self, z: int, u: int, q: int) -> int:
        return self.coeffs.get((z, u, q), 0)


def char_mul(a: GradedCharacter, b: GradedCharacter) -> GradedCharacter:
    """Convolution product; both factors must live in nonnegative degrees."""
    for c in (a, b):
        if any(z < 0 or u < 0 or q < 0 for z, u, q in c.coeffs):
            raise ValueError("char_mul needs nonnegative degrees")
    window = a.truncation.meet(b.truncation)
    out: dict = {}
    for (z1, u1, q1), v1 in a.coeffs.items():
        if not window.contains((z1, u1, q1)):
            continue
        for (z2, u2, q2), v2 in b.coeffs.items():
            key = (z1 + z2, u1 + u2, q1 + q2)
            if window.contains(key):
                out[key] = out.get(key, 0) + v1 * v2
    return GradedCharacter.make(out, window)


# ---------------------------------------------------------------------------
# q-series


def inv_pochhammer(n: int | None, q_max: int) -> tuple[int, ...]:
    """Coefficients of 1/((1-q)(1-q^2)...(1-q^n)) up to q^q_max.

    The q^m coefficient counts partitions of m into at most n parts.
    n=None gives the full 1/(q)_infinity expansion; n=0 gives 1.
    """
    if n is not None and n < 0:
        raise ValueError("n must be nonnegative")
    top = q_max if n is None else min(n, q_max)
    coeffs = [1] + [0] * q_max
    for j in range(1, top + 1):
        for t in range(j, q_max + 1):
            coeffs[t] += coeffs[t - j]
    return tuple(coeffs)


def convolve(a, b, q_max: int) -> tuple[int, ...]:
    out = [0] * (q_max + 1)
    for i, x in enumerate(a[: q_max + 1]):
        if x:
            for j, y in enumerate(b[: q_max + 1 - i]):
                if y:
                    out[i + j] += x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# comparison


class Comparison(namedtuple("Comparison", "verdict window first_diff", defaults=(None,))):
    """verdict, a str: "EQUAL" | "LE" | "MISMATCH"; window, a Truncation;
    first_diff, a tuple (z, u, q, left, right) or None."""

    __slots__ = ()


def compare(a: GradedCharacter, b: GradedCharacter) -> Comparison:
    window = a.truncation.meet(b.truncation)
    a_coeffs, b_coeffs = a.coeffs, b.coeffs
    keys = set(a_coeffs) | set(b_coeffs)
    keys = sorted(k for k in keys if window.contains(k))
    first_diff = None
    all_le = True
    for k in keys:
        va, vb = a_coeffs.get(k, 0), b_coeffs.get(k, 0)
        if va != vb:
            if first_diff is None:
                first_diff = (k[0], k[1], k[2], va, vb)
            if va > vb:
                all_le = False
    if first_diff is None:
        return Comparison("EQUAL", window)
    return Comparison("LE" if all_le else "MISMATCH", window, first_diff)


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(a: GradedCharacter) -> dict:
    t = a.truncation
    return {
        "truncation": {"q_max": t.q_max, "z_max": t.z_max, "u_max": t.u_max},
        "coefficients": [
            {"z": z, "u": u, "q": q, "dim": a.coeffs[(z, u, q)]}
            for z, u, q in sorted(a.coeffs)
        ],
    }


def render_csv(a: GradedCharacter) -> str:
    lines = ["z,u,q,dim"]
    for z, u, q in sorted(a.coeffs):
        lines.append(f"{z},{u},{q},{a.coeffs[(z, u, q)]}")
    return "\n".join(lines) + "\n"


def render_table(a: GradedCharacter) -> str:
    """Plain-text table: one row per q-degree, one column per (z, u) pair."""
    if not a.coeffs:
        return "(zero character)\n"
    cols = sorted({(z, u) for z, u, _ in a.coeffs})
    qs = sorted({q for _, _, q in a.coeffs})
    header = ["q"] + [f"z={z},u={u}" for z, u in cols]
    rows = [header]
    for q in range(qs[0], qs[-1] + 1):
        row = [str(q)]
        for z, u in cols:
            v = a.coeffs.get((z, u, q), 0)
            row.append(str(v) if v else ".")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    out = []
    for r in rows:
        out.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    return "\n".join(out) + "\n"
