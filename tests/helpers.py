"""Helpers shared by several test modules."""

from __future__ import annotations

import argparse

from ferchar.cli import COMMANDS, COMMON_FLAGS
from ferchar.gradedchar import GradedCharacter, Truncation
from ferchar.presented import (GeneratorFamily, Presentation, RelationFamily,
                               build_presentation_A, check_lattice, low_ranges)


def presentation_to_json(p) -> dict:
    """The JSON form of a Presentation that presentation_from_json reads."""
    return {
        "families": [
            {"name": f.name, "u_increment": f.u_increment, "min_mode": f.min_mode}
            for f in p.families
        ],
        "relations": [
            {"factors": [list(fac) for fac in rel.factors],
             "low": rel.low, "label": rel.label}
            for rel in p.relations
        ],
    }


def full_presentation_quadratic(gram, shifts) -> Presentation:
    """The quadratic presentation with every derivative pair: relations
    a_i^{(k)}(z) a_j^{(l)}(z) for all i <= j and all k, l >= 0 with
    k + l < gram[i][j]; generator i starts at mode -shifts[i].  The oracle
    of build_presentation_quadratic's minimal families."""
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


def every_low_presentation_A(lam, ic) -> Presentation:
    """build_presentation_A(lam, ic) with a LOW family for every power of
    each series whose range is positive, the implied ones included.  The
    oracle of build_presentation_A's minimal LOW families."""
    p = build_presentation_A(lam, ic)
    lows = [RelationFamily(((name, 0, i),), lb, f"{name}^{i} low {lb}")
            for name, values in (("a", ic.c), ("b", ic.d))
            for i, lb in enumerate(low_ranges(values), start=1) if lb >= 1]
    return Presentation.make(p.families, tuple(r for r in p.relations if r.low is None)
                             + tuple(lows))


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree of `ferchar`: every command, kind and flag.
    The oracle whose help, usage and error text `cli.main` must match."""
    parser = argparse.ArgumentParser(
        prog="ferchar",
        description="exact verification of graded character formulas")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (registry, help_text) in COMMANDS.items():
        kinds = commands.add_parser(command, help=help_text).add_subparsers(
            dest="kind", required=True)
        for name, kind in registry.items():
            sp = kinds.add_parser(name)
            # argparse keeps the text: values are parsed after the config
            # merge, so that --config files can supply them too
            for flag in kind.flags + COMMON_FLAGS:
                sp.add_argument("--" + flag.name, dest=flag.name)
    return parser


def restrict(a: GradedCharacter, truncation: Truncation) -> GradedCharacter:
    """a on the meet of its window and truncation."""
    window = a.truncation.meet(truncation)
    return GradedCharacter.make(a.coeffs, window)


def char_reweight(a: GradedCharacter, z_scale: int, z_shift: int,
                  q_shift_per_z: int, q_shift: int) -> GradedCharacter:
    """Map key (z, u, q) to (z_scale*z + z_shift, u, q + q_shift_per_z*z + q_shift).

    The q-window of the result is recomputed so that every coefficient
    inside it is still exact; a negative per-z shift therefore needs a
    finite z window on the input.
    """
    if z_scale < 1:
        raise ValueError("z_scale must be >= 1")
    t = a.truncation
    if q_shift_per_z < 0:
        if t.z_max is None:
            raise ValueError("negative q_shift_per_z needs a finite z window")
        q_max = t.q_max + q_shift + q_shift_per_z * t.z_max
    else:
        q_max = t.q_max + q_shift
    z_max = None if t.z_max is None else z_scale * t.z_max + z_shift
    window = Truncation(q_max, z_max, t.u_max)
    out: dict = {}
    for (z, u, q), v in a.coeffs.items():
        if z < 0:
            raise ValueError("char_reweight needs nonnegative z degrees")
        key = (z_scale * z + z_shift, u, q + q_shift_per_z * z + q_shift)
        if window.contains(key):
            out[key] = out.get(key, 0) + v
    return GradedCharacter(out, window)
