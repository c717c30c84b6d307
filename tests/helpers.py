"""Helpers shared by several test modules."""

from __future__ import annotations


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
