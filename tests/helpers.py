"""Helpers shared by several test modules."""

from __future__ import annotations

import argparse

from ferchar.cli import COMMANDS, COMMON_FLAGS


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
