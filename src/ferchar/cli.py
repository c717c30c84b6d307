"""Command line interface.

Three commands: `char` evaluates a single character (brute force or
closed sum) and prints it; `verify` runs one catalog case and reports
verdicts; `scan` sweeps a family of cases.  Their kinds and flags come
from the registries in `ferchar.verify`.  Exit codes: 0 all passed,
1 a required comparison mismatched, 2 bad configuration, 3 a resource
or stabilization limit was hit.  FERCHAR_THREADS overrides --jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as catalog
from .errors import ConfigurationError, ResourceLimitError, StabilizationError
from .exactlin import FieldMode
from .gradedchar import Truncation, render_csv, render_table, to_json_dict
from .verify import Flag, choice, parse_int, parse_seconds, parse_size, parse_text

EXIT_OK, EXIT_MISMATCH, EXIT_CONFIG, EXIT_RESOURCE = 0, 1, 2, 3

COMMANDS = {
    "char": (catalog.EVALUATORS, "evaluate one character"),
    "verify": (catalog.CASES, "run one verification case"),
    "scan": (catalog.SCANS, "sweep a family of cases"),
}

# flags of every kind, after the kind's own
COMMON_FLAGS = (
    Flag("qmax", parse_size, True), Flag("zmax", parse_size), Flag("umax", parse_size),
    Flag("field", choice("two-prime", "exact")), Flag("seed", parse_int),
    Flag("format", choice("json", "csv", "table")), Flag("out", parse_text),
    Flag("config", parse_text), Flag("jobs", parse_size), Flag("timeout", parse_seconds),
)


def build_parser() -> argparse.ArgumentParser:
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


# ---------------------------------------------------------------------------
# flag resolution


def resolve_flags(args: argparse.Namespace) -> catalog.Kind:
    """The kind that args names.  Sets each of its flags on args to the
    parsed value from argv or else from the --config file (whose keys are
    flag names, with - or _)."""
    kind = COMMANDS[args.command][0][args.kind]
    flags = kind.flags + COMMON_FLAGS
    raw = {f.name: getattr(args, f.name) for f in flags}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}")
        if not isinstance(config, dict):
            raise ConfigurationError("config must be a JSON object")
        for key, value in config.items():
            name = key.replace("_", "-")
            if name not in raw:
                raise ConfigurationError(f"config key {key!r} does not match a flag")
            if raw[name] is None:
                raw[name] = value
    values = catalog.parse_values(flags, raw)
    for flag in flags:
        if flag.required and values[flag.name] is None:
            raise ConfigurationError(f"--{flag.name} is required")
    vars(args).update(values)
    return kind


def resolve_mode(args) -> FieldMode:
    if args.field == "exact":
        return FieldMode.exact()
    return FieldMode.two_prime(0 if args.seed is None else args.seed)


def resolve_jobs(args) -> int:
    env = os.environ.get("FERCHAR_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigurationError(f"bad FERCHAR_THREADS value {env!r}")
    return args.jobs or 1


def resolve_window(args, finite: bool) -> Truncation:
    z, u = args.zmax, args.umax
    if finite:
        z = args.qmax if z is None else z
        u = z if u is None else u
    return Truncation(args.qmax, z, u)


def _case_values(kind: catalog.Kind, args) -> dict:
    """The kind's flag values plus the window and field mode."""
    values = {f.name: getattr(args, f.name) for f in kind.flags}
    values.update(window=resolve_window(args, kind.finite), mode=resolve_mode(args))
    return values


# ---------------------------------------------------------------------------
# commands


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot write {out_path}: {exc}")


def _emit_char(char, args) -> int:
    fmt = args.format or "table"
    if fmt == "json":
        _emit(json.dumps(to_json_dict(char), indent=2) + "\n", args.out)
    elif fmt == "csv":
        _emit(render_csv(char), args.out)
    else:
        _emit(render_table(char), args.out)
    return EXIT_OK


def _render_reports(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    if fmt == "csv":
        lines = ["case,left,right,q,z,u,verdict,first_diff,millis,field,seed"]
        for r in reports:
            w = r.window
            fd = "" if r.first_diff is None else \
                "z{} u{} q{} {}!={}".format(*r.first_diff)
            lines.append(",".join(str(x) for x in (
                r.case, r.left, r.right, w.q_max, w.z_max, w.u_max,
                r.verdict, fd, r.millis, r.field, r.seed)))
        return "\n".join(lines) + "\n"
    lines = []
    for r in reports:
        mark = "info" if r.informational else ("PASS" if r.passed else "FAIL")
        line = (f"[{mark}] {r.case}: {r.left} vs {r.right} -> {r.verdict}"
                f" ({r.millis} ms)")
        if r.first_diff is not None:
            z, u, q, left, right = r.first_diff
            line += f"; first diff at z={z} u={u} q={q}: {left} != {right}"
        lines.append(line)
    if not reports:
        lines.append("(no cases)")
    return "\n".join(lines) + "\n"


def _finish_reports(reports, timed_out: bool, args) -> int:
    _emit(_render_reports(reports, args.format or "table"), args.out)
    if timed_out:
        return EXIT_RESOURCE
    if all(r.passed for r in reports):
        return EXIT_OK
    return EXIT_MISMATCH


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kind = resolve_flags(args)
        values = _case_values(kind, args)
        if args.command == "char":
            _, evaluate = kind.run(values)
            return _emit_char(evaluate(values["window"], values["mode"]), args)
        if args.command == "verify":
            return _finish_reports(catalog.run_case((args.kind, values)), False, args)
        reports, timed_out = catalog.run_cases(kind.run(values), resolve_jobs(args),
                                               args.timeout)
        return _finish_reports(reports, timed_out, args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilizationError as exc:
        print(f"stabilization failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
