"""Command line interface.

Three commands: `char` evaluates a single character (brute force or
closed sum) and prints it; `verify` runs one catalog case and reports
verdicts; `scan` sweeps a family of cases.  Their kinds and flags come
from the registries in `ferchar.verify`.  A command, one of its kinds and
that kind's flags are parsed by the kind's parser alone; any other argv,
such as help or an error, by the whole argparse tree.  `--timeout` is
checked before `char` evaluates and before each case of `verify` and
`scan`, and is spent once the elapsed time reaches it; `--jobs`, a flag
of the `scan` kinds alone, sets its worker count (0 means 1).  Exit codes:
0 all passed, 1 a required comparison mismatched, 2 bad configuration,
3 a resource or stabilization limit was hit, or memory ran out.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

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
    Flag("config", parse_text), Flag("timeout", parse_seconds),
)


def _add_flags(parser, kind: catalog.Kind) -> argparse.ArgumentParser:
    # argparse keeps the text: values are parsed after the config merge,
    # so that --config files can supply them too
    for flag in kind.flags + COMMON_FLAGS:
        parser.add_argument("--" + flag.name, dest=flag.name)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree: every command, kind and flag."""
    parser = argparse.ArgumentParser(
        prog="ferchar",
        description="exact verification of graded character formulas")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (registry, help_text) in COMMANDS.items():
        kinds = commands.add_parser(command, help=help_text).add_subparsers(
            dest="kind", required=True)
        for name, kind in registry.items():
            _add_flags(kinds.add_parser(name), kind)
    return parser


def parse_argv(argv: list) -> argparse.Namespace:
    """argv parsed as the whole tree parses it.  When argv is a command,
    one of its kinds and then that kind's flags alone, the kind's own
    parser, the one the tree descends into, parses them; any other argv,
    leftover arguments and any "--" (whose handling differs between
    Python versions) go to the whole tree, so that help, usage and error
    text are its own."""
    registry = COMMANDS[argv[0]][0] if argv and argv[0] in COMMANDS else {}
    if len(argv) > 1 and argv[1] in registry and "--" not in argv:
        command, kind = argv[:2]
        parser = argparse.ArgumentParser(prog=f"ferchar {command} {kind}")
        args, rest = _add_flags(parser, registry[kind]).parse_known_args(argv[2:])
        if not rest:
            args.command, args.kind = command, kind
            return args
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# flag resolution


def resolve(args: argparse.Namespace) -> tuple[catalog.Kind, dict]:
    """The kind that args names and the values it runs on: its flags'
    values plus "window" and "mode".  Each flag, the common ones too, is
    parsed from argv or else from the --config file (whose keys are flag
    names, with - or _) and set on args."""
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
    z, u = values["zmax"], values["umax"]
    if kind.finite:
        z = values["qmax"] if z is None else z
        u = z if u is None else u
    exact, seed = kind.over_q(values), values["seed"]
    if exact and (values["field"] == "two-prime" or seed is not None):
        flag = "--seed" if seed is not None else "--field two-prime"
        raise ConfigurationError(f"{args.command} {args.kind} runs over the "
                                 f"rationals alone and takes no {flag}")
    mode = FieldMode.exact() if exact or values["field"] == "exact" else \
        FieldMode.two_prime(0 if seed is None else seed)
    return kind, dict({f.name: values[f.name] for f in kind.flags},
                      window=Truncation(values["qmax"], z, u), mode=mode)


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
        import csv  # imported here: the other formats need not load it
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["case", "left", "right", "q", "z", "u", "verdict",
                         "first_diff", "millis", "field", "seed"])
        for r in reports:
            w = r.window
            fd = "" if r.first_diff is None else \
                "z{} u{} q{} {}!={}".format(*r.first_diff)
            writer.writerow([str(x) for x in (
                r.case, r.left, r.right, w.q_max, w.z_max, w.u_max,
                r.verdict, fd, r.millis, r.field, r.seed)])
        return out.getvalue()
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_argv(argv)
    try:
        kind, values = resolve(args)
        if args.command == "char":
            # the rule of run_cases: a budget spent before the work starts
            start = time.monotonic()
            _, evaluate = kind.run(values)
            if args.timeout is not None and time.monotonic() - start >= args.timeout:
                raise ResourceLimitError(
                    f"--timeout {args.timeout:g} s spent before evaluating")
            return _emit_char(evaluate(), args)
        if args.command == "verify":
            descs, jobs = [(args.kind, values)], 1
        else:
            descs, jobs = kind.run(values), args.jobs or 1
        return _finish_reports(*catalog.run_cases(descs, jobs, args.timeout), args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilizationError as exc:
        print(f"stabilization failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
