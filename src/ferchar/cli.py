"""Command line interface.

Three commands: `char` evaluates a single character (brute force or
closed sum) and prints it; `verify` runs one catalog case and reports
verdicts; `scan` sweeps a family of cases.  Their kinds and flags come
from the registries in `ferchar.verify`.  A command, one of its kinds and
that kind's flags are read by a small flag reader that builds no parser;
any other argv, such as help or an error, goes to the whole argparse tree,
the only code that imports argparse.  `--timeout` is checked before `char`
evaluates and before each case of `verify` and `scan`, and is spent once
the elapsed time reaches it; `--jobs`, a flag of the `scan` kinds alone,
sets its worker count (0 means 1).  Exit codes: 0 all passed, 1 a
required comparison mismatched, 2 bad configuration, 3 a resource or
stabilization limit was hit, or memory ran out.
"""

from __future__ import annotations

import io
import json
import sys
import time
from types import SimpleNamespace

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


def build_parser():
    """The whole argparse tree: every command, kind and flag."""
    import argparse  # imported here: a well-formed command never loads it
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


def _read_flags(tokens: list, kind: catalog.Kind) -> dict | None:
    """{flag name: its text, or None} as the kind's argparse parser reads
    tokens, or None when tokens hold anything that parser might read
    otherwise: a token that is not "--name" or "--name=value" for one
    of the kind's flags or an abbreviation of one (as argparse resolves
    it: an exact name, else a prefix of just one flag name and not of
    "help"), a flag with no value left, a value token that starts with
    "-", which argparse may take for an option or, as a negative number
    on some Python versions, for a value, or a value "--", which some
    Python versions drop."""
    names = [flag.name for flag in kind.flags + COMMON_FLAGS]
    values = dict.fromkeys(names)
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("--"):
            return None
        name, equals, value = token[2:].partition("=")
        if name not in values:
            matches = [n for n in names + ["help"] if n.startswith(name)]
            if len(matches) != 1 or matches == ["help"]:
                return None
            name = matches[0]
        if not equals:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        elif value == "--":
            return None
        values[name] = value  # argparse keeps a repeated flag's last value
    return values


def parse_argv(argv: list) -> SimpleNamespace:
    """argv parsed as the whole argparse tree parses it: `command`, `kind`
    and one attribute per flag, its text or None.  When argv is a command,
    one of its kinds and then flags that `_read_flags` reads with
    certainty, no parser is built and argparse is not imported; any other
    argv, such as help, an error, leftover arguments or "--" (whose
    handling differs between Python versions), goes to the whole tree, so
    that help, usage and error text are its own."""
    registry = COMMANDS[argv[0]][0] if argv and argv[0] in COMMANDS else {}
    if len(argv) > 1 and argv[1] in registry:
        values = _read_flags(argv[2:], registry[argv[1]])
        if values is not None:
            return SimpleNamespace(command=argv[0], kind=argv[1], **values)
    return SimpleNamespace(**vars(build_parser().parse_args(argv)))


# ---------------------------------------------------------------------------
# flag resolution


def resolve(args: SimpleNamespace) -> tuple[catalog.Kind, dict]:
    """The kind that args names and the values it runs on: its flags'
    values plus "window" (--qmax/--zmax/--umax as given) and "mode".  Each
    flag, the common ones too, is parsed from argv or else from the --config
    file (whose keys are flag names, with - or _) and set on args."""
    kind = COMMANDS[args.command][0][args.kind]
    flags = kind.flags + COMMON_FLAGS
    raw = {f.name: getattr(args, f.name) for f in flags}
    if args.config is not None:
        path = parse_text(args.config)
        try:
            with open(path) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}")
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
    exact, seed = kind.over_q(values), values["seed"]
    if exact and (values["field"] == "two-prime" or seed is not None):
        flag = "--seed" if seed is not None else "--field two-prime"
        raise ConfigurationError(f"{args.command} {args.kind} runs over the "
                                 f"rationals alone and takes no {flag}")
    mode = FieldMode.exact() if exact or values["field"] == "exact" else \
        FieldMode.two_prime(0 if seed is None else seed)
    return kind, dict({f.name: values[f.name] for f in kind.flags},
                      window=Truncation(values["qmax"], values["zmax"], values["umax"]),
                      mode=mode)


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
