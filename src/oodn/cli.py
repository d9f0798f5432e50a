"""Command-line interface.

Six subcommands over knowledge files:

* ``parse`` — check a file and print a summary (or its canonical form);
* ``materialize`` — print the effective member set of one class or object,
  with all declared plans executed first;
* ``inherit`` — execute the declared plans and print the resulting
  heterogeneous classes;
* ``classify`` — print each plan's position on the three inheritance axes;
* ``diagnose`` — report exceptions, redundancies, and ambiguities, with
  optional automatic application of the suggested repairs;
* ``export`` — emit the network as structured JSON, a Graphviz graph, or
  canonical text.

Exit codes: 0 success, 1 diagnose found findings, 2 the file is ill-formed
(text that is not UTF-8, parse error, validation error, or an inheritance
conflict), 3 the invocation itself is wrong (usage, a file that cannot be
read or written, unsatisfiable ``--required`` list).  Findings and errors
go to stderr; data to stdout.
"""

from __future__ import annotations

import argparse
import sys
from enum import IntEnum
from pathlib import Path

from .diagnostics import Diagnostic, RequirementError, diagnose_all, report_lines
from .dsl import (
    ParseError,
    encode_hetclass,
    export_graph,
    export_structured,
    json_text,
    parse_network,
    serialize,
    serialize_hetclass,
    serialize_plan,
)
from .inheritance import (
    InheritanceConflictError,
    Policy,
    classify_plan,
    inherit,
)
from .model import (
    Network,
    OodnError,
    is_fuzzy,
    materialize,
    member_line,
    validate_network,
    violations_are_fatal,
)


class ExitStatus(IntEnum):
    OK = 0
    FINDINGS = 1
    ERROR = 2
    USAGE = 3


class _Parser(argparse.ArgumentParser):
    """Argparse with usage problems mapped to exit status 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(int(ExitStatus.USAGE))


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _write_report(findings: list[Diagnostic]) -> None:
    """Write the report to stderr a line at a time, as it is rendered, so
    memory does not grow with its length."""
    stream = sys.stderr
    for line in report_lines(findings):
        stream.write(line + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(net: Network, args: argparse.Namespace) -> ExitStatus:
    if args.format == "canonical":
        sys.stdout.write(serialize(net))
        return ExitStatus.OK
    print(f"classes: {len(net.classes)}")
    print(f"objects: {len(net.objects)}")
    print(f"relations: {len(net.relations)}")
    print(f"plans: {len(net.plans)}")
    print(f"fuzzy: {'yes' if is_fuzzy(net) else 'no'}")
    return ExitStatus.OK


def _cmd_materialize(net: Network, args: argparse.Namespace) -> ExitStatus:
    results = [inherit(plan, net, Policy(args.policy)) for plan in net.plans]
    member_set = materialize(net, args.name, extra=results)
    for entry in member_set:
        print(member_line(entry))
    return ExitStatus.OK


def _cmd_inherit(net: Network, args: argparse.Namespace) -> ExitStatus:
    results = [inherit(plan, net, Policy(args.policy)) for plan in net.plans]
    if args.format == "json":
        document = [encode_hetclass(het) for het in results]
        print(json_text(document))
        return ExitStatus.OK
    blocks = [serialize_hetclass(het) for het in results]
    sys.stdout.write("\n\n".join(blocks) + ("\n" if blocks else ""))
    return ExitStatus.OK


def _cmd_classify(net: Network, args: argparse.Namespace) -> ExitStatus:
    for plan in net.plans:
        octant = classify_plan(plan, net)
        print(f"{plan.heir}: {octant.render()}")
    return ExitStatus.OK


def _cmd_diagnose(net: Network, args: argparse.Namespace) -> ExitStatus:
    required = None
    if args.required is not None:
        required = [name.strip() for name in args.required.split(",") if name.strip()]
        if not required:
            print("--required needs at least one member name", file=sys.stderr)
            return ExitStatus.USAGE
    findings = diagnose_all(net, required=required)
    if not args.apply_suggestions:
        if findings:
            _write_report(findings)
            return ExitStatus.FINDINGS
        print("no findings")
        return ExitStatus.OK

    for _ in range(5):
        # Each repair replaces the plan it was found on, the last one winning.
        repaired = {
            f.repair.plan: f.suggestion for f in findings if f.suggestion is not None
        }
        if not repaired:
            break
        net.plans[:] = [repaired.get(plan, plan) for plan in net.plans]
        findings = diagnose_all(net, required=required)
    for plan in net.plans:
        print(serialize_plan(plan))
    if findings:
        _write_report(findings)
        return ExitStatus.FINDINGS
    return ExitStatus.OK


def _cmd_export(net: Network, args: argparse.Namespace) -> ExitStatus:
    if args.format == "dot":
        text = export_graph(net)
    elif args.format == "canonical":
        text = serialize(net)
    else:
        text = export_structured(net)
    if args.write is None:
        sys.stdout.write(text)
        return ExitStatus.OK
    try:
        Path(args.write).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {args.write!r}: {exc.strerror or exc}", file=sys.stderr)
        return ExitStatus.USAGE
    return ExitStatus.OK


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oodn",
        description="Knowledge networks: parse, inherit, diagnose, export.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    policy = ("--policy", dict(choices=[member._value_ for member in Policy], default="reject"))
    # Each subcommand: its name, handler and help, and the arguments that
    # follow FILE, each a name and the keywords ``add_argument`` takes.
    for name, handler, help, arguments in (
        ("parse", _cmd_parse, "check a file and summarize it", [
            ("--format", dict(choices=("summary", "canonical"), default="summary")),
        ]),
        ("materialize", _cmd_materialize,
         "print the effective member set of a class or object", [("name", {}), policy]),
        ("inherit", _cmd_inherit, "execute the declared plans and print the results", [
            policy,
            ("--format", dict(choices=("canonical", "json"), default="canonical")),
        ]),
        ("classify", _cmd_classify, "print each plan's inheritance axes", []),
        ("diagnose", _cmd_diagnose, "detect exceptions, redundancies, and ambiguities", [
            ("--required", dict(
                help="comma-separated member names the heir actually needs "
                "(everything else arriving is reported as redundant)",
            )),
            ("--apply-suggestions", dict(
                action="store_true",
                help="apply suggested repairs and print the repaired plans",
            )),
        ]),
        ("export", _cmd_export, "emit the network as JSON, Graphviz, or canonical text", [
            ("--format", dict(choices=("json", "dot", "canonical"), default="json")),
            ("--write", dict(help="write to a file instead of stdout")),
        ]),
    ):
        command = commands.add_parser(name, help=help)
        command.add_argument("file")
        for argument, keywords in arguments:
            command.add_argument(argument, **keywords)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {args.file!r}: {exc.strerror or exc}", file=sys.stderr)
        return int(ExitStatus.USAGE)
    except UnicodeDecodeError as exc:
        print(f"error: {args.file!r} is not UTF-8 text (byte {exc.start}: {exc.reason})", file=sys.stderr)
        return int(ExitStatus.ERROR)
    try:
        net = parse_network(text)
        del text  # so the source is not held while the command runs
        findings = validate_network(net)
        for finding in findings:
            print(finding.render(), file=sys.stderr)
        if violations_are_fatal(findings):
            return int(ExitStatus.ERROR)
        return int(args.handler(net, args))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return int(ExitStatus.ERROR)
    except RequirementError as exc:
        print(f"requirement error: {exc}", file=sys.stderr)
        return int(ExitStatus.USAGE)
    except InheritanceConflictError as exc:
        print(f"conflict ({exc.finding.kind}): {exc}", file=sys.stderr)
        if exc.finding.suggestion is not None:
            print(f"suggestion: {serialize_plan(exc.finding.suggestion)}", file=sys.stderr)
        return int(ExitStatus.ERROR)
    except OodnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitStatus.ERROR)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
