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
(parse error, validation error, or an inheritance conflict), 3 the
invocation itself is wrong (usage, missing file, unsatisfiable
``--required`` list).  Findings and errors go to stderr; data to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from enum import IntEnum
from pathlib import Path

from .diagnostics import RequirementError, diagnose_all, render_report
from .dsl import (
    ParseError,
    encode_hetclass,
    export_graph,
    export_structured,
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
    HetClass,
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


class _CliFailure(Exception):
    def __init__(self, status: ExitStatus) -> None:
        self.status = status


class _Parser(argparse.ArgumentParser):
    """Argparse with usage problems mapped to exit status 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(int(ExitStatus.USAGE))


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _load(path: str) -> Network:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path!r}: {exc.strerror or exc}", file=sys.stderr)
        raise _CliFailure(ExitStatus.USAGE) from exc
    net = parse_network(text)
    findings = validate_network(net)
    for finding in findings:
        print(finding.render(), file=sys.stderr)
    if violations_are_fatal(findings):
        raise _CliFailure(ExitStatus.ERROR)
    return net


def _run_plans(net: Network, policy: Policy) -> list[HetClass]:
    results = []
    for plan in net.plans:
        try:
            results.append(inherit(plan, net, policy))
        except InheritanceConflictError as exc:
            print(f"conflict ({exc.kind}): {exc}", file=sys.stderr)
            if exc.suggestion is not None:
                print(
                    f"suggestion: {serialize_plan(exc.suggestion)}",
                    file=sys.stderr,
                )
            raise _CliFailure(ExitStatus.ERROR) from exc
    return results


def _policy(value: str) -> Policy:
    return Policy(value)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> ExitStatus:
    net = _load(args.file)
    if args.format == "canonical":
        sys.stdout.write(serialize(net))
        return ExitStatus.OK
    print(f"classes: {len(net.classes)}")
    print(f"objects: {len(net.objects)}")
    print(f"relations: {len(net.relations)}")
    print(f"plans: {len(net.plans)}")
    print(f"fuzzy: {'yes' if is_fuzzy(net) else 'no'}")
    return ExitStatus.OK


def _cmd_materialize(args: argparse.Namespace) -> ExitStatus:
    net = _load(args.file)
    results = _run_plans(net, _policy(args.policy))
    member_set = materialize(net, args.name, extra=results)
    for entry in member_set:
        print(member_line(entry))
    return ExitStatus.OK


def _cmd_inherit(args: argparse.Namespace) -> ExitStatus:
    net = _load(args.file)
    results = _run_plans(net, _policy(args.policy))
    if args.format == "json":
        document = [encode_hetclass(het) for het in results]
        print(json.dumps(document, indent=2))
        return ExitStatus.OK
    blocks = [serialize_hetclass(het) for het in results]
    sys.stdout.write("\n\n".join(blocks) + ("\n" if blocks else ""))
    return ExitStatus.OK


def _cmd_classify(args: argparse.Namespace) -> ExitStatus:
    net = _load(args.file)
    for plan in net.plans:
        octant = classify_plan(plan, net)
        print(f"{plan.heir}: {octant.render()}")
    return ExitStatus.OK


def _cmd_diagnose(args: argparse.Namespace) -> ExitStatus:
    net = _load(args.file)
    required = None
    if args.required is not None:
        required = [name.strip() for name in args.required.split(",") if name.strip()]
        if not required:
            print("--required needs at least one member name", file=sys.stderr)
            return ExitStatus.USAGE
    findings = diagnose_all(net, required=required)
    if not args.apply_suggestions:
        if findings:
            print(render_report(findings), file=sys.stderr)
            return ExitStatus.FINDINGS
        print("no findings")
        return ExitStatus.OK

    for _ in range(5):
        applicable = [f for f in findings if f.suggestion is not None]
        if not applicable:
            break
        for finding in applicable:
            assert finding.suggestion is not None
            for index, plan in enumerate(net.plans):
                if plan.heir == finding.suggestion.heir:
                    net.plans[index] = finding.suggestion
                    break
        findings = diagnose_all(net, required=required)
    for plan in net.plans:
        print(serialize_plan(plan))
    if findings:
        print(render_report(findings), file=sys.stderr)
        return ExitStatus.FINDINGS
    return ExitStatus.OK


def _cmd_export(args: argparse.Namespace) -> ExitStatus:
    net = _load(args.file)
    if args.format == "dot":
        text = export_graph(net)
    elif args.format == "canonical":
        text = serialize(net)
    else:
        text = export_structured(net)
    if args.write is not None:
        Path(args.write).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
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

    parse_cmd = commands.add_parser("parse", help="check a file and summarize it")
    parse_cmd.add_argument("file")
    parse_cmd.add_argument(
        "--format", choices=("summary", "canonical"), default="summary"
    )
    parse_cmd.set_defaults(handler=_cmd_parse)

    mat_cmd = commands.add_parser(
        "materialize", help="print the effective member set of a class or object"
    )
    mat_cmd.add_argument("file")
    mat_cmd.add_argument("name")
    mat_cmd.add_argument(
        "--policy", choices=("reject", "min", "max"), default="reject"
    )
    mat_cmd.set_defaults(handler=_cmd_materialize)

    inh_cmd = commands.add_parser(
        "inherit", help="execute the declared plans and print the results"
    )
    inh_cmd.add_argument("file")
    inh_cmd.add_argument(
        "--policy", choices=("reject", "min", "max"), default="reject"
    )
    inh_cmd.add_argument(
        "--format", choices=("canonical", "json"), default="canonical"
    )
    inh_cmd.set_defaults(handler=_cmd_inherit)

    cls_cmd = commands.add_parser(
        "classify", help="print each plan's inheritance axes"
    )
    cls_cmd.add_argument("file")
    cls_cmd.set_defaults(handler=_cmd_classify)

    diag_cmd = commands.add_parser(
        "diagnose", help="detect exceptions, redundancies, and ambiguities"
    )
    diag_cmd.add_argument("file")
    diag_cmd.add_argument(
        "--required",
        help="comma-separated member names the heir actually needs "
        "(everything else arriving is reported as redundant)",
    )
    diag_cmd.add_argument(
        "--apply-suggestions",
        action="store_true",
        help="apply suggested repairs and print the repaired plans",
    )
    diag_cmd.set_defaults(handler=_cmd_diagnose)

    exp_cmd = commands.add_parser(
        "export", help="emit the network as JSON, Graphviz, or canonical text"
    )
    exp_cmd.add_argument("file")
    exp_cmd.add_argument(
        "--format", choices=("json", "dot", "canonical"), default="json"
    )
    exp_cmd.add_argument("--write", help="write to a file instead of stdout")
    exp_cmd.set_defaults(handler=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.handler(args))
    except _CliFailure as failure:
        return int(failure.status)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return int(ExitStatus.ERROR)
    except RequirementError as exc:
        print(f"requirement error: {exc}", file=sys.stderr)
        return int(ExitStatus.USAGE)
    except InheritanceConflictError as exc:
        print(f"conflict ({exc.kind}): {exc}", file=sys.stderr)
        if exc.suggestion is not None:
            print(f"suggestion: {serialize_plan(exc.suggestion)}", file=sys.stderr)
        return int(ExitStatus.ERROR)
    except OodnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitStatus.ERROR)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
