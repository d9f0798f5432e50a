"""Loading ``oodn``, running its commands and checking what they produce.

Everything here is shared by the timed run (``run.py``) and the traced run
(``tracing.py``).  ``oodn`` is imported from ``src/`` of the checkout that
holds this directory and is only ever called, never patched.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from generate import Edit, PlanFacts, Workload, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".oodnbench"
LAYERS = ("model", "inheritance", "operations", "diagnostics", "dsl", "cli")

COMMANDS = {
    "inherit": (["inherit", "{file}", "--policy", "min"], 0),
    "diagnose": (["diagnose", "{file}"], 1),
    "export": (["export", "{file}", "--format", "json"], 0),
}
FINDING_RE = re.compile(r"^(exception|redundancy|ambiguity) in plan \[(\S+) inherits", re.M)


def load_oodn() -> SimpleNamespace:
    """Import every ``oodn`` layer afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "oodn" or m.startswith("oodn.")]:
        del sys.modules[name]
    return SimpleNamespace(**{layer: importlib.import_module(f"oodn.{layer}") for layer in LAYERS})


@dataclass
class Setup:
    seconds: float
    work: Workload
    path: Path
    text: str
    oodn: SimpleNamespace


def set_up(workload: str, seed: int) -> Setup:
    """Generate the workload, write its file and import ``oodn``, timed."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload}-{seed}.oodn"
    start = time.perf_counter()
    work = generate(workload, seed)
    text = work.text()
    path.write_text(text, encoding="utf-8")
    oodn = load_oodn()
    return Setup(time.perf_counter() - start, work, path, text, oodn)


# On a shared 2-vCPU host the speed drifts by up to 1.6x, in phases of
# seconds that can also last a whole run.  Timed runs therefore also run a
# fixed piece of pure-Python work between operations, and scale each
# operation's times to a host on which that work takes REFERENCE_S; the
# scaled times compare across runs, whatever phase each run fell in.
REFERENCE_S = 0.045


def reference_seconds() -> float:
    """Time of a fixed mix of the dict, set, tuple and string work ``oodn`` does.

    The garbage collector is off meanwhile, so the time does not depend on
    how many objects the process holds.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        members = [{"name": f"m{i}", "owner": ("C", i % 97), "degree": (i % 7, 8)} for i in range(20000)]
        by_owner: dict[tuple, list] = {}
        for member in members:
            by_owner.setdefault(member["owner"], []).append(member)
        groups = {frozenset((m["name"], m["degree"]) for m in group) for group in by_owner.values()}
        sorted(groups, key=len)
        sorted(members, key=lambda m: (m["degree"], m["name"]))
        return time.perf_counter() - start
    finally:
        gc.enable()


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    code: int | None
    out: str
    err: str
    rss_mb: float = 0.0


def command_argv(command: str, path: Path) -> list[str]:
    return [part.replace("{file}", str(path)) for part in COMMANDS[command][0]]


def run_in_process(cli, argv: list[str]) -> Outcome:
    """``oodn.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return Outcome(time.perf_counter() - start, code, out.getvalue(), err.getvalue())


# Linux carries a process's peak RSS over fork and exec into the child's
# rusage, so a command spawned straight from this (large) process would
# report this process's peak.  A small fresh interpreter launches it
# instead, times it, and reads its rusage with ``os.wait4``.
LAUNCHER = """
import json, os, subprocess, sys, time
with open(sys.argv[1], "wb") as out, open(sys.argv[2], "wb") as err:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[3:], stdout=out, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([seconds, proc.returncode, usage.ru_maxrss]))
"""


def run_cold(argv: list[str], stem: Path) -> Outcome:
    """A fresh ``python -m oodn.cli`` process, with its own wall time and max RSS.

    Its stdout and stderr go to ``stem`` with ``.out`` and ``.err`` suffixes.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(out_path), str(err_path), sys.executable, "-m", "oodn.cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    seconds, code, max_rss_kib = json.loads(launched.stdout)
    return Outcome(
        seconds,
        code,
        out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8"),
        max_rss_kib / 1024,
    )


def cli_import_ms(repeats: int) -> float:
    """Median time for a fresh interpreter to import ``oodn.cli``."""
    code = "import time; t = time.perf_counter(); import oodn.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT, check=True)
        times.append(float(done.stdout) * 1000)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Checker:
    """Counts attempted operations and records each one that failed.

    A command fails on an unexpected exit code, on output that differs from
    its first pass, or, on that first pass, on output that contradicts the
    generator's facts.  An edit fails on an outcome other than the stated
    one, or on a re-run plan whose facts differ from the stated ones.
    """

    def __init__(self, oodn: SimpleNamespace, work: Workload) -> None:
        self.oodn = oodn
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")

    def command(self, name: str, outcome: Outcome) -> None:
        self.record(name, self._command_problem(name, outcome))

    def _command_problem(self, name: str, outcome: Outcome) -> str | None:
        expected = COMMANDS[name][1]
        if outcome.code != expected:
            return f"exit {outcome.code}, expected {expected}: {outcome.err[-300:]}"
        digest = hashlib.sha256(f"{outcome.out}\0{outcome.err}".encode()).hexdigest()
        return self.same_or_checked(name, digest, lambda: getattr(self, f"_check_{name}")(outcome))

    def same_or_checked(self, name: str, digest: str, check) -> str | None:
        """Compare with the first pass's digest, or record it and run ``check``."""
        if name in self.digests:
            return None if digest == self.digests[name] else "output differs from the first pass"
        self.digests[name] = digest
        return check()

    def _check_inherit(self, outcome: Outcome) -> str | None:
        layered = self.oodn.dsl.parse_network(outcome.out).classes
        for facts in self.work.facts:
            problem = self.plan_problem(layered.get(facts.heir), facts)
            if problem:
                return problem
        return None

    def _check_diagnose(self, outcome: Outcome) -> str | None:
        if outcome.out:
            return "findings reached stdout"
        found = Counter((heir, kind) for kind, heir in FINDING_RE.findall(outcome.err))
        wanted = Counter({
            (facts.heir, kind): count
            for facts in self.work.facts
            for kind, count in facts.findings.items()
            if count
        })
        if found != wanted:
            return f"findings {sorted((found - wanted).items())[:3]} extra, {sorted((wanted - found).items())[:3]} missing"
        return None

    def _check_export(self, outcome: Outcome) -> str | None:
        doc = json.loads(outcome.out)
        got = (
            len(doc["classes"]), len(doc["objects"]), len(doc["relations"]), len(doc["plans"]),
            sum(len(c["spec"]) + len(c["sig"]) for c in doc["classes"]),
        )
        work = self.work
        wanted = (len(work.classes), len(work.objects), len(work.relations), len(work.plans), work.declared_members)
        return None if got == wanted else f"classes/objects/relations/plans/members {got}, expected {wanted}"

    def plan_problem(self, het, facts: PlanFacts) -> str | None:
        if het is None:
            return f"no layered class {facts.heir!r}"
        decompose = self.oodn.inheritance.decompose
        got = (len(het.core), len(het.projections), sum(len(p.depends_on) for p in het.projections))
        wanted = (facts.core, facts.projections, facts.edges)
        if got != wanted:
            return f"{facts.heir}: core/projections/edges {got}, expected {wanted}"
        flattened = {name: len(decompose(het, name)) for name in het.participants}
        if flattened != facts.flattened:
            wrong = {n: (flattened.get(n), facts.flattened.get(n)) for n in facts.flattened if flattened.get(n) != facts.flattened[n]}
            return f"{facts.heir}: flattened sizes (got, expected) {dict(list(wrong.items())[:3])}"
        return None

    def round_trips(self, text: str) -> None:
        """serialize -> parse -> serialize, and JSON export -> import -> export."""
        dsl = self.oodn.dsl
        net = dsl.parse_network(text)
        canonical = dsl.serialize(net)
        again = dsl.serialize(dsl.parse_network(canonical))
        self.record("canonical round trip", None if again == canonical else "text changed")
        exported = dsl.export_structured(net)
        again = dsl.export_structured(dsl.import_structured(exported))
        self.record("json round trip", None if again == exported else "text changed")


# ---------------------------------------------------------------------------
# Edit session
# ---------------------------------------------------------------------------


def no_span(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


class EditSession:
    """The generator's modifier calls, applied to a freshly parsed network.

    One step is one edit: the modifier call, then, if it committed, the
    re-run of every plan naming the changed class and ``materialize`` of
    that plan's heir.  ``span`` wraps those three parts for the traced run.
    """

    def __init__(self, oodn: SimpleNamespace, work: Workload, text: str, span=no_span) -> None:
        self.oodn = oodn
        self.net = oodn.dsl.parse_network(text)
        self.pending = list(work.edits)
        self.span = span
        self.committed = 0
        self.plans_naming: dict[str, list] = {}
        for plan in self.net.plans:
            for name in plan.class_names():
                self.plans_naming.setdefault(name, []).append(plan)

    def step(self, checker: Checker) -> float:
        """Run the next edit, check it, and return its latency in seconds."""
        edit = self.pending.pop(0)
        start = time.perf_counter()
        try:
            with self.span("operations.modify"):
                committed = self._modify(edit)
            rerun = []
            if committed:
                net = self.net
                cls = net.objects[edit.target].class_ref if edit.target in net.objects else edit.target
                for plan in self.plans_naming.get(cls, ()):
                    with self.span("operations.reinherit"):
                        het = self.oodn.inheritance.inherit(plan, net, self.oodn.inheritance.Policy.MIN)
                    with self.span("model.materialize"):
                        members = self.oodn.model.materialize(net, plan.heir, extra=[het])
                    rerun.append((plan.heir, het, len(members)))
        except Exception as exc:  # an unexpected error fails this edit only
            checker.record(f"edit {edit.op} {edit.target}.{edit.member}", f"raised {exc!r}")
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        self.committed += committed
        checker.record(f"edit {edit.op} {edit.target}.{edit.member}", self._problem(checker, edit, committed, rerun))
        return seconds

    def _modify(self, edit: Edit) -> bool:
        ops = self.oodn.operations
        model = self.oodn.model
        value = None if edit.vtype is None else to_value(model, edit.vtype, edit.value)
        try:
            if edit.op == "set":
                ops.modify_set_value(self.net, edit.target, edit.member, value)
            elif edit.op == "add":
                member = model.Member(
                    model.MemberKind.PROPERTY, edit.member, edit.target,
                    value_type=model.ValueType(edit.vtype), value=value,
                )
                ops.modify_add_member(self.net, edit.target, model.DegreedMember(member, model.as_degree(edit.degree)))
            else:
                ops.modify_remove_member(self.net, edit.target, edit.member)
        except ops.ModificationRejected:
            return False
        return True

    @staticmethod
    def _problem(checker: Checker, edit: Edit, committed: bool, rerun: list) -> str | None:
        if committed != edit.commit:
            return f"committed={committed}, expected {edit.commit}"
        if not committed:
            return None
        if [heir for heir, _, _ in rerun] != [edit.plan]:
            return f"re-ran {[heir for heir, _, _ in rerun]}, expected [{edit.plan!r}]"
        _, het, size = rerun[0]
        if size != edit.facts.flattened[edit.plan]:
            return f"materialized {size} members, expected {edit.facts.flattened[edit.plan]}"
        return checker.plan_problem(het, edit.facts)


def to_value(model, vtype: str, raw: object):
    if vtype == "real":
        return Fraction(raw)
    if vtype == "fuzzy":
        return model.FuzzySet(tuple((element, Fraction(m)) for element, m in raw))
    return raw
