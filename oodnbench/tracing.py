"""Traced run: each layer's public functions, timed from outside.

The pipeline below calls ``oodn``'s layers in the order the commands use
them -- parse, validate, the plan walk, ``inherit``, serialize, decompose,
the three detectors, then the exporters -- and records a span (name,
start, end, parent) around every call.  Spans are kept in memory and
written to ``.oodnbench/spans/`` when the run ends.  Untraced passes of the
same pipeline alternate with the traced ones, which gives the tracing
overhead; one extra pass under ``tracemalloc`` gives the memory peaks.
``oodn`` itself is not patched.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from types import SimpleNamespace

import harness

DETECTORS = ("exception", "redundancy", "ambiguity")
LAYER_OF = {  # spans that make up each layer's share of one pass
    "dsl": ("dsl.parse", "dsl.serialize_hetclass", "dsl.serialize", "dsl.export_structured",
            "dsl.import_structured", "dsl.export_graph"),
    "model": ("model.validate_network",),
    "inheritance": ("inheritance.inherit", "inheritance.decompose"),
    "diagnostics": tuple(f"diagnostics.{kind}" for kind in DETECTORS),
}
INHERIT_PATH = ("dsl.parse", "model.validate_network", "inheritance.inherit", "dsl.serialize_hetclass")


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent index or None]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def totals_ms(self, start: int, stop: int | None = None) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, begin, end, _ in self.spans[start:stop]:
            totals[name] += (end - begin) / 1e6
        return totals

    def durations_ms(self, name: str, start: int, stop: int) -> list[float]:
        return [(end - begin) / 1e6 for n, begin, end, _ in self.spans[start:stop] if n == name]


def pipeline(oodn: SimpleNamespace, text: str, span) -> SimpleNamespace:
    """One pass over every layer; ``span(name)`` wraps each call."""
    dsl, inheritance, diagnostics = oodn.dsl, oodn.inheritance, oodn.diagnostics
    policy = inheritance.Policy.MIN
    with span("dsl.parse"):
        net = dsl.parse_network(text)
    with span("model.validate_network"):
        oodn.model.validate_network(net)
    views = []
    for plan in net.plans:
        with span("inheritance.build_views"):
            views.append(inheritance.build_views(plan, net, policy))
    hets = []
    for plan in net.plans:
        with span("inheritance.inherit"):
            hets.append(inheritance.inherit(plan, net, policy))
    blocks = []
    for het in hets:
        with span("dsl.serialize_hetclass"):
            blocks.append(dsl.serialize_hetclass(het))
    for het in hets:
        for name in het.participants:
            with span("inheritance.decompose"):
                inheritance.decompose(het, name)
    findings = []
    for plan in net.plans:
        for kind in DETECTORS:
            with span(f"diagnostics.{kind}"):
                findings.extend(getattr(diagnostics, f"detect_{kind}")(plan, net))
    with span("dsl.serialize"):
        dsl.serialize(net)
    with span("dsl.export_structured"):
        exported = dsl.export_structured(net)
    with span("dsl.import_structured"):
        dsl.import_structured(exported)
    with span("dsl.export_graph"):
        dsl.export_graph(net)
    output = "\n\n".join(blocks) + "\n"
    return SimpleNamespace(net=net, views=views, hets=hets, output=output, findings=findings)


def memory_peaks_kb(oodn: SimpleNamespace, text: str) -> dict[str, float]:
    """``tracemalloc`` peaks of parsing, executing every plan, and diagnosing."""
    peaks = {}
    tracemalloc.start()
    try:
        def measure(name, call):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 1024
            return result

        net = measure("dsl.parse_peak_kb", lambda: oodn.dsl.parse_network(text))
        policy = oodn.inheritance.Policy.MIN
        measure("inheritance.inherit_peak_kb", lambda: [oodn.inheritance.inherit(p, net, policy) for p in net.plans])
        measure("diagnostics.peak_kb", lambda: oodn.diagnostics.diagnose_all(net))
    finally:
        tracemalloc.stop()
    return peaks


def pass_problem(checker: harness.Checker, work, result) -> str | None:
    """The traced pass's plans, views and findings against the generator's facts."""
    by_heir = {het.name: het for het in result.hets}
    found = Counter((f.plan.split(" ")[0], f.kind) for f in result.findings)
    for facts, views in zip(work.facts, result.views):
        problem = checker.plan_problem(by_heir.get(facts.heir), facts)
        if problem is None and sum(len(v) for v in views.values()) != facts.view_entries:
            problem = f"{facts.heir}: view entries differ from the model's {facts.view_entries}"
        if problem is None and any(found[(facts.heir, k)] != n for k, n in facts.findings.items()):
            problem = f"{facts.heir}: findings differ from {facts.findings}"
        if problem:
            return problem
    return None


def traced_run(workload: str, seed: int, seconds: float):
    setup = harness.set_up(workload, seed)
    oodn, text, work = setup.oodn, setup.text, setup.work
    checker = harness.Checker(oodn, work)
    tracer = Tracer()
    deadline = time.perf_counter() + seconds

    peaks = memory_peaks_kb(oodn, text)
    session = harness.EditSession(oodn, work, text, span=tracer.span)
    while session.pending:
        session.step(checker)
    edit_spans = len(tracer.spans)

    # Traced and plain passes alternate in ABBA order; each adjacent pair
    # gives one overhead ratio, so slow phases of the machine cancel out.
    overheads, per_pass, result = [], [], None
    while not overheads or time.perf_counter() < deadline:
        seconds = {}
        for traced in ((True, False) if len(overheads) % 2 == 0 else (False, True)):
            gc.collect()
            start = time.perf_counter()
            if traced:
                first_span = len(tracer.spans)
                with tracer.span("pass"):
                    result = pipeline(oodn, text, tracer.span)
                per_pass.append(tracer.totals_ms(first_span))
                digest = hashlib.sha256(result.output.encode()).hexdigest()
                checker.record("traced pass", checker.same_or_checked(
                    "traced pass", digest, lambda: pass_problem(checker, work, result)))
            else:
                pipeline(oodn, text, harness.no_span)
            seconds[traced] = time.perf_counter() - start
        overheads.append((seconds[True] / seconds[False] - 1) * 100)

    def layer_ms(name: str) -> float:
        return statistics.median([totals.get(name, 0.0) for totals in per_pass])

    def edit_ms(name: str) -> float:
        values = tracer.durations_ms(name, 0, edit_spans)
        return statistics.median(values) if values else 0.0

    declared = sum(len(c.members()) for c in result.net.classes.values())
    source_kb = len(text.encode()) / 1024
    kinds = Counter(f.kind for f in result.findings)
    edits = len(work.edits)
    hets = result.hets
    m = {
        "dsl.parse_ms": (layer_ms("dsl.parse"), "ms"),
        "dsl.parse_kb_per_s": (source_kb / (layer_ms("dsl.parse") / 1000), "KB/s"),
        "dsl.parse_peak_kb": (peaks["dsl.parse_peak_kb"], "KB"),
        "dsl.serialize_hetclass_ms": (layer_ms("dsl.serialize_hetclass"), "ms"),
        "dsl.export_structured_ms": (layer_ms("dsl.export_structured"), "ms"),
        "dsl.serialize_ms": (layer_ms("dsl.serialize"), "ms"),
        "dsl.import_structured_ms": (layer_ms("dsl.import_structured"), "ms"),
        "dsl.export_graph_ms": (layer_ms("dsl.export_graph"), "ms"),
        "dsl.source_kb": (source_kb, "KB"),
        "dsl.output_kb": (len(result.output.encode()) / 1024, "KB"),
        "model.validate_network_ms": (layer_ms("model.validate_network"), "ms"),
        "model.materialize_ms": (edit_ms("model.materialize"), "ms"),
        "model.declared_members": (declared, "count"),
        "inheritance.build_views_ms": (layer_ms("inheritance.build_views"), "ms"),
        "inheritance.layering_ms": (layer_ms("inheritance.inherit") - layer_ms("inheritance.build_views"), "ms"),
        "inheritance.us_per_member": (layer_ms("inheritance.inherit") * 1000 / declared, "us"),
        "inheritance.decompose_ms": (layer_ms("inheritance.decompose"), "ms"),
        "inheritance.inherit_peak_kb": (peaks["inheritance.inherit_peak_kb"], "KB"),
        "inheritance.view_entries": (sum(len(v) for views in result.views for v in views.values()), "count"),
        "inheritance.core_members": (sum(len(h.core) for h in hets), "count"),
        "inheritance.projections": (sum(len(h.projections) for h in hets), "count"),
        "inheritance.depends_edges": (sum(len(p.depends_on) for h in hets for p in h.projections), "count"),
        "diagnostics.exception_ms": (layer_ms("diagnostics.exception"), "ms"),
        "diagnostics.redundancy_ms": (layer_ms("diagnostics.redundancy"), "ms"),
        "diagnostics.ambiguity_ms": (layer_ms("diagnostics.ambiguity"), "ms"),
        "diagnostics.peak_kb": (peaks["diagnostics.peak_kb"], "KB"),
        "diagnostics.exception_findings": (kinds["exception"], "count"),
        "diagnostics.redundancy_findings": (kinds["redundancy"], "count"),
        "diagnostics.ambiguity_findings": (kinds["ambiguity"], "count"),
        "diagnostics.alternatives": (sum(len(f.alternatives) for f in result.findings), "count"),
        "diagnostics.suggested_ratio": (
            sum(f.suggestion is not None for f in result.findings) / max(1, len(result.findings)), "ratio"),
        "operations.modify_ms": (edit_ms("operations.modify"), "ms"),
        "operations.reinherit_ms": (edit_ms("operations.reinherit"), "ms"),
        "operations.edits": (edits, "count"),
        "operations.rolled_back": (edits - session.committed, "count"),
        "operations.commit_ratio": (session.committed / edits, "ratio"),
        "cli.import_ms": (harness.cli_import_ms(5), "ms"),
        "trace.overhead_pct": (statistics.median(overheads), "%"),
    }

    layers = {layer: sum(layer_ms(n) for n in names) for layer, names in LAYER_OF.items()}
    stress = {
        "largest_layer": max(layers, key=layers.get),
        "layer_ms": layers,
        "largest_span": max((n for n in per_pass[0] if n != "pass"), key=layer_ms),
        "largest_on_inherit_path": max(INHERIT_PATH, key=layer_ms),
    }
    out = harness.WORK / "spans"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}.json").write_text(
        json.dumps([dict(zip(("name", "start_ns", "end_ns", "parent"), s)) for s in tracer.spans]))
    details = {"samples": {"pass_pairs": len(overheads), "edits": edits, "spans": len(tracer.spans)},
               "stress": stress}
    return checker, m, details
