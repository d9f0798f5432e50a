"""Benchmark for the ``oodn`` command line and library.

    python3 oodnbench/run.py --workload fanout --seed 1 --seconds 55 --trace 0
    python3 oodnbench/run.py --all --seed 1 --seconds 10

With ``--trace 0`` the run times the commands users run on the generated
file -- ``oodn inherit FILE --policy min``, ``oodn diagnose FILE`` and
``oodn export FILE --format json`` in process through ``oodn.cli.main``,
and ``inherit`` again as a fresh ``python -m oodn.cli`` process -- plus the
workload's set-up and edit session, round-robin until ``--seconds`` have
passed, and reports the end-to-end metrics.  Times are scaled to a host of
fixed speed by a reference piece of work timed between the operations
(``harness.REFERENCE_S``); the unscaled samples go to the result record.
With ``--trace 1`` it runs the separate traced pipeline of ``tracing.py``
and reports the per-layer metrics, unscaled.  Every command and edit is
checked against the generator's facts; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--all`` runs
both modes on every workload and prints each metric by name and unit.

``BENCHMARK.json`` lists ``fanout`` and ``mixed`` only.  ``chain`` runs here
too; leaving it out lets each listed run last 55 s within the benchmark's
total time (see CHANGES.md).

Files go to ``.oodnbench/`` in the checkout: the generated workload, the
cold runs' output, and one result record per run with the SHA-256 of every
command's output, so a change's output can be compared with its parent's.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "oodn" / "cli.py").is_file():
    sys.exit(f"no oodn sources under {ROOT / 'src'}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from generate import WORKLOADS  # noqa: E402

SLICE_S = 0.5  # each operation repeats in a round until it has used this long


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """Round-robin over the operations until ``seconds`` have passed.

    In each round, every operation -- setting the workload up again, each
    command, the cold ``inherit`` and the edit session -- repeats for a
    short slice, at least once, so every operation's samples spread evenly
    over the run.  ``harness.reference_seconds`` runs between slices; each
    slice's times are scaled by ``REFERENCE_S`` over the median of the six
    reference times nearest to it, which takes out the machine's speed
    drift (see ``harness.REFERENCE_S``).  The edit session starts again on
    a fresh network when it runs out.  One cold ``diagnose`` gives its
    memory peak.  Each metric is the median of its scaled samples.
    """
    setup = harness.set_up(workload, seed)
    oodn, path, work = setup.oodn, setup.path, setup.work
    checker = harness.Checker(oodn, work)
    session = harness.EditSession(oodn, work, setup.text)
    rss_mb = []

    def set_up_again() -> float:
        again = harness.set_up(workload, seed)
        checker.record("setup", None if again.text == setup.text else "generated text differs")
        return again.seconds

    def in_process(command: str) -> float:
        gc.collect()  # each pass starts clean, as a fresh process would
        outcome = harness.run_in_process(oodn.cli, harness.command_argv(command, path))
        checker.command(command, outcome)
        return outcome.seconds

    def cold_inherit() -> float:
        outcome = harness.run_cold(harness.command_argv("inherit", path), path.with_name(f"{path.stem}-cold-inherit"))
        checker.command("inherit", outcome)
        rss_mb.append(outcome.rss_mb)
        return outcome.seconds

    def edit() -> float:
        nonlocal session
        if not session.pending:
            session = harness.EditSession(oodn, work, setup.text)
        return session.step(checker)

    operations = {
        "setup": set_up_again,
        "inherit": lambda: in_process("inherit"),
        "diagnose": lambda: in_process("diagnose"),
        "export": lambda: in_process("export"),
        "cold_inherit": cold_inherit,
        "edit": edit,
    }
    diagnose = harness.run_cold(harness.command_argv("diagnose", path), path.with_name(f"{path.stem}-cold-diagnose"))
    checker.command("diagnose", diagnose)
    slices: list[tuple[str, list[float]]] = []
    references = [harness.reference_seconds()]
    deadline = time.perf_counter() + seconds
    first_round = True
    while first_round or time.perf_counter() < deadline:
        for name, operation in operations.items():
            if not first_round and time.perf_counter() >= deadline:
                break
            values = []
            gc.collect()
            gc.freeze()  # collections in the slice scan only what it makes
            try:
                slice_end = time.perf_counter() + SLICE_S
                while not values or time.perf_counter() < min(slice_end, deadline):
                    values.append(operation())
            finally:
                gc.unfreeze()
            slices.append((name, values))
            references.append(harness.reference_seconds())
        first_round = False

    raw: dict[str, list[float]] = {name: [] for name in operations}
    times: dict[str, list[float]] = {name: [] for name in operations}
    for i, (name, values) in enumerate(slices):
        # references[i] and [i + 1] ran just before and after slice i
        scale = harness.REFERENCE_S / statistics.median(references[max(0, i - 2):i + 4])
        raw[name].extend(values)
        times[name].extend(value * scale for value in values)
    checker.round_trips(setup.text)

    edit_ms = [value * 1000 for value in times["edit"]]
    metrics = {
        "setup_s": (statistics.median(times["setup"]), "s"),
        "inherit_s": (statistics.median(times["inherit"]), "s"),
        "diagnose_s": (statistics.median(times["diagnose"]), "s"),
        "export_s": (statistics.median(times["export"]), "s"),
        "cold_inherit_s": (statistics.median(times["cold_inherit"]), "s"),
        "peak_rss_mb": (max(statistics.median(rss_mb), diagnose.rss_mb), "MB"),
        "edit_p50_ms": (statistics.median(edit_ms), "ms"),
        "edit_p95_ms": (harness.p95(edit_ms), "ms"),
    }
    details = {
        "samples": {name: len(values) for name, values in times.items()},
        "unscaled_median_s": {name: statistics.median(values) for name, values in raw.items()},
        "references_s": references,
        "unscaled_s": raw,
    }
    return record(workload, seed, 0, checker, metrics, details)


def record(workload: str, seed: int, trace: int, checker: harness.Checker, metrics: dict, details: dict) -> dict:
    """The run's result, also written to ``.oodnbench/results``."""
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        **details,
        "failed_ops": checker.failed / checker.attempted,
        "output_sha256": checker.digests,
        "failures": checker.failures,
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out = harness.WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        return record(workload, seed, 1, *tracing.traced_run(workload, seed, seconds))
    return timed_run(workload, seed, seconds)


def report(result: dict) -> None:
    """Human-readable lines for one run (stdout, before the JSON line)."""
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} samples={result['samples']}")
    print(f"# failed_ops={result['failed_ops']:.4f} ({result['failed']} of {result['attempted']})")
    if "stress" in result:
        print(f"# stress {json.dumps(result['stress'])}")
    for name, digest in result["output_sha256"].items():
        print(f"# sha256 {name} {digest}")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description="oodn benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, timed and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, timed then traced: one table of every metric."""
    rows, correct = [], True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_one(workload, seed, seconds, trace)
            report(result)
            correct &= result["correct"]
            rows.append((workload, "failed_ops", result["failed_ops"], "ratio"))
            rows.extend((workload, name, m["value"], m["unit"]) for name, m in result["metrics"].items())
    width = max(len(name) for _, name, _, _ in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:<7} {name:<{width}} {value:>14.6g} {unit}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
