"""Smoke test of the benchmark at toy sizes; no timing is checked.

    python3 -m pytest oodnbench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import generate
import harness

sys.path.insert(0, str(harness.SRC))

TOY = {
    "chain": {"depth": 6, "width": 3, "edits": 8},
    "fanout": {"sources": 6, "width": 3, "edits": 12},
    "mixed": {"plans": 16, "edits": 60},
}


@pytest.fixture(scope="module")
def oodn():
    return harness.load_oodn()


@pytest.mark.parametrize("name", sorted(TOY))
def test_generator_is_deterministic_in_its_seed(name):
    first = generate.generate(name, 7, **TOY[name])
    again = generate.generate(name, 7, **TOY[name])
    other = generate.generate(name, 8, **TOY[name])
    assert first.text() == again.text()
    assert first.edits == again.edits
    assert first.text() != other.text()


def test_chain_facts_follow_the_closed_forms():
    depth, width = 6, 3
    (facts,) = generate.chain(1, depth=depth, width=width, edits=0).facts
    assert (facts.core, facts.projections, facts.edges) == (width + 3, depth - 1, depth - 2)
    assert facts.flattened == {f"C{i}": width * (i + 1) + 3 for i in range(depth)}
    assert facts.findings == {"exception": 0, "redundancy": 3, "ambiguity": 0}


def test_fanout_facts_follow_the_closed_forms():
    sources, width = 6, 3
    (facts,) = generate.fanout(1, sources=sources, width=width, edits=0).facts
    assert (facts.core, facts.projections, facts.edges) == (0, sources + 1, sources)
    assert facts.flattened["H"] == sources * width + 6
    assert facts.findings == {"exception": 0, "redundancy": 6, "ambiguity": 3}


def test_mixed_covers_every_octant(oodn):
    work = generate.mixed(3, **TOY["mixed"])
    net = oodn.dsl.parse_network(work.text())
    octants = {oodn.inheritance.classify_plan(plan, net).render() for plan in net.plans}
    assert len(octants) == 8
    assert oodn.model.is_fuzzy(net)


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("seed", [1, 2])
def test_commands_and_edits_match_the_generator(oodn, tmp_path, name, seed):
    work = generate.generate(name, seed, **TOY[name])
    text = work.text()
    path = tmp_path / f"{name}.oodn"
    path.write_text(text)
    checker = harness.Checker(oodn, work)
    for command in harness.COMMANDS:
        for _ in range(2):
            checker.command(command, harness.run_in_process(oodn.cli, harness.command_argv(command, path)))
    session = harness.EditSession(oodn, work, text)
    while session.pending:
        session.step(checker)
    checker.round_trips(text)
    assert checker.failures == []
    assert checker.attempted == 2 * len(harness.COMMANDS) + len(work.edits) + 2
    assert 0 < session.committed < len(work.edits)


def test_checker_catches_wrong_output(oodn, tmp_path):
    work = generate.chain(1, **TOY["chain"])
    checker = harness.Checker(oodn, work)
    checker.command("export", harness.Outcome(0.0, 0, '{"classes": [], "objects": [], "relations": [], "plans": []}', ""))
    checker.command("diagnose", harness.Outcome(0.0, 0, "", ""))
    checker.command("inherit", harness.Outcome(0.0, 0, "", ""))
    assert checker.failed == 3


def test_refuses_to_run_without_the_sources(tmp_path):
    root = Path(harness.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "oodnbench", tmp_path / "oodnbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "oodnbench/run.py", "--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_cold_run_matches_the_in_process_command(oodn, tmp_path):
    work = generate.fanout(1, **TOY["fanout"])
    path = tmp_path / "toy-fanout.oodn"
    path.write_text(work.text())
    argv = harness.command_argv("inherit", path)
    cold = harness.run_cold(argv, tmp_path / "toy-cold")
    warm = harness.run_in_process(oodn.cli, argv)
    assert (cold.code, cold.out, cold.err) == (warm.code, warm.out, warm.err)
    assert cold.seconds > 0 and cold.rss_mb > 0


def test_reference_work_takes_time():
    assert harness.reference_seconds() > 0
