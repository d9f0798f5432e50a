from __future__ import annotations

import json

import pytest

from conftest import DATA, run_cli

# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


class TestParse:
    def test_summary(self, fixture_path, capsys):
        code, out, err = run_cli(
            ["parse", str(fixture_path("chain.oodn"))], capsys
        )
        assert code == 0
        assert err == ""
        assert out == (
            "classes: 3\nobjects: 0\nrelations: 0\nplans: 1\nfuzzy: no\n"
        )

    def test_summary_flags_fuzziness(self, fixture_path, capsys):
        code, out, _ = run_cli(
            ["parse", str(fixture_path("fuzzy_relation.oodn"))], capsys
        )
        assert code == 0
        assert "fuzzy: yes" in out

    def test_canonical_format_round_trips(self, fixture_path, capsys, tmp_path):
        source = fixture_path("chain.oodn")
        code, out, _ = run_cli(
            ["parse", str(source), "--format", "canonical"], capsys
        )
        assert code == 0
        echo = tmp_path / "echo.oodn"
        echo.write_text(out)
        code2, out2, _ = run_cli(
            ["parse", str(echo), "--format", "canonical"], capsys
        )
        assert code2 == 0 and out2 == out


# ---------------------------------------------------------------------------
# materialize
# ---------------------------------------------------------------------------


class TestMaterialize:
    @pytest.mark.parametrize(
        "fixture, name, count",
        [
            ("chain.oodn", "A3", 7),
            ("parallel.oodn", "A3", 9),
            ("chain.oodn", "A1", 4),
        ],
    )
    def test_member_counts(self, fixture, name, count, fixture_path, capsys):
        code, out, err = run_cli(
            ["materialize", str(fixture_path(fixture)), name], capsys
        )
        assert code == 0
        assert err == ""
        assert len(out.strip().splitlines()) == count

    def test_exact_lines_for_chain(self, fixture_path, capsys):
        code, out, _ = run_cli(
            ["materialize", str(fixture_path("chain.oodn")), "A3"], capsys
        )
        assert code == 0
        assert out.splitlines() == [
            "prop p1(A1): int = 1",
            "prop p2(A1): int = 2",
            "method f1(A1)()",
            "method f2(A1)()",
            'prop p1(A2): text = "two"',
            'prop p2(A2): text = "dos"',
            "prop p1(A3): bool = true",
        ]

    def test_unknown_name_is_an_error(self, fixture_path, capsys):
        code, out, err = run_cli(
            ["materialize", str(fixture_path("chain.oodn")), "NOPE"], capsys
        )
        assert code == 2
        assert out == ""
        assert "nothing named 'NOPE'" in err

    def test_conflicting_plan_blocks_materialization(self, fixture_path, capsys):
        code, out, err = run_cli(
            ["materialize", str(fixture_path("pathology_penguin.oodn")), "Penguin"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "conflict (exception)" in err
        assert "suggestion: Penguin inherits Bird (feathers);" in err


# ---------------------------------------------------------------------------
# inherit
# ---------------------------------------------------------------------------


class TestInherit:
    def test_canonical_block(self, fixture_path, capsys):
        code, out, err = run_cli(
            ["inherit", str(fixture_path("weak_take.oodn"))], capsys
        )
        assert code == 0
        assert err == ""
        assert out.startswith("hetclass A2 {\n")
        assert "  core {\n" in out
        assert '  projection "A1" {\n' in out
        assert "prop A1.p1: int = 1 /0.5;" in out
        assert 'participant A2 -> "A2";' in out

    def test_json_format(self, fixture_path, capsys):
        code, out, _ = run_cli(
            ["inherit", str(fixture_path("weak_take.oodn")), "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)  # valid JSON out of the box
        assert isinstance(doc, list) and doc[0]["name"] == "A2"
        assert [e["owner"] for e in doc[0]["core"]] == ["A1", "A1", "A1"]

    def test_conflict_exits_2_with_suggestion(self, fixture_path, capsys):
        code, out, err = run_cli(
            ["inherit", str(fixture_path("pathology_penguin.oodn"))], capsys
        )
        assert code == 2
        assert out == ""
        assert "conflict (exception)" in err
        assert "suggestion: Penguin inherits Bird (feathers);" in err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


class TestClassify:
    def test_all_eight_shapes(self, fixture_path, capsys):
        code, out, err = run_cli(
            ["classify", str(fixture_path("octants.oodn"))], capsys
        )
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "H1: single/full/strong",
            "H2: single/full/weak",
            "H3: single/partial/strong",
            "H4: single/partial/weak",
            "H5: multiple/full/strong",
            "H6: multiple/full/weak",
            "H7: multiple/partial/strong",
            "H8: multiple/partial/weak",
        ]


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


class TestDiagnose:
    def test_findings_go_to_stderr_with_exit_1(self, fixture_path, capsys):
        code, out, err = run_cli(
            ["diagnose", str(fixture_path("pathology_penguin.oodn"))], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("1 finding\n")
        assert "exception in plan [Penguin inherits Bird]" in err
        assert "suggestion: Penguin inherits Bird (feathers)" in err

    def test_clean_network_reports_to_stdout(self, fixture_path, capsys):
        code, out, err = run_cli(
            ["diagnose", str(fixture_path("octants.oodn"))], capsys
        )
        assert code == 0
        assert err == ""
        assert out == "no findings\n"

    def test_both_pathologies_found(self, fixture_path, capsys):
        code, _, err = run_cli(
            ["diagnose", str(fixture_path("pathology_both.oodn"))], capsys
        )
        assert code == 1
        assert err.startswith("2 findings\n")
        assert "exception in plan" in err
        assert "ambiguity in plan" in err

    def test_apply_suggestions_prints_repaired_plans(self, fixture_path, capsys):
        code, out, err = run_cli(
            [
                "diagnose",
                str(fixture_path("pathology_both.oodn")),
                "--apply-suggestions",
            ],
            capsys,
        )
        assert code == 0
        assert out == (
            "Penguin inherits Bird (feathers);\n"
            "Nixon inherits Quaker, Republican (party);\n"
        )

    def test_required_surplus(self, fixture_path, capsys):
        code, _, err = run_cli(
            [
                "diagnose",
                str(fixture_path("redundancy_chain.oodn")),
                "--required",
                "a1,b1",
            ],
            capsys,
        )
        assert code == 1
        assert "members: a2, a3, a4, b2, b3" in err
        assert "suggestion: C inherits B (a1, b1) inherits A" in err

    def test_unsatisfiable_requirement_is_usage_error(self, fixture_path, capsys):
        code, out, err = run_cli(
            [
                "diagnose",
                str(fixture_path("redundancy_chain.oodn")),
                "--required",
                "zz",
            ],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "requirement error" in err


# Streams and exit codes of `oodn diagnose` on every fixture, recorded
# before diagnosis was reworked for speed; the rework must not change a byte.
# redundancy_deep_chain.oodn was recorded later, once redundancy repairs on
# chains narrowed each selection over everything its owner holds.
GOLDEN = json.loads(
    (DATA / "expected" / "diagnose.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_diagnose_output_matches_golden(case, capsys):
    fixture, *flags = case.split()
    code, out, err = run_cli(["diagnose", str(DATA / fixture), *flags], capsys)
    expected = GOLDEN[case]
    assert (code, out, err) == (
        expected["exit"],
        expected["stdout"],
        expected["stderr"],
    )


# A file with both a conflict and a lookup fault: every command reports the
# lookup fault, since the plan walk raises it before any conflict is judged.
DOUBLE_FAULTS = {
    "chain": (
        "class A { prop p: int = 1; prop q: int = 2; }\n"
        "class B { prop p: int = 5; }\n"
        "class C { prop c: int = 3; }\n"
        "C inherits B (nosuch) inherits A;\n",
        "error: selection names 'nosuch', which 'B' does not offer",
    ),
    "parallel": (
        "class A { prop p: int = 1; prop a: int = 2; }\n"
        "class B { prop A.p: int = 1; prop b: int = 3; }\n"
        "class C { prop c: int = 4; }\n"
        "class H { prop h: int = 5; }\n"
        "H inherits A (p/1/2, a), B, C (nosuch);\n",
        "error: selection names 'nosuch', which 'C' does not offer",
    ),
}


@pytest.mark.parametrize("shape", sorted(DOUBLE_FAULTS))
def test_lookup_fault_is_reported_before_a_conflict(shape, capsys, tmp_path):
    text, expected = DOUBLE_FAULTS[shape]
    path = tmp_path / f"{shape}.oodn"
    path.write_text(text, encoding="utf-8")
    inherited = run_cli(["inherit", str(path), "--policy", "reject"], capsys)
    diagnosed = run_cli(["diagnose", str(path)], capsys)
    assert inherited == diagnosed == (2, "", expected + "\n")


def test_golden_covers_every_fixture():
    fixtures = {path.name for path in DATA.glob("*.oodn")}
    assert {case.split()[0] for case in GOLDEN} == fixtures
    assert len(GOLDEN) == 2 * len(fixtures)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


class TestExport:
    def test_default_is_json(self, fixture_path, capsys):
        code, out, _ = run_cli(
            ["export", str(fixture_path("chain.oodn"))], capsys
        )
        assert code == 0
        json.loads(out)

    def test_canonical_format(self, fixture_path, capsys):
        code, out, _ = run_cli(
            [
                "export",
                str(fixture_path("chain.oodn")),
                "--format",
                "canonical",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("class A1 {\n")
        assert out.rstrip().endswith("A3 inherits A2 inherits A1;")

    def test_json_is_valid(self, fixture_path, capsys):
        code, out, _ = run_cli(
            ["export", str(fixture_path("chain.oodn")), "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert [c["name"] for c in doc["classes"]] == ["A1", "A2", "A3"]

    def test_dot_graph(self, fixture_path, capsys):
        code, out, _ = run_cli(
            ["export", str(fixture_path("chain.oodn")), "--format", "dot"],
            capsys,
        )
        assert code == 0
        assert out.startswith("digraph knowledge {\n")
        assert '"A3" -> "A2" [label="single/full/strong", style=bold];' in out

    def test_write_matches_stdout(self, fixture_path, capsys, tmp_path):
        target = tmp_path / "dump.oodn"
        code, _, _ = run_cli(
            [
                "export",
                str(fixture_path("chain.oodn")),
                "--write",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        code2, out2, _ = run_cli(
            ["export", str(fixture_path("chain.oodn"))], capsys
        )
        assert code2 == 0
        assert target.read_text() == out2


# ---------------------------------------------------------------------------
# Exit codes and determinism
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_missing_file_is_usage(self, capsys):
        code, out, err = run_cli(["parse", "/nope/missing.oodn"], capsys)
        assert code == 3
        assert out == ""
        assert "cannot read" in err

    def test_no_arguments_is_usage(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 3
        assert "usage:" in err

    def test_unknown_subcommand_is_usage(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 3

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.oodn"
        bad.write_text("class A { broken")
        code, out, err = run_cli(["parse", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: line 1, column 11:")

    def test_zero_denominator_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "zero.oodn"
        bad.write_text("class A { prop p: int = 1 /1/0; }")
        code, out, err = run_cli(["parse", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err == "parse error: line 1, column 28: zero denominator in '1/0'\n"

    def test_validation_error_exits_2(self, tmp_path, capsys):
        dangling = tmp_path / "dangling.oodn"
        dangling.write_text("object a : Ghost { }")
        code, out, err = run_cli(["parse", str(dangling)], capsys)
        assert code == 2
        assert "dangling-class" in err

    def test_repeated_runs_are_byte_identical(self, fixture_path, capsys):
        argv = ["export", str(fixture_path("octants.oodn")), "--format", "json"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second
