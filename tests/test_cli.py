from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import tracemalloc

import pytest

from conftest import DATA, run_cli
from oodn.cli import build_parser, main
from oodn.diagnostics import diagnose_all, render_report
from oodn.dsl import parse_network

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

    def test_a_class_too_wide_to_flatten_still_validates(self, capsys, tmp_path):
        # A.p sits in two projections at two degrees with two values: the
        # class is valid and each participant's view flattens, the whole
        # class does not.
        source = tmp_path / "wide.oodn"
        source.write_text(
            'class A { prop p: int = 1; } hetclass H { projection "L1" '
            '{ prop A.p: int = 1 /0.5; } projection "L2" { prop A.p: int = 2; } '
            'participant A -> "L1"; participant B -> "L2"; } object o : H { }\n'
        )
        assert run_cli(["parse", str(source)], capsys)[0] == 0
        code, out, _ = run_cli(["materialize", str(source), "B"], capsys)
        assert (code, out) == (0, "prop p(A): int = 2\n")
        code, out, err = run_cli(["materialize", str(source), "H"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: duplicate member 'p' owned by 'A' in one member set\n"


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

    def test_a_policy_does_not_resolve_a_contradiction(self, capsys, tmp_path):
        # A passes p crisply and B weakly: min keeps B's weak copy, but the
        # crisp one still contradicts H's own p at the link from A.
        path = tmp_path / "min_exception.oodn"
        path.write_text(
            "class A { prop p: int = 1; } class B { prop A.p: int = 1 /0.5; } "
            "class H { prop p: int = 5; } H inherits A, B;\n",
            encoding="utf-8",
        )
        assert run_cli(["inherit", str(path), "--policy", "min"], capsys) == (
            2,
            "",
            "conflict (exception): 'H' contradicts members inherited crisply from 'A': "
            "p: own p(H)=5 against arriving p(A)=1\nsuggestion: H inherits B;\n",
        )

    @pytest.mark.parametrize(
        "own",
        ["prop p: int = 5; prop C0.p: int = 1;", "prop C0.p: int = 1; prop p: int = 5;"],
        ids=["own-first", "copy-first"],
    )
    def test_a_contradiction_does_not_depend_on_declaration_order(self, own, capsys, tmp_path):
        # C1 holds C0's p as C0 has it, and a p of its own that contradicts it.
        path = tmp_path / "order.oodn"
        path.write_text(
            f"class C0 {{ prop p: int = 1; }}\nclass C1 {{ {own} }}\nC1 inherits C0;\n",
            encoding="utf-8",
        )
        assert run_cli(["inherit", str(path)], capsys) == (
            2,
            "",
            "conflict (exception): 'C1' contradicts members inherited crisply from 'C0': "
            "p: own p(C1)=5 against arriving p(C0)=1\n",
        )


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

    def test_apply_suggestions_repairs_the_plan_each_finding_is_on(
        self, tmp_path, capsys
    ):
        # Two plans share an heir; only the second contradicts it.
        path = tmp_path / "same_heir.oodn"
        path.write_text(
            "class A { prop p: int = 1; prop q: int = 1; }\n"
            "class H { prop p: int = 2; }\n"
            "H inherits A (q);\n"
            "H inherits A;\n",
            encoding="utf-8",
        )
        applied = run_cli(["diagnose", str(path), "--apply-suggestions"], capsys)
        assert applied == (0, "H inherits A (q);\nH inherits A (q);\n", "")

    def test_apply_suggestions_reports_findings_no_repair_removes(
        self, tmp_path, capsys
    ):
        # Excluding 'p' leaves A nothing to pass on, and a chain cannot
        # lose a level: the plan is printed as it was, its finding after it.
        path = tmp_path / "no_repair.oodn"
        path.write_text(
            "class A { prop p: int = 1; }\n"
            "class B { prop p: int = 2; }\n"
            "B inherits A;\n",
            encoding="utf-8",
        )
        applied = run_cli(["diagnose", str(path), "--apply-suggestions"], capsys)
        assert applied == (
            1,
            "B inherits A;\n",
            "1 finding\n"
            "exception in plan [B inherits A]\n"
            "  members: p\n"
            "  'B' contradicts members inherited crisply from 'A': "
            "p: own p(B)=2 against arriving p(A)=1\n"
            "  suggestion: none\n",
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

    def test_a_requirement_naming_nothing_is_usage_error(self, fixture_path, capsys):
        path = str(fixture_path("redundancy_chain.oodn"))
        assert run_cli(["diagnose", path, "--required", " , "], capsys) == (
            3,
            "",
            "--required needs at least one member name\n",
        )

    @pytest.mark.parametrize("flags", [[], ["--apply-suggestions"]])
    def test_requirement_on_a_file_without_plans_is_usage_error(
        self, flags, fixture_path, capsys
    ):
        # No plan delivers a required name, so the requirement is unsatisfiable.
        code, out, err = run_cli(
            ["diagnose", str(fixture_path("crisp.oodn")), "--required", "p1", *flags],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == (
            "requirement error: no plan is declared to deliver the required members: p1\n"
        )


# Streams and exit codes of `oodn diagnose` on every fixture, recorded
# before diagnosis was reworked for speed; the rework must not change a byte.
# redundancy_deep_chain.oodn was recorded later, once redundancy repairs on
# chains narrowed each selection over everything its owner holds, and the
# cross_owner_*.oodn fixtures once diagnosis found degree splits and clashes.
GOLDEN = json.loads(
    (DATA / "expected" / "diagnose.json").read_text(encoding="utf-8")
)


# Streams and exit codes of `oodn diagnose --required R`, with and without
# --apply-suggestions, on every fixture, recorded before every repair was made
# to narrow through one method.  R makes each fixture with a plan report a
# surplus; no required name reaches both of pathology_both.oodn's heirs, and
# each cross_owner_*.oodn plan delivers one name only, so reports none.  The
# four fixtures without a plan were recorded again once a requirement on them
# exited 3, as no plan can deliver it, instead of 0 with "no findings".
REQUIRED_GOLDEN = json.loads(
    (DATA / "expected" / "diagnose_required.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(GOLDEN | REQUIRED_GOLDEN))
def test_diagnose_output_matches_golden(case, capsys):
    fixture, *flags = case.split()
    code, out, err = run_cli(["diagnose", str(DATA / fixture), *flags], capsys)
    expected = (GOLDEN | REQUIRED_GOLDEN)[case]
    assert (code, out, err) == (
        expected["exit"],
        expected["stdout"],
        expected["stderr"],
    )


# A file with both a conflict and a lookup fault: every command reports the
# lookup fault, since validation reports it at load, before any conflict is judged.
DOUBLE_FAULTS = {
    "chain": (
        "class A { prop p: int = 1; prop q: int = 2; }\n"
        "class B { prop p: int = 5; }\n"
        "class C { prop c: int = 3; }\n"
        "C inherits B (nosuch) inherits A;\n",
        "error: C inherits B (nosuch) inherits A: plan-unoffered-member: "
        "selection names 'nosuch', which 'B' does not offer",
    ),
    "parallel": (
        "class A { prop p: int = 1; prop a: int = 2; }\n"
        "class B { prop A.p: int = 1; prop b: int = 3; }\n"
        "class C { prop c: int = 4; }\n"
        "class H { prop h: int = 5; }\n"
        "H inherits A (p/1/2, a), B, C (nosuch);\n",
        "error: H inherits A (p/0.5, a), B, C (nosuch): plan-unoffered-member: "
        "selection names 'nosuch', which 'C' does not offer",
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


def test_inherit_and_diagnose_suggest_the_same_repair(capsys, tmp_path):
    # Excluding 'p' leaves nothing of A, so both repairs drop A.
    path = tmp_path / "drop.oodn"
    path.write_text(
        "class A { prop p: int = 1; }\n"
        "class B { prop q: int = 2; }\n"
        "class H { prop p: int = 5; }\n"
        "H inherits A, B;\n",
        encoding="utf-8",
    )
    code, _, inherited = run_cli(["inherit", str(path)], capsys)
    assert code == 2
    assert inherited.splitlines()[-1] == "suggestion: H inherits B;"
    code, _, diagnosed = run_cli(["diagnose", str(path)], capsys)
    assert code == 1
    assert "  suggestion: H inherits B\n" in diagnosed


class _DigestSink:
    """A stream that keeps only the SHA-256 and the length of what it is given."""

    def __init__(self) -> None:
        self.digest, self.length = hashlib.sha256(), 0

    def write(self, text: str) -> int:
        self.digest.update(text.encode("utf-8"))
        self.length += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_the_report_is_written_without_being_held(tmp_path):
    # 60 sources of 25 members each pass on three names with clashing values,
    # so each of 3 findings offers 60 plans each naming nearly every member.
    sources = [f"S{i}" for i in range(60)]
    path = tmp_path / "wide.oodn"
    path.write_text(
        "".join(
            f"class {s} {{ "
            + "".join(f"prop {s}_m{j}: int = {j}; " for j in range(25))
            + "".join(f"prop {shared}: int = {i}; " for shared in "xyz")
            + "}\n"
            for i, s in enumerate(sources)
        )
        + f"class H {{ prop h: int = 0; }}\nH inherits {', '.join(sources)};\n",
        encoding="utf-8",
    )
    sink = _DigestSink()
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(sink):
            code = main(["diagnose", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = render_report(diagnose_all(parse_network(path.read_text(encoding="utf-8"))))
    assert code == 1 and sink.length > 1_000_000
    assert sink.digest.hexdigest() == hashlib.sha256(f"{report}\n".encode()).hexdigest()
    # Rendering the report whole before writing it peaked at about 2.5 times its length.
    assert peak < sink.length, peak / sink.length


def test_required_repair_only_narrows(capsys, tmp_path):
    # Widening X's take to the required 'b' would make 'b' ambiguous.
    path = tmp_path / "listed.oodn"
    path.write_text(
        "class X { prop a: int = 1; prop b: int = 2; }\n"
        "class Y { prop b: int = 3; prop c: int = 3; }\n"
        "H inherits X (a), Y;\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(["diagnose", str(path), "--required", "b"], capsys)
    assert code == 1
    assert "  suggestion: H inherits Y (b)\n" in err
    applied = ["diagnose", str(path), "--required", "b", "--apply-suggestions"]
    assert run_cli(applied, capsys)[:2] == (0, "H inherits Y (b);\n")


def test_redundancy_repair_keeps_the_strongest_copy(capsys, tmp_path):
    # A passes 'u' only at 0.5 while B passes it crisply: the repair narrows
    # A, so the heir still holds 'u' crisply.
    path = tmp_path / "weak_copy.oodn"
    path.write_text(
        'class A { prop u: text = "x"; prop a: int = 1; }\n'
        'class B { prop u: text = "x"; prop b: int = 2; }\n'
        "class H { }\n"
        "H inherits A (u/0.5), B;\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(["diagnose", str(path)], capsys)
    assert code == 1
    assert "the copies beyond 'B''s add nothing" in err
    assert "  suggestion: H inherits A (a), B\n" in err


# A redundancy repair narrows the links that carry each surplus copy.  In
# both files such a link also carries the kept copy, so no repair is offered:
# on the chain, B passes A's crisp 'm' on with its own weak one; in the
# parallel plan, C0 declares both C2's and C1's 'm0'.
UNREPAIRABLE_REDUNDANCY = {
    "chain": (
        "class A { method m(); }\n"
        "class B { method m() /0.5; prop q: int = 1; }\n"
        "class C { }\n"
        "C inherits B inherits A;\n",
        "warning: C: empty-class: class declares no properties and no methods\n"
        "1 finding\n"
        "redundancy in plan [C inherits B inherits A]\n"
        "  members: m\n"
        "  'm' arrives 2 times with the same content (declared by B, A); "
        "the copies beyond 'A''s add nothing\n"
        "  suggestion: none\n",
    ),
    "parallel": (
        "class C0 { method C2.m0(); method C1.m0(); }\n"
        "class C1 { method m0(); }\n"
        "class C2 { method m0(); }\n"
        "C2 inherits C0, C1;\n",
        "1 finding\n"
        "redundancy in plan [C2 inherits C0, C1]\n"
        "  members: m0\n"
        "  'm0' arrives 2 times with the same content (declared by C2, C1); "
        "the copies beyond 'C2''s add nothing\n"
        "  suggestion: none\n",
    ),
}


@pytest.mark.parametrize("shape", sorted(UNREPAIRABLE_REDUNDANCY))
def test_redundancy_repair_never_drops_the_kept_copy(shape, capsys, tmp_path):
    text, report = UNREPAIRABLE_REDUNDANCY[shape]
    path = tmp_path / f"{shape}.oodn"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["diagnose", str(path)], capsys) == (1, "", report)
    # Nothing to apply: the plan is printed as it stands, and the finding stays.
    plan = text.splitlines()[-1] + "\n"
    applied = run_cli(["diagnose", str(path), "--apply-suggestions"], capsys)
    assert applied == (1, plan, report)


def test_fuzzy_values_written_in_another_order_do_not_conflict(capsys, tmp_path):
    path = tmp_path / "reordered.oodn"
    path.write_text(
        "class A { prop f: fuzzy = {a: 1, b: 0.5}; }\n"
        "class B { prop f: fuzzy = {b: 0.5, a: 1}; }\n"
        "B inherits A;\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(["inherit", str(path)], capsys)
    assert (code, err) == (0, "")
    assert "prop f: fuzzy = {b: 0.5, a: 1};" in out
    assert run_cli(["diagnose", str(path)], capsys) == (0, "no findings\n", "")


def test_golden_covers_every_fixture():
    fixtures = {path.name for path in DATA.glob("*.oodn")}
    for golden in (GOLDEN, REQUIRED_GOLDEN):
        assert {case.split()[0] for case in golden} == fixtures
        assert len(golden) == 2 * len(fixtures)


# Streams and exit codes of `oodn inherit` under every policy and format on
# every fixture, recorded before layering was reworked for speed; the rework
# must not change a byte.  The pathology_penguin.oodn and pathology_both.oodn
# entries were recorded again once an exception had one text, the finding's,
# and the cross_owner_*.oodn entries once diagnosis decided every refusal.
INHERIT_GOLDEN = json.loads(
    (DATA / "expected" / "inherit.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(INHERIT_GOLDEN))
def test_inherit_output_matches_golden(case, capsys):
    fixture, *flags = case.split()
    code, out, err = run_cli(["inherit", str(DATA / fixture), *flags], capsys)
    expected = INHERIT_GOLDEN[case]
    assert (code, out, err) == (
        expected["exit"],
        expected["stdout"],
        expected["stderr"],
    )


def test_inherit_golden_covers_every_fixture():
    fixtures = {path.name for path in DATA.glob("*.oodn")}
    assert {case.split()[0] for case in INHERIT_GOLDEN} == fixtures
    assert len(INHERIT_GOLDEN) == 6 * len(fixtures)


# Streams and exit codes of `oodn materialize FILE NAME --policy P` on every
# fixture, for every class a plan names and every policy, recorded before
# flattening keyed members by name first and a parallel source's view was
# built on first read; neither may change a byte.  shared_names.oodn was
# added then, recorded with the rest, and recorded in every other golden.
# The nine pathology_both.oodn entries for Nixon, Quaker and Republican were
# recorded again once materialize inherited only the plans naming the class:
# they match pathology_nixon.oodn's, not the Penguin plan's refusal.
MATERIALIZE_GOLDEN = json.loads(
    (DATA / "expected" / "materialize.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(MATERIALIZE_GOLDEN))
def test_materialize_output_matches_golden(case, capsys):
    fixture, name, *flags = case.split()
    code, out, err = run_cli(["materialize", str(DATA / fixture), name, *flags], capsys)
    expected = MATERIALIZE_GOLDEN[case]
    assert (code, out, err) == (
        expected["exit"],
        expected["stdout"],
        expected["stderr"],
    )


def test_materialize_golden_covers_every_planned_class():
    cases = set()
    for path in DATA.glob("*.oodn"):
        plans = parse_network(path.read_text(encoding="utf-8")).plans
        for name in {name for plan in plans for name in plan.class_names()}:
            cases.update(f"{path.name} {name} --policy {p}" for p in ("reject", "min", "max"))
    assert set(MATERIALIZE_GOLDEN) == cases


def test_materialize_runs_only_the_plans_naming_the_class(capsys, tmp_path):
    # Penguin's plan is refused; Nixon's and the object's classes are not in it.
    both = run_cli(["materialize", str(DATA / "pathology_both.oodn"), "Nixon"], capsys)
    alone = run_cli(["materialize", str(DATA / "pathology_nixon.oodn"), "Nixon"], capsys)
    assert both == alone and both[0] == 0 and "prop elected(Nixon)" in both[1]
    assert run_cli(["materialize", str(DATA / "pathology_both.oodn"), "Bird"], capsys)[0] == 2
    path = tmp_path / "refused.oodn"
    path.write_text(
        "class A { prop p: int = 1; } class B { prop p: int = 2; } class C { prop q: int = 3; } "
        "object o : C { q = 4; } B inherits A;\n",
        encoding="utf-8",
    )
    assert run_cli(["materialize", str(path), "o"], capsys) == (0, "prop q(o): int = 4\n", "")
    assert run_cli(["materialize", str(path), "C"], capsys) == (0, "prop q(C): int = 3\n", "")


def test_flattening_keeps_the_strongest_similar_copy(capsys, tmp_path):
    # B re-declares A's weak 'p' crisply: B holds the knowledge crisply.
    path = tmp_path / "weak_first.oodn"
    path.write_text(
        "class A { prop p: int = 1 /0.5; } class B { prop p: int = 1; } "
        "B inherits A;\n",
        encoding="utf-8",
    )
    assert run_cli(["materialize", str(path), "B"], capsys) == (
        0,
        "prop p(B): int = 1\n",
        "",
    )
    assert run_cli(["materialize", str(path), "A"], capsys) == (
        0,
        "prop p(A): int = 1 /0.5\n",
        "",
    )


# Streams and exit codes of `oodn parse` on malformed sources, recorded before
# the tokenizer and parser were reworked for speed; every message, line and
# column must survive the rework unchanged.  The two non-ASCII digit cases were
# recorded again once numbers were read from ASCII digits only, and the four
# "end of input inside …" cases once every "expected …, found …" error named
# the end of input as 'end of input' instead of showing it as ''.  The
# entries for the member, value, number and degree readers' own messages
# (a missing degree, number, '{', ':', string, arrow, '(' or 'inherits', an
# override spelling a kind name, and the order in which a member's degree
# and its build fail) were recorded before those readers were merged.  The
# entries for a comment ending the file, CRLF and tab layouts, the end of
# input after trailing whitespace, and a numeral read twice (a ratio as a
# value and then as a degree, a zero denominator twice) were recorded before
# the lexer consumed whitespace and comments inside each token's match and
# the parser converted each numeral once per parse.  The "member forms"
# entries -- one class body holding every member form, then each single-token
# deletion, duplication and adjacent swap within one of its statements -- were
# recorded before the member reader stopped calling a method per token and
# members were built by hand-written constructors.
PARSE_ERRORS = json.loads(
    (DATA / "expected" / "parse_errors.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_match_golden(case, capsys, tmp_path):
    expected = PARSE_ERRORS[case]
    path = tmp_path / "case.oodn"
    path.write_bytes(expected["source"].encode("utf-8"))
    assert run_cli(["parse", str(path)], capsys) == (
        expected["exit"],
        expected["stdout"],
        expected["stderr"],
    )


# Streams and exit codes of canonical parsing and of every export format on
# every fixture, recorded before value checking, text and JSON were merged
# into one codec per value type; the merge must not change a byte.
EXPORT_GOLDEN = json.loads(
    (DATA / "expected" / "export.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(EXPORT_GOLDEN))
def test_export_output_matches_golden(case, capsys):
    fixture, command, *flags = case.split()
    code, out, err = run_cli([command, str(DATA / fixture), *flags], capsys)
    expected = EXPORT_GOLDEN[case]
    assert (code, out, err) == (
        expected["exit"],
        expected["stdout"],
        expected["stderr"],
    )


def test_export_golden_covers_every_fixture():
    fixtures = {path.name for path in DATA.glob("*.oodn")}
    assert {case.split()[0] for case in EXPORT_GOLDEN} == fixtures
    assert len(EXPORT_GOLDEN) == 4 * len(fixtures)


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

    def test_dot_reads_a_plan_as_classify_does(self, capsys, tmp_path):
        # The listed take names all A declares, so the plan is full.
        path = tmp_path / "covering.oodn"
        path.write_text("class A { prop p: int = 1; }\nB inherits A (p);\n")
        code, out, _ = run_cli(["classify", str(path)], capsys)
        assert (code, out) == (0, "B: single/full/strong\n")
        code, out, _ = run_cli(["export", str(path), "--format", "dot"], capsys)
        assert code == 0
        assert '  "B" -> "A" [label="single/full/strong (p)", style=bold];\n' in out

    def test_dot_of_a_listed_take_from_a_hetclass_exits_2(self, capsys, tmp_path):
        path = tmp_path / "het_source.oodn"
        path.write_text(
            "class A { prop p: int = 1; }\n"
            "hetclass H { core { prop q: int = 1; } participant A -> core; }\n"
            "B inherits H (q);\n"
        )
        # Validation refuses the plan before either command reads it.
        refusal = (
            "error: B inherits H (q): plan-heterogeneous-class: "
            "class 'H' is heterogeneous and cannot join a plan directly\n"
        )
        for command, *flags in (["classify"], ["export", "--format", "dot"]):
            code, out, err = run_cli([command, str(path), *flags], capsys)
            assert (code, out) == (2, "")
            assert err == refusal + (
                "warning: B inherits H (q): plan-heir-synthesized: heir 'B' is not "
                "declared; it will be built with no own members\n"
            )

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

    @pytest.mark.parametrize(
        "target, reason",
        [("missing/dump.json", "No such file or directory"), (".", "Is a directory")],
    )
    def test_a_target_that_cannot_be_written_is_usage(
        self, fixture_path, capsys, tmp_path, target, reason
    ):
        path = str(tmp_path / target)
        code, out, err = run_cli(
            ["export", str(fixture_path("crisp.oodn")), "--write", path], capsys
        )
        assert (code, out, err) == (3, "", f"cannot write {path!r}: {reason}\n")


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

POLICY = "[--policy {reject,min,max}]"
# Each subcommand: its shortest argument list, the namespace that list
# parses to (the handler by name), and what its help shows of each flag:
# the flag with its choices, and its help text.
COMMANDS = {
    "parse": (
        ["f"],
        {"format": "summary", "handler": "_cmd_parse"},
        ["[--format {summary,canonical}]"],
    ),
    "materialize": (
        ["f", "A"],
        {"name": "A", "policy": "reject", "handler": "_cmd_materialize"},
        [POLICY],
    ),
    "inherit": (
        ["f"],
        {"policy": "reject", "format": "canonical", "handler": "_cmd_inherit"},
        [POLICY, "[--format {canonical,json}]"],
    ),
    "classify": (["f"], {"handler": "_cmd_classify"}, []),
    "diagnose": (
        ["f"],
        {"required": None, "apply_suggestions": False, "handler": "_cmd_diagnose"},
        [
            "[--required REQUIRED]",
            "--required REQUIRED comma-separated member names the heir actually"
            " needs (everything else arriving is reported as redundant)",
            "[--apply-suggestions]",
            "--apply-suggestions apply suggested repairs and print the repaired plans",
        ],
    ),
    "export": (
        ["f"],
        {"format": "json", "write": None, "handler": "_cmd_export"},
        [
            "[--format {json,dot,canonical}]",
            "[--write WRITE]",
            "--write WRITE write to a file instead of stdout",
        ],
    ),
}


def help_text(argv: list[str], capsys) -> str:
    """The help ``argv`` prints, its lines joined by single spaces, so the
    terminal width does not matter."""
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    return " ".join(capsys.readouterr().out.split())


class TestCommandTable:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_arguments_and_defaults(self, command):
        argv, expected, _ = COMMANDS[command]
        parsed = vars(build_parser().parse_args([command, *argv]))
        parsed["handler"] = parsed["handler"].__name__
        assert parsed == {"command": command, "file": "f", **expected}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_in_help(self, command, capsys):
        text = help_text([command], capsys)
        assert text.startswith(f"usage: oodn {command} [-h] ")
        for shown in COMMANDS[command][2]:
            assert shown in text

    def test_each_command_in_the_top_help(self, capsys):
        text = help_text([], capsys)
        assert f"{{{','.join(COMMANDS)}}}" in text
        for line in (
            "parse check a file and summarize it",
            "materialize print the effective member set of a class or object",
            "inherit execute the declared plans and print the results",
            "classify print each plan's inheritance axes",
            "diagnose detect exceptions, redundancies, and ambiguities",
            "export emit the network as JSON, Graphviz, or canonical text",
        ):
            assert line in text


# ---------------------------------------------------------------------------
# Exit codes and determinism
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_missing_file_is_usage(self, capsys):
        code, out, err = run_cli(["parse", "/nope/missing.oodn"], capsys)
        assert code == 3
        assert out == ""
        assert "cannot read" in err

    @pytest.mark.parametrize("command", ["parse", "inherit", "diagnose", "export"])
    def test_text_that_is_not_utf8_exits_2(self, command, tmp_path, capsys):
        bad = tmp_path / "latin1.oodn"
        bad.write_bytes(b'class A { prop p: text = "caf\xe9"; }')
        code, out, err = run_cli([command, str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {str(bad)!r} is not UTF-8 text (byte 29: invalid continuation byte)\n"

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

    @pytest.mark.parametrize("plan", ["C inherits B;", "B inherits A;"], ids=["source", "heir"])
    def test_a_hetclass_in_a_plan_is_refused_at_load(self, plan, tmp_path, capsys):
        # B is what `oodn inherit` writes for `B inherits A;`, read back as a
        # plan's source or as its heir: every command refuses it alike.
        base = tmp_path / "base.oodn"
        base.write_text("class A { prop p: int = 1; }\nB inherits A;\n")
        code, hetclass, _ = run_cli(["inherit", str(base)], capsys)
        assert code == 0 and hetclass.startswith("hetclass B {")
        path = tmp_path / "het_plan.oodn"
        path.write_text(f"class A {{ prop p: int = 1; }}\n{hetclass}{plan}\n")
        refusal = (
            f"error: {plan[:-1]}: plan-heterogeneous-class: "
            "class 'B' is heterogeneous and cannot join a plan directly\n"
        )
        for command in ("parse", "classify", "export", "inherit", "diagnose"):
            code, out, err = run_cli([command, str(path)], capsys)
            assert (code, out) == (2, "")
            assert [line for line in err.splitlines(True) if line.startswith("error")] == [refusal]

    def test_a_listing_of_what_its_source_lacks_is_refused_at_load(self, tmp_path, capsys):
        path = tmp_path / "unoffered.oodn"
        path.write_text("class A { prop p: int = 1; }\nB inherits A (q);\n")
        expected = (
            "warning: B inherits A (q): plan-heir-synthesized: heir 'B' is not "
            "declared; it will be built with no own members\n"
            "error: B inherits A (q): plan-unoffered-member: "
            "selection names 'q', which 'A' does not offer\n"
        )
        for command, *flags in (
            ["parse"], ["classify"], ["inherit"], ["diagnose"], ["export", "--format", "dot"]
        ):
            assert run_cli([command, str(path), *flags], capsys) == (2, "", expected)

    def test_validation_error_exits_2(self, tmp_path, capsys):
        dangling = tmp_path / "dangling.oodn"
        dangling.write_text("object a : Ghost { }")
        code, out, err = run_cli(["parse", str(dangling)], capsys)
        assert code == 2
        assert "dangling-class" in err

    def test_a_deep_hierarchy_parses_cleanly(self, tmp_path, capsys):
        # deeper than the interpreter's recursion limit
        depth = 5000
        deep = tmp_path / "deep.oodn"
        deep.write_text(
            "".join(f"class C{i} {{ prop p: int = {i}; }}\n" for i in range(depth))
            + "".join(
                f"relation generalization C{i} -> C{i + 1};\n" for i in range(depth - 1)
            )
        )
        code, out, err = run_cli(["parse", str(deep)], capsys)
        assert (code, err) == (0, "")
        assert out == (
            f"classes: {depth}\nobjects: 0\nrelations: {depth - 1}\nplans: 0\nfuzzy: no\n"
        )

    def test_a_long_generalization_cycle_is_one_error(self, tmp_path, capsys):
        depth = 5000
        cyclic = tmp_path / "cyclic.oodn"
        cyclic.write_text(
            "".join(f"class C{i} {{ prop p: int = {i}; }}\n" for i in range(depth))
            + "".join(
                f"relation generalization C{i} -> C{(i + 1) % depth};\n"
                for i in range(depth)
            )
        )
        code, out, err = run_cli(["parse", str(cyclic)], capsys)
        assert (code, out) == (2, "")
        assert err.count("generalization-cycle") == 1

    def test_repeated_runs_are_byte_identical(self, fixture_path, capsys):
        argv = ["export", str(fixture_path("octants.oodn")), "--format", "json"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second
