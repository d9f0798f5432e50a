from __future__ import annotations

import gc
import tracemalloc

import pytest

from conftest import chain_text
from oodn.diagnostics import (
    Diagnostic,
    RequirementError,
    detect_ambiguity,
    detect_exception,
    detect_redundancy,
    diagnose_all,
    render_report,
    report_lines,
)
from oodn.dsl import parse_network
from oodn.inheritance import (
    InheritanceConflictError,
    InheritancePlan,
    Selection,
    SelectionMode,
    decompose,
    inherit,
)
from oodn.model import (
    DEGREE_ONE,
    HomClass,
    MemberSet,
    Network,
    ValueType,
    as_degree,
    method,
    prop,
)

# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def hom(name: str, *entries) -> HomClass:
    ms = MemberSet(entries)
    return HomClass(name, *ms.by_kind())


def net_of(*classes: HomClass, plans=()) -> Network:
    net = Network()
    for cls in classes:
        net.classes[cls.name] = cls
    net.plans.extend(plans)
    return net


def penguin_net() -> Network:
    plan = InheritancePlan(heir="Penguin", sources=(("Bird", Selection()),))
    return net_of(
        hom(
            "Bird",
            prop("fly", ValueType.BOOL, True, "Bird"),
            prop("feathers", ValueType.BOOL, True, "Bird"),
        ),
        hom(
            "Penguin",
            prop("fly", ValueType.BOOL, False, "Penguin"),
            prop("swims", ValueType.BOOL, True, "Penguin"),
        ),
        plans=[plan],
    )


def nixon_net() -> Network:
    plan = InheritancePlan(
        heir="Nixon",
        sources=(("Quaker", Selection()), ("Republican", Selection())),
        chain=False,
    )
    return net_of(
        hom(
            "Quaker",
            prop("policy", ValueType.TEXT, "pacifist", "Quaker"),
            prop("faith", ValueType.TEXT, "quaker", "Quaker"),
        ),
        hom(
            "Republican",
            prop("policy", ValueType.TEXT, "hawk", "Republican"),
            prop("party", ValueType.TEXT, "gop", "Republican"),
        ),
        hom("Nixon", prop("elected", ValueType.BOOL, True, "Nixon")),
        plans=[plan],
    )


def duplicate_arrival_net() -> Network:
    """A no-arg method declared at every chain level arrives in triplicate."""
    plan = InheritancePlan(
        heir="A3",
        sources=(("A2", Selection()), ("A1", Selection())),
        chain=True,
    )
    return net_of(
        hom(
            "A1",
            prop("p1", ValueType.INT, 1, "A1"),
            prop("p2", ValueType.INT, 2, "A1"),
            method("f1", "A1"),
            method("f2", "A1"),
        ),
        hom(
            "A2",
            prop("p1", ValueType.TEXT, "two", "A2"),
            prop("p2", ValueType.TEXT, "dos", "A2"),
            method("f1", "A2"),
        ),
        hom(
            "A3",
            prop("p1", ValueType.BOOL, True, "A3"),
            method("f1", "A3"),
        ),
        plans=[plan],
    )


def surplus_net() -> Network:
    plan = InheritancePlan(
        heir="C",
        sources=(("B", Selection()), ("A", Selection())),
        chain=True,
    )
    return net_of(
        hom("A", *(prop(f"a{i}", ValueType.INT, i, "A") for i in range(1, 5))),
        hom("B", *(prop(f"b{i}", ValueType.TEXT, str(i), "B") for i in range(1, 4))),
        hom("C", prop("c1", ValueType.BOOL, True, "C")),
        plans=[plan],
    )


# ---------------------------------------------------------------------------
# Contradictory values (exception shape)
# ---------------------------------------------------------------------------


class TestExceptionDetection:
    def test_finding_shape(self):
        net = penguin_net()
        findings = detect_exception(net.plans[0], net)
        assert len(findings) == 1
        found = findings[0]
        assert found.kind == "exception"
        assert found.plan == "Penguin inherits Bird"
        assert found.subjects == ("Bird", "Penguin")
        assert found.members == ("fly",)

    def test_suggestion_repairs(self):
        net = penguin_net()
        found = detect_exception(net.plans[0], net)[0]
        assert found.suggestion is not None
        assert found.suggestion.describe() == "Penguin inherits Bird (feathers)"
        assert detect_exception(found.suggestion, net) == []
        het = inherit(found.suggestion, net)
        view = decompose(het, "Penguin")
        assert view.get("Penguin", "fly").member.value is False
        assert view.get("Bird", "fly") is None

    def test_weak_take_clears_it(self):
        net = penguin_net()
        weak = InheritancePlan(
            heir="Penguin",
            sources=(
                ("Bird", Selection(SelectionMode.ALL, (("fly", as_degree("1/2")),))),
            ),
        )
        assert detect_exception(weak, net) == []

    def test_detection_never_raises(self):
        # detect-* report; only inherit() aborts
        net = penguin_net()
        findings = detect_exception(net.plans[0], net)
        assert findings  # reached without an exception escaping


# ---------------------------------------------------------------------------
# Same name, different content, several sources (ambiguity shape)
# ---------------------------------------------------------------------------


class TestAmbiguityDetection:
    def test_finding_shape(self):
        net = nixon_net()
        findings = detect_ambiguity(net.plans[0], net)
        assert len(findings) == 1
        found = findings[0]
        assert found.kind == "ambiguity"
        assert found.subjects == ("Quaker", "Republican")
        assert found.members == ("policy",)

    def test_suggestion_and_alternative_both_repair(self):
        net = nixon_net()
        found = detect_ambiguity(net.plans[0], net)[0]
        assert found.suggestion.describe() == "Nixon inherits Quaker, Republican (party)"
        assert [a.describe() for a in found.alternatives] == [
            "Nixon inherits Quaker (faith), Republican"
        ]
        for repaired in (found.suggestion, *found.alternatives):
            assert detect_ambiguity(repaired, net) == []
            het = inherit(repaired, net)
            view = decompose(het, "Nixon")
            assert len([e for e in view if e.member.name == "policy"]) == 1

    def test_repairs_drop_a_source_narrowed_to_nothing(self):
        # M offers only the clashing 'p', so every repair that does not keep
        # M's copy drops M from the plan; the repair itself still stands.
        net = net_of(
            hom("L", prop("p", ValueType.INT, 1, "L"), prop("q", ValueType.INT, 5, "L")),
            hom("M", prop("p", ValueType.INT, 2, "M")),
            hom("R", prop("p", ValueType.INT, 3, "R"), prop("r", ValueType.INT, 6, "R")),
            hom("H", prop("h", ValueType.BOOL, True, "H")),
        )
        plan = InheritancePlan(
            heir="H",
            sources=(
                ("L", Selection()),
                ("M", Selection()),
                ("R", Selection(SelectionMode.ALL, (("r", as_degree("1/2")),))),
            ),
            chain=False,
        )
        [found] = detect_ambiguity(plan, net)
        assert found.subjects == ("L", "M", "R")
        assert found.suggestion.describe() == "H inherits L, R (only r/0.5)"
        assert [a.describe() for a in found.alternatives] == [
            "H inherits L (q), M, R (only r/0.5)",
            "H inherits L (q), R (r/0.5)",
        ]
        for repaired in (found.suggestion, *found.alternatives):
            assert detect_ambiguity(repaired, net) == []
            view = decompose(inherit(repaired, net), "H")
            assert len([e for e in view if e.member.name == "p"]) == 1

    def test_chains_cannot_be_ambiguous(self):
        net = duplicate_arrival_net()
        assert detect_ambiguity(net.plans[0], net) == []

    def test_identical_content_is_not_ambiguous(self):
        net = net_of(
            hom("L", prop("p", ValueType.INT, 1, "L")),
            hom("R", prop("p", ValueType.INT, 1, "R")),
            hom("H", prop("h", ValueType.BOOL, True, "H")),
        )
        plan = InheritancePlan(
            heir="H",
            sources=(("L", Selection()), ("R", Selection())),
            chain=False,
        )
        assert detect_ambiguity(plan, net) == []


# ---------------------------------------------------------------------------
# Redundant arrivals and surplus against a requirement
# ---------------------------------------------------------------------------


class TestRedundancyDetection:
    def test_duplicate_arrival_finding(self):
        net = duplicate_arrival_net()
        findings = detect_redundancy(net.plans[0], net)
        assert len(findings) == 1
        found = findings[0]
        assert found.kind == "redundancy"
        assert found.members == ("f1",)
        assert found.suggestion.describe() == "A3 inherits A2 inherits A1 (p1, p2, f2)"

    def test_duplicate_arrival_suggestion_repairs(self):
        net = duplicate_arrival_net()
        found = detect_redundancy(net.plans[0], net)[0]
        assert detect_redundancy(found.suggestion, net) == []
        het = inherit(found.suggestion, net)
        assert len(decompose(het, "A3")) == 7

    def test_deep_chain_suggestion_keeps_every_member(self, fixture_path):
        net = parse_network(
            fixture_path("redundancy_deep_chain.oodn").read_text(encoding="utf-8")
        )
        plan = net.plans[0]
        [found] = detect_redundancy(plan, net)
        assert found.members == ("p",)
        # B's selection also governs A's members: it must keep passing a on
        assert (
            found.suggestion.describe()
            == "D inherits C inherits B (a, b) inherits A (a)"
        )
        before = decompose(inherit(plan, net), "D")
        after = decompose(inherit(found.suggestion, net), "D")
        assert after.similar_eq(before)
        assert detect_redundancy(found.suggestion, net) == []

    def test_surplus_against_required(self):
        net = surplus_net()
        findings = detect_redundancy(net.plans[0], net, required=["a1", "b1"])
        assert len(findings) == 1
        found = findings[0]
        assert found.members == ("a2", "a3", "a4", "b2", "b3")
        assert found.suggestion.describe() == "C inherits B (a1, b1) inherits A"

    def test_surplus_suggestion_repairs_exactly(self):
        net = surplus_net()
        found = detect_redundancy(net.plans[0], net, required=["a1", "b1"])[0]
        assert detect_redundancy(found.suggestion, net, required=["a1", "b1"]) == []
        view = decompose(inherit(found.suggestion, net), "C")
        assert sorted(e.member.name for e in view) == ["a1", "b1", "c1"]

    def test_required_fully_used_is_clean(self):
        net = surplus_net()
        everything = [f"a{i}" for i in range(1, 5)] + [f"b{i}" for i in range(1, 4)]
        assert detect_redundancy(net.plans[0], net, required=everything) == []

    def test_unreachable_requirement_raises(self):
        net = surplus_net()
        with pytest.raises(RequirementError):
            detect_redundancy(net.plans[0], net, required=["zz"])

    def test_parallel_surplus_drops_emptied_sources(self):
        net = nixon_net()
        findings = detect_redundancy(net.plans[0], net, required=["party"])
        assert len(findings) == 1
        found = findings[0]
        assert found.members == ("faith", "policy")
        # Quaker offers nothing required, so the repair omits it entirely
        assert found.suggestion.describe() == "Nixon inherits Republican (party)"
        assert detect_redundancy(found.suggestion, net, required=["party"]) == []
        view = decompose(inherit(found.suggestion, net), "Nixon")
        assert sorted(e.member.name for e in view) == ["elected", "party"]

    def test_required_repair_never_widens_a_listed_take(self):
        # X's take lists only 'a': narrowing X to the required 'b' would
        # widen it and make 'b' arrive from both sources.
        net = parse_network(
            "class X { prop a: int = 1; prop b: int = 2; }\n"
            "class Y { prop b: int = 3; prop c: int = 3; }\n"
            "H inherits X (a), Y;\n"
        )
        assert diagnose_all(net) == []
        [found] = diagnose_all(net, required=["b"])
        assert found.members == ("a", "c")
        assert found.suggestion.describe() == "H inherits Y (b)"
        net.plans[:] = [found.suggestion]
        assert diagnose_all(net, required=["b"]) == []

    def test_required_repair_keeps_a_listed_take_in_written_order(self):
        net = parse_network(
            "class A { prop p: int = 1; prop q: int = 2; prop r: int = 3; }\n"
            "class H { }\n"
            "H inherits A (r, q, p);\n"
        )
        [found] = diagnose_all(net, required=["p", "r"])
        assert found.suggestion.describe() == "H inherits A (r, p)"


# ---------------------------------------------------------------------------
# Whole-network sweep and report rendering
# ---------------------------------------------------------------------------


class TestDiagnoseAll:
    def test_combined_pathologies(self):
        net = penguin_net()
        nix = nixon_net()
        net.classes.update(nix.classes)
        net.plans.extend(nix.plans)
        findings = diagnose_all(net)
        assert [f.kind for f in findings] == ["exception", "ambiguity"]
        # A second sweep builds its repairs anew; equal plans make them equal.
        again = diagnose_all(net)
        assert all(a.repair is not f.repair for a, f in zip(again, findings))
        assert again == findings
        assert [hash(f) for f in again] == [hash(f) for f in findings]

    def test_clean_network(self):
        net = net_of(
            hom("A", prop("p", ValueType.INT, 1, "A")),
            hom("B", prop("q", ValueType.INT, 2, "B")),
            plans=[InheritancePlan(heir="B", sources=(("A", Selection()),))],
        )
        assert diagnose_all(net) == []

    def test_requirement_is_checked_per_plan(self):
        net = surplus_net()
        findings = diagnose_all(net, required=["a1", "b1"])
        assert len(findings) == 1
        assert findings[0].kind == "redundancy"

    def test_requirement_without_plans_raises(self):
        net = net_of(hom("A", prop("p", ValueType.INT, 1, "A")))
        with pytest.raises(RequirementError, match="no plan is declared"):
            diagnose_all(net, required=["p"])
        # requiring nothing is met by no plan at all
        assert diagnose_all(net, required=[]) == []
        assert diagnose_all(net) == []


# ---------------------------------------------------------------------------
# The classic pathologies (Touretzky, The Mathematics of Inheritance Systems)
# ---------------------------------------------------------------------------


class TestClassicPathologies:
    """The heterogeneous class keeps conflicting copies apart, and diagnosis
    names the pathology behind them."""

    def test_nixon_diamond_keeps_both_policies_apart(self, fixture_path):
        net = parse_network(fixture_path("pathology_nixon.oodn").read_text(encoding="utf-8"))
        het = inherit(net.plans[0], net)
        holders = {
            projection.label: entry.member
            for projection in het.projections
            for entry in projection.members
            if entry.member.name == "policy"
        }
        assert list(holders) == ["Quaker", "Republican"]
        quaker, republican = holders["Quaker"], holders["Republican"]
        assert quaker.identity == ("Quaker", "policy")
        assert republican.identity == ("Republican", "policy")
        assert (quaker.value, republican.value) == ("pacifist", "hawk")
        assert het.core.get("Quaker", "policy") is None
        assert set(holders) <= set(het.participants["Nixon"])
        view = decompose(het, "Nixon")
        assert view.get("Quaker", "policy").member == quaker
        assert view.get("Republican", "policy").member == republican

    def test_nixon_diamond_is_one_ambiguity_on_policy(self, fixture_path):
        net = parse_network(fixture_path("pathology_nixon.oodn").read_text(encoding="utf-8"))
        findings = diagnose_all(net)
        assert [(f.kind, f.members) for f in findings] == [("ambiguity", ("policy",))]
        assert findings[0].subjects == ("Quaker", "Republican")

    def test_penguin_is_refused_with_the_narrowed_plan(self, fixture_path):
        net = parse_network(fixture_path("pathology_penguin.oodn").read_text(encoding="utf-8"))
        with pytest.raises(InheritanceConflictError) as raised:
            inherit(net.plans[0], net)
        assert raised.value.finding == diagnose_all(net)[0]
        assert raised.value.finding.kind == "exception"
        assert raised.value.finding.suggestion.describe() == "Penguin inherits Bird (feathers)"

    def test_penguin_is_diagnosed_as_an_exception(self, fixture_path):
        net = parse_network(fixture_path("pathology_penguin.oodn").read_text(encoding="utf-8"))
        findings = diagnose_all(net)
        assert [(f.kind, f.members) for f in findings] == [("exception", ("fly",))]
        assert findings[0].suggestion.describe() == "Penguin inherits Bird (feathers)"


class TestScaling:
    @staticmethod
    def diagnose_peak(depth: int) -> int:
        net = parse_network(chain_text(depth))
        gc.collect()
        tracemalloc.start()
        try:
            diagnose_all(net)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chain_memory_grows_about_linearly_with_depth(self):
        # Narrowing every redundant level's selection over all it held, for
        # each finding as it was found, made this 3.9.
        assert self.diagnose_peak(100) <= 2.5 * self.diagnose_peak(50)

    def test_a_rendered_finding_keeps_nothing_it_rendered(self):
        # Findings that kept each narrowed selection and each view they
        # reported held about 13 times the report's length here.
        net = parse_network(chain_text(60))
        gc.collect()
        tracemalloc.start()
        try:
            findings = diagnose_all(net)
            length = sum(len(line) + 1 for line in report_lines(findings))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert findings and held < length


class TestReportRendering:
    def test_empty_report(self):
        assert render_report([]) == "no findings"

    def test_single_finding_grammar(self):
        net = penguin_net()
        report = render_report(diagnose_all(net))
        assert report.startswith("1 finding\n")
        assert "exception in plan [Penguin inherits Bird]" in report
        assert "suggestion: Penguin inherits Bird (feathers)" in report

    def test_plural_findings_grammar(self):
        net = penguin_net()
        nix = nixon_net()
        net.classes.update(nix.classes)
        net.plans.extend(nix.plans)
        report = render_report(diagnose_all(net))
        assert report.startswith("2 findings\n")

    def test_alternatives_listed(self):
        net = nixon_net()
        report = render_report(diagnose_all(net))
        assert "alternative: Nixon inherits Quaker (faith), Republican" in report

    def test_suggestionless_finding_renders(self):
        diag = Diagnostic(
            kind="redundancy",
            plan="X inherits Y",
            subjects=("Y",),
            members=("m",),
            message="irreparable",
        )
        assert "suggestion: none" in diag.render()
