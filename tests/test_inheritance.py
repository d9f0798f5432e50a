from __future__ import annotations

import gc
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import chain_text, parallel_text, run_cli
from oodn.diagnostics import diagnose_all
from oodn.dsl import parse_network, serialize_hetclass
from oodn.inheritance import (
    Arity,
    Extent,
    InheritanceConflictError,
    InheritancePlan,
    Octant,
    Policy,
    Selection,
    SelectionMode,
    Strength,
    classify_plan,
    decompose,
    inherit,
    merge,
    walk,
)
from oodn.model import (
    DEGREE_ONE,
    ClassTable,
    DegreedMember,
    HetClass,
    HomClass,
    MemberSet,
    Network,
    OodnError,
    UnknownEntityError,
    ValueType,
    as_degree,
    materialize,
    method,
    prop,
)

# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def hom(name: str, *entries) -> HomClass:
    ms = MemberSet(entries)
    return HomClass(name, *ms.by_kind())


def net_of(*classes: HomClass) -> Network:
    net = Network()
    for cls in classes:
        net.classes[cls.name] = cls
    return net


def chain_net() -> Network:
    """Three levels; same names redeclared at different value types."""
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
    )


def parallel_net() -> Network:
    """Two unrelated sources plus an heir; all members pairwise dissimilar."""
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
            prop("p1", ValueType.TEXT, "x", "A2"),
            prop("p2", ValueType.TEXT, "y", "A2"),
            method("f1", "A2", params=[("x", ValueType.INT)]),
        ),
        hom(
            "A3",
            prop("p1", ValueType.BOOL, True, "A3"),
            method(
                "f1", "A3", params=[("x", ValueType.INT), ("y", ValueType.INT)]
            ),
        ),
    )


def two_level_net() -> Network:
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
            prop("p1", ValueType.TEXT, "x", "A2"),
            prop("p2", ValueType.TEXT, "y", "A2"),
            method("f1", "A2", params=[("x", ValueType.INT)]),
        ),
    )


def ids(entries) -> list[tuple[str, str]]:
    return [e.identity for e in entries]


def projection(het, label: str):
    """The projection of ``het`` carrying ``label``."""
    (found,) = [p for p in het.projections if p.label == label]
    return found


def chain_plan(*names_with_selections) -> InheritancePlan:
    """Chain plan written root-last: heir first, then nearest source, ..."""
    heir = names_with_selections[0]
    sources = tuple(
        (n, s) if isinstance(n, str) else n for n, s in names_with_selections[1:]
    )
    return InheritancePlan(heir=heir, sources=sources, chain=True)


# ---------------------------------------------------------------------------
# Selections and plans
# ---------------------------------------------------------------------------


class TestSelection:
    def test_duplicate_names_rejected(self):
        with pytest.raises(OodnError):
            Selection(
                SelectionMode.LISTED,
                (("p1", DEGREE_ONE), ("p1", DEGREE_ONE)),
            )

    def test_listed_cannot_be_empty(self):
        with pytest.raises(OodnError):
            Selection(SelectionMode.LISTED, ())

    def test_degree_lookup(self):
        sel = Selection(SelectionMode.ALL, (("p1", as_degree("1/2")),))
        assert sel.is_weak

    def test_rendered_items_leave_equality_and_hash_alone(self):
        entries = (("p1", as_degree("1/2")), ("p2", DEGREE_ONE))
        rendered = Selection(SelectionMode.LISTED, entries)
        assert rendered.text == "(p1/0.5, p2)"
        fresh = Selection(SelectionMode.LISTED, entries)
        assert rendered == fresh and hash(rendered) == hash(fresh)
        assert Selection().text == ""

    def test_describe_shows_selections(self):
        plan = InheritancePlan(
            heir="H",
            sources=(
                ("A", Selection()),
                ("B", Selection(SelectionMode.ALL, (("p1", DEGREE_ONE),))),
                ("C", Selection(SelectionMode.LISTED, (("p2", as_degree("1/3")),))),
            ),
            chain=False,
        )
        assert plan.describe() == "H inherits A, B (p1/1), C (only p2/1/3)"


class TestPlan:
    def test_needs_sources(self):
        with pytest.raises(OodnError):
            InheritancePlan(heir="H", sources=())

    def test_duplicate_source_rejected(self):
        with pytest.raises(OodnError):
            InheritancePlan(
                heir="H",
                sources=(("A", Selection()), ("A", Selection())),
            )

    def test_heir_cannot_be_source(self):
        with pytest.raises(OodnError):
            InheritancePlan(heir="A", sources=(("A", Selection()),))

    def test_participants_root_first(self):
        plan = InheritancePlan(
            heir="A3",
            sources=(("A2", Selection()), ("A1", Selection())),
            chain=True,
        )
        assert plan.participants_root_first() == ["A1", "A2", "A3"]
        parallel = InheritancePlan(
            heir="A3",
            sources=(("A1", Selection()), ("A2", Selection())),
            chain=False,
        )
        assert parallel.participants_root_first() == ["A1", "A2", "A3"]

    def test_one_source_plan_is_a_chain(self):
        lone = InheritancePlan(heir="H", sources=(("A", Selection()),), chain=False)
        assert lone.chain
        assert lone == InheritancePlan(heir="H", sources=(("A", Selection()),))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TestClassification:
    def octant(self, a, e, s) -> Octant:
        return Octant(a, e, s)

    def test_all_eight_shapes(self):
        # Each source declares a member no listed take names.
        declared = [
            hom(
                name,
                prop("p1", ValueType.INT, 1, name),
                prop("p2", ValueType.INT, 2, name),
                method("f1", name),
            )
            for name in ("S0", "S1")
        ]
        net = net_of(*declared)
        full = Selection()
        weak_all = Selection(SelectionMode.ALL, (("p1", as_degree("1/2")),))
        listed = Selection(
            SelectionMode.LISTED, (("p1", DEGREE_ONE), ("f1", DEGREE_ONE))
        )
        listed_weak = Selection(
            SelectionMode.LISTED, (("p1", as_degree("1/2")), ("f1", DEGREE_ONE))
        )
        cases = [
            (True, [full, full], Arity.SINGLE, Extent.FULL, Strength.STRONG),
            (True, [weak_all], Arity.SINGLE, Extent.FULL, Strength.WEAK),
            (True, [listed], Arity.SINGLE, Extent.PARTIAL, Strength.STRONG),
            (True, [listed_weak], Arity.SINGLE, Extent.PARTIAL, Strength.WEAK),
            (False, [full, full], Arity.MULTIPLE, Extent.FULL, Strength.STRONG),
            (False, [weak_all, full], Arity.MULTIPLE, Extent.FULL, Strength.WEAK),
            (False, [listed, full], Arity.MULTIPLE, Extent.PARTIAL, Strength.STRONG),
            (False, [listed_weak, full], Arity.MULTIPLE, Extent.PARTIAL, Strength.WEAK),
        ]
        seen = set()
        for chain, selections, arity, extent, strength in cases:
            sources = tuple(
                (f"S{i}", sel) for i, sel in enumerate(selections)
            )
            plan = InheritancePlan(heir="H", sources=sources, chain=chain)
            octant = classify_plan(plan, net)
            assert octant == Octant(arity, extent, strength)
            seen.add(octant)
        assert len(seen) == 8

    def test_listed_covering_everything_is_full_with_network(self):
        net = two_level_net()
        covering = Selection(
            SelectionMode.LISTED,
            tuple((n, DEGREE_ONE) for n in ("p1", "p2", "f1", "f2")),
        )
        plan = InheritancePlan(heir="A2", sources=(("A1", covering),))
        assert classify_plan(plan, net).extent is Extent.FULL

    def test_render(self):
        net = net_of(hom("A", prop("p", ValueType.INT, 1, "A")))
        plan = InheritancePlan(heir="H", sources=(("A", Selection()),))
        assert classify_plan(plan, net).render() == "single/full/strong"

    LEVELS = "class A { prop a1: int = 1; prop a2: int = 2; } class B { prop b: int = 3; } "

    @pytest.mark.parametrize(
        "plan, extent",
        [
            # a listing above a take-all level must name what that level adds
            ("H inherits B (b) inherits A;", Extent.PARTIAL),
            ("H inherits B (a1, a2, b) inherits A;", Extent.FULL),
            ("H inherits C (a1, a2, c) inherits B inherits A (a1, a2);", Extent.PARTIAL),
            ("H inherits C (a1, a2, b, c) inherits B inherits A (a1, a2);", Extent.FULL),
            # a sibling's listing answers for its own source only
            ("H inherits A (a1, a2), B;", Extent.FULL),
            ("H inherits A, B (b);", Extent.FULL),
            ("H inherits A (a1), B;", Extent.PARTIAL),
        ],
    )
    def test_a_listing_is_measured_against_what_its_link_offers(self, plan, extent):
        net = parse_network(self.LEVELS + "class C { prop c: int = 4; } " + plan)
        assert classify_plan(net.plans[0], net).extent is extent

    class CountingTable(ClassTable):
        """A class table that records each name looked up."""

        def __init__(self, *args, **kwargs) -> None:
            self.reads: list[str] = []
            super().__init__(*args, **kwargs)

        def get(self, key, default=None):
            self.reads.append(key)
            return super().get(key, default)

    @pytest.mark.parametrize("chain", [True, False])
    def test_a_plan_that_lists_nothing_reads_no_declarations(self, chain):
        net = Network()
        net.classes = self.CountingTable()
        weak_all = Selection(SelectionMode.ALL, (("p", as_degree("1/2")),))
        plan = InheritancePlan("H", (("ZZ", Selection()), ("YY", weak_all)), chain=chain)
        assert classify_plan(plan, net).extent is Extent.FULL
        assert net.classes.reads == []

    @pytest.mark.parametrize(
        "plan",
        [
            "H inherits B (b) inherits A;",
            "H inherits C (a1, a2, b, c) inherits B inherits A (a1, a2);",
            "H inherits A (a1), B;",
        ],
    )
    def test_each_source_is_read_at_most_once(self, plan):
        net = parse_network(self.LEVELS + "class C { prop c: int = 4; } " + plan)
        net.classes = self.CountingTable(net.classes)
        classify_plan(net.plans[0], net)
        assert sorted(net.classes.reads) == sorted(net.plans[0].class_names()[:-1])

    @pytest.mark.parametrize(
        "sources, chain",
        [
            ((("ZZ", "p"),), True),
            ((("A", "a1"), ("ZZ", None)), True),
            ((("ZZ", None), ("A", "a1")), True),
            ((("A", "a1"), ("ZZ", None)), False),
        ],
    )
    def test_a_listing_over_an_undeclared_source_raises(self, sources, chain):
        net = parse_network(self.LEVELS)
        plan = InheritancePlan("H", tuple(
            (name, Selection(SelectionMode.LISTED, ((listed, DEGREE_ONE),)) if listed
             else Selection())
            for name, listed in sources
        ), chain=chain)
        with pytest.raises(UnknownEntityError, match="'ZZ'"):
            classify_plan(plan, net)


# ---------------------------------------------------------------------------
# Chain construction (golden shapes)
# ---------------------------------------------------------------------------


class TestChainConstruction:
    def build(self) -> HetClass:
        net = chain_net()
        plan = InheritancePlan(
            heir="A3",
            sources=(("A2", Selection()), ("A1", Selection())),
            chain=True,
        )
        return inherit(plan, net)

    def test_core_is_root_member_set(self):
        het = self.build()
        assert ids(het.core) == [
            ("A1", "p1"),
            ("A1", "p2"),
            ("A1", "f1"),
            ("A1", "f2"),
        ]
        assert all(e.degree == DEGREE_ONE for e in het.core)

    def test_projections_nest(self):
        het = self.build()
        assert [p.label for p in het.projections] == ["A2", "A3"]
        first, second = het.projections
        assert ids(first.members) == [("A2", "p1"), ("A2", "p2"), ("A2", "f1")]
        assert first.depends_on == ()
        assert ids(second.members) == [("A3", "p1"), ("A3", "f1")]
        assert second.depends_on == ("A2",)

    def test_participants_registry(self):
        het = self.build()
        assert het.participants == {
            "A1": (),
            "A2": ("A2",),
            "A3": ("A2", "A3"),
        }

    def test_decompose_counts(self):
        het = self.build()
        assert len(decompose(het, "A1")) == 4
        assert len(decompose(het, "A2")) == 6  # one f1 copy merges away
        assert len(decompose(het, "A3")) == 7

    def test_decompose_root_reproduces_it(self):
        net = chain_net()
        het = self.build()
        assert decompose(het, "A1") == net.classes["A1"].members()

    def test_empty_heir_still_gets_projection(self):
        net = net_of(
            hom("A", prop("p", ValueType.INT, 1, "A")),
            HomClass("B"),
        )
        het = inherit(
            InheritancePlan(heir="B", sources=(("A", Selection()),)), net
        )
        assert [p.label for p in het.projections] == ["B"]
        assert len(het.projections[0].members) == 0
        assert ids(het.core) == [("A", "p")]

    def test_undeclared_heir_synthesized(self):
        net = net_of(hom("A", prop("p", ValueType.INT, 1, "A")))
        het = inherit(
            InheritancePlan(heir="X", sources=(("A", Selection()),)), net
        )
        assert het.name == "X"
        assert het.participants["X"] == ("X",)


# ---------------------------------------------------------------------------
# Parallel construction (golden shapes)
# ---------------------------------------------------------------------------


class TestParallelConstruction:
    def build(self) -> HetClass:
        net = parallel_net()
        plan = InheritancePlan(
            heir="A3",
            sources=(("A1", Selection()), ("A2", Selection())),
            chain=False,
        )
        return inherit(plan, net)

    def test_no_shared_knowledge_means_empty_core(self):
        het = self.build()
        assert len(het.core) == 0

    def test_every_source_keeps_its_base_projection(self):
        het = self.build()
        assert [p.label for p in het.projections] == ["A1", "A2", "heir(A3)"]
        by_label = {p.label: p for p in het.projections}
        assert len(by_label["A1"].members) == 4
        assert len(by_label["A2"].members) == 3
        assert len(by_label["heir(A3)"].members) == 2

    def test_heir_projection_depends_on_both_bases(self):
        het = self.build()
        heir_projection = projection(het, "heir(A3)")
        assert heir_projection.depends_on == ("A1", "A2")

    def test_flattening_counts_nine(self):
        het = self.build()
        assert len(decompose(het, "A3")) == 9


# ---------------------------------------------------------------------------
# Partial and weak takes (golden shapes)
# ---------------------------------------------------------------------------


class TestPartialTake:
    def build(self) -> HetClass:
        net = two_level_net()
        selection = Selection(
            SelectionMode.LISTED, (("p1", DEGREE_ONE), ("f1", DEGREE_ONE))
        )
        plan = InheritancePlan(heir="A2", sources=(("A1", selection),))
        return inherit(plan, net)

    def test_core_holds_only_taken_members(self):
        het = self.build()
        assert ids(het.core) == [("A1", "p1"), ("A1", "f1")]

    def test_parent_keeps_untaken_members(self):
        het = self.build()
        by_label = {p.label: p for p in het.projections}
        assert ids(by_label["A1"].members) == [("A1", "p2"), ("A1", "f2")]
        assert ids(by_label["A2"].members) == [
            ("A2", "p1"),
            ("A2", "p2"),
            ("A2", "f1"),
        ]

    def test_decompose_reproduces_both(self):
        net = two_level_net()
        het = self.build()
        assert decompose(het, "A1") == net.classes["A1"].members()
        expected_heir = MemberSet(
            [*het.core, *projection(het, "A2").members]
        )
        assert decompose(het, "A2") == expected_heir

    def test_selecting_missing_member_fails(self):
        net = two_level_net()
        selection = Selection(SelectionMode.LISTED, (("nope", DEGREE_ONE),))
        plan = InheritancePlan(heir="A2", sources=(("A1", selection),))
        with pytest.raises(UnknownEntityError):
            inherit(plan, net)


class TestWeakTake:
    def build(self) -> HetClass:
        net = two_level_net()
        selection = Selection(SelectionMode.ALL, (("p1", as_degree("1/2")),))
        plan = InheritancePlan(heir="A2", sources=(("A1", selection),))
        return inherit(plan, net)

    def test_weakened_member_leaves_the_core(self):
        het = self.build()
        assert ids(het.core) == [("A1", "p2"), ("A1", "f1"), ("A1", "f2")]

    def test_member_splits_across_projections_by_degree(self):
        het = self.build()
        by_label = {p.label: p for p in het.projections}
        parent_copy = by_label["A1"].members.get("A1", "p1")
        heir_copy = by_label["A2"].members.get("A1", "p1")
        assert parent_copy is not None and parent_copy.degree == DEGREE_ONE
        assert heir_copy is not None and heir_copy.degree.value == Fraction(1, 2)

    def test_heir_projection_contents(self):
        het = self.build()
        heir = projection(het, "A2")
        assert ids(heir.members) == [
            ("A1", "p1"),
            ("A2", "p1"),
            ("A2", "p2"),
            ("A2", "f1"),
        ]

    def test_degrees_compose_multiplicatively_along_chains(self):
        net = net_of(
            hom("A", prop("p", ValueType.INT, 1, "A")),
            HomClass("B"),
            HomClass("C"),
        )
        plan = InheritancePlan(
            heir="C",
            sources=(
                ("B", Selection(SelectionMode.ALL, (("p", as_degree("1/2")),))),
                ("A", Selection(SelectionMode.ALL, (("p", as_degree("1/2")),))),
            ),
            chain=True,
        )
        het = inherit(plan, net)
        heir_copy = projection(het, "C").members.get("A", "p")
        assert heir_copy is not None
        assert heir_copy.degree.value == Fraction(1, 4)


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------


class TestExceptionConflict:
    def penguin_net(self) -> Network:
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
        )

    def plan(self) -> InheritancePlan:
        return InheritancePlan(heir="Penguin", sources=(("Bird", Selection()),))

    def test_contradiction_aborts(self):
        with pytest.raises(InheritanceConflictError) as info:
            inherit(self.plan(), self.penguin_net())
        finding = info.value.finding
        assert finding.kind == "exception"
        assert finding.members == ("fly",)
        assert finding.subjects == ("Bird", "Penguin")

    def test_suggestion_is_executable(self):
        net = self.penguin_net()
        with pytest.raises(InheritanceConflictError) as info:
            inherit(self.plan(), net)
        suggestion = info.value.finding.suggestion
        assert suggestion is not None
        het = inherit(suggestion, net)
        heir_view = decompose(het, "Penguin")
        fly = heir_view.get("Penguin", "fly")
        assert fly is not None and fly.member.value is False
        assert heir_view.get("Bird", "fly") is None
        assert heir_view.get("Bird", "feathers") is not None

    def test_weak_arrival_is_not_a_contradiction(self):
        net = self.penguin_net()
        weakened = InheritancePlan(
            heir="Penguin",
            sources=(
                ("Bird", Selection(SelectionMode.ALL, (("fly", as_degree("1/2")),))),
            ),
        )
        het = inherit(weakened, net)
        assert het.name == "Penguin"

    def test_different_value_type_is_not_a_contradiction(self):
        net = net_of(
            hom("A", prop("p", ValueType.INT, 1, "A")),
            hom("B", prop("p", ValueType.TEXT, "1", "B")),
        )
        plan = InheritancePlan(heir="B", sources=(("A", Selection()),))
        inherit(plan, net)  # must not raise

    def test_methods_never_contradict(self):
        net = net_of(
            hom("A", method("f", "A")),
            hom("B", method("f", "B", params=[("x", ValueType.INT)])),
        )
        plan = InheritancePlan(heir="B", sources=(("A", Selection()),))
        inherit(plan, net)  # must not raise


class TestDegreePolicy:
    def diamond_net(self) -> Network:
        """Two sources both carrying the same root member at different degrees."""
        root_copy = prop("p", ValueType.INT, 1, "A")
        b1 = HomClass(
            "B1", spec=MemberSet([DegreedMember(root_copy, as_degree("1/2"))])
        )
        b2 = HomClass(
            "B2", spec=MemberSet([DegreedMember(root_copy, as_degree("1/4"))])
        )
        return net_of(b1, b2)

    def plan(self) -> InheritancePlan:
        return InheritancePlan(
            heir="D",
            sources=(("B1", Selection()), ("B2", Selection())),
            chain=False,
        )

    def degree_of_heir_copy(self, het: HetClass) -> Fraction:
        for label in het.participants["D"]:
            found = projection(het, label).members.get("A", "p")
            if found is not None:
                return found.degree.value
        raise AssertionError("heir copy not found")

    def test_reject_policy_raises(self):
        with pytest.raises(InheritanceConflictError) as info:
            inherit(self.plan(), self.diamond_net(), Policy.REJECT)
        assert info.value.finding.kind == "ambiguity"

    def test_min_and_max_policies_pick_a_degree(self):
        low = inherit(self.plan(), self.diamond_net(), Policy.MIN)
        high = inherit(self.plan(), self.diamond_net(), Policy.MAX)
        assert self.degree_of_heir_copy(low) == Fraction(1, 4)
        assert self.degree_of_heir_copy(high) == Fraction(1, 2)


class TestWalk:
    def contradicted_chain(self) -> tuple[InheritancePlan, Network]:
        net = net_of(
            hom(
                "A",
                prop("p", ValueType.INT, 1, "A"),
                prop("q", ValueType.INT, 2, "A"),
            ),
            hom("B", prop("p", ValueType.INT, 5, "B")),
            hom("C", prop("c", ValueType.INT, 3, "C")),
        )
        return chain_plan("C", ("B", Selection()), ("A", Selection())), net

    def test_chain_links_run_root_first_past_a_conflict(self):
        plan, net = self.contradicted_chain()
        links = walk(plan, net)
        assert [(link.parent, link.child) for link in links] == [
            ("A", "B"),
            ("B", "C"),
        ]
        assert [name for name, _, _ in links[0].conflicts] == ["p"]
        assert links[1].conflicts == []
        # the contradicted level still passes everything on
        assert ids(links[1].taken.values()) == [("A", "p"), ("A", "q"), ("B", "p")]

    def test_lookup_fault_wins_over_a_conflict(self):
        _, net = self.contradicted_chain()
        nosuch = Selection(SelectionMode.LISTED, (("nosuch", DEGREE_ONE),))
        plan = chain_plan("C", ("B", nosuch), ("A", Selection()))
        for run in (walk, inherit):
            with pytest.raises(UnknownEntityError, match="'nosuch'"):
                run(plan, net)

    def test_parallel_links_and_merge_policies(self):
        net = TestDegreePolicy().diamond_net()
        plan = TestDegreePolicy().plan()
        links = walk(plan, net)
        assert [(link.parent, link.child) for link in links] == [
            ("B1", "D"),
            ("B2", "D"),
        ]
        low = merge(links, Policy.MIN)[("A", "p")]
        high = merge(links, Policy.MAX)[("A", "p")]
        assert (low.degree.value, high.degree.value) == (Fraction(1, 4), Fraction(1, 2))

    def test_reject_refuses_a_degree_split_with_its_finding(self):
        # Refused by inherit, not by merge: the finding names both sources.
        net = TestDegreePolicy().diamond_net()
        plan = TestDegreePolicy().plan()
        with pytest.raises(InheritanceConflictError) as info:
            inherit(plan, net, Policy.REJECT)
        finding = info.value.finding
        assert (finding.subjects, finding.members) == (("B1", "B2"), ("p",))
        assert finding.blocks == (Policy.REJECT,)
        assert str(info.value) == (
            "member p(A) arrives from 'B1' at degree 0.5 and from 'B2' at degree "
            "0.25; pass a min or max policy to resolve"
        )
        net.plans.append(plan)
        assert finding in diagnose_all(net)


class TestRuns:
    """A chain is walked member by member; a member's audience is the run
    of levels holding it at one degree.  These shapes break a run in the
    middle and pin what the layered class makes of it."""

    def layered(self, text: str) -> str:
        net = parse_network(text)
        return serialize_hetclass(inherit(net.plans[0], net, Policy.MIN))

    def test_dropped_member_declared_again_stays_in_the_core(self):
        # C1 drops s(C0) but re-declares it: every level holds it crisply.
        text = self.layered(
            "class C0 { method s(); }\n"
            "class C1 { prop q: int = 2; }\n"
            "class C2 { method C0.s(); }\n"
            "C2 inherits C1 (only q/0.5) inherits C0;\n"
        )
        assert text.splitlines()[1:4] == ["  core {", "    method C0.s();", "  }"]
        assert '  participant C1 -> "C1";' in text

    def test_weakened_member_declared_again_crisply_stays_in_the_core(self):
        text = self.layered(
            "class C0 { prop r: int = 1; prop p: int = 0; }\n"
            "class C1 { prop C0.r: int = 1; }\n"
            "class C2 { prop q: int = 2; }\n"
            "C2 inherits C1 (r) inherits C0 (r/0.5);\n"
        )
        assert text.splitlines()[1:4] == ["  core {", "    prop C0.r: int = 1;", "  }"]

    def test_runs_of_one_entry_share_an_audience(self):
        # p(C0) leaves the chain at C1 and comes back, same content, at C2:
        # one projection, held by C0 and C2 but not by C1.
        text = self.layered(
            "class C0 { prop p: int = 1; prop x: int = 0; }\n"
            "class C1 { prop y: int = 0; }\n"
            "class C2 { prop C0.p: int = 1; }\n"
            "C2 inherits C1 inherits C0 (x);\n"
        )
        assert '  projection "C0" {\n    prop C0.p: int = 1;\n  }\n' in text
        assert text.endswith(
            '  participant C0 -> "C0";\n'
            '  participant C1 -> "C1";\n'
            '  participant C2 -> "C0", "C1", "C2";\n}'
        )

    def test_views_follow_the_runs(self):
        net = parse_network(
            "class C0 { prop p: int = 1; prop x: int = 0; }\n"
            "class C1 { prop y: int = 0; }\n"
            "class C2 { prop C0.p: int = 1; prop z: int = 2 /0.5; }\n"
            "C2 inherits C1 (x/0.5, y) inherits C0 (x);\n"
        )
        plan = net.plans[0]
        # The parents' views, root first, as repairs list their names.
        assert [(link.parent, ids(link.parent_view.values())) for link in walk(plan, net)] == [
            ("C0", [("C0", "p"), ("C0", "x")]),
            ("C1", [("C0", "x"), ("C1", "y")]),
        ]
        # The heir's view, rebuilt from the core and then its projections.
        heir = decompose(inherit(plan, net), "C2")
        assert ids(heir) == [("C0", "p"), ("C1", "y"), ("C0", "x"), ("C2", "z")]
        assert heir.get("C0", "x").degree.value == Fraction(1, 2)


class TestCrossOwnerRedeclaration:
    """B declares A's 'p' itself, and C already holds it as A does.  In A's
    content it is knowledge every participant shares, so it stays in the
    core; in another content two copies of one member sit at one degree in
    two audiences, which no layering can place: diagnosis finds the clash,
    and ``inherit`` refuses the plan with it, chain and parallel plan
    alike."""

    CLASSES = (
        "class A { prop p: int = 1; }\n"
        "class C { prop A.p: int = 1; prop q: int = 2; }\n"
    )
    PLANS = {"chain": "B inherits C inherits A;\n", "parallel": "B inherits A, C;\n"}

    @pytest.mark.parametrize("shape", sorted(PLANS))
    def test_another_content_is_refused(self, shape, capsys, tmp_path):
        path = tmp_path / "cross_owner.oodn"
        path.write_text(
            self.CLASSES + 'class B { prop A.p: text = "x"; }\n' + self.PLANS[shape],
            encoding="utf-8",
        )
        assert run_cli(["inherit", str(path)], capsys) == (
            2,
            "",
            "conflict (ambiguity): member p(A) is held in 2 contents at one degree: "
            'prop p(A): int = 1 by A, C; prop p(A): text = "x" by B\n',
        )

    @pytest.mark.parametrize("shape", sorted(PLANS))
    def test_the_same_content_stays_in_the_core(self, shape):
        net = parse_network(
            self.CLASSES + "class B { prop A.p: int = 1; }\n" + self.PLANS[shape]
        )
        het = inherit(net.plans[0], net)
        assert list(het.core) == [DegreedMember(prop("p", ValueType.INT, 1, "A"))]
        assert decompose(het, "B").get("A", "p") == het.core.get("A", "p")


class TestScaling:
    @staticmethod
    def inherit_peak(depth: int) -> int:
        net = parse_network(chain_text(depth))
        gc.collect()
        tracemalloc.start()
        try:
            inherit(net.plans[0], net, Policy.MIN)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chain_memory_grows_about_linearly_with_depth(self):
        # Copying every ancestor's view at every level made this 4.0.
        assert self.inherit_peak(100) <= 2.5 * self.inherit_peak(50)

    @staticmethod
    def parallel_seconds(*counts: int) -> list[float]:
        """Best of five ``inherit`` and ``materialize`` runs on a take-all
        parallel plan over each count of sources, with the collector off.
        The plans take turns, so a slow spell of the host slows each."""
        nets = [parse_network(parallel_text(count)) for count in counts]
        best = [float("inf")] * len(nets)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                for at, net in enumerate(nets):
                    start = time.perf_counter()
                    materialize(net, "H", extra=[inherit(net.plans[0], net, Policy.MIN)])
                    best[at] = min(best[at], time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return best

    def test_parallel_layering_grows_about_linearly_with_sources(self):
        # Scanning every group against every filled one, and every
        # participant against every group, made this about 9.
        small, large = self.parallel_seconds(200, 800)
        assert large <= 6 * small


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


class TestInputs:
    def test_heterogeneous_source_rejected(self):
        net = net_of(hom("A", prop("p", ValueType.INT, 1, "A")))
        het = inherit(
            InheritancePlan(heir="B", sources=(("A", Selection()),)), net
        )
        net.classes["B"] = het
        plan = InheritancePlan(heir="C", sources=(("B", Selection()),))
        with pytest.raises(OodnError):
            inherit(plan, net)

    def test_undeclared_source_rejected(self):
        plan = InheritancePlan(heir="B", sources=(("ZZ", Selection()),))
        with pytest.raises(UnknownEntityError):
            inherit(plan, Network())

    def test_decompose_unknown_participant(self):
        net = net_of(hom("A", prop("p", ValueType.INT, 1, "A")))
        het = inherit(
            InheritancePlan(heir="B", sources=(("A", Selection()),)), net
        )
        with pytest.raises(UnknownEntityError):
            decompose(het, "zz")
