from __future__ import annotations

from fractions import Fraction

import pytest

from oodn.model import (
    Degree,
    HetClass,
    HomClass,
    MemberSet,
    Network,
    ObjectInstance,
    OodnError,
    Relation,
    RelationKind,
    UnknownEntityError,
    ValueType,
    as_degree,
    materialize,
    method,
    prop,
    validate_network,
)
from oodn.inheritance import InheritancePlan, Selection, inherit
from oodn.operations import (
    ModificationRejected,
    exploit_instance_check,
    exploit_intersection,
    exploit_union,
    make_network,
    modify_add_member,
    modify_remove_member,
    modify_set_value,
)

# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def hom(name: str, *entries) -> HomClass:
    ms = MemberSet(entries)
    return HomClass(name, *ms.by_kind())


def sample_net() -> Network:
    net = make_network()
    net.classes["A"] = hom(
        "A",
        prop("shared", ValueType.INT, 7, "A"),
        prop("left", ValueType.INT, 1, "A"),
        method("go", "A"),
    )
    net.classes["B"] = hom(
        "B",
        prop("shared", ValueType.INT, 7, "B"),
        prop("right", ValueType.TEXT, "r", "B"),
    )
    net.objects["a1"] = ObjectInstance("a1", "A", (("left", 5),))
    return net


def names(ms: MemberSet) -> list[str]:
    return [e.member.name for e in ms]


# ---------------------------------------------------------------------------
# Union and intersection
# ---------------------------------------------------------------------------


class TestUnion:
    def test_merges_and_deduplicates_similar(self):
        net = sample_net()
        combined = exploit_union(net, ["A", "B"])
        # shared appears once (first copy wins); properties precede methods
        assert names(combined.members()) == ["shared", "left", "right", "go"]

    def test_methods_and_properties_split_correctly(self):
        net = sample_net()
        combined = exploit_union(net, ["A", "B"])
        assert names(combined.spec) == ["shared", "left", "right"]
        assert names(combined.sig) == ["go"]

    def test_requires_two_inputs(self):
        with pytest.raises(OodnError):
            exploit_union(sample_net(), ["A"])

    def test_results_are_named_by_default(self):
        # A class's name must read back from its text, so none is empty.
        net = sample_net()
        assert exploit_union(net, ["A", "B"]).name == "union"
        assert exploit_intersection(net, ["A", "B"]).name == "intersection"

    def test_unknown_input(self):
        with pytest.raises(UnknownEntityError):
            exploit_union(sample_net(), ["A", "ZZ"])


class TestIntersection:
    def test_requires_two_inputs(self):
        with pytest.raises(OodnError, match="^intersection needs at least two inputs$"):
            exploit_intersection(sample_net(), ["A"])

    def test_keeps_only_shared_assertions(self):
        net = sample_net()
        common = exploit_intersection(net, ["A", "B"])
        assert names(common.members()) == ["shared"]
        # first input's copy is the representative
        assert common.members().get("A", "shared") is not None

    def test_degree_must_match_too(self):
        from oodn.model import DegreedMember

        net = make_network()
        net.classes["A"] = HomClass(
            "A", spec=MemberSet([prop("p", ValueType.INT, 1, "A")])
        )
        weak = prop("p", ValueType.INT, 1, "B")
        net.classes["B"] = HomClass(
            "B", spec=MemberSet([DegreedMember(weak, as_degree("1/2"))])
        )
        common = exploit_intersection(net, ["A", "B"])
        assert len(common.members()) == 0

    def test_disjoint_inputs_empty(self):
        net = make_network()
        net.classes["X"] = hom("X", prop("x", ValueType.INT, 1, "X"))
        net.classes["Y"] = hom("Y", prop("y", ValueType.INT, 2, "Y"))
        common = exploit_intersection(net, ["X", "Y"])
        assert len(common.members()) == 0


# ---------------------------------------------------------------------------
# Instance checking
# ---------------------------------------------------------------------------


class TestInstanceCheck:
    def test_object_of_matching_class_is_true(self):
        net = sample_net()
        assert exploit_instance_check(net, "a1", "A") is True

    def test_missing_property_is_false(self):
        net = sample_net()
        assert exploit_instance_check(net, "a1", "B") is False

    def test_type_mismatch_is_false(self):
        net = sample_net()
        net.classes["C"] = hom("C", prop("left", ValueType.TEXT, "L", "C"))
        assert exploit_instance_check(net, "a1", "C") is False

    def test_weak_class_yields_degree(self):
        net = sample_net()
        from oodn.model import DegreedMember

        net.classes["W"] = HomClass(
            "W",
            spec=MemberSet(
                [
                    DegreedMember(prop("left", ValueType.INT, 0, "W"), as_degree("1/4")),
                    DegreedMember(prop("shared", ValueType.INT, 0, "W"), as_degree("1/2")),
                ]
            ),
        )
        result = exploit_instance_check(net, "a1", "W")
        assert isinstance(result, Degree)
        assert result.value == Fraction(1, 4)

    def test_unknown_object_or_class(self):
        net = sample_net()
        with pytest.raises(UnknownEntityError):
            exploit_instance_check(net, "zz", "A")
        with pytest.raises(UnknownEntityError):
            exploit_instance_check(net, "a1", "ZZ")


# ---------------------------------------------------------------------------
# Modifiers: add, remove, set
# ---------------------------------------------------------------------------


class TestAddRemove:
    def test_add_property(self):
        net = sample_net()
        modify_add_member(net, "A", prop("extra", ValueType.BOOL, True, "A"))
        assert net.classes["A"].members().get("A", "extra") is not None

    def test_add_duplicate_identity_rejected_and_rolled_back(self):
        net = sample_net()
        before = net.classes["A"].members()
        with pytest.raises(ModificationRejected):
            modify_add_member(net, "A", prop("left", ValueType.INT, 9, "A"))
        assert net.classes["A"].members() == before

    def test_remove_member(self):
        net = sample_net()
        modify_remove_member(net, "B", "right")
        assert net.classes["B"].members().get("B", "right") is None

    def test_remove_then_add_restores(self):
        net = sample_net()
        original = net.classes["B"].members().get("B", "shared")
        modify_remove_member(net, "B", "shared")
        modify_add_member(net, "B", original)
        assert net.classes["B"].members().get("B", "shared") == original

    def test_remove_unknown_member(self):
        net = sample_net()
        with pytest.raises(UnknownEntityError):
            modify_remove_member(net, "A", "zz")

    def test_remove_breaking_an_object_rolls_back(self):
        # a1 overrides "left"; removing it from A orphans the override
        net = sample_net()
        before = net.classes["A"].members()
        with pytest.raises(ModificationRejected) as info:
            modify_remove_member(net, "A", "left")
        assert net.classes["A"].members() == before
        assert info.value.findings  # the violation report rides along

    def test_modifying_heterogeneous_class_rejected(self):
        net = sample_net()
        net.classes["H"] = inherit(
            InheritancePlan(heir="HH", sources=(("A", Selection()),)), net
        )
        with pytest.raises(OodnError):
            modify_add_member(net, "H", prop("x", ValueType.INT, 1, "H"))


class TestSetValue:
    def test_set_class_member_value(self):
        net = sample_net()
        modify_set_value(net, "A", "left", 10)
        entry = net.classes["A"].members().get("A", "left")
        assert entry is not None and entry.member.value == 10

    def test_a_property_carried_for_another_owner_is_found_by_name(self):
        net = sample_net()
        net.classes["C"] = hom(
            "C",
            prop("q", ValueType.INT, 1, "A"),
            prop("two", ValueType.INT, 1, "A"),
            prop("two", ValueType.INT, 1, "B"),
        )
        modify_set_value(net, "C", "q", 3)
        entry = net.classes["C"].members().get("A", "q")
        assert entry is not None and entry.member.value == 3
        # Two owners' copies under one name: the name alone finds neither.
        with pytest.raises(UnknownEntityError):
            modify_set_value(net, "C", "two", 3)

    def test_wrong_type_rejected_without_side_effects(self):
        net = sample_net()
        before = net.classes["A"].members()
        with pytest.raises(ModificationRejected):
            modify_set_value(net, "A", "left", "not an int")
        assert net.classes["A"].members() == before

    def test_set_object_override(self):
        net = sample_net()
        modify_set_value(net, "a1", "left", 42)
        assert net.objects["a1"].values()["left"] == 42

    def test_object_override_must_match_declared_type(self):
        net = sample_net()
        with pytest.raises(ModificationRejected):
            modify_set_value(net, "a1", "left", "oops")

    def test_object_override_unknown_member(self):
        net = sample_net()
        with pytest.raises(UnknownEntityError):
            modify_set_value(net, "a1", "zz", 1)

    def test_an_object_edit_that_cannot_be_built_is_rolled_back(self):
        net = sample_net()
        obj = net.objects["o"] = ObjectInstance("o", "Undeclared")
        with pytest.raises(ModificationRejected) as info:
            modify_set_value(net, "o", "x y", 1)
        assert str(info.value) == (
            "setting 'x y' on object 'o' rolled back: 'x y' is not an identifier"
        )
        assert info.value.findings == []
        assert net.objects["o"] is obj

    def test_unknown_target(self):
        net = sample_net()
        with pytest.raises(UnknownEntityError):
            modify_set_value(net, "zz", "left", 1)


class TestRollbackInPlace:
    """A rejected edit puts back the one entry it replaced, in the very
    containers a caller may already hold."""

    @pytest.mark.parametrize(
        "edit",
        [
            # a second 'left' typed text makes a1's int override mistyped
            lambda net: modify_add_member(net, "A", prop("left", ValueType.TEXT, "t", "Z")),
            lambda net: modify_remove_member(net, "A", "left"),
            lambda net: modify_set_value(net, "a1", "left", "text"),
        ],
        ids=["add", "remove", "set"],
    )
    def test_rejected_edit_restores_the_entry_in_place(self, edit):
        net = sample_net()
        classes, objects = net.classes, net.objects
        cls, obj = classes["A"], objects["a1"]
        with pytest.raises(ModificationRejected):
            edit(net)
        assert net.classes is classes and net.objects is objects
        assert classes["A"] is cls and objects["a1"] is obj


class TestScope:
    """A modifier checks the rules its edit can change: the edited class and
    its objects, or the edited object; errors elsewhere do not block it."""

    def test_mistyped_overrides_are_fixed_one_edit_at_a_time(self):
        net = sample_net()
        net.objects["o1"] = ObjectInstance("o1", "A", (("left", "x"),))
        net.objects["o2"] = ObjectInstance("o2", "A", (("left", "y"),))
        assert len(validate_network(net)) == 2
        modify_set_value(net, "o1", "left", 1)
        assert [v.entity for v in validate_network(net)] == ["o2"]
        modify_set_value(net, "o2", "left", 2)
        assert validate_network(net) == []

    def test_a_dangling_relation_does_not_block_an_edit(self):
        net = make_network()
        net.classes["C"] = hom("C", prop("p", ValueType.INT, 1, "C"))
        net.classes["D"] = hom("D", prop("q", ValueType.INT, 1, "D"))
        net.relations.append(Relation(RelationKind.AGGREGATION, "C", "ZZ"))
        modify_set_value(net, "D", "q", 2)
        assert net.classes["D"].members().get("D", "q").member.value == 2

    def test_a_rejection_reports_the_edits_findings_only(self):
        net = sample_net()
        net.objects["b1"] = ObjectInstance("b1", "B", (("right", 3),))
        with pytest.raises(ModificationRejected) as info:
            modify_remove_member(net, "A", "left")
        assert [(v.entity, v.rule) for v in info.value.findings] == [
            ("a1", "unknown-override")
        ]
        assert str(info.value) == (
            "removing 'left' from 'A' rolled back: error: a1: unknown-override: "
            "object sets 'left' which class 'A' lacks"
        )

    def test_an_edit_to_a_class_rechecks_its_objects(self):
        net = sample_net()
        net.objects["a2"] = ObjectInstance("a2", "A", (("shared", 1),))
        with pytest.raises(ModificationRejected) as info:
            modify_remove_member(net, "A", "shared")
        assert [v.entity for v in info.value.findings] == ["a2"]
        assert net.classes["A"].members().get("A", "shared") is not None


# ---------------------------------------------------------------------------
# Staleness tracking
# ---------------------------------------------------------------------------


class TestStaleness:
    def test_editing_a_participant_marks_products_stale(self):
        net = sample_net()
        plan = InheritancePlan(heir="H", sources=(("A", Selection()),))
        het = inherit(plan, net)
        net.classes[het.name] = het
        assert validate_network(net) == []
        modify_add_member(net, "A", prop("np", ValueType.INT, 3, "A"))
        assert "H" in net.stale

    def test_unrelated_edit_leaves_products_fresh(self):
        net = sample_net()
        plan = InheritancePlan(heir="H", sources=(("A", Selection()),))
        het = inherit(plan, net)
        net.classes[het.name] = het
        modify_add_member(net, "B", prop("np", ValueType.INT, 3, "B"))
        assert "H" not in net.stale

    def test_a_plain_dict_assigned_as_the_class_table_still_marks_hosts(self):
        net = sample_net()
        net.classes["H"] = HetClass("H", participants={"A": ()})
        net.classes = dict(net.classes)
        modify_add_member(net, "A", prop("np", ValueType.INT, 3, "A"))
        assert net.stale == {"H"}
        assert "np" in names(net.classes["A"].members())

    def test_a_host_is_marked_by_the_name_it_carries(self):
        net = sample_net()
        net.classes["K"] = HetClass("H", participants={"A": ()})
        modify_add_member(net, "A", prop("np", ValueType.INT, 3, "A"))
        assert net.stale == {"H"}


# ---------------------------------------------------------------------------
# Registry and materialization routing
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_default_names(self):
        assert set(make_network().exploiters) == {
            "union",
            "intersection",
            "instance_check",
            "materialize",
            "decompose",
        }
        assert set(make_network().modifiers) == {
            "add_member",
            "remove_member",
            "set_value",
        }

    def test_make_network_is_prewired(self):
        net = make_network()
        assert "union" in net.exploiters
        assert "set_value" in net.modifiers

    def test_materialize_object_applies_overrides(self):
        net = sample_net()
        ms = materialize(net, "a1")
        entry = ms.get("a1", "left")
        assert entry is not None and entry.member.value == 5
