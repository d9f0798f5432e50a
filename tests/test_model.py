from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import pytest

from oodn.model import (
    DEGREE_ONE,
    IDENTIFIER,
    KEYWORDS,
    ClassTable,
    Degree,
    DegreedMember,
    FuzzySet,
    HetClass,
    HomClass,
    Member,
    MemberKind,
    MemberSet,
    ModelInvariantError,
    Network,
    ObjectInstance,
    Projection,
    Relation,
    RelationKind,
    UnknownEntityError,
    ValueType,
    as_degree,
    check_names,
    class_is_fuzzy,
    dedupe_similar,
    format_rational,
    is_fuzzy,
    is_identifier,
    materialize,
    method,
    prop,
    validate_edit,
    validate_network,
    violations_are_fatal,
)


def names(entries) -> list[str]:
    """Member names in order, duplicates preserved."""
    return [entry.member.name for entry in entries]


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


class TestDegree:
    def test_bounds(self):
        assert Degree(Fraction(1)).value == 1
        assert Degree(Fraction(1, 1000)).is_weak
        with pytest.raises(ModelInvariantError):
            Degree(Fraction(0))
        with pytest.raises(ModelInvariantError):
            Degree(Fraction(3, 2))
        with pytest.raises(ModelInvariantError):
            Degree(Fraction(-1, 2))

    def test_product_is_exact(self):
        half = as_degree("1/2")
        third = as_degree(Fraction(1, 3))
        assert (half * third).value == Fraction(1, 6)
        assert (half * DEGREE_ONE).value == Fraction(1, 2)

    def test_ordering(self):
        assert as_degree("1/4") < as_degree("1/2") < DEGREE_ONE

    @pytest.mark.parametrize(
        ("value", "text"),
        [
            (Fraction(1), "1"),
            (Fraction(1, 2), "0.5"),
            (Fraction(7, 10), "0.7"),
            (Fraction(1, 4), "0.25"),
            (Fraction(1, 3), "1/3"),
            (Fraction(-3, 2), "-1.5"),
            (Fraction(3, 7), "3/7"),
            (Fraction(1, 8), "0.125"),
        ],
    )
    def test_rational_formatting(self, value, text):
        assert format_rational(value) == text


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class TestValues:
    def test_bool_is_not_int(self):
        assert ValueType.BOOL.codec.check(True)
        assert not ValueType.INT.codec.check(True)
        assert ValueType.INT.codec.check(3)
        assert not ValueType.BOOL.codec.check(3)

    def test_real_requires_fraction(self):
        assert ValueType.REAL.codec.check(Fraction(1, 2))
        assert not ValueType.REAL.codec.check(0.5)
        assert not ValueType.REAL.codec.check(1)

    def test_fuzzy_set_validation(self):
        with pytest.raises(ModelInvariantError):
            FuzzySet((("tall", Fraction(3, 2)),))
        with pytest.raises(ModelInvariantError):
            FuzzySet((("tall", Fraction(1, 2)), ("tall", Fraction(1, 4))))
        for element in (True, 0.5, None):  # an element is an int, a real or a text
            with pytest.raises(ModelInvariantError):
                FuzzySet(((element, Fraction(1)),))

    def test_a_fuzzy_membership_is_a_fraction(self):
        for membership in (0.5, 1, "1"):
            with pytest.raises(ModelInvariantError, match="^fuzzy memberships must be Fractions$"):
                FuzzySet((("tall", membership),))

    def test_fuzzy_set_equality_ignores_order(self):
        forward = FuzzySet((("a", Fraction(1)), ("b", Fraction(1, 2))))
        backward = FuzzySet((("b", Fraction(1, 2)), ("a", Fraction(1))))
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert len({forward, backward}) == 1
        assert ValueType.FUZZY.codec.text(backward) == "{b: 0.5, a: 1}"
        assert forward != FuzzySet((("a", Fraction(1)), ("b", Fraction(1, 4))))
        assert forward != FuzzySet((("a", Fraction(1)),))
        assert forward.__eq__(dict(forward.entries)) is NotImplemented
        assert forward != dict(forward.entries)

    def test_genuinely_fuzzy(self):
        crisp = FuzzySet((("tall", Fraction(1)), ("short", Fraction(0))))
        assert not crisp.genuinely_fuzzy
        fuzzy = FuzzySet((("tall", Fraction(7, 10)),))
        assert fuzzy.genuinely_fuzzy

    def test_format_value(self):
        assert ValueType.BOOL.codec.text(True) == "true"
        assert ValueType.INT.codec.text(-3) == "-3"
        assert ValueType.REAL.codec.text(Fraction(1, 2)) == "0.5"
        assert ValueType.TEXT.codec.text('say "hi"') == '"say \\"hi\\""'
        fuzzy = FuzzySet((("tall", Fraction(7, 10)), (2, Fraction(1))))
        assert ValueType.FUZZY.codec.text(fuzzy) == "{tall: 0.7, 2: 1}"
        # a whole-number real element keeps its type when read back
        whole = FuzzySet(((Fraction(3), Fraction(1)), ("a b", Fraction(1, 3))))
        assert ValueType.FUZZY.codec.text(whole) == '{3.0: 1, "a b": 1/3}'


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------


class TestMembers:
    def test_property_requires_matching_value(self):
        with pytest.raises(ModelInvariantError):
            prop("p", ValueType.INT, "text", "A")
        with pytest.raises(ModelInvariantError):
            Member(MemberKind.PROPERTY, "p", "A")  # no value type

    def test_property_carries_no_signature(self):
        for signature in (dict(params=(("x", ValueType.INT),)), dict(returns=ValueType.INT)):
            with pytest.raises(
                ModelInvariantError, match="^property 'p' cannot carry a method signature$"
            ):
                Member(MemberKind.PROPERTY, "p", "A", ValueType.INT, 1, **signature)

    def test_method_carries_no_value(self):
        with pytest.raises(ModelInvariantError):
            Member(
                MemberKind.METHOD,
                "f",
                "A",
                value_type=ValueType.INT,
                value=1,
            )
        with pytest.raises(ModelInvariantError):
            method("f", "A", params=[("x", ValueType.INT), ("x", ValueType.INT)])

    def test_identity_and_display(self):
        entry = prop("p1", ValueType.INT, 1, "A1")
        assert entry.identity == ("A1", "p1")
        assert entry.display() == "p1(A1)"
        assert DegreedMember(entry).display() == "p1(A1)"
        weak = DegreedMember(entry, as_degree("1/2"))
        assert weak.display() == "p1(A1)/0.5"

    def test_held_keys_are_frozen_like_the_fields(self):
        entry = DegreedMember(prop("p1", ValueType.INT, 1, "A1"), as_degree("1/2"))
        for value, key in ((entry.member, "identity"), (entry.degree, "is_weak")):
            # A held key is no field, yet refused as one: the TypeError a
            # frozen slots=True dataclass raises for such a name is replaced.
            with pytest.raises(FrozenInstanceError):
                setattr(value, key, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, key)
            assert not hasattr(value, "__dict__")
        for value, key in ((entry, "member"), (entry, "_hash"), (entry.degree, "other")):
            for write in (lambda: setattr(value, key, None), lambda: delattr(value, key)):
                with pytest.raises(FrozenInstanceError):
                    write()
        assert entry.identity == ("A1", "p1") and entry.degree.is_weak
        assert entry.identity is entry.member.identity

    def test_similarity_ignores_owner(self):
        a = prop("p1", ValueType.INT, 1, "A1")
        b = prop("p1", ValueType.INT, 1, "A2")
        assert a.similarity_key() == b.similarity_key()

    def test_same_name_different_type_is_dissimilar(self):
        a = prop("p1", ValueType.INT, 1, "A1")
        b = prop("p1", ValueType.TEXT, "1", "A1")
        assert a.similarity_key() != b.similarity_key()

    def test_method_similarity_uses_signature(self):
        f = method("f1", "A1")
        g = method("f1", "A2")
        h = method("f1", "A1", params=[("x", ValueType.INT)])
        assert f.similarity_key() == g.similarity_key()
        assert f.similarity_key() != h.similarity_key()


class TestNames:
    """Every name the writer writes bare is checked where it enters the
    model, by one rule: an ASCII identifier, and no keyword for a name a
    declaration could not start with."""

    def test_is_identifier_is_the_lexers_rule(self):
        # Every string of up to two characters over ASCII, a letter and a
        # digit of other scripts.
        alphabet = [chr(code) for code in range(128)] + ["\u00e9", "\u0663"]
        texts = ["", *alphabet, *map("".join, product(alphabet, repeat=2))]
        for text in texts:
            assert is_identifier(text) == (IDENTIFIER.fullmatch(text) is not None), text

    @pytest.mark.parametrize("name", ["", "x y", "\u00e9t\u00e9", "1A", "A.p", 3, b"A"])
    def test_every_bare_name_is_checked(self, name):
        builds = [
            lambda: prop(name, ValueType.INT, 1, "A"),
            lambda: prop("p", ValueType.INT, 1, name),
            lambda: method("m", "A", [(name, ValueType.INT)]),
            lambda: HomClass(name),
            lambda: HetClass(name),
            lambda: HetClass("H", participants={name: ()}),
            lambda: ObjectInstance(name, "A"),
            lambda: ObjectInstance("o", name),
            lambda: ObjectInstance("o", "A", ((name, 1),)),
            lambda: Relation(RelationKind.GENERALIZATION, name, "A"),
            lambda: Relation(RelationKind.GENERALIZATION, "A", name),
        ]
        if name != "":  # an empty label is refused as no label at all
            builds.append(lambda: Relation(RelationKind.ASSOCIATION, "a", "b", name))
        for build in builds:
            with pytest.raises(ModelInvariantError, match=" is not an identifier"):
                build()

    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    def test_a_keyword_names_no_homogeneous_class(self, keyword):
        with pytest.raises(ModelInvariantError, match=f"^'{keyword}' cannot name a class$"):
            HomClass(keyword)
        # A keyword may name anything a declaration need not start with.
        assert HetClass(keyword).name == keyword
        assert prop(keyword, ValueType.INT, 1, keyword).identity == (keyword, keyword)
        check_names(keyword)

    def test_the_messages(self):
        with pytest.raises(ModelInvariantError, match="^'x y' is not an identifier$"):
            check_names("A", "x y")
        with pytest.raises(ModelInvariantError, match="^3 is not an identifier$"):
            check_names(3)


# ---------------------------------------------------------------------------
# Member sets
# ---------------------------------------------------------------------------


class TestMemberSet:
    def test_duplicate_identity_rejected(self):
        entry = prop("p1", ValueType.INT, 1, "A1")
        with pytest.raises(ModelInvariantError):
            MemberSet([entry, prop("p1", ValueType.INT, 2, "A1")])

    def test_equality_ignores_order(self):
        a = prop("p1", ValueType.INT, 1, "A1")
        b = prop("p2", ValueType.INT, 2, "A1")
        assert MemberSet([a, b]) == MemberSet([b, a])
        assert MemberSet([a]) != MemberSet([b])
        assert MemberSet([a]).__eq__([a]) is NotImplemented
        assert MemberSet([a]) != [a]

    def test_similar_eq_ignores_owner(self):
        left = MemberSet([prop("p1", ValueType.INT, 1, "A1")])
        right = MemberSet([prop("p1", ValueType.INT, 1, "A2")])
        assert left != right
        assert left.similar_eq(right)

    def test_accessors(self):
        p = prop("p1", ValueType.INT, 1, "A1")
        f = method("f1", "A1")
        ms = MemberSet([p, f])
        assert ms.get("A1", "p1").member is p
        assert ms.get("A1", "zz") is None
        assert names(ms) == ["p1", "f1"]
        properties, methods = ms.by_kind()
        assert [e.member for e in properties] == [p]
        assert [e.member for e in methods] == [f]

    def test_dedupe_similar_first_wins(self):
        first = prop("p1", ValueType.INT, 1, "A1")
        copy = prop("p1", ValueType.INT, 1, "A2")
        other = prop("p2", ValueType.INT, 2, "A2")
        merged = dedupe_similar(
            [DegreedMember(first), DegreedMember(copy), DegreedMember(other)]
        )
        assert [e.member.owner for e in merged] == ["A1", "A2"]
        assert len(merged) == 2

    def test_dedupe_similar_refuses_two_contents_of_one_identity(self):
        one = DegreedMember(prop("p1", ValueType.INT, 1, "A1"))
        two = DegreedMember(prop("p1", ValueType.INT, 2, "A1"))
        with pytest.raises(
            ModelInvariantError, match="^duplicate member 'p1' owned by 'A1' in one member set$"
        ):
            dedupe_similar([one, two])

    def test_dedupe_similar_keeps_the_strongest_copy_in_place(self):
        weak = DegreedMember(prop("p1", ValueType.INT, 1, "A1"), Degree(Fraction(1, 2)))
        other = DegreedMember(prop("p2", ValueType.INT, 2, "A1"))
        crisp = DegreedMember(prop("p1", ValueType.INT, 1, "A2"))
        merged = list(dedupe_similar([weak, other, crisp]))
        assert merged == [crisp, other]


# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------


def _hom(name: str, *entries) -> HomClass:
    ms = MemberSet(entries)
    return HomClass(name, *ms.by_kind())


class TestHomClass:
    def test_spec_holds_properties_only(self):
        with pytest.raises(ModelInvariantError):
            HomClass("A", spec=MemberSet([method("f", "A")]))
        with pytest.raises(ModelInvariantError):
            HomClass("A", sig=MemberSet([prop("p", ValueType.INT, 1, "A")]))

    def test_a_property_and_a_method_share_no_identity(self):
        with pytest.raises(ModelInvariantError, match="^class 'A': duplicate member 'p'$"):
            HomClass(
                "A",
                spec=MemberSet([prop("p", ValueType.INT, 1, "A")]),
                sig=MemberSet([method("p", "A")]),
            )

    def test_members_order(self):
        cls = _hom(
            "A",
            prop("p1", ValueType.INT, 1, "A"),
            method("f1", "A"),
            prop("p2", ValueType.INT, 2, "A"),
        )
        assert names(cls.members()) == ["p1", "p2", "f1"]


class TestHetClass:
    def _projection(self, label, *entries, deps=()):
        return Projection(label, MemberSet(entries), tuple(deps))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ModelInvariantError):
            HetClass(
                "H",
                projections=(self._projection("x"), self._projection("x")),
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ModelInvariantError):
            HetClass("H", projections=(self._projection("x", deps=["y"]),))

    def test_dependency_cycle_rejected(self):
        with pytest.raises(ModelInvariantError):
            HetClass(
                "H",
                projections=(
                    self._projection("x", deps=["y"]),
                    self._projection("y", deps=["x"]),
                ),
            )

    def test_dependency_cycle_message_names_where_it_closes(self):
        with pytest.raises(ModelInvariantError) as info:
            HetClass(
                "H",
                projections=(
                    self._projection("x", deps=["y"]),
                    self._projection("y", deps=["z"]),
                    self._projection("z", deps=["y"]),
                ),
            )
        assert str(info.value) == (
            "class 'H': projection dependencies form a cycle at 'y'"
        )

    def test_a_long_dependency_chain_is_accepted(self):
        # deeper than the interpreter's recursion limit
        depth = 3000
        projections = tuple(
            self._projection(f"P{i}", deps=[f"P{i + 1}"] if i + 1 < depth else [])
            for i in range(depth)
        )
        assert len(HetClass("H", projections=projections).projections) == depth

    def test_a_long_dependency_cycle_is_rejected(self):
        depth = 3000
        projections = tuple(
            self._projection(f"P{i}", deps=[f"P{(i + 1) % depth}"])
            for i in range(depth)
        )
        with pytest.raises(ModelInvariantError, match="cycle at 'P0'"):
            HetClass("H", projections=projections)

    def test_core_and_projection_overlap_rejected(self):
        entry = prop("p1", ValueType.INT, 1, "A")
        with pytest.raises(ModelInvariantError):
            HetClass(
                "H",
                core=MemberSet([entry]),
                projections=(self._projection("x", entry),),
            )

    def test_same_identity_needs_distinct_degrees(self):
        entry = prop("p1", ValueType.INT, 1, "A")
        with pytest.raises(ModelInvariantError):
            HetClass(
                "H",
                projections=(
                    self._projection("x", DegreedMember(entry)),
                    self._projection("y", DegreedMember(entry)),
                ),
            )
        # the weak/crisp split of one member across projections is legal
        HetClass(
            "H",
            projections=(
                self._projection("x", DegreedMember(entry)),
                self._projection("y", DegreedMember(entry, as_degree("1/2"))),
            ),
            participants={"A": ("x",), "B": ("y",)},
        )

    def test_a_repeated_degree_is_found_past_a_second_placement(self):
        entry = prop("p1", ValueType.INT, 1, "A")
        half = as_degree("1/2")
        with pytest.raises(ModelInvariantError, match="'p1' of 'A' repeats"):
            HetClass(
                "H",
                projections=(
                    self._projection("x", DegreedMember(entry, half)),
                    self._projection("y", DegreedMember(entry)),
                    self._projection("z", DegreedMember(entry, as_degree("0.5"))),
                ),
            )

    def test_a_repeat_in_the_second_and_third_projections_is_found(self):
        entry = prop("p1", ValueType.INT, 1, "A")
        with pytest.raises(ModelInvariantError) as info:
            HetClass(
                "H",
                projections=(
                    self._projection("x", DegreedMember(entry, as_degree("1/2"))),
                    self._projection("y", DegreedMember(entry)),
                    self._projection("z", DegreedMember(entry)),
                ),
            )
        assert str(info.value) == (
            "class 'H': member 'p1' of 'A' repeats at the same degree across projections"
        )

    def test_a_core_member_in_two_projections_names_the_first(self):
        entry = prop("p1", ValueType.INT, 1, "A")
        with pytest.raises(ModelInvariantError) as info:
            HetClass(
                "H",
                core=MemberSet([entry]),
                projections=(
                    self._projection("x"),
                    self._projection("y", DegreedMember(entry, as_degree("1/2"))),
                    self._projection("z", entry),
                ),
            )
        assert str(info.value) == (
            "class 'H': member p1(A) appears in both the core and projection 'y'"
        )

    def test_a_layered_class_checks_every_identity_once(self):
        entry = DegreedMember(prop("p1", ValueType.INT, 1, "A"))
        weak = DegreedMember(entry.member, as_degree("1/2"))
        refused = (
            ([entry, weak], [], "duplicate member 'p1' owned by 'A' in one member set"),
            ([], [("x", [entry, weak], ())], "duplicate member 'p1' owned by 'A' in one member set"),
            ([entry], [("x", [weak], ())], "p1\\(A\\) appears in both the core and projection 'x'"),
            ([], [("x", [weak], ()), ("y", [weak], ())], "'p1' of 'A' repeats at the same degree"),
        )
        for core, projections, message in refused:
            with pytest.raises(ModelInvariantError, match=message):
                HetClass.layered("H", core, projections, {})
        participants = {"A": ("x",), "B": ("x", "y")}
        het = HetClass.layered("H", [], [("x", [entry], ()), ("y", [weak], ("x",))], participants)
        assert het == HetClass(
            "H",
            projections=(self._projection("x", entry), self._projection("y", weak, deps=["x"])),
            participants=participants,
        )

    def test_participant_label_checked(self):
        with pytest.raises(ModelInvariantError):
            HetClass("H", participants={"A": ("nope",)})

    def test_member_view_and_full_content(self):
        core = prop("shared", ValueType.INT, 1, "A")
        own_a = prop("pa", ValueType.INT, 2, "A")
        own_b = prop("pb", ValueType.INT, 3, "B")
        het = HetClass(
            "H",
            core=MemberSet([core]),
            projections=(
                self._projection("A", own_a),
                self._projection("B", own_b),
            ),
            participants={"A": ("A",), "B": ("B",), "C": ()},
        )
        assert names(het.member_view("A")) == ["shared", "pa"]
        assert names(het.member_view("C")) == ["shared"]
        assert names(het.members()) == ["shared", "pa", "pb"]
        with pytest.raises(UnknownEntityError):
            het.member_view("zz")


# ---------------------------------------------------------------------------
# Objects and relations
# ---------------------------------------------------------------------------


class TestObjectsAndRelations:
    def test_duplicate_overrides_rejected(self):
        with pytest.raises(ModelInvariantError):
            ObjectInstance("o", "C", (("p", 1), ("p", 2)))

    def test_association_requires_label(self):
        with pytest.raises(ModelInvariantError):
            Relation(RelationKind.ASSOCIATION, "a", "b")
        with pytest.raises(ModelInvariantError):
            Relation(RelationKind.GENERALIZATION, "a", "b", label="x")

    def test_an_empty_label_is_a_label(self):
        # Written as "relation generalization  a -> b;", it would read back
        # without one: a different relation.
        with pytest.raises(ModelInvariantError, match="do not carry a label"):
            Relation(RelationKind.GENERALIZATION, "a", "b", "")

    def test_crisp_degree_normalized_away(self):
        rel = Relation(
            RelationKind.ASSOCIATION, "a", "b", label="knows", degree=DEGREE_ONE
        )
        assert rel.degree is None
        weak = Relation(
            RelationKind.ASSOCIATION, "a", "b", "knows", as_degree("7/10")
        )
        assert weak.degree == as_degree("0.7")


# ---------------------------------------------------------------------------
# Network validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_clean_network(self):
        net = Network()
        net.classes["A"] = _hom("A", prop("p", ValueType.INT, 1, "A"))
        assert validate_network(net) == []

    def test_registry_name_mismatch(self):
        net = Network()
        net.classes["B"] = _hom("A", prop("p", ValueType.INT, 1, "A"))
        rules = [v.rule for v in validate_network(net)]
        assert "registry-name" in rules

    def test_an_object_registered_under_another_name(self):
        net = Network()
        net.classes["C"] = _hom("C", prop("p", ValueType.INT, 1, "C"))
        net.objects["b"] = ObjectInstance("a", "C")
        findings = validate_network(net)
        assert [v.render() for v in findings] == [
            "error: b: registry-name: registered as 'b' but named 'a'"
        ]
        assert validate_edit(net, "b") == findings

    def test_a_class_and_an_object_share_no_name(self):
        # The text of such a network does not parse back.
        net = Network()
        net.classes["A"] = _hom("A", prop("p", ValueType.INT, 1, "A"))
        net.objects["A"] = ObjectInstance("A", "A")
        findings = validate_network(net)
        assert [v.render() for v in findings] == [
            "error: A: name-clash: 'A' already names a class"
        ]
        assert validate_edit(net, "A") == findings

    def test_empty_class_is_warning_only(self):
        net = Network()
        net.classes["A"] = HomClass("A")
        findings = validate_network(net)
        assert [v.severity for v in findings] == ["warning"]
        assert not violations_are_fatal(findings)
        net.classes["H"] = HetClass("H", participants={"A": ()})
        shared = Projection("L", MemberSet([prop("p", ValueType.INT, 1, "A")]))
        net.classes["K"] = HetClass("K", projections=(shared,), participants={"A": ("L",)})
        assert [v.render() for v in validate_network(net)] == [
            "warning: A: empty-class: class declares no properties and no methods",
            "warning: H: empty-class: class declares no members in core or projections",
        ]

    def test_object_rules(self):
        net = Network()
        net.classes["C"] = _hom("C", prop("p", ValueType.INT, 1, "C"))
        net.objects["bad_class"] = ObjectInstance("bad_class", "ZZ")
        net.objects["bad_name"] = ObjectInstance("bad_name", "C", (("q", 1),))
        net.objects["bad_type"] = ObjectInstance("bad_type", "C", (("p", "x"),))
        rules = {v.rule for v in validate_network(net)}
        assert {"dangling-class", "unknown-override", "override-type"} <= rules

    def test_relation_rules(self):
        net = Network()
        net.classes["C"] = _hom("C", prop("p", ValueType.INT, 1, "C"))
        net.objects["o"] = ObjectInstance("o", "C")
        net.relations.append(Relation(RelationKind.AGGREGATION, "C", "ZZ"))
        net.relations.append(Relation(RelationKind.GENERALIZATION, "o", "C"))
        net.relations.append(Relation(RelationKind.INSTANCE_OF, "C", "C"))
        rules = [v.rule for v in validate_network(net)]
        assert "dangling-endpoint" in rules
        assert "generalization-endpoints" in rules
        assert "instance-of-endpoints" in rules

    def test_generalization_cycle(self):
        net = Network()
        for name in ("A", "B"):
            net.classes[name] = _hom(name, prop("p", ValueType.INT, 1, name))
        net.relations.append(Relation(RelationKind.GENERALIZATION, "A", "B"))
        net.relations.append(Relation(RelationKind.GENERALIZATION, "B", "A"))
        rules = [v.rule for v in validate_network(net)]
        assert "generalization-cycle" in rules

    def test_a_deep_hierarchy_has_no_cycle(self):
        # deeper than the interpreter's recursion limit
        net = Network()
        depth = 5000
        for i in range(depth):
            net.classes[f"C{i}"] = _hom(f"C{i}", prop("p", ValueType.INT, i, f"C{i}"))
        for i in range(depth - 1):
            net.relations.append(
                Relation(RelationKind.GENERALIZATION, f"C{i}", f"C{i + 1}")
            )
        assert validate_network(net) == []

    def test_a_long_cycle_is_reported_once(self):
        net = Network()
        depth = 5000
        for i in range(depth):
            net.classes[f"C{i}"] = _hom(f"C{i}", prop("p", ValueType.INT, i, f"C{i}"))
            net.relations.append(
                Relation(RelationKind.GENERALIZATION, f"C{i}", f"C{(i + 1) % depth}")
            )
        findings = validate_network(net)
        assert [v.rule for v in findings] == ["generalization-cycle"]
        # the search starts from the smallest name, so the cycle is listed
        # from C0 in edge order and closes where it started
        cycle = [f"C{i}" for i in range(depth)] + ["C0"]
        assert findings[0].entity == " -> ".join(cycle)

    def test_cycles_are_listed_in_search_order(self):
        net = Network()
        for name in ("A", "B", "C", "D"):
            net.classes[name] = _hom(name, prop("p", ValueType.INT, 1, name))
        for source, target in (("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("D", "D")):
            net.relations.append(Relation(RelationKind.GENERALIZATION, source, target))
        assert [v.entity for v in validate_network(net)] == [
            "A -> B -> A", "B -> C -> B", "D -> D",
        ]

    def test_plan_references(self):
        from oodn.inheritance import InheritancePlan, Selection

        net = Network()
        net.classes["A"] = _hom("A", prop("p", ValueType.INT, 1, "A"))
        net.plans.append(
            InheritancePlan(heir="H", sources=(("A", Selection()),))
        )
        findings = validate_network(net)
        assert [v.rule for v in findings] == ["plan-heir-synthesized"]
        assert not violations_are_fatal(findings)

        net.plans.append(
            InheritancePlan(heir="H", sources=(("ZZ", Selection()),))
        )
        assert violations_are_fatal(validate_network(net))

    def test_a_plan_naming_a_hetclass_is_an_error(self):
        from oodn.inheritance import InheritancePlan, Selection

        net = Network()
        net.classes["A"] = _hom("A", prop("p", ValueType.INT, 1, "A"))
        net.classes["B"] = HetClass("B", participants={"A": ()})
        net.plans.append(InheritancePlan(heir="C", sources=(("B", Selection()),)))
        net.plans.append(InheritancePlan(heir="B", sources=(("A", Selection()),)))
        findings = [
            (v.severity, v.entity, v.rule) for v in validate_network(net) if v.entity != "B"
        ]
        assert findings == [
            ("error", "C inherits B", "plan-heterogeneous-class"),
            ("warning", "C inherits B", "plan-heir-synthesized"),
            ("error", "B inherits A", "plan-heterogeneous-class"),
        ]

    def test_a_selection_naming_what_its_source_lacks_is_an_error(self):
        from oodn.inheritance import InheritancePlan, Selection, SelectionMode

        net = Network()
        net.classes["A"] = _hom("A", prop("p", ValueType.INT, 1, "A"))
        net.classes["B"] = _hom("B", prop("b", ValueType.INT, 1, "B"))
        listed = Selection(SelectionMode.LISTED, (("q", DEGREE_ONE),))
        weakened = Selection(SelectionMode.ALL, (("p", Degree(Fraction(1, 2))), ("r", DEGREE_ONE)))
        # On a chain a level offers what it takes and declares; the sibling
        # of a parallel plan, only what it declares.
        net.plans.append(InheritancePlan(heir="B", sources=(("A", weakened),)))
        net.plans.append(InheritancePlan(heir="C", sources=(("B", Selection(
            SelectionMode.LISTED, (("p", DEGREE_ONE), ("b", DEGREE_ONE))
        )), ("A", Selection()))))
        net.plans.append(InheritancePlan(heir="C", sources=(("A", Selection()), ("B", listed)), chain=False))
        findings = [(v.entity, v.rule, v.message) for v in validate_network(net) if v.severity == "error"]
        assert findings == [
            ("B inherits A (p/0.5, r/1)", "plan-unoffered-member", "selection names 'r', which 'A' does not offer"),
            ("C inherits A, B (q)", "plan-unoffered-member", "selection names 'q', which 'B' does not offer"),
        ]


class TestValidateEdit:
    def _net(self) -> Network:
        net = Network()
        net.classes["C"] = _hom("C", prop("p", ValueType.INT, 1, "C"))
        net.classes["D"] = _hom("D", prop("q", ValueType.INT, 1, "D"))
        net.classes["E"] = HomClass("E")
        net.objects["c1"] = ObjectInstance("c1", "C", (("p", "x"),))
        net.objects["d1"] = ObjectInstance("d1", "D", (("q", "y"),))
        net.objects["c2"] = ObjectInstance("c2", "C", (("z", 1),))
        net.relations.append(Relation(RelationKind.AGGREGATION, "C", "ZZ"))
        return net

    def test_a_class_covers_itself_and_its_objects(self):
        net = self._net()
        assert [(v.entity, v.rule) for v in validate_edit(net, "C")] == [
            ("c1", "override-type"), ("c2", "unknown-override"),
        ]
        assert [(v.entity, v.rule) for v in validate_edit(net, "E")] == [
            ("E", "empty-class"),
        ]

    def test_an_object_covers_itself_only(self):
        net = self._net()
        assert [(v.entity, v.rule) for v in validate_edit(net, "d1")] == [
            ("d1", "override-type"),
        ]

    def test_the_rules_are_the_whole_networks(self):
        net = self._net()
        whole = validate_network(net)
        for name in ("C", "D", "E", "c1", "c2", "d1"):
            assert all(v in whole for v in validate_edit(net, name))
        covered = {v for name in ("C", "D", "E") for v in validate_edit(net, name)}
        # only the relation's finding lies outside every class edit's scope
        assert [v.rule for v in whole if v not in covered] == ["dangling-endpoint"]


# ---------------------------------------------------------------------------
# Fuzziness
# ---------------------------------------------------------------------------


class TestFuzziness:
    def test_weak_member_makes_class_fuzzy(self):
        cls = HomClass(
            "A",
            spec=MemberSet(
                [DegreedMember(prop("p", ValueType.INT, 1, "A"), as_degree("1/2"))]
            ),
        )
        assert class_is_fuzzy(cls)

    def test_genuinely_fuzzy_value_makes_class_fuzzy(self):
        fuzzy = FuzzySet((("tall", Fraction(7, 10)),))
        cls = _hom("A", prop("p", ValueType.FUZZY, fuzzy, "A"))
        assert class_is_fuzzy(cls)

    def test_crisp_fuzzy_typed_value_does_not(self):
        crisp = FuzzySet((("tall", Fraction(1)),))
        cls = _hom("A", prop("p", ValueType.FUZZY, crisp, "A"))
        assert not class_is_fuzzy(cls)

    def test_a_heterogeneous_class_is_fuzzy_by_its_core_or_projections(self):
        crisp = DegreedMember(prop("p", ValueType.INT, 1, "A"))
        weak = DegreedMember(prop("p", ValueType.INT, 1, "A"), as_degree("1/2"))
        fuzzy = DegreedMember(
            prop("q", ValueType.FUZZY, FuzzySet((("tall", Fraction(7, 10)),)), "A")
        )

        def het(core, *shares):
            projections = tuple(
                Projection(f"L{at}", MemberSet(share)) for at, share in enumerate(shares)
            )
            return HetClass("H", MemberSet(core), projections)

        assert not class_is_fuzzy(het([]))
        assert not class_is_fuzzy(het([crisp], [method("f", "A")]))
        assert class_is_fuzzy(het([], [crisp], [weak]))
        assert class_is_fuzzy(het([fuzzy]))
        assert class_is_fuzzy(het([crisp], [fuzzy]))

    def test_degreed_relation_makes_network_fuzzy(self):
        net = Network()
        net.classes["C"] = _hom("C", prop("p", ValueType.INT, 1, "C"))
        net.objects["a"] = ObjectInstance("a", "C")
        net.objects["b"] = ObjectInstance("b", "C")
        assert not is_fuzzy(net)
        net.relations.append(
            Relation(RelationKind.ASSOCIATION, "a", "b", "knows", as_degree("0.7"))
        )
        assert is_fuzzy(net)

    def test_fuzzy_object_override(self):
        net = Network()
        crisp = FuzzySet((("tall", Fraction(1)),))
        net.classes["C"] = _hom("C", prop("build", ValueType.FUZZY, crisp, "C"))
        net.objects["o"] = ObjectInstance(
            "o", "C", (("build", FuzzySet((("tall", Fraction(7, 10)),))),)
        )
        assert is_fuzzy(net)


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


class TestMaterialize:
    def test_homogeneous_class(self):
        net = Network()
        net.classes["A"] = _hom("A", prop("p", ValueType.INT, 1, "A"))
        assert names(materialize(net, "A")) == ["p"]

    def test_object_overrides_rebind_owner(self):
        net = Network()
        net.classes["C"] = _hom(
            "C",
            prop("p", ValueType.INT, 1, "C"),
            prop("q", ValueType.INT, 2, "C"),
        )
        net.objects["o"] = ObjectInstance("o", "C", (("p", 9),))
        members = materialize(net, "o")
        replaced = members.get("o", "p")
        untouched = members.get("C", "q")
        assert replaced is not None and replaced.member.value == 9
        assert untouched is not None and untouched.member.value == 2

    def test_unknown_name(self):
        with pytest.raises(UnknownEntityError):
            materialize(Network(), "zz")

    def test_participant_routed_through_extra(self):
        net = Network()
        net.classes["A"] = _hom("A", prop("p", ValueType.INT, 1, "A"))
        het = HetClass(
            "H",
            core=MemberSet([prop("p", ValueType.INT, 1, "A")]),
            participants={"A": ()},
        )
        assert names(materialize(net, "A", extra=[het])) == ["p"]

    def test_two_hosts_is_ambiguous(self):
        net = Network()
        host = lambda name: HetClass(  # noqa: E731 - tiny local factory
            name,
            core=MemberSet([prop("p", ValueType.INT, 1, "A")]),
            participants={"A": ()},
        )
        with pytest.raises(UnknownEntityError):
            materialize(net, "A", extra=[host("H1"), host("H2")])

    def test_a_host_in_a_plain_dict_passed_to_the_network_is_found(self):
        het = HetClass(
            "H", core=MemberSet([prop("q", ValueType.INT, 2, "H")]), participants={"A": ()}
        )
        net = Network(classes={"A": _hom("A", prop("p", ValueType.INT, 1, "A")), "H": het})
        assert names(materialize(net, "A")) == ["q"]
        assert net.classes.heterogeneous == {"H"}
        net.classes = {"H": het}
        assert names(materialize(net, "A")) == ["q"]

    def test_a_class_table_passed_to_the_network_is_shared(self):
        table = ClassTable()
        net = Network(classes=table)
        assert net.classes is table
