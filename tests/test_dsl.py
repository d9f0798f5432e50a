from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import DATA
from oodn.dsl import (
    ParseError,
    StructuredImportError,
    export_graph,
    export_structured,
    import_structured,
    json_text,
    parse_network,
    serialize,
    serialize_hetclass,
    serialize_homclass,
    serialize_plan,
)
from oodn.inheritance import SelectionMode, inherit
from oodn.model import (
    DEGREE_ONE,
    FuzzySet,
    HetClass,
    OodnError,
    RelationKind,
    ValueType,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def first_prop(net, cls="A", name="p"):
    entry = net.classes[cls].members().get(cls, name)
    assert entry is not None
    return entry


def parse_one(member_line: str):
    return parse_network(f"class A {{ {member_line} }}")


# ---------------------------------------------------------------------------
# Values versus degrees at the lexical level
# ---------------------------------------------------------------------------


class TestValueAndDegreeLexing:
    def test_ratio_is_a_value_when_in_value_position(self):
        net = parse_one("prop p: real = 1/2;")
        entry = first_prop(net)
        assert entry.member.value == Fraction(1, 2)
        assert entry.degree == DEGREE_ONE

    def test_slash_after_value_starts_a_degree(self):
        net = parse_one("prop p: int = 1 /0.5;")
        entry = first_prop(net)
        assert entry.member.value == 1
        assert entry.degree.value == Fraction(1, 2)

    def test_ratio_value_with_ratio_degree(self):
        net = parse_one("prop p: real = 1/2 /1/3;")
        entry = first_prop(net)
        assert entry.member.value == Fraction(1, 2)
        assert entry.degree.value == Fraction(1, 3)

    def test_decimal_real_is_exact(self):
        net = parse_one("prop p: real = 0.25;")
        assert first_prop(net).member.value == Fraction(1, 4)

    def test_negative_ratio_value(self):
        net = parse_one("prop p: real = -3/2;")
        assert first_prop(net).member.value == Fraction(-3, 2)

    def test_comments_are_ignored(self):
        net = parse_network(
            "// leading note\nclass A { prop p: int = 1; // trailing\n}"
        )
        assert first_prop(net).member.value == 1

    def test_string_escapes(self):
        net = parse_one(r'prop p: text = "a\"b\\c\nd";')
        assert first_prop(net).member.value == 'a"b\\c\nd'


# ---------------------------------------------------------------------------
# Class bodies
# ---------------------------------------------------------------------------


class TestClassParsing:
    def test_empty_class(self):
        net = parse_network("class A { }")
        assert len(net.classes["A"].members()) == 0

    def test_default_owner_is_the_class(self):
        net = parse_one("prop p: int = 1;")
        assert first_prop(net).member.owner == "A"

    def test_qualified_owner(self):
        net = parse_one("prop Other.p: int = 1;")
        entry = net.classes["A"].members().get("Other", "p")
        assert entry is not None and entry.member.owner == "Other"

    def test_method_with_params_and_return(self):
        net = parse_one("method f(x: int, y: text) -> bool;")
        entry = net.classes["A"].members().get("A", "f")
        assert entry.member.params == (("x", ValueType.INT), ("y", ValueType.TEXT))
        assert entry.member.returns == ValueType.BOOL

    def test_method_degree_suffix(self):
        net = parse_one("method f() /0.5;")
        entry = net.classes["A"].members().get("A", "f")
        assert entry.degree.value == Fraction(1, 2)

    def test_fuzzy_value(self):
        net = parse_one("prop p: fuzzy = {tall: 1, short: 0.3};")
        value = first_prop(net).member.value
        assert isinstance(value, FuzzySet)
        assert dict(value.entries) == {
            "tall": Fraction(1),
            "short": Fraction(3, 10),
        }

    def test_bool_values(self):
        net = parse_network(
            "class A { prop p: bool = true; prop q: bool = false; }"
        )
        assert first_prop(net).member.value is True
        assert net.classes["A"].members().get("A", "q").member.value is False


# ---------------------------------------------------------------------------
# Objects and relations
# ---------------------------------------------------------------------------


class TestObjectParsing:
    def test_empty_object(self):
        net = parse_network("class A { } object a : A { }")
        assert net.objects["a"].class_ref == "A"
        assert net.objects["a"].member_values == ()

    def test_typed_overrides(self):
        net = parse_network(
            'class A { prop n: int = 1; prop t: text = "x"; }\n'
            'object a : A { n = 2; t = "y"; }'
        )
        assert net.objects["a"].values() == {"n": 2, "t": "y"}

    def test_fuzzy_override(self):
        net = parse_network(
            "class A { prop build: fuzzy = {tall: 1}; }\n"
            "object a : A { build = {tall: 0.7, short: 0.3}; }"
        )
        value = net.objects["a"].values()["build"]
        assert isinstance(value, FuzzySet) and value.genuinely_fuzzy

    def test_whole_number_rational_override_keeps_its_type(self):
        # a bare "2" would reparse as an integer and then fail the declared
        # real type, so serialization must keep a decimal point on it
        net = parse_network(
            "class A { prop r: real = 1/2; } object a : A { r = 2/1; }"
        )
        reparsed = parse_network(serialize(net))
        value = reparsed.objects["a"].values()["r"]
        assert isinstance(value, Fraction) and value == 2


class TestRelationParsing:
    def test_plain_kinds_take_no_label(self):
        net = parse_network(
            "class A { } class B { } object a : A { }\n"
            "relation generalization B -> A;\n"
            "relation instance_of a -> A;\n"
            "relation aggregation B -> A;"
        )
        kinds = [r.kind for r in net.relations]
        assert kinds == [
            RelationKind.GENERALIZATION,
            RelationKind.INSTANCE_OF,
            RelationKind.AGGREGATION,
        ]
        assert all(r.label is None for r in net.relations)

    def test_association_carries_label_and_degree(self):
        net = parse_network(
            "class P { } object a : P { } object b : P { }\n"
            "relation association knows a -> b /0.7;"
        )
        rel = net.relations[0]
        assert rel.kind is RelationKind.ASSOCIATION
        assert rel.label == "knows"
        assert rel.degree is not None and rel.degree.value == Fraction(7, 10)

    def test_full_degree_normalizes_to_crisp(self):
        net = parse_network(
            "class P { } object a : P { } object b : P { }\n"
            "relation association knows a -> b /1;"
        )
        assert net.relations[0].degree is None


# ---------------------------------------------------------------------------
# Plans and selections
# ---------------------------------------------------------------------------


class TestPlanParsing:
    def chain_text(self) -> str:
        return (
            "class A1 { prop p1: int = 1; }\n"
            "class A2 { prop p2: int = 2; }\n"
            "class A3 { prop p3: int = 3; }\n"
        )

    def test_chain_sources_are_nearest_first(self):
        net = parse_network(self.chain_text() + "A3 inherits A2 inherits A1;")
        plan = net.plans[0]
        assert plan.chain is True
        assert plan.heir == "A3"
        assert [s for s, _ in plan.sources] == ["A2", "A1"]

    def test_parallel_plan(self):
        net = parse_network(self.chain_text() + "A3 inherits A1, A2;")
        plan = net.plans[0]
        assert plan.chain is False
        assert [s for s, _ in plan.sources] == ["A1", "A2"]

    @pytest.mark.parametrize(
        "selection_text, mode, entries",
        [
            ("(p1/0.5)", SelectionMode.ALL, [("p1", Fraction(1, 2))]),
            (
                "(p1, f1)",
                SelectionMode.LISTED,
                [("p1", Fraction(1)), ("f1", Fraction(1))],
            ),
            (
                "(p1/0.5, f1)",
                SelectionMode.LISTED,
                [("p1", Fraction(1, 2)), ("f1", Fraction(1))],
            ),
            ("(only p1/0.5)", SelectionMode.LISTED, [("p1", Fraction(1, 2))]),
        ],
    )
    def test_selection_shapes(self, selection_text, mode, entries):
        net = parse_network(
            self.chain_text() + f"A2 inherits A1 {selection_text};"
        )
        selection = net.plans[0].sources[0][1]
        assert selection.mode is mode
        assert [
            (name, degree.value) for name, degree in selection.entries
        ] == entries

    def test_mixing_chain_and_parallel_is_rejected(self):
        with pytest.raises(ParseError):
            parse_network(self.chain_text() + "A3 inherits A2, A1 inherits A0;")


# ---------------------------------------------------------------------------
# Parse errors carry positions
# ---------------------------------------------------------------------------


class TestParseErrors:
    def test_wrong_value_type(self):
        with pytest.raises(ParseError) as info:
            parse_network('class A { prop p: int = "x"; }')
        assert info.value.line == 1
        assert info.value.column == 25
        assert "expected an integer" in str(info.value)

    def test_missing_colon(self):
        with pytest.raises(ParseError) as info:
            parse_network("class A { prop p int = 1; }")
        assert "expected ':'" in str(info.value)

    def test_unknown_top_level_form(self):
        with pytest.raises(ParseError):
            parse_network("frobnicate A;")

    def test_unterminated_string(self):
        with pytest.raises(ParseError) as info:
            parse_network('class A { prop p: text = "open\n; }')
        assert "unexpected character" in str(info.value)

    def test_position_tracks_lines(self):
        with pytest.raises(ParseError) as info:
            parse_network("class A {\n  prop p int = 1;\n}")
        assert info.value.line == 2

    def test_degree_zero_is_rejected(self):
        with pytest.raises((ParseError, Exception)):
            parse_network("class A { prop p: int = 1 /0; }")

    @pytest.mark.parametrize(
        "member_line, column",
        [
            ("prop p: real = 1/0;", 26),  # value
            ("prop p: int = 1 /1/0;", 28),  # degree
            ("prop p: fuzzy = {a: 1/0};", 31),  # fuzzy membership
            ("prop p: fuzzy = {1/0: 1};", 28),  # fuzzy element
        ],
    )
    def test_zero_denominator_is_a_parse_error(self, member_line, column):
        with pytest.raises(ParseError) as info:
            parse_one(member_line)
        assert info.value.column == column
        assert str(info.value).endswith("zero denominator in '1/0'")

    def test_zero_denominator_in_object_override(self):
        with pytest.raises(ParseError) as info:
            parse_network("class A { prop p: real = 1; } object o : A { p = 3/0; }")
        assert str(info.value).endswith("zero denominator in '3/0'")


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------


FIXTURES = [
    "chain.oodn",
    "parallel.oodn",
    "partial_take.oodn",
    "weak_take.oodn",
    "octants.oodn",
    "pathology_penguin.oodn",
    "pathology_nixon.oodn",
    "pathology_both.oodn",
    "redundancy_chain.oodn",
    "redundancy_deep_chain.oodn",
    "fuzzy_object.oodn",
    "fuzzy_weak_member.oodn",
    "fuzzy_relation.oodn",
    "crisp.oodn",
    "values.oodn",
]


def inheriting_plans() -> list[tuple[str, int]]:
    """(fixture, plan index) of every fixture plan that inherits."""
    cases = []
    for path in sorted(DATA.glob("*.oodn")):
        net = parse_network(path.read_text())
        for index, plan in enumerate(net.plans):
            try:
                inherit(plan, net)
            except OodnError:
                continue
            cases.append((path.name, index))
    return cases


INHERITING_PLANS = inheriting_plans()


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_parse_serialize_reparse_is_stable(self, fixture, fixture_path):
        text = fixture_path(fixture).read_text()
        net = parse_network(text)
        canonical = serialize(net)
        reparsed = parse_network(canonical)
        assert reparsed == net
        assert serialize(reparsed) == canonical  # idempotent after one pass

    def test_weak_only_listed_selection_survives(self):
        # a LISTED selection whose every entry is weak must not come back ALL
        text = (
            "class A1 { prop p1: int = 1; prop p2: int = 2; }\n"
            "class A2 { prop q: int = 3; }\n"
            "A2 inherits A1 (only p1/0.5);"
        )
        net = parse_network(text)
        assert net.plans[0].sources[0][1].mode is SelectionMode.LISTED
        reparsed = parse_network(serialize(net))
        assert reparsed.plans[0].sources[0][1].mode is SelectionMode.LISTED

    def test_homclass_block_matches_fixture_style(self):
        net = parse_network('class A { prop p: text = "x"; method f(); }')
        assert serialize_homclass(net.classes["A"]) == (
            "class A {\n"
            '  prop p: text = "x";\n'
            "  method f();\n"
            "}"
        )

    def test_plan_line(self):
        net = parse_network(
            "class A1 { prop p1: int = 1; }\n"
            "class A2 { prop p2: int = 2; }\n"
            "A2 inherits A1 (p1/0.5);"
        )
        assert serialize_plan(net.plans[0]) == "A2 inherits A1 (p1/0.5);"

    @pytest.mark.parametrize("fixture, index", INHERITING_PLANS)
    def test_hetclass_round_trip(self, fixture, index, fixture_path):
        net = parse_network(fixture_path(fixture).read_text())
        het = inherit(net.plans[index], net)
        block = serialize_hetclass(het)
        reparsed = parse_network(block)
        rebuilt = reparsed.classes[het.name]
        assert isinstance(rebuilt, HetClass)
        assert rebuilt == het
        assert serialize(reparsed) == block + "\n"


# ---------------------------------------------------------------------------
# Structured (JSON) interchange
# ---------------------------------------------------------------------------


class TestStructured:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_export_import_round_trip(self, fixture, fixture_path):
        net = parse_network(fixture_path(fixture).read_text())
        doc = export_structured(net)
        rebuilt = import_structured(doc)
        assert serialize(rebuilt) == serialize(net)

    def test_document_shape(self, fixture_path):
        net = parse_network(fixture_path("weak_take.oodn").read_text())
        doc = json.loads(export_structured(net))
        assert sorted(doc) == [
            "classes",
            "exploiters",
            "modifiers",
            "objects",
            "plans",
            "relations",
        ]
        assert doc["exploiters"] == sorted(doc["exploiters"])
        plan = doc["plans"][0]
        assert plan["heir"] == "A2"
        assert plan["sources"][0]["selection"]["mode"] == "all"
        assert plan["sources"][0]["selection"]["entries"] == [
            {"name": "p1", "degree": "0.5"}
        ]

    def test_degrees_survive_exactly(self):
        net = parse_network(
            "class A { prop p: real = 1/3 /1/7; }"
        )
        rebuilt = import_structured(export_structured(net))
        entry = rebuilt.classes["A"].members().get("A", "p")
        assert entry.member.value == Fraction(1, 3)
        assert entry.degree.value == Fraction(1, 7)


class TestJsonText:
    @pytest.mark.parametrize(
        "document",
        [
            [],
            {},
            "",
            None,
            True,
            -(10**30),
            [[], {}, [[]], {"": {}}],
            {"a": [True, False, None, 0, -7], "b": {"c": "d"}, "é": 'q"\\\n\u2028\U0001f600'},
            [{"sig": [], "core": [], "depends_on": []}, [1, [2, [3]]]],
        ],
    )
    def test_matches_indented_stdlib_json(self, document):
        assert json_text(document) == json.dumps(document, indent=2)

    @pytest.mark.parametrize("value", [0.5, Fraction(1, 2), (1, 2), {1: "a"}])
    def test_rejects_what_oodn_never_emits(self, value):
        with pytest.raises(TypeError):
            json_text([value])



class TestStructuredImportErrors:
    """Malformed documents fail with a typed error, never a bare one."""

    def document(self) -> dict:
        net = parse_network(
            "class A { prop r: real = 1/2 /0.5; prop s: fuzzy = {x: 0.5}; }"
        )
        return json.loads(export_structured(net))

    def members(self, doc: dict) -> list[dict]:
        return doc["classes"][0]["spec"]

    def rejects(self, doc: dict) -> StructuredImportError:
        with pytest.raises(StructuredImportError) as info:
            import_structured(json.dumps(doc))
        return info.value

    def test_zero_denominator_value(self):
        doc = self.document()
        self.members(doc)[0]["value"] = "1/0"
        assert "'1/0' is not a ratio" in str(self.rejects(doc))

    def test_zero_denominator_degree(self):
        doc = self.document()
        self.members(doc)[0]["degree"] = "1/0"
        self.rejects(doc)

    def test_zero_denominator_fuzzy_membership(self):
        doc = self.document()
        self.members(doc)[1]["value"][0]["membership"] = "1/0"
        self.rejects(doc)

    def test_missing_spec(self):
        doc = self.document()
        del doc["classes"][0]["spec"]
        assert "'spec'" in str(self.rejects(doc))

    def test_int_given_for_a_real(self):
        doc = self.document()
        self.members(doc)[0]["value"] = 5
        assert "not a real value" in str(self.rejects(doc))

    def test_not_json(self):
        with pytest.raises(StructuredImportError):
            import_structured("{")

    @pytest.mark.parametrize(
        "kind, element", [("text", 5), ("bogus", "7"), ("int", True), ("int", 2.5)]
    )
    def test_mistyped_fuzzy_element(self, kind, element):
        net = parse_network("class A { prop f: fuzzy = {a: 1}; }")
        doc = json.loads(export_structured(net))
        item = self.members(doc)[0]["value"][0]
        item["element_kind"], item["element"] = kind, element
        self.rejects(doc)

    # Each edit breaks a model or plan invariant that construction checks.
    BROKEN_INVARIANTS = {
        "degree above 1": (
            lambda doc: doc["classes"][0]["spec"][1].update(degree="3/2"),
            "degree must lie in (0, 1], got 3/2",
        ),
        "membership above 1": (
            lambda doc: doc["classes"][0]["spec"][0]["value"][0].update(membership="2"),
            "fuzzy membership must lie in [0, 1], got 2",
        ),
        "fuzzy element twice": (
            lambda doc: (items := doc["classes"][0]["spec"][0]["value"]).append(items[0]),
            "duplicate fuzzy element 'a'",
        ),
        "member twice": (
            lambda doc: (items := doc["classes"][0]["spec"]).append(items[0]),
            "duplicate member 'f' owned by 'A' in one member set",
        ),
        "plan source twice": (
            lambda doc: (items := doc["plans"][0]["sources"]).append(items[0]),
            "an inheritance plan names a source twice",
        ),
        "heir as its own source": (
            lambda doc: doc["plans"][0]["sources"][0].update({"class": "B"}),
            "heir 'B' cannot be its own source",
        ),
        "class twice": (
            lambda doc: (items := doc["classes"]).append(items[0]),
            "class 'A' declared twice",
        ),
        "object named like a class": (
            lambda doc: doc["objects"].append({"name": "B", "class": "A", "values": []}),
            "'B' already names a class",
        ),
        "selection naming a member twice": (
            lambda doc: doc["plans"][0]["sources"][0]["selection"].update(
                entries=[{"name": "f", "degree": "1"}] * 2
            ),
            "selection names a member twice",
        ),
        # ``serialize`` writes these names bare, so each must read back as
        # one identifier, and a class that may be an heir must not be a
        # keyword: the text would not parse back.
        "class name with a space": (
            lambda doc: doc["classes"][1].update(name="a b"),
            "'a b' is not an identifier",
        ),
        "keyword as a class name": (
            lambda doc: doc["classes"][1].update(name="class"),
            "'class' cannot name a class",
        ),
        "non-ASCII member name": (
            lambda doc: doc["classes"][0]["spec"][0].update(name="\u00e9t\u00e9"),
            "'\u00e9t\u00e9' is not an identifier",
        ),
        "empty member owner": (
            lambda doc: doc["classes"][0]["spec"][1].update(owner=""),
            "'' is not an identifier",
        ),
        "parameter name with a space": (
            lambda doc: doc["classes"][0]["sig"][0]["params"][0].update(name="x y"),
            "'x y' is not an identifier",
        ),
        "participant starting with a digit": (
            lambda doc: doc["classes"][2].update(participants={"1A": []}),
            "'1A' is not an identifier",
        ),
        "object name with a dash": (
            lambda doc: doc["objects"][0].update(name="o-1"),
            "'o-1' is not an identifier",
        ),
        "object class with a space": (
            lambda doc: doc["objects"][0].update({"class": "A B"}),
            "'A B' is not an identifier",
        ),
        "override name with a mark": (
            lambda doc: doc["objects"][0]["values"][0].update(name="r!"),
            "'r!' is not an identifier",
        ),
        "relation source with a space": (
            lambda doc: doc["relations"][0].update(source="o o"),
            "'o o' is not an identifier",
        ),
        "relation target with a dot": (
            lambda doc: doc["relations"][0].update(target="A.f"),
            "'A.f' is not an identifier",
        ),
        "relation label with a space": (
            lambda doc: doc["relations"][0].update(label="owns all"),
            "'owns all' is not an identifier",
        ),
        "heir with a space": (
            lambda doc: doc["plans"][0].update(heir="B C"),
            "'B C' is not an identifier",
        ),
        "keyword as an heir": (
            lambda doc: doc["plans"][0].update(heir="object"),
            "'object' cannot name a class",
        ),
        "plan source with a quote": (
            lambda doc: doc["plans"][0]["sources"][0].update({"class": 'A"'}),
            "'A\"' is not an identifier",
        ),
        "selection entry with a space": (
            lambda doc: doc["plans"][0]["sources"][0]["selection"].update(
                entries=[{"name": "f r", "degree": "1"}]
            ),
            "'f r' is not an identifier",
        ),
    }

    NETWORK = (
        "class A { prop f: fuzzy = {a: 1}; prop r: real = 1/2 /0.5; method m(x: int); }\n"
        "class B { }\n"
        "hetclass H { core { } participant A -> core; }\n"
        "object o : A { r = 1/4; }\n"
        "relation association owns o -> A;\n"
        "B inherits A;\n"
    )

    @pytest.mark.parametrize("case", sorted(BROKEN_INVARIANTS))
    def test_broken_invariant_is_a_typed_error(self, case):
        doc = json.loads(export_structured(parse_network(self.NETWORK)))
        edit, message = self.BROKEN_INVARIANTS[case]
        edit(doc)
        assert str(self.rejects(doc)) == message

    def test_keyword_names_a_heterogeneous_class(self):
        # As in the text format, where no plan can start with it.
        doc = json.loads(export_structured(parse_network(self.NETWORK)))
        doc["classes"][2]["name"] = "object"
        net = import_structured(json.dumps(doc))
        assert parse_network(serialize(net)) == net

    def test_type_checks_survive_optimized_mode(self):
        # A mistyped value and a name that is no identifier: neither check
        # may be an assert, which ``-O`` strips.
        mistyped, misnamed = self.document(), self.document()
        self.members(mistyped)[0]["value"] = 5
        self.members(misnamed)[0]["name"] = "x y"
        script = (
            "import json, sys\n"
            "from oodn.dsl import StructuredImportError, import_structured\n"
            "for doc in json.load(sys.stdin):\n"
            "    try:\n"
            "        import_structured(json.dumps(doc))\n"
            "    except StructuredImportError:\n"
            "        continue\n"
            "    sys.exit(1)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            input=json.dumps([mistyped, misnamed]),
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert done.returncode == 0


# ---------------------------------------------------------------------------
# Graph rendering
# ---------------------------------------------------------------------------


class TestGraph:
    def test_deterministic(self, fixture_path):
        net = parse_network(fixture_path("chain.oodn").read_text())
        assert export_graph(net) == export_graph(net)

    def test_plan_edges_carry_shape_labels(self, fixture_path):
        net = parse_network(fixture_path("weak_take.oodn").read_text())
        dot = export_graph(net)
        assert dot.startswith("digraph knowledge {")
        assert '"A2" -> "A1" [label="single/full/weak (p1/0.5)", style=bold];' in dot

    def test_objects_and_associations_render(self, fixture_path):
        net = parse_network(fixture_path("fuzzy_relation.oodn").read_text())
        dot = export_graph(net)
        assert '"ann" [shape=ellipse];' in dot
        assert "style=dashed" in dot  # associations are dashed
        assert "0.7" in dot  # the degree is visible

    def test_heterogeneous_nodes_are_doubled(self, fixture_path):
        net = parse_network(fixture_path("weak_take.oodn").read_text())
        het = inherit(net.plans[0], net)
        net.classes[het.name] = het
        net.plans.clear()
        dot = export_graph(net)
        assert "peripheries=2" in dot
