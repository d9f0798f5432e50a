"""Text format for knowledge networks: parser, serializer, exporters.

The surface syntax covers the whole model:

    // comment
    class A1 {
      prop p1: int = 1;
      prop p2: real = 1/2 /0.5;          // value 1/2, held at degree 0.5
      method f2(x: int, y: real) -> bool;
    }

    object o1 : A1 { p1 = 3; }

    relation generalization A2 -> A1;
    relation association owns o1 -> o2 /0.7;

    A3 inherits A2 inherits A1;          // chain, nearest ancestor first
    A3 inherits A1 (p1, f1), A2;         // parallel sources
    A2 inherits A1 (p1/0.5);             // take all, p1 weakened to 0.5
    A2 inherits A1 (only p1/0.5);        // take nothing but p1, weakly

    hetclass H {
      core { prop A1.p1: int = 1; }
      projection "A2" depends ("A1") { ... }
      participant A2 -> "A2";
      participant A1 -> core;
    }

A parenthesized selection is read by one rule: if every item carries a
degree it weakens those members while still taking everything, otherwise
it lists exactly the members to take; the ``only`` marker forces the
listing reading when every listed member also happens to be weakened.

Serialization is canonical: parse → serialize → parse is the identity on
the model, and equal networks serialize to byte-identical text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, TypeVar

from .inheritance import (
    InheritancePlan,
    Selection,
    SelectionMode,
    classify_plan,
)
from .model import (
    DEGREE_ONE,
    Degree,
    DegreedMember,
    FuzzySet,
    HetClass,
    HomClass,
    IDENTIFIER,
    MemberSet,
    Network,
    ObjectInstance,
    OodnError,
    Projection,
    Relation,
    RelationKind,
    StructuredImportError,
    Value,
    ValueType,
    as_degree,
    decode_rational,
    decode_value,
    format_rational,
    format_untyped,
    member_text,
    method,
    prop,
    quote_text,
    untyped_type,
)
from .operations import make_network


T = TypeVar("T")


class ParseError(OodnError):
    """Ill-formed source text; carries the 1-based position of the problem."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


# The one token definition.  Whitespace and comments match outside the group,
# so ``findall`` gives "" for them; every other match gives its token's text.
# Branches that can start with the same character keep their order (a comment
# before ``/``, an arrow before a negative number, a ratio before a decimal
# before an integer); the commonest tokens come first, and the last branch
# takes a character no other branch accepts.  Braces double in this f-string.
_TOKEN_RE = re.compile(
    rf"""
    \s+
  | //[^\n]*
  | ( {IDENTIFIER.pattern}      # identifier
    | [{{}}():;,=./]            # punctuation
    | ->
    | -?[0-9]+/[0-9]+(?![.0-9]) # ratio
    | -?[0-9]+\.[0-9]+          # decimal
    | -?[0-9]+                  # integer
    | "(?:[^"\\\n]|\\.)*"       # string
    | .                         # a bad character
    )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")
# The characters an identifier starts with: the one-letter identifiers.
_IDENT_START = frozenset(filter(IDENTIFIER.fullmatch, map(chr, range(128))))
_PUNCTUATION = frozenset("{}():;,=./")
_SINGLES = _IDENT_START | _PUNCTUATION | frozenset("0123456789")
_NUMBER_KINDS = ("INT", "DECIMAL", "RATIO")


def _kind(token: str) -> str:
    """The kind of a token, told from its text; "" is the end of input.

    An identifier starts with an ASCII letter or ``_``, a string with ``"``,
    and a number with a digit or ``-``; the separator a number holds tells
    a ratio from a decimal.
    """
    first = token[:1]
    if first in _IDENT_START:
        return "IDENT"
    if first == '"':
        return "STRING"
    if token == "->":
        return "ARROW"
    if first in _PUNCTUATION:
        return "PUNCT"
    if not token:
        return "EOF"
    if "/" in token:
        return "RATIO"
    return "DECIMAL" if "." in token else "INT"


def _is_bad(token: str) -> bool:
    """Whether ``token`` is a character that starts no token.

    Only the last branch of the token definition gives a lone character
    other than an ASCII letter, ``_``, a punctuation mark or an ASCII digit;
    any other script's digit is such a character."""
    return len(token) == 1 and token not in _SINGLES


def _position(text: str, index: int) -> tuple[int, int]:
    """1-based line and column where token number ``index`` of ``text``
    starts; an index past the last token is the end of the text.

    Tokens carry no offsets, so an error finds its token's offset by
    scanning again up to that token."""
    starts = (m.start(1) for m in _TOKEN_RE.finditer(text) if m.lastindex)
    offset = next(islice(starts, index, None), len(text))
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokenize(text: str) -> list[str]:
    """The text of every token of ``text``, ending in "" for end of input."""
    tokens = list(filter(None, _TOKEN_RE.findall(text)))
    if any(map(_is_bad, set(tokens))):
        index = next(i for i, token in enumerate(tokens) if _is_bad(token))
        raise ParseError(
            f"unexpected character {tokens[index]!r}", *_position(text, index)
        )
    tokens.append("")
    return tokens


def _unescape(raw: str) -> str:
    return _ESCAPE_RE.sub(lambda m: "\n" if m[1] == "n" else m[1], raw[1:-1])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_VALUE_TYPES = {t.value: t for t in ValueType}
_RELATION_KINDS = {k.value: k for k in RelationKind}
# The type a literal names: ``true``, ``false`` and ``{`` by their text,
# every other literal by its token kind.  The two are looked up apart, so an
# identifier spelled like a kind, such as ``INT``, names no type.
_LITERAL_TEXTS = {"true": ValueType.BOOL, "false": ValueType.BOOL, "{": ValueType.FUZZY}
_LITERAL_KINDS = {
    "INT": ValueType.INT,
    "DECIMAL": ValueType.REAL,
    "RATIO": ValueType.REAL,
    "STRING": ValueType.TEXT,
}


def _check_new_name(net: Network, kind: str, name: str) -> None:
    """Refuse a class or object (``kind``) named ``name`` when the network
    already has one by that name: a name stands for one class or object."""
    same, other, other_kind = (
        (net.classes, net.objects, "an object")
        if kind == "class"
        else (net.objects, net.classes, "a class")
    )
    if name in same:
        raise OodnError(f"{kind} {name!r} declared twice")
    if name in other:
        raise OodnError(f"{name!r} already names {other_kind}")


class _Parser:
    """Recursive descent over the token texts.

    A punctuation mark, an arrow or a keyword is told apart by its text
    alone, since no other kind of token can have that text.  A token is
    named by its index in the list, which an error turns into a line and
    column.  Nothing reads past the end-of-input token: only a token
    already checked is consumed.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A parse error at token number ``at``, by default the next one."""
        return ParseError(message, *_position(self.text, self.pos if at is None else at))

    def _expected(self, wanted: str) -> ParseError:
        """A parse error at the next token: ``wanted`` was expected, and the
        token is shown as found, the end of input by name."""
        shown = self.tokens[self.pos] or "end of input"
        return self.fail(f"expected {wanted}, found {shown!r}")

    def expect(self, text: str, name: str | None = None) -> None:
        """Consume the punctuation mark, arrow or keyword ``text``; an error
        calls it ``name``, by default ``text`` itself."""
        if self.tokens[self.pos] != text:
            raise self._expected(repr(name or text))
        self.pos += 1

    def ident(self) -> str:
        """Consume an identifier and return it."""
        token = self.tokens[self.pos]
        if token[:1] not in _IDENT_START:
            raise self._expected("'ident'")
        self.pos += 1
        return token

    def string(self) -> str:
        """Consume a quoted string and return its unescaped text."""
        token = self.tokens[self.pos]
        if token[:1] != '"':
            raise self._expected("'string'")
        self.pos += 1
        return _unescape(token)

    def accept(self, text: str) -> bool:
        """Consume the punctuation mark or keyword ``text`` if it is next."""
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def build(self, at: int, make: Callable[..., T], *args: Any) -> T:
        """``make(*args)``, with a model invariant it breaks reported as a
        parse error at token number ``at``."""
        try:
            return make(*args)
        except OodnError as exc:
            raise self.fail(str(exc), at) from exc

    def separated(self, read: Callable[[], T]) -> list[T]:
        """One or more items, each consumed by ``read``, between commas."""
        items = [read()]
        while self.accept(","):
            items.append(read())
        return items

    def number(self, what: str) -> Fraction:
        """Consume the number token that is next and return its value;
        fails saying ``what`` was expected if none is."""
        token = self.tokens[self.pos]
        kind = _kind(token)
        if kind == "RATIO":
            numerator, denominator = token.split("/")
            if not int(denominator):
                raise self.fail(f"zero denominator in {token!r}")
            value = Fraction(int(numerator), int(denominator))
        elif kind in _NUMBER_KINDS:
            value = Fraction(int(token) if kind == "INT" else token)
        else:
            raise self._expected(what)
        self.pos += 1
        return value

    # -- document ----------------------------------------------------------

    def parse_network(self) -> Network:
        net = make_network()
        declarations = {
            "class": self._parse_class,
            "hetclass": self._parse_hetclass,
            "object": self._parse_object,
            "relation": self._parse_relation,
        }
        while token := self.tokens[self.pos]:
            if token[:1] not in _IDENT_START:
                raise self._expected("a declaration")
            declarations.get(token, self._parse_plan)(net)
        return net

    # -- homogeneous classes -----------------------------------------------

    def _parse_class(self, net: Network) -> None:
        self.expect("class")
        at = self.pos
        name = self.ident()
        self.build(at, _check_new_name, net, "class", name)
        entries = self._parse_members(name)
        net.classes[name] = self.build(
            at, lambda: HomClass(name, *MemberSet(entries).by_kind())
        )

    def _parse_members(self, default_owner: str) -> list[DegreedMember]:
        """A braced block of members."""
        self.expect("{")
        members = []
        while not self.accept("}"):
            members.append(self._parse_member(default_owner))
        return members

    def _parse_member(self, default_owner: str) -> DegreedMember:
        """A property or method, its owner ``default_owner`` unless named.
        Its degree and ``;`` are read before the member is built, so a
        syntax error is reported before a broken invariant."""
        keyword = self.tokens[self.pos]
        if keyword != "prop" and keyword != "method":
            raise self._expected("'prop' or 'method'")
        self.pos += 1
        at = self.pos
        owner, name = default_owner, self.ident()
        if self.accept("."):
            owner, name = name, self.ident()
        if keyword == "prop":
            self.expect(":")
            value_type = self._parse_type()
            self.expect("=")
            value = self._parse_value(value_type)
            degree = self._parse_degree() or DEGREE_ONE
            self.expect(";")
            member = self.build(at, prop, name, value_type, value, owner)
        else:
            self.expect("(")
            params: list[tuple[str, ValueType]] = []
            if not self.accept(")"):
                params = self.separated(self._parse_param)
                self.expect(")")
            returns = self._parse_type() if self.accept("->") else None
            degree = self._parse_degree() or DEGREE_ONE
            self.expect(";")
            member = self.build(at, method, name, owner, params, returns)
        return DegreedMember(member, degree)

    def _parse_param(self) -> tuple[str, ValueType]:
        pname = self.ident()
        self.expect(":")
        return pname, self._parse_type()

    def _parse_type(self) -> ValueType:
        at = self.pos
        value_type = _VALUE_TYPES.get(self.ident())
        if value_type is None:
            raise self.fail(f"unknown type {self.tokens[at]!r}", at)
        return value_type

    def _parse_degree(self) -> Degree | None:
        """The degree after a ``/``, or None when no ``/`` is next."""
        if not self.accept("/"):
            return None
        at = self.pos
        return self.build(at, as_degree, self.number("a degree"))

    # -- values --------------------------------------------------------------

    def _parse_value(self, value_type: ValueType) -> Value:
        """A value of ``value_type``, declared or named by its literal (``_LITERAL_KINDS``)."""
        token = self.tokens[self.pos]
        if value_type is ValueType.INT:
            if _kind(token) != "INT":
                raise self._expected("an integer")
            self.pos += 1
            return int(token)
        if value_type is ValueType.REAL:
            return self.number("a number")
        if value_type is ValueType.BOOL:
            if token in ("true", "false"):
                self.pos += 1
                return token == "true"
            raise self._expected("'true' or 'false'")
        if value_type is ValueType.TEXT:
            if token[:1] != '"':
                raise self._expected("a quoted string")
            return self.string()
        return self._parse_fuzzy_set()

    def _parse_fuzzy_set(self) -> FuzzySet:
        at = self.pos
        self.expect("{")
        entries: list[tuple[str | int | Fraction, Fraction]] = []
        if not self.accept("}"):
            entries = self.separated(self._parse_fuzzy_entry)
            self.expect("}")
        return self.build(at, FuzzySet, tuple(entries))

    def _parse_fuzzy_entry(self) -> tuple[str | int | Fraction, Fraction]:
        kind = _kind(self.tokens[self.pos])
        element: Value
        if kind == "IDENT":
            element = self.ident()
        elif kind in _LITERAL_KINDS:
            element = self._parse_value(_LITERAL_KINDS[kind])
        else:
            raise self._expected("a fuzzy element")
        self.expect(":")
        return element, self.number("a membership")

    # -- objects -------------------------------------------------------------

    def _parse_object(self, net: Network) -> None:
        self.expect("object")
        at = self.pos
        name = self.ident()
        self.build(at, _check_new_name, net, "object", name)
        self.expect(":")
        class_ref = self.ident()
        overrides: list[tuple[str, Value]] = []
        self.expect("{")
        while not self.accept("}"):
            member_name = self.ident()
            self.expect("=")
            overrides.append((member_name, self._parse_value(self._literal_type())))
            self.expect(";")
        net.objects[name] = self.build(
            at, ObjectInstance, name, class_ref, tuple(overrides)
        )

    def _literal_type(self) -> ValueType:
        """The type the next literal names, for an override (see ``_LITERAL_TEXTS``)."""
        token = self.tokens[self.pos]
        value_type = _LITERAL_TEXTS.get(token) or _LITERAL_KINDS.get(_kind(token))
        if value_type is None:
            raise self._expected("a value")
        return value_type

    # -- relations -----------------------------------------------------------

    def _parse_relation(self, net: Network) -> None:
        self.expect("relation")
        at = self.pos
        kind = _RELATION_KINDS.get(self.ident())
        if kind is None:
            raise self.fail(f"unknown relation kind {self.tokens[at]!r}", at)
        label = None
        if kind is RelationKind.ASSOCIATION:
            label = self.ident()
        source = self.ident()
        self.expect("->", "arrow")
        target = self.ident()
        degree = self._parse_degree()
        self.expect(";")
        net.relations.append(self.build(at, Relation, kind, source, target, label, degree))

    # -- plans -----------------------------------------------------------------

    def _parse_plan(self, net: Network) -> None:
        at = self.pos
        heir = self.ident()
        self.expect("inherits")
        sources = [self._parse_source()]
        chain = self.tokens[self.pos] != ","
        link = "inherits" if chain else ","
        while self.accept(link):
            sources.append(self._parse_source())
        self.expect(";")
        net.plans.append(self.build(at, InheritancePlan, heir, tuple(sources), chain))

    def _parse_source(self) -> tuple[str, Selection]:
        name = self.ident()
        if not self.accept("("):
            return name, Selection()
        forced_listed = (
            self.tokens[self.pos] == "only"
            and self.tokens[self.pos + 1][:1] in _IDENT_START
        )
        if forced_listed:
            self.pos += 1
        items = self.separated(lambda: (self.ident(), self._parse_degree()))
        at = self.pos
        self.expect(")")
        mode = (
            SelectionMode.ALL
            if not forced_listed and all(degree is not None for _, degree in items)
            else SelectionMode.LISTED
        )
        entries = tuple((item, degree or DEGREE_ONE) for item, degree in items)
        return name, self.build(at, Selection, mode, entries)

    # -- heterogeneous classes --------------------------------------------------

    def _parse_hetclass(self, net: Network) -> None:
        self.expect("hetclass")
        at = self.pos
        name = self.ident()
        self.build(at, _check_new_name, net, "class", name)
        self.expect("{")
        core: list[DegreedMember] = []
        projections: list[Projection] = []
        participants: dict[str, tuple[str, ...]] = {}
        while not self.accept("}"):
            section = self.pos
            token = self.tokens[section]
            if token == "core":
                self.pos += 1
                core.extend(self._parse_members(name))
            elif token == "projection":
                projections.append(self._parse_projection(name))
            elif token == "participant":
                self.pos += 1
                participant = self.ident()
                self.expect("->", "arrow")
                labels: list[str] = []
                if not self.accept("core"):
                    labels = self.separated(self.string)
                self.expect(";")
                if participant in participants:
                    raise self.fail(
                        f"participant {participant!r} declared twice", section
                    )
                participants[participant] = tuple(labels)
            else:
                raise self._expected("'core', 'projection', or 'participant'")
        net.classes[name] = self.build(
            at,
            lambda: HetClass(name, MemberSet(core), tuple(projections), participants),
        )

    def _parse_projection(self, owner: str) -> Projection:
        self.expect("projection")
        at = self.pos
        label = self.string()
        depends: list[str] = []
        if self.accept("depends"):
            self.expect("(")
            depends = self.separated(self.string)
            self.expect(")")
        members = self._parse_members(owner)
        return self.build(
            at, lambda: Projection(label, MemberSet(members), tuple(depends))
        )


def parse_network(text: str) -> Network:
    """Parse source text into a network with default operation registries."""
    return _Parser(text).parse_network()


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _member_line(entry: DegreedMember, context_owner: str) -> str:
    member = entry.member
    shown = (
        member.name
        if member.owner == context_owner
        else f"{member.owner}.{member.name}"
    )
    return f"{member_text(entry, shown)};"


def serialize_plan(plan: InheritancePlan) -> str:
    return f"{plan.describe()};"


def serialize_homclass(cls: HomClass) -> str:
    lines = [f"class {cls.name} {{"]
    for entry in cls.members():
        lines.append(f"  {_member_line(entry, cls.name)}")
    lines.append("}")
    return "\n".join(lines)


def serialize_hetclass(cls: HetClass) -> str:
    lines = [f"hetclass {cls.name} {{"]
    lines.append("  core {")
    for entry in cls.core:
        lines.append(f"    {_member_line(entry, cls.name)}")
    lines.append("  }")
    for projection in cls.projections:
        head = f"  projection {quote_text(projection.label)}"
        if projection.depends_on:
            deps = ", ".join(quote_text(d) for d in projection.depends_on)
            head += f" depends ({deps})"
        lines.append(head + " {")
        for entry in projection.members:
            lines.append(f"    {_member_line(entry, cls.name)}")
        lines.append("  }")
    for participant, labels in cls.participants.items():
        shown = ", ".join(quote_text(label) for label in labels) if labels else "core"
        lines.append(f"  participant {participant} -> {shown};")
    lines.append("}")
    return "\n".join(lines)


def _serialize_object(obj: ObjectInstance) -> str:
    lines = [f"object {obj.name} : {obj.class_ref} {{"]
    for name, value in obj.member_values:
        lines.append(f"  {name} = {format_untyped(value)};")
    lines.append("}")
    return "\n".join(lines)


def _serialize_relation(relation: Relation) -> str:
    parts = ["relation", relation.kind.value]
    if relation.label is not None:
        parts.append(relation.label)
    body = f"{' '.join(parts)} {relation.source} -> {relation.target}"
    if relation.degree is not None:
        body += f" /{relation.degree}"
    return body + ";"


def serialize(net: Network) -> str:
    """Canonical text for the whole network; parse(serialize(n)) == n."""
    blocks = [
        serialize_homclass(cls) if isinstance(cls, HomClass) else serialize_hetclass(cls)
        for cls in net.classes.values()
    ]
    blocks += map(_serialize_object, net.objects.values())
    if net.relations:
        blocks.append("\n".join(_serialize_relation(r) for r in net.relations))
    if net.plans:
        blocks.append("\n".join(serialize_plan(p) for p in net.plans))
    return "\n\n".join(blocks) + "\n" if blocks else ""


# ---------------------------------------------------------------------------
# Structured (JSON) export and import
# ---------------------------------------------------------------------------


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def json_text(document: object) -> str:
    """``document`` as ``json.dumps(document, indent=2)`` writes it.

    ``document`` holds dicts with string keys, lists, strings, ints, bools
    and None, as every ``oodn`` export does; anything else is a TypeError.
    With ``indent`` set, the standard library leaves its C encoder for a
    pure-Python one.  This writer joins each container's items at once and
    escapes strings with the C escaper ``json.dumps`` itself uses.
    """
    return _json_text(document, "\n")


def _json_text(value: object, newline: str) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in value.items()
        ]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if kind is int:
        return str(value)
    if value is None or kind is bool:
        return _JSON_CONSTANTS[value]
    raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _encode_member(entry: DegreedMember) -> dict:
    member = entry.member
    encoded = {"kind": member.kind.value, "name": member.name, "owner": member.owner}
    if member.value_type is not None:
        encoded["type"] = member.value_type.value
        encoded["value"] = member.value_type.codec.encode(member.value)
    else:
        encoded["params"] = [{"name": n, "type": t.value} for n, t in member.params]
        encoded["returns"] = member.returns.value if member.returns else None
    encoded["degree"] = format_rational(entry.degree.value)
    return encoded


def _decode_member(raw: dict) -> DegreedMember:
    degree = as_degree(decode_rational(raw["degree"]))
    if raw["kind"] == "prop":
        value_type = _VALUE_TYPES[raw["type"]]
        value = decode_value(value_type, raw["value"])
        member = prop(raw["name"], value_type, value, raw["owner"])
    else:
        member = method(
            raw["name"],
            raw["owner"],
            [(p["name"], _VALUE_TYPES[p["type"]]) for p in raw["params"]],
            _VALUE_TYPES[raw["returns"]] if raw["returns"] else None,
        )
    return DegreedMember(member, degree)


def _encode_selection(selection: Selection) -> dict:
    return {
        "mode": selection.mode.value,
        "entries": [
            {"name": name, "degree": format_rational(degree.value)}
            for name, degree in selection.entries
        ],
    }


def _decode_selection(raw: dict) -> Selection:
    return Selection(
        SelectionMode(raw["mode"]),
        tuple(
            (item["name"], as_degree(decode_rational(item["degree"])))
            for item in raw["entries"]
        ),
    )


def encode_hetclass(cls: HetClass) -> dict:
    """A heterogeneous class as JSON data: name, core, projections and
    participants."""
    return {
        "name": cls.name,
        "core": [_encode_member(e) for e in cls.core],
        "projections": [
            {
                "label": p.label,
                "depends_on": list(p.depends_on),
                "members": [_encode_member(e) for e in p.members],
            }
            for p in cls.projections
        ],
        "participants": {
            name: list(labels) for name, labels in cls.participants.items()
        },
    }


def export_structured(net: Network) -> str:
    """The network as JSON: the five knowledge parts plus declared plans."""
    classes = []
    for cls in net.classes.values():
        if isinstance(cls, HomClass):
            classes.append(
                {
                    "name": cls.name,
                    "form": "homogeneous",
                    "spec": [_encode_member(e) for e in cls.spec],
                    "sig": [_encode_member(e) for e in cls.sig],
                }
            )
        else:
            classes.append(
                {"name": cls.name, "form": "heterogeneous"} | encode_hetclass(cls)
            )
    objects = [
        {
            "name": obj.name,
            "class": obj.class_ref,
            "values": [
                {"name": name, "value": _encode_untyped(value)}
                for name, value in obj.member_values
            ],
        }
        for obj in net.objects.values()
    ]
    relations = [
        {
            "kind": r.kind.value,
            "source": r.source,
            "target": r.target,
            "label": r.label,
            "degree": format_rational(r.degree.value) if r.degree else None,
        }
        for r in net.relations
    ]
    plans = [
        {
            "heir": plan.heir,
            "chain": plan.chain,
            "sources": [
                {"class": name, "selection": _encode_selection(selection)}
                for name, selection in plan.sources
            ],
        }
        for plan in net.plans
    ]
    document = {
        "objects": objects,
        "classes": classes,
        "relations": relations,
        "exploiters": sorted(net.exploiters),
        "modifiers": sorted(net.modifiers),
        "plans": plans,
    }
    return json_text(document) + "\n"


def _encode_untyped(value: Value) -> dict:
    tag = untyped_type(value)
    return {"type": tag.value, "value": tag.codec.encode(value)}


def import_structured(text: str) -> Network:
    """Rebuild a network from :func:`export_structured` output.

    Raises :class:`StructuredImportError` for text that is not such output.
    """
    try:
        return _decode_network(json.loads(text))
    except KeyError as exc:
        raise StructuredImportError(f"missing or unknown key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise StructuredImportError(f"malformed document: {exc}") from exc
    except StructuredImportError:
        raise
    except OodnError as exc:  # a model or plan invariant the document breaks
        raise StructuredImportError(str(exc)) from exc


def _decode_network(document: dict) -> Network:
    net = make_network()
    for entry in document["classes"]:
        name = entry["name"]
        _check_new_name(net, "class", name)
        if entry["form"] == "homogeneous":
            net.classes[name] = HomClass(
                name,
                spec=MemberSet(_decode_member(e) for e in entry["spec"]),
                sig=MemberSet(_decode_member(e) for e in entry["sig"]),
            )
        else:
            net.classes[name] = HetClass(
                name,
                core=MemberSet(_decode_member(e) for e in entry["core"]),
                projections=tuple(
                    Projection(
                        p["label"],
                        MemberSet(_decode_member(e) for e in p["members"]),
                        tuple(p["depends_on"]),
                    )
                    for p in entry["projections"]
                ),
                participants={p: tuple(labels) for p, labels in entry["participants"].items()},
            )
    for entry in document["objects"]:
        name = entry["name"]
        _check_new_name(net, "object", name)
        net.objects[name] = ObjectInstance(
            name,
            entry["class"],
            tuple(
                (
                    v["name"],
                    decode_value(_VALUE_TYPES[v["value"]["type"]], v["value"]["value"]),
                )
                for v in entry["values"]
            ),
        )
    for entry in document["relations"]:
        net.relations.append(
            Relation(
                RelationKind(entry["kind"]),
                entry["source"],
                entry["target"],
                entry["label"],
                as_degree(decode_rational(entry["degree"])) if entry["degree"] else None,
            )
        )
    for entry in document["plans"]:
        net.plans.append(
            InheritancePlan(
                heir=entry["heir"],
                sources=tuple(
                    (s["class"], _decode_selection(s["selection"]))
                    for s in entry["sources"]
                ),
                chain=entry["chain"],
            )
        )
    return net


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------


def _dot_name(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def export_graph(net: Network) -> str:
    """The network as a Graphviz digraph, declaration order preserved."""
    lines = ["digraph knowledge {", "  rankdir=BT;"]
    for name, cls in net.classes.items():
        shape = "box" if isinstance(cls, HomClass) else "box, peripheries=2"
        lines.append(f"  {_dot_name(name)} [shape={shape}];")
    for name in net.objects:
        lines.append(f"  {_dot_name(name)} [shape=ellipse];")
    for name, obj in net.objects.items():
        lines.append(
            f"  {_dot_name(name)} -> {_dot_name(obj.class_ref)} [label=\"of\"];"
        )
    for relation in net.relations:
        label = relation.kind.value
        if relation.label is not None:
            label = f"{relation.kind.value} {relation.label}"
        if relation.degree is not None:
            label += f" /{relation.degree}"
        style = ", style=dashed" if relation.kind is RelationKind.ASSOCIATION else ""
        lines.append(
            f"  {_dot_name(relation.source)} -> {_dot_name(relation.target)} "
            f'[label="{label}"{style}];'
        )
    for plan in net.plans:
        octant = classify_plan(plan).render()
        for name, selection in plan.sources:
            label = octant
            if selection.text:
                label += f" {selection.text}"
            label = label.replace('"', '\\"')
            lines.append(
                f"  {_dot_name(plan.heir)} -> {_dot_name(name)} "
                f'[label="{label}", style=bold];'
            )
    for name, cls in net.classes.items():
        if isinstance(cls, HetClass):
            for participant in cls.participants:
                lines.append(
                    f"  {_dot_name(name)} -> {_dot_name(participant)} "
                    '[label="participant", style=dotted];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
