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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .inheritance import (
    InheritancePlan,
    Selection,
    SelectionMode,
    classify_plan,
)
from .model import (
    Degree,
    DegreedMember,
    FuzzySet,
    HetClass,
    HomClass,
    Member,
    MemberKind,
    MemberSet,
    Network,
    ObjectInstance,
    OodnError,
    Projection,
    Relation,
    RelationKind,
    Value,
    ValueType,
    as_degree,
    format_rational,
    format_value,
    member_text,
    quote_text,
)
from .operations import make_network


class StructuredImportError(OodnError):
    """A structured (JSON) document that does not describe a network."""


class ParseError(OodnError):
    """Ill-formed source text; carries the 1-based position of the problem."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    type: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>//[^\n]*)
  | (?P<ARROW>->)
  | (?P<RATIO>-?\d+/\d+(?![.\d]))
  | (?P<DECIMAL>-?\d+\.\d+)
  | (?P<INT>-?\d+)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[{}():;,=./])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[Token]:
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        assert kind is not None
        value = match.group()
        if kind not in ("WS", "COMMENT"):
            yield Token(kind, value, line, pos - line_start + 1)
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = match.end()
    yield Token("EOF", "", line, pos - line_start + 1)


def _unescape(raw: str) -> str:
    body = raw[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_VALUE_TYPES = {t.value: t for t in ValueType}
_RELATION_KINDS = {k.value: k for k in RelationKind}
_KEYWORDS = {"class", "hetclass", "object", "relation"}
_NUMBER_TOKENS = ("INT", "DECIMAL", "RATIO")


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = list(_tokenize(text))
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type != "EOF":
            self.pos += 1
        return token

    def fail(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self.peek()
        return ParseError(message, token.line, token.column)

    def expect(self, type_: str, text: str | None = None) -> Token:
        token = self.peek()
        if token.type != type_ or (text is not None and token.text != text):
            wanted = text if text is not None else type_.lower()
            shown = token.text if token.text else "end of input"
            raise self.fail(f"expected {wanted!r}, found {shown!r}", token)
        return self.advance()

    def accept(self, type_: str, text: str | None = None) -> Token | None:
        token = self.peek()
        if token.type == type_ and (text is None or token.text == text):
            return self.advance()
        return None

    def number(self, token: Token) -> Fraction:
        try:
            return Fraction(token.text)
        except ZeroDivisionError:
            raise self.fail(f"zero denominator in {token.text!r}", token) from None

    # -- document ----------------------------------------------------------

    def parse_network(self) -> Network:
        net = make_network()
        while self.peek().type != "EOF":
            token = self.peek()
            if token.type == "IDENT" and token.text == "class":
                self._parse_class(net)
            elif token.type == "IDENT" and token.text == "hetclass":
                self._parse_hetclass(net)
            elif token.type == "IDENT" and token.text == "object":
                self._parse_object(net)
            elif token.type == "IDENT" and token.text == "relation":
                self._parse_relation(net)
            elif token.type == "IDENT":
                self._parse_plan(net)
            else:
                raise self.fail(
                    f"expected a declaration, found {token.text!r}", token
                )
        return net

    def _declare_class(self, net: Network, name: str, token: Token) -> None:
        if name in net.classes:
            raise self.fail(f"class {name!r} declared twice", token)
        if name in net.objects:
            raise self.fail(
                f"{name!r} already names an object", token
            )

    # -- homogeneous classes -----------------------------------------------

    def _parse_class(self, net: Network) -> None:
        self.expect("IDENT", "class")
        name_token = self.expect("IDENT")
        name = name_token.text
        if name in _KEYWORDS:
            raise self.fail(f"{name!r} cannot name a class", name_token)
        self._declare_class(net, name, name_token)
        self.expect("PUNCT", "{")
        entries: list[DegreedMember] = []
        while not self.accept("PUNCT", "}"):
            entries.append(self._parse_member(default_owner=name))
        try:
            members = MemberSet(entries)
            net.classes[name] = HomClass(
                name,
                spec=members.properties(),
                sig=members.methods(),
            )
        except OodnError as exc:
            raise self.fail(str(exc), name_token) from exc

    def _parse_member(self, default_owner: str) -> DegreedMember:
        token = self.peek()
        if token.type == "IDENT" and token.text == "prop":
            return self._parse_prop(default_owner)
        if token.type == "IDENT" and token.text == "method":
            return self._parse_method(default_owner)
        raise self.fail(
            f"expected 'prop' or 'method', found {token.text!r}", token
        )

    def _parse_member_name(self, default_owner: str) -> tuple[str, str, Token]:
        first = self.expect("IDENT")
        if self.accept("PUNCT", "."):
            second = self.expect("IDENT")
            return first.text, second.text, first
        return default_owner, first.text, first

    def _parse_prop(self, default_owner: str) -> DegreedMember:
        self.expect("IDENT", "prop")
        owner, name, name_token = self._parse_member_name(default_owner)
        self.expect("PUNCT", ":")
        value_type = self._parse_type()
        self.expect("PUNCT", "=")
        value = self._parse_value(value_type)
        degree = self._parse_degree_suffix()
        self.expect("PUNCT", ";")
        try:
            member = Member(
                MemberKind.PROPERTY,
                name,
                owner,
                value_type=value_type,
                value=value,
            )
            return DegreedMember(member, degree)
        except OodnError as exc:
            raise self.fail(str(exc), name_token) from exc

    def _parse_method(self, default_owner: str) -> DegreedMember:
        self.expect("IDENT", "method")
        owner, name, name_token = self._parse_member_name(default_owner)
        self.expect("PUNCT", "(")
        params: list[tuple[str, ValueType]] = []
        if not self.accept("PUNCT", ")"):
            while True:
                pname = self.expect("IDENT").text
                self.expect("PUNCT", ":")
                params.append((pname, self._parse_type()))
                if not self.accept("PUNCT", ","):
                    break
            self.expect("PUNCT", ")")
        returns = None
        if self.accept("ARROW"):
            returns = self._parse_type()
        degree = self._parse_degree_suffix()
        self.expect("PUNCT", ";")
        try:
            member = Member(
                MemberKind.METHOD,
                name,
                owner,
                params=tuple(params),
                returns=returns,
            )
            return DegreedMember(member, degree)
        except OodnError as exc:
            raise self.fail(str(exc), name_token) from exc

    def _parse_type(self) -> ValueType:
        token = self.expect("IDENT")
        if token.text not in _VALUE_TYPES:
            raise self.fail(f"unknown type {token.text!r}", token)
        return _VALUE_TYPES[token.text]

    def _parse_degree_suffix(self) -> Degree:
        if not self.accept("PUNCT", "/"):
            return as_degree(1)
        return self._parse_degree_number()

    def _parse_degree_number(self) -> Degree:
        token = self.peek()
        if token.type not in _NUMBER_TOKENS:
            raise self.fail(f"expected a degree, found {token.text!r}", token)
        self.advance()
        value = self.number(token)
        try:
            return as_degree(value)
        except OodnError as exc:
            raise self.fail(str(exc), token) from exc

    # -- values --------------------------------------------------------------

    def _parse_value(self, value_type: ValueType) -> Value:
        token = self.peek()
        if value_type is ValueType.INT:
            if token.type != "INT":
                raise self.fail(
                    f"expected an integer, found {token.text!r}", token
                )
            self.advance()
            return int(token.text)
        if value_type is ValueType.REAL:
            if token.type not in _NUMBER_TOKENS:
                raise self.fail(f"expected a number, found {token.text!r}", token)
            self.advance()
            return self.number(token)
        if value_type is ValueType.BOOL:
            if token.type == "IDENT" and token.text in ("true", "false"):
                self.advance()
                return token.text == "true"
            raise self.fail(
                f"expected 'true' or 'false', found {token.text!r}", token
            )
        if value_type is ValueType.TEXT:
            if token.type != "STRING":
                raise self.fail(
                    f"expected a quoted string, found {token.text!r}", token
                )
            self.advance()
            return _unescape(token.text)
        return self._parse_fuzzy_set()

    def _parse_fuzzy_set(self) -> FuzzySet:
        open_token = self.expect("PUNCT", "{")
        entries: list[tuple[str | int | Fraction, Fraction]] = []
        if not self.accept("PUNCT", "}"):
            while True:
                entries.append(self._parse_fuzzy_entry())
                if not self.accept("PUNCT", ","):
                    break
            self.expect("PUNCT", "}")
        try:
            return FuzzySet(tuple(entries))
        except OodnError as exc:
            raise self.fail(str(exc), open_token) from exc

    def _parse_fuzzy_entry(self) -> tuple[str | int | Fraction, Fraction]:
        token = self.advance()
        element: str | int | Fraction
        if token.type == "IDENT":
            element = token.text
        elif token.type == "STRING":
            element = _unescape(token.text)
        elif token.type == "INT":
            element = int(token.text)
        elif token.type in ("DECIMAL", "RATIO"):
            element = self.number(token)
        else:
            raise self.fail(
                f"expected a fuzzy element, found {token.text!r}", token
            )
        self.expect("PUNCT", ":")
        number = self.peek()
        if number.type not in _NUMBER_TOKENS:
            raise self.fail(
                f"expected a membership, found {number.text!r}", number
            )
        self.advance()
        return element, self.number(number)

    # -- objects -------------------------------------------------------------

    def _parse_object(self, net: Network) -> None:
        self.expect("IDENT", "object")
        name_token = self.expect("IDENT")
        name = name_token.text
        if name in net.objects:
            raise self.fail(f"object {name!r} declared twice", name_token)
        if name in net.classes:
            raise self.fail(f"{name!r} already names a class", name_token)
        self.expect("PUNCT", ":")
        class_ref = self.expect("IDENT").text
        overrides: list[tuple[str, Value]] = []
        self.expect("PUNCT", "{")
        while not self.accept("PUNCT", "}"):
            member_name = self.expect("IDENT").text
            self.expect("PUNCT", "=")
            overrides.append((member_name, self._parse_raw_value()))
            self.expect("PUNCT", ";")
        try:
            net.objects[name] = ObjectInstance(name, class_ref, tuple(overrides))
        except OodnError as exc:
            raise self.fail(str(exc), name_token) from exc

    def _parse_raw_value(self) -> Value:
        """Object override value, typed by its literal form alone."""
        token = self.peek()
        if token.type == "INT":
            self.advance()
            return int(token.text)
        if token.type in ("DECIMAL", "RATIO"):
            self.advance()
            return self.number(token)
        if token.type == "STRING":
            self.advance()
            return _unescape(token.text)
        if token.type == "IDENT" and token.text in ("true", "false"):
            self.advance()
            return token.text == "true"
        if token.type == "PUNCT" and token.text == "{":
            return self._parse_fuzzy_set()
        raise self.fail(f"expected a value, found {token.text!r}", token)

    # -- relations -----------------------------------------------------------

    def _parse_relation(self, net: Network) -> None:
        self.expect("IDENT", "relation")
        kind_token = self.expect("IDENT")
        if kind_token.text not in _RELATION_KINDS:
            raise self.fail(
                f"unknown relation kind {kind_token.text!r}", kind_token
            )
        kind = _RELATION_KINDS[kind_token.text]
        label = None
        if kind is RelationKind.ASSOCIATION:
            label = self.expect("IDENT").text
        source = self.expect("IDENT").text
        self.expect("ARROW")
        target = self.expect("IDENT").text
        degree = None
        if self.accept("PUNCT", "/"):
            degree = self._parse_degree_number()
        self.expect("PUNCT", ";")
        try:
            net.relations.append(Relation(kind, source, target, label, degree))
        except OodnError as exc:
            raise self.fail(str(exc), kind_token) from exc

    # -- plans -----------------------------------------------------------------

    def _parse_plan(self, net: Network) -> None:
        heir_token = self.expect("IDENT")
        self.expect("IDENT", "inherits")
        sources = [self._parse_source()]
        chain = True
        if self.peek().type == "PUNCT" and self.peek().text == ",":
            chain = False
            while self.accept("PUNCT", ","):
                sources.append(self._parse_source())
        else:
            while self.accept("IDENT", "inherits"):
                sources.append(self._parse_source())
        self.expect("PUNCT", ";")
        try:
            net.plans.append(
                InheritancePlan(
                    heir=heir_token.text,
                    sources=tuple(sources),
                    chain=chain,
                )
            )
        except OodnError as exc:
            raise self.fail(str(exc), heir_token) from exc

    def _parse_source(self) -> tuple[str, Selection]:
        name = self.expect("IDENT").text
        if not (self.peek().type == "PUNCT" and self.peek().text == "("):
            return name, Selection()
        self.expect("PUNCT", "(")
        forced_listed = False
        if (
            self.peek().type == "IDENT"
            and self.peek().text == "only"
            and self.peek(1).type == "IDENT"
        ):
            self.advance()
            forced_listed = True
        items: list[tuple[str, Degree, bool]] = []
        while True:
            item = self.expect("IDENT").text
            if self.accept("PUNCT", "/"):
                items.append((item, self._parse_degree_number(), True))
            else:
                items.append((item, as_degree(1), False))
            if not self.accept("PUNCT", ","):
                break
        close = self.expect("PUNCT", ")")
        all_degreed = all(explicit for _, _, explicit in items)
        entries = tuple((name_, degree) for name_, degree, _ in items)
        try:
            if all_degreed and not forced_listed:
                return name, Selection(SelectionMode.ALL, entries)
            return name, Selection(SelectionMode.LISTED, entries)
        except OodnError as exc:
            raise self.fail(str(exc), close) from exc

    # -- heterogeneous classes --------------------------------------------------

    def _parse_hetclass(self, net: Network) -> None:
        self.expect("IDENT", "hetclass")
        name_token = self.expect("IDENT")
        name = name_token.text
        self._declare_class(net, name, name_token)
        self.expect("PUNCT", "{")
        core: list[DegreedMember] = []
        projections: list[Projection] = []
        participants: dict[str, tuple[str, ...]] = {}
        while not self.accept("PUNCT", "}"):
            token = self.peek()
            if token.type == "IDENT" and token.text == "core":
                self.advance()
                self.expect("PUNCT", "{")
                while not self.accept("PUNCT", "}"):
                    core.append(self._parse_member(default_owner=name))
            elif token.type == "IDENT" and token.text == "projection":
                projections.append(self._parse_projection(name))
            elif token.type == "IDENT" and token.text == "participant":
                self.advance()
                participant = self.expect("IDENT").text
                self.expect("ARROW")
                labels: list[str] = []
                if self.accept("IDENT", "core"):
                    pass
                else:
                    while True:
                        labels.append(_unescape(self.expect("STRING").text))
                        if not self.accept("PUNCT", ","):
                            break
                self.expect("PUNCT", ";")
                if participant in participants:
                    raise self.fail(
                        f"participant {participant!r} declared twice", token
                    )
                participants[participant] = tuple(labels)
            else:
                raise self.fail(
                    "expected 'core', 'projection', or 'participant', "
                    f"found {token.text!r}",
                    token,
                )
        try:
            net.classes[name] = HetClass(
                name,
                core=MemberSet(core),
                projections=tuple(projections),
                participants=participants,
            )
        except OodnError as exc:
            raise self.fail(str(exc), name_token) from exc

    def _parse_projection(self, owner: str) -> Projection:
        self.expect("IDENT", "projection")
        label_token = self.expect("STRING")
        label = _unescape(label_token.text)
        depends: list[str] = []
        if self.accept("IDENT", "depends"):
            self.expect("PUNCT", "(")
            while True:
                depends.append(_unescape(self.expect("STRING").text))
                if not self.accept("PUNCT", ","):
                    break
            self.expect("PUNCT", ")")
        self.expect("PUNCT", "{")
        members: list[DegreedMember] = []
        while not self.accept("PUNCT", "}"):
            members.append(self._parse_member(default_owner=owner))
        try:
            return Projection(label, MemberSet(members), tuple(depends))
        except OodnError as exc:
            raise self.fail(str(exc), label_token) from exc


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


def serialize_selection(selection: Selection) -> str:
    """Parenthesized selection text, or empty for take-all."""
    if selection.mode is SelectionMode.ALL and not selection.entries:
        return ""
    if selection.mode is SelectionMode.ALL:
        items = ", ".join(f"{name}/{degree}" for name, degree in selection.entries)
        return f" ({items})"
    crisp_present = any(not degree.is_weak for _, degree in selection.entries)
    items = ", ".join(
        name if not degree.is_weak else f"{name}/{degree}"
        for name, degree in selection.entries
    )
    marker = "" if crisp_present else "only "
    return f" ({marker}{items})"


def serialize_plan(plan: InheritancePlan) -> str:
    joiner = " inherits " if plan.chain else ", "
    sources = joiner.join(
        f"{name}{serialize_selection(selection)}"
        for name, selection in plan.sources
    )
    return f"{plan.heir} inherits {sources};"


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
        lines.append(f"  {name} = {_raw_value_text(value)};")
    lines.append("}")
    return "\n".join(lines)


def _raw_value_text(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        # keep a decimal point so the literal reads back as a rational
        if value.denominator == 1:
            return f"{value.numerator}.0"
        return format_rational(value)
    if isinstance(value, str):
        return quote_text(value)
    return format_value(ValueType.FUZZY, value)


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
    blocks: list[str] = []
    for cls in net.classes.values():
        if isinstance(cls, HomClass):
            blocks.append(serialize_homclass(cls))
        else:
            blocks.append(serialize_hetclass(cls))
    for obj in net.objects.values():
        blocks.append(_serialize_object(obj))
    if net.relations:
        blocks.append("\n".join(_serialize_relation(r) for r in net.relations))
    if net.plans:
        blocks.append("\n".join(serialize_plan(p) for p in net.plans))
    return "\n\n".join(blocks) + "\n" if blocks else ""


# ---------------------------------------------------------------------------
# Structured (JSON) export and import
# ---------------------------------------------------------------------------


def _encode_value(value_type: ValueType, value: Value) -> object:
    if value_type is ValueType.INT:
        return value
    if value_type is ValueType.REAL:
        assert isinstance(value, Fraction)
        return format_rational(value)
    if value_type is ValueType.TEXT:
        return value
    if value_type is ValueType.BOOL:
        return value
    assert isinstance(value, FuzzySet)
    encoded = []
    for element, membership in value.entries:
        if isinstance(element, str):
            kind, shown = "text", element
        elif isinstance(element, Fraction):
            kind, shown = "real", format_rational(element)
        else:
            kind, shown = "int", element
        encoded.append(
            {"element": shown, "element_kind": kind, "membership": format_rational(membership)}
        )
    return encoded


def _rational(raw: object) -> Fraction:
    """A ratio string such as ``"1/2"`` or ``"0.75"``; nothing else."""
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            pass
    raise StructuredImportError(f"{raw!r} is not a ratio")


_JSON_TYPES = {
    ValueType.INT: int,
    ValueType.REAL: str,
    ValueType.TEXT: str,
    ValueType.BOOL: bool,
    ValueType.FUZZY: list,
}


def _decode_value(value_type: ValueType, raw: object) -> Value:
    expected = _JSON_TYPES[value_type]
    if not isinstance(raw, expected) or (expected is int and isinstance(raw, bool)):
        raise StructuredImportError(f"{raw!r} is not a {value_type.value} value")
    if value_type is ValueType.REAL:
        return _rational(raw)
    if value_type is not ValueType.FUZZY:
        return raw
    entries = []
    for item in raw:
        kind = item["element_kind"]
        shown = item["element"]
        if kind == "text":
            element: str | int | Fraction = shown
        elif kind == "real":
            element = _rational(shown)
        else:
            element = int(shown)
        entries.append((element, _rational(item["membership"])))
    return FuzzySet(tuple(entries))


def _encode_member(entry: DegreedMember) -> dict:
    member = entry.member
    if member.kind is MemberKind.PROPERTY:
        assert member.value_type is not None
        return {
            "kind": "prop",
            "name": member.name,
            "owner": member.owner,
            "type": member.value_type.value,
            "value": _encode_value(member.value_type, member.value),
            "degree": format_rational(entry.degree.value),
        }
    return {
        "kind": "method",
        "name": member.name,
        "owner": member.owner,
        "params": [{"name": n, "type": t.value} for n, t in member.params],
        "returns": member.returns.value if member.returns else None,
        "degree": format_rational(entry.degree.value),
    }


def _decode_member(raw: dict) -> DegreedMember:
    degree = as_degree(_rational(raw["degree"]))
    if raw["kind"] == "prop":
        value_type = _VALUE_TYPES[raw["type"]]
        member = Member(
            MemberKind.PROPERTY,
            raw["name"],
            raw["owner"],
            value_type=value_type,
            value=_decode_value(value_type, raw["value"]),
        )
    else:
        member = Member(
            MemberKind.METHOD,
            raw["name"],
            raw["owner"],
            params=tuple(
                (p["name"], _VALUE_TYPES[p["type"]]) for p in raw["params"]
            ),
            returns=_VALUE_TYPES[raw["returns"]] if raw["returns"] else None,
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
            (item["name"], as_degree(_rational(item["degree"])))
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
    objects = []
    for obj in net.objects.values():
        objects.append(
            {
                "name": obj.name,
                "class": obj.class_ref,
                "values": [
                    {"name": name, "value": _encode_raw(value)}
                    for name, value in obj.member_values
                ],
            }
        )
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
    return json.dumps(document, indent=2) + "\n"


def _encode_raw(value: Value) -> object:
    if isinstance(value, bool):
        return {"type": "bool", "value": value}
    if isinstance(value, int):
        return {"type": "int", "value": value}
    if isinstance(value, Fraction):
        return {"type": "real", "value": format_rational(value)}
    if isinstance(value, str):
        return {"type": "text", "value": value}
    return {"type": "fuzzy", "value": _encode_value(ValueType.FUZZY, value)}


def _decode_raw(raw: dict) -> Value:
    value_type = _VALUE_TYPES[raw["type"]]
    return _decode_value(value_type, raw["value"])


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


def _decode_network(document: dict) -> Network:
    net = make_network()
    for entry in document["classes"]:
        if entry["form"] == "homogeneous":
            net.classes[entry["name"]] = HomClass(
                entry["name"],
                spec=MemberSet(_decode_member(e) for e in entry["spec"]),
                sig=MemberSet(_decode_member(e) for e in entry["sig"]),
            )
        else:
            net.classes[entry["name"]] = HetClass(
                entry["name"],
                core=MemberSet(_decode_member(e) for e in entry["core"]),
                projections=tuple(
                    Projection(
                        p["label"],
                        MemberSet(_decode_member(e) for e in p["members"]),
                        tuple(p["depends_on"]),
                    )
                    for p in entry["projections"]
                ),
                participants={
                    name: tuple(labels)
                    for name, labels in entry["participants"].items()
                },
            )
    for entry in document["objects"]:
        net.objects[entry["name"]] = ObjectInstance(
            entry["name"],
            entry["class"],
            tuple((v["name"], _decode_raw(v["value"])) for v in entry["values"]),
        )
    for entry in document["relations"]:
        net.relations.append(
            Relation(
                RelationKind(entry["kind"]),
                entry["source"],
                entry["target"],
                entry["label"],
                as_degree(_rational(entry["degree"])) if entry["degree"] else None,
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
            text = serialize_selection(selection).strip()
            if text:
                label += f" {text}"
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
