"""Core knowledge model: members, classes, relations, and networks.

A knowledge base is a network of five parts: objects, classes, relations,
and two registries of operations (exploiters derive new knowledge,
modifiers change existing knowledge).  Classes come in two shapes:

* a homogeneous class describes one kind of object as a flat member set
  (a specification of properties plus a signature of methods);
* a heterogeneous class describes a family of related kinds as a shared
  core plus per-participant projections, where a projection holds the
  members typical of one participant and may depend on other projections.

Members carry exact rational membership degrees.  Degree 1 means crisp
membership; anything strictly below 1 is weak.  Degrees are represented
with :class:`fractions.Fraction` end to end, so equality checks in tests
and serialized output are exact rather than float-approximate.

Everything in this module is immutable after construction except
:class:`Network`, which is the single mutable container and is only
supposed to change through the modifier operations in
:mod:`oodn.operations`.
"""

from __future__ import annotations

import re
from collections.abc import MutableMapping
from dataclasses import FrozenInstanceError, dataclass, field, fields
from enum import Enum
from fractions import Fraction
from itertools import chain, count
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Container, Iterable, Iterator, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .inheritance import InheritancePlan


class OodnError(Exception):
    """Base class for all errors raised by this package."""


class UnknownEntityError(OodnError):
    """A name does not resolve to any declared entity."""


class ModelInvariantError(OodnError):
    """A value would violate one of the model's construction invariants."""


class StructuredImportError(OodnError):
    """A structured (JSON) document that does not describe a network."""


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


class _Held:
    """Base of a frozen value that keeps what it computes from its fields
    in slots of its own.  They are no fields, so reprs, equality and
    ``fields()`` leave them out; copies and pickles rebuild the value
    through ``__init__``, so the copy computes its own."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    # Every write is refused alike; dataclass's raise TypeError for a non-field.
    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _DegreeKeys(_Held):
    __slots__ = ("_hash", "_text", "is_weak")


@dataclass(frozen=True, order=True, slots=True)
class Degree(_DegreeKeys):
    """Exact rational membership degree in the half-open interval (0, 1].

    ``is_weak`` (below 1) is computed once, at construction, and read
    from a slot; the hash and the text are computed on first use and held
    the same way.
    """

    value: Fraction

    def __post_init__(self) -> None:
        value = self.value
        if not isinstance(value, Fraction):
            value = Fraction(value)
            object.__setattr__(self, "value", value)
        # A Fraction's denominator is positive, so integer comparisons of its
        # two parts decide the bounds without Fraction arithmetic.
        numerator, denominator = value.as_integer_ratio()
        if not 0 < numerator <= denominator:
            raise ModelInvariantError(f"degree must lie in (0, 1], got {value}")
        object.__setattr__(self, "is_weak", numerator < denominator)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first use
            object.__setattr__(self, "_hash", hash(self.value))
            return self._hash

    def __mul__(self, other: "Degree") -> "Degree":
        return Degree(self.value * other.value)

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:  # first use
            object.__setattr__(self, "_text", format_rational(self.value))
            return self._text


DEGREE_ONE = Degree(Fraction(1))


def as_degree(value: "Degree | Fraction | int | str") -> Degree:
    """Coerce a raw number (or numeral text) into a Degree."""
    return value if isinstance(value, Degree) else Degree(value)


def format_rational(value: Fraction) -> str:
    """Render a Fraction canonically: exact decimal when finite, else n/d."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    places = max(twos, fives)
    scaled = value.numerator * 10**places // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    whole, frac = digits[:-places], digits[-places:]
    return f"{sign}{whole}.{frac}"


# ---------------------------------------------------------------------------
# Property values
# ---------------------------------------------------------------------------


def quote_text(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


# The text format's one identifier rule: the lexer reads names by it, the
# constructors hold every name the writer writes bare to it (``check_names``),
# and the writer tells by it which fuzzy elements it may write bare.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# The words a declaration starts with, so no plan's heir, and no homogeneous
# class, can be written with one of them as its name.
KEYWORDS = frozenset({"class", "hetclass", "object", "relation"})


def is_identifier(text: str) -> bool:
    """Whether ``text`` reads back as one identifier: an ASCII string that
    Python takes for an identifier is exactly one ``IDENTIFIER`` matches."""
    return text.isascii() and text.isidentifier()


def check_names(*names: object, keywords: Container[str] = ()) -> None:
    """Refuse a name that is not an identifier, or that is one of
    ``keywords``: every name the writer writes bare must read back."""
    for name in names:
        if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
            raise ModelInvariantError(f"{name!r} is not an identifier")
        if name in keywords:
            raise ModelInvariantError(f"{name!r} cannot name a class")


def decode_rational(raw: object) -> Fraction:
    """A JSON ratio string such as ``"1/2"`` or ``"0.75"``; nothing else."""
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            pass
    raise StructuredImportError(f"{raw!r} is not a ratio")


@dataclass(frozen=True)
class Codec:
    """How the values of one type are checked, written and carried in JSON.

    ``check`` accepts exactly the type's Python values, ``text`` writes one
    in canonical syntax and ``encode`` as JSON data; ``is_json`` accepts
    exactly such data (by default, what ``check`` accepts), which
    ``decode`` reads back.
    """

    check: Callable[[object], bool]
    text: Callable[[Any], str]
    encode: Callable[[Any], object] = lambda value: value
    is_json: Callable[[object], bool] | None = None
    decode: Callable[[Any], "Value"] = lambda raw: raw


def _fuzzy_text(value: "FuzzySet") -> str:
    parts = []
    for element, membership in value.entries:
        if isinstance(element, str) and is_identifier(element):
            shown = element
        else:
            shown = format_untyped(element)
        parts.append(f"{shown}: {format_rational(membership)}")
    return "{" + ", ".join(parts) + "}"


def _encode_fuzzy(value: "FuzzySet") -> list:
    encoded = []
    for element, membership in value.entries:
        tag = untyped_type(element, _ELEMENT_KINDS.values())
        shown, kind = tag.codec.encode(element), tag._value_
        encoded.append(
            {"element": shown, "element_kind": kind, "membership": format_rational(membership)}
        )
    return encoded


def _decode_fuzzy(raw: list) -> "FuzzySet":
    entries = []
    for item in raw:
        tag = _ELEMENT_KINDS[item["element_kind"]]
        entries.append((decode_value(tag, item["element"]), decode_rational(item["membership"])))
    return FuzzySet(tuple(entries))


class ValueType(Enum):
    """Type tag for property values and method parameters/returns.

    Each tag carries the :class:`Codec` of its values, the one place where
    they are checked, written and carried in JSON.
    """

    codec: Codec

    INT = "int", Codec(lambda v: isinstance(v, int) and not isinstance(v, bool), str)
    REAL = "real", Codec(
        lambda v: isinstance(v, Fraction),
        format_rational,
        format_rational,
        lambda raw: isinstance(raw, str),
        decode_rational,
    )
    TEXT = "text", Codec(lambda v: isinstance(v, str), quote_text)
    BOOL = "bool", Codec(lambda v: isinstance(v, bool), lambda v: "true" if v else "false")
    FUZZY = "fuzzy", Codec(
        lambda v: isinstance(v, FuzzySet),
        _fuzzy_text,
        _encode_fuzzy,
        lambda raw: isinstance(raw, list),
        _decode_fuzzy,
    )

    # A singleton compared by identity, so it hashes by identity, in C.
    __hash__ = object.__hash__

    def __new__(cls, tag: str, codec: Codec) -> "ValueType":
        member = object.__new__(cls)
        member._value_ = tag
        member.codec = codec
        return member


# The types a fuzzy element may take.
_ELEMENT_KINDS = {tag._value_: tag for tag in (ValueType.INT, ValueType.REAL, ValueType.TEXT)}


FuzzyElement = Union[str, int, Fraction]


@dataclass(frozen=True, eq=False)
class FuzzySet:
    """Finite fuzzy set: (element, membership) pairs with memberships in [0, 1].

    Two sets are equal when they map the same elements to the same
    memberships, whatever order the entries were written in; ``entries``
    keeps the written order for serialization.
    """

    entries: tuple[tuple[FuzzyElement, Fraction], ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __hash__(self) -> int:
        return hash(frozenset(self.entries))

    def __post_init__(self) -> None:
        seen: set[FuzzyElement] = set()
        for element, membership in self.entries:
            untyped_type(element, _ELEMENT_KINDS.values())  # raises unless int, real or text
            if not isinstance(membership, Fraction):
                raise ModelInvariantError("fuzzy memberships must be Fractions")
            if not 0 <= membership <= 1:
                raise ModelInvariantError(
                    f"fuzzy membership must lie in [0, 1], got {membership}"
                )
            if element in seen:  # int, Fraction and str hash as they compare
                raise ModelInvariantError(f"duplicate fuzzy element {element!r}")
            seen.add(element)

    @property
    def genuinely_fuzzy(self) -> bool:
        """True when some membership is strictly between 0 and 1.

        A fuzzy-set value whose memberships are all 0 or 1 is a crisp set
        in disguise and does not make its carrier fuzzy.
        """
        return any(0 < m < 1 for _, m in self.entries)


Value = Union[int, Fraction, str, bool, FuzzySet]


def decode_value(tag: ValueType, raw: object) -> Value:
    """Read a value of type ``tag`` back from its JSON data."""
    if not (tag.codec.is_json or tag.codec.check)(raw):
        raise StructuredImportError(f"{raw!r} is not a {tag._value_} value")
    return tag.codec.decode(raw)


def untyped_type(value: Value, tags: Iterable[ValueType] = ValueType) -> ValueType:
    """The type of a value nothing declares one for (an object override or a
    fuzzy element), read off its Python type.  The checks exclude each
    other: a ``bool`` is never an ``int`` value."""
    for tag in tags:
        if tag.codec.check(value):
            return tag
    names = ", ".join(tag._value_ for tag in tags)
    raise ModelInvariantError(f"{value!r} has none of the types {names}")


def format_untyped(value: Value) -> str:
    """Canonical text of a value nothing declares a type for.

    A whole-number real is written ``n.0`` so that it reads back as a
    rational rather than an integer.
    """
    tag = untyped_type(value)
    if tag is ValueType.REAL and value.denominator == 1:  # type: ignore[union-attr]
        return f"{value.numerator}.0"  # type: ignore[union-attr]
    return tag.codec.text(value)


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------


class MemberKind(Enum):
    PROPERTY = "prop"
    METHOD = "method"

    __hash__ = object.__hash__  # as ValueType's


# Tags are read as module names and their texts as ``_value_``: on Python
# 3.11, ``MemberKind.PROPERTY`` and ``tag.value`` cost about ten times as much.
_PROPERTY, _METHOD = MemberKind.PROPERTY, MemberKind.METHOD


class _MemberKeys(_Held):
    __slots__ = ("identity",)


@dataclass(frozen=True, slots=True, init=False)
class Member(_MemberKeys):
    """A property or method, stamped with the class that declared it.

    Identity within a member set is the (owner, name) pair: two classes may
    each declare a member called ``p1`` and both survive side by side in a
    heterogeneous structure.  Similarity (equal :meth:`similarity_key`)
    deliberately ignores the owner so that equal knowledge declared twice
    can be recognized and merged where merging is wanted.  The identity is
    computed once, at construction, and read from a slot after that.
    """

    kind: MemberKind
    name: str
    owner: str
    value_type: ValueType | None = None
    value: Value | None = None
    params: tuple[tuple[str, ValueType], ...] = ()
    returns: ValueType | None = None

    # By hand, as DegreedMember's: checking, then setting each slot once through its
    # descriptor, takes half the generated ``__init__``'s time; every parsed member is built here.
    def __init__(self, kind: MemberKind, name: str, owner: str, value_type: ValueType | None = None,
                 value: Value | None = None, params: tuple[tuple[str, ValueType], ...] = (),
                 returns: ValueType | None = None) -> None:
        check_names(name, owner)
        if kind is _PROPERTY:
            if value_type is None:
                raise ModelInvariantError(f"property {name!r} needs a value type")
            if not value_type.codec.check(value):
                raise ModelInvariantError(
                    f"property {name!r}: value {value!r} does not match type {value_type._value_}"
                )
            if params or returns is not None:
                raise ModelInvariantError(f"property {name!r} cannot carry a method signature")
        else:
            if value_type is not None or value is not None:
                raise ModelInvariantError(f"method {name!r} cannot carry a property value")
            pnames = [pname for pname, _ in params]
            check_names(*pnames)
            if len(set(pnames)) < len(pnames):
                repeat = next(pname for i, pname in enumerate(pnames) if pname in pnames[:i])
                raise ModelInvariantError(f"method {name!r} has duplicate parameter {repeat!r}")
        _set_kind(self, kind)
        _set_name(self, name)
        _set_owner(self, owner)
        _set_value_type(self, value_type)
        _set_value(self, value)
        _set_params(self, params)
        _set_returns(self, returns)
        _set_identity(self, (owner, name))

    def __hash__(self) -> int:
        # Equal members share an identity, and a member set holds one
        # member per identity.
        return hash(self.identity)

    def similarity_key(self) -> tuple:
        """Owner-free content key; equal keys mean similar members."""
        if self.kind is _PROPERTY:
            return (self.kind, self.name, self.value_type, self.value)
        return (self.kind, self.name, self.params, self.returns)

    def display(self) -> str:
        """Short owner-qualified form, e.g. ``p1(A1)``."""
        return f"{self.name}({self.owner})"


def value_text(member: Member) -> str:
    """A member's value as reports show it; a method has none."""
    if member.value_type is None:
        return "<method>"
    return member.value_type.codec.text(member.value)


def prop(name: str, value_type: ValueType, value: Value, owner: str) -> Member:
    """Build a property member."""
    return Member(_PROPERTY, name, owner, value_type, value)


def method(
    name: str,
    owner: str,
    params: Iterable[tuple[str, ValueType]] = (),
    returns: ValueType | None = None,
) -> Member:
    """Build a method member."""
    return Member(_METHOD, name, owner, params=tuple(params), returns=returns)


class _EntryKeys(_Held):
    __slots__ = ("_hash",)


_identity_of = attrgetter("member.identity")  # an entry's member's identity
_kind_of = attrgetter("member.kind")  # an entry's member's kind


@dataclass(frozen=True, slots=True, init=False)
class DegreedMember(_EntryKeys):
    """A member together with the degree to which it belongs to its carrier."""

    member: Member
    degree: Degree = DEGREE_ONE

    def __init__(self, member: Member, degree: Degree = DEGREE_ONE) -> None:
        _set_member(self, member)
        _set_degree(self, degree)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first use
            object.__setattr__(self, "_hash", hash((self.member, self.degree)))
            return self._hash

    # The member's identity, one hop away, read without a Python frame.
    identity = property(_identity_of)

    def display(self) -> str:
        base = self.member.display()
        if self.degree.is_weak:
            return f"{base}/{self.degree}"
        return base


for _cls in (Degree, Member, DegreedMember):
    del _cls.__setattr__, _cls.__delattr__  # _Held's refuse every write
# The slot descriptors the hand-written constructors set their fields through.
_set_kind, _set_name, _set_owner, _set_value_type, _set_value, _set_params, _set_returns, \
    _set_identity = (getattr(Member, key).__set__ for key in (*Member.__match_args__, "identity"))
_set_member, _set_degree = DegreedMember.member.__set__, DegreedMember.degree.__set__


def member_text(entry: DegreedMember, head: str) -> str:
    """An entry's kind, typing, value and degree around ``head``, the
    member's name as the caller shows it."""
    member = entry.member
    if member.kind is _PROPERTY:
        assert member.value_type is not None
        text = f"prop {head}: {member.value_type._value_} = {value_text(member)}"
    else:
        params = ", ".join(f"{n}: {t._value_}" for n, t in member.params)
        text = f"method {head}({params})"
        if member.returns is not None:
            text += f" -> {member.returns._value_}"
    return f"{text} /{entry.degree}" if entry.degree.is_weak else text


def member_line(entry: DegreedMember) -> str:
    """Full one-line rendering of an entry: kind, owner, typing, value, degree."""
    return member_text(entry, entry.member.display())


# ---------------------------------------------------------------------------
# Member sets
# ---------------------------------------------------------------------------


class MemberSet:
    """Ordered collection of degreed members with unique (owner, name) identity.

    Declaration order is preserved for serialization, but ``==`` compares as
    a set of (member, degree) pairs; :meth:`similar_eq` loosens that further
    by comparing owner-free similarity keys, which is the right notion when
    a reconstructed member set may carry another participant's copy of the
    same knowledge.  Identities are read from the slots where members hold
    them, computed once, at construction.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Member | DegreedMember] = ()) -> None:
        coerced: list[DegreedMember] = []
        seen: set[tuple[str, str]] = set()
        for item in items:
            entry = item if isinstance(item, DegreedMember) else DegreedMember(item)
            identity = entry.identity
            if identity in seen:
                owner, name = identity
                raise ModelInvariantError(
                    f"duplicate member {name!r} owned by {owner!r} in one member set"
                )
            seen.add(identity)
            coerced.append(entry)
        self._items: tuple[DegreedMember, ...] = tuple(coerced)

    def __iter__(self) -> Iterator[DegreedMember]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemberSet):
            return NotImplemented
        return frozenset(self._items) == frozenset(other._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items))

    def __repr__(self) -> str:
        inner = ", ".join(entry.display() for entry in self._items)
        return f"MemberSet({inner})"

    def similar_eq(self, other: "MemberSet") -> bool:
        """Set equality over (similarity key, degree) pairs, ignoring owners."""
        return self._similarity_signature() == other._similarity_signature()

    def _similarity_signature(self) -> frozenset:
        return frozenset(
            (entry.member.similarity_key(), entry.degree) for entry in self._items
        )

    def get(self, owner: str, name: str) -> DegreedMember | None:
        for entry in self._items:
            if entry.identity == (owner, name):
                return entry
        return None

    @classmethod
    def _subset(cls, entries: Iterable[DegreedMember]) -> "MemberSet":
        """Entries of a member set, whose identities are already distinct."""
        subset = cls.__new__(cls)
        subset._items = tuple(entries)
        return subset

    def by_kind(self) -> tuple["MemberSet", "MemberSet"]:
        """Properties and methods, split in one pass."""
        properties: list[DegreedMember] = []
        methods: list[DegreedMember] = []
        for entry in self._items:
            if entry.member.kind is _PROPERTY:
                properties.append(entry)
            else:
                methods.append(entry)
        return self._subset(properties), self._subset(methods)


def dedupe_similar(entries: Iterable[DegreedMember]) -> MemberSet:
    """Collapse similar members, keeping the copy held at the highest degree.

    Used when flattening a heterogeneous structure back into one member
    set: similar copies assert the same knowledge, regardless of owner, so
    one is kept -- the strongest, the first on a tie (fuzzy union as a
    maximum) -- at the place where the knowledge first occurs.
    """
    kept: list[DegreedMember] = []
    slot_of: dict[tuple, int] = {}
    for entry in entries:
        slot = slot_of.setdefault(entry.member.similarity_key(), len(kept))
        if slot == len(kept):
            kept.append(entry)
        elif kept[slot].degree.is_weak and entry.degree > kept[slot].degree:
            kept[slot] = entry
    # Only two contents of one identity can still share it.
    if len(set(map(_identity_of, kept))) < len(kept):
        return MemberSet(kept)  # refuses, naming the first
    return MemberSet._subset(kept)


# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomClass:
    """Homogeneous class: a specification of properties and a signature of methods.

    Construction also keeps ``entries``, the members in declaration order,
    for every plan walk to read, and ``borrows``, whether one of them is
    owned by another class.
    """

    name: str
    spec: MemberSet = field(default_factory=MemberSet)
    sig: MemberSet = field(default_factory=MemberSet)

    def __post_init__(self) -> None:
        check_names(self.name, keywords=KEYWORDS)
        # Each set looks, in C, for a member of the other kind.
        if _METHOD in map(_kind_of, self.spec):
            raise ModelInvariantError(
                f"class {self.name!r}: specification holds properties only"
            )
        if _PROPERTY in map(_kind_of, self.sig):
            raise ModelInvariantError(
                f"class {self.name!r}: signature holds methods only"
            )
        # Each member set keeps its identities distinct; only a property and
        # a method can still share one.
        if self.spec and self.sig:
            spec_ids = {entry.identity for entry in self.spec}
            for entry in self.sig:
                if entry.identity in spec_ids:
                    raise ModelInvariantError(
                        f"class {self.name!r}: duplicate member {entry.member.name!r}"
                    )
        object.__setattr__(self, "entries", (*self.spec, *self.sig))
        object.__setattr__(self, "borrows", any(e.member.owner != self.name for e in self.entries))

    def members(self) -> MemberSet:
        """Specification and signature in declaration order (their
        identities are distinct, as construction checked)."""
        return MemberSet._subset(self.entries)


@dataclass(frozen=True)
class Projection:
    """Members typical of one participant of a heterogeneous class."""

    label: str
    members: MemberSet = field(default_factory=MemberSet)
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for label in (self.label, *self.depends_on):
            if not isinstance(label, str):  # the writer quotes labels as text
                raise ModelInvariantError(f"projection label {label!r} is not a string")


@dataclass(frozen=True)
class HetClass:
    """Heterogeneous class: shared core plus labeled projections.

    ``participants`` maps each participating class (or object) name to the
    labels of the projections that carry its typical members; a participant
    mapped to an empty tuple owns nothing beyond the core.  The same
    (owner, name) member may appear in two projections only at different
    degrees, which is how one participant keeps a member crisply while
    another holds it weakly; it never appears in both the core and a
    projection.  ``entries`` is the core, then each projection's members.
    """

    name: str
    core: MemberSet = field(default_factory=MemberSet)
    projections: tuple[Projection, ...] = ()
    participants: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_names(self.name, *self.participants)
        graph = {p.label: p.depends_on for p in self.projections}
        if len(graph) != len(self.projections):
            raise ModelInvariantError(f"class {self.name!r}: duplicate projection labels")
        # Each label's place, so that a view reads only its participant's labels.
        object.__setattr__(self, "_position", dict(zip(graph, count())))
        for projection in self.projections:
            for dep in projection.depends_on:
                if dep not in graph:
                    raise ModelInvariantError(
                        f"class {self.name!r}: projection {projection.label!r} "
                        f"depends on unknown label {dep!r}"
                    )
        cycle = next(_cycles(graph, graph), None)
        if cycle is not None:
            raise ModelInvariantError(
                f"class {self.name!r}: projection dependencies form a cycle at {cycle[-1]!r}"
            )
        # Only where an identity repeats can a rule fail; then each placement
        # is checked in order, each member set first, as its construction would.
        sets = (self.core, *(p.members for p in self.projections))
        object.__setattr__(self, "entries", tuple(chain.from_iterable(sets)))
        if len(set(map(_identity_of, self.entries))) < len(self.entries):
            for members in sets:
                MemberSet(members)  # refuses a repeat within one set
            core_ids = {entry.identity for entry in self.core}
            placed: set[tuple[tuple[str, str], Degree]] = set()
            for projection in self.projections:
                for entry in projection.members:
                    member = entry.member
                    if member.identity in core_ids:
                        raise ModelInvariantError(
                            f"class {self.name!r}: member {member.display()} "
                            f"appears in both the core and projection {projection.label!r}"
                        )
                    placement = (member.identity, entry.degree)
                    if placement in placed:
                        raise ModelInvariantError(
                            f"class {self.name!r}: member {member.name!r} of {member.owner!r} "
                            f"repeats at the same degree across projections"
                        )
                    placed.add(placement)
        for participant, plabels in self.participants.items():
            for label in plabels:
                if label not in graph:
                    raise ModelInvariantError(
                        f"class {self.name!r}: participant {participant!r} maps to "
                        f"unknown projection {label!r}"
                    )

    @classmethod
    def layered(
        cls, name: str, core: list[DegreedMember], projections: list[tuple], participants: dict
    ) -> HetClass:
        """A class from bare entry lists, as layering builds one, each
        projection given as (label, entries, depends_on).  Its member sets
        are checked by construction's pass over the placements, not each alone."""
        shares = (Projection(label, MemberSet._subset(e), deps) for label, e, deps in projections)
        return cls(name, MemberSet._subset(core), tuple(shares), participants)

    def member_view(self, participant: str) -> MemberSet:
        """Effective member set of one participant: core plus its projections.

        Similar members are collapsed (see :func:`dedupe_similar`; core
        first, then projection order), so one piece of knowledge declared
        at several levels is reported once, at the highest degree held.
        """
        if participant not in self.participants:
            raise UnknownEntityError(
                f"{participant!r} does not participate in class {self.name!r}"
            )
        positions = sorted(map(self._position.__getitem__, self.participants[participant]))
        shares = (self.projections[i].members for i in positions)
        return dedupe_similar(chain(self.core, *shares))

    def members(self) -> MemberSet:
        """Core plus every projection, similar members collapsed."""
        return dedupe_similar(self.entries)


KnowledgeClass = Union[HomClass, HetClass]


def class_is_fuzzy(cls: KnowledgeClass) -> bool:
    """A class is fuzzy when it holds a weak member or a genuinely fuzzy value."""
    for entry in cls.entries:
        if entry.degree.is_weak:
            return True
        if isinstance(entry.member.value, FuzzySet) and entry.member.value.genuinely_fuzzy:
            return True
    return False


# ---------------------------------------------------------------------------
# Objects and relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectInstance:
    """A named instance of a class, with optional per-property value overrides."""

    name: str
    class_ref: str
    member_values: tuple[tuple[str, Value], ...] = ()

    def __post_init__(self) -> None:
        names = [n for n, _ in self.member_values]
        check_names(self.name, self.class_ref, *names)
        if len(names) != len(set(names)):
            raise ModelInvariantError(f"object {self.name!r}: duplicate value overrides")

    def values(self) -> dict[str, Value]:
        return dict(self.member_values)


class RelationKind(Enum):
    GENERALIZATION = "generalization"
    INSTANCE_OF = "instance_of"
    AGGREGATION = "aggregation"
    ASSOCIATION = "association"


@dataclass(frozen=True)
class Relation:
    """A directed link between two entities, optionally held to a degree.

    A present degree marks the relation as fuzzy; degree 1 is normalized
    away at construction so that crisp relations have exactly one
    representation.
    """

    kind: RelationKind
    source: str
    target: str
    label: str | None = None
    degree: Degree | None = None

    def __post_init__(self) -> None:
        if self.kind is RelationKind.ASSOCIATION and not self.label:
            raise ModelInvariantError("association relations require a label")
        if self.kind is not RelationKind.ASSOCIATION and self.label is not None:
            raise ModelInvariantError(
                f"{self.kind._value_} relations do not carry a label"
            )
        check_names(self.source, self.target)
        if self.label is not None:
            check_names(self.label)
        if self.degree is not None and not self.degree.is_weak:
            object.__setattr__(self, "degree", None)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class ClassTable(dict):
    """A network's classes by name, which keeps ``heterogeneous``, the names
    a ``HetClass`` is stored under, current on every write."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self.heterogeneous: set[str] = set()
        self.update(*args, **kwargs)

    def __reduce__(self) -> tuple:  # pickle would set items before the set exists
        return type(self), (dict(self),)

    def __setitem__(self, key: str, cls: KnowledgeClass) -> None:
        self.heterogeneous.discard(key)
        super().__setitem__(key, cls)
        if isinstance(cls, HetClass):
            self.heterogeneous.add(key)

    def pop(self, key: str, *default: Any) -> Any:
        self.heterogeneous.discard(key)
        return super().pop(key, *default)

    __delitem__ = pop

    def popitem(self) -> tuple[str, KnowledgeClass]:
        key, cls = super().popitem()
        self.heterogeneous.discard(key)
        return key, cls

    def __ior__(self, other: Any) -> "ClassTable":
        self.update(other)
        return self

    setdefault, update = MutableMapping.setdefault, MutableMapping.update  # via __setitem__
    clear = MutableMapping.clear  # via popitem


@dataclass
class Network:
    """The five-part knowledge container plus declared inheritance plans.

    ``exploiters`` and ``modifiers`` are registries of named operations;
    :func:`oodn.operations.make_network` returns a network with the built-in
    operations installed.  ``stale`` collects the names of registered
    heterogeneous classes a modifier edited a participant of; they are
    flagged, never rebuilt behind the caller's back.  ``classes`` is always
    a :class:`ClassTable`: a plain ``dict`` is wrapped when assigned.
    """

    objects: dict[str, ObjectInstance] = field(default_factory=dict)
    classes: ClassTable = field(default_factory=ClassTable)
    relations: list[Relation] = field(default_factory=list)
    exploiters: dict[str, Callable] = field(default_factory=dict)
    modifiers: dict[str, Callable] = field(default_factory=dict)
    plans: list["InheritancePlan"] = field(default_factory=list)
    stale: set[str] = field(default_factory=set)

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "classes" and not isinstance(value, ClassTable):
            value = ClassTable(value)  # a plain dict, passed in or assigned later
        super().__setattr__(name, value)


@dataclass(frozen=True)
class Violation:
    """One validation finding; ``severity`` is ``"error"`` or ``"warning"``."""

    severity: str
    entity: str
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.severity}: {self.entity}: {self.rule}: {self.message}"


def validate_network(net: Network) -> list[Violation]:
    """Check network-level invariants, returning findings as data.

    Errors mark real rule violations (dangling references, kind-mismatched
    relation endpoints, generalization cycles, override mismatches, an
    object named like a class, a heterogeneous class in a plan, a listing
    of what a source does not offer); a class with no members is a warning.
    """
    findings: list[Violation] = []

    def error(entity: str, rule: str, message: str) -> None:
        findings.append(Violation("error", entity, rule, message))

    for name, cls in net.classes.items():
        findings.extend(_class_findings(name, cls))
    for name, obj in net.objects.items():
        findings.extend(_object_findings(net, name, obj))

    known = set(net.classes) | set(net.objects)
    generalizes: dict[str, list[str]] = {}
    for relation in net.relations:
        where = f"{relation.source}->{relation.target}"
        for endpoint in (relation.source, relation.target):
            if endpoint not in known:
                error(where, "dangling-endpoint", f"relation endpoint {endpoint!r} is not declared")
        if relation.kind is RelationKind.GENERALIZATION:
            generalizes.setdefault(relation.source, []).append(relation.target)
            if relation.source not in net.classes or relation.target not in net.classes:
                error(where, "generalization-endpoints", "generalization links class to class")
        if relation.kind is RelationKind.INSTANCE_OF:
            if relation.source not in net.objects or relation.target not in net.classes:
                error(where, "instance-of-endpoints", "instance_of links object to class")

    for cycle in _cycles(generalizes, sorted(generalizes)):
        error(
            " -> ".join(cycle),
            "generalization-cycle",
            "generalization relations form a cycle through " + ", ".join(cycle),
        )

    for plan in net.plans:
        findings.extend(_plan_findings(net, plan))

    return findings


def validate_edit(net: Network, name: str, removed: str | None = None) -> list[Violation]:
    """The findings an edit to the named class or object can change.

    Relations and generalization cycles name entities only.  A plan's
    listings name members, but only the member ``removed`` can break one:
    each plan naming the class reports the listings that removal breaks.
    An edit to a class can change its own findings and those of the objects
    whose class it is; an edit to an object, only the object's.  The rules
    are :func:`validate_network`'s, applied in its order, so after a member
    edit to a clean network, the errors here are the whole network's.
    """
    cls = net.classes.get(name)
    findings = [] if cls is None else list(_class_findings(name, cls))
    for object_name, obj in net.objects.items():
        if object_name == name or (cls is not None and obj.class_ref == name):
            findings.extend(_object_findings(net, object_name, obj))
    for plan in net.plans if removed is not None else ():
        if name in plan.class_names():
            lost = _plan_findings(net, plan, (name, removed))
            findings.extend(v for v in lost if v.rule == "plan-unoffered-member")
    return findings


def _plan_findings(net: Network, plan: InheritancePlan, lost: tuple = ()) -> Iterator[Violation]:
    """A plan's findings; of its listings, only those broken since a class
    ``lost`` a name (see ``inheritance.not_offered``)."""
    where = plan.describe()
    walkable = True
    for class_name in plan.class_names():
        if class_name in net.classes.heterogeneous:
            message = f"class {class_name!r} is heterogeneous and cannot join a plan directly"
            yield Violation("error", where, "plan-heterogeneous-class", message)
            walkable = False
        if class_name in net.classes:
            continue
        if class_name == plan.heir:
            message = f"heir {class_name!r} is not declared; it will be built with no own members"
            yield Violation("warning", where, "plan-heir-synthesized", message)
        else:
            message = f"inheritance plan names undeclared class {class_name!r}"
            yield Violation("error", where, "plan-dangling-class", message)
            walkable = False
    if walkable:
        had = set(inheritance.not_offered(plan, net, lost)) if lost else ()
        for message in inheritance.not_offered(plan, net):
            if message not in had:
                yield Violation("error", where, "plan-unoffered-member", message)


def _class_findings(name: str, cls: KnowledgeClass) -> Iterator[Violation]:
    if cls.name != name:
        yield Violation(
            "error", name, "registry-name", f"registered as {name!r} but named {cls.name!r}"
        )
    if not cls.entries:
        held = "members in core or projections"
        if isinstance(cls, HomClass):
            held = "properties and no methods"
        yield Violation("warning", name, "empty-class", f"class declares no {held}")


def _object_findings(net: Network, name: str, obj: ObjectInstance) -> Iterator[Violation]:
    if obj.name != name:
        yield Violation(
            "error", name, "registry-name", f"registered as {name!r} but named {obj.name!r}"
        )
    if name in net.classes:
        yield Violation("error", name, "name-clash", f"{name!r} already names a class")
    cls = net.classes.get(obj.class_ref)
    if cls is None:
        yield Violation(
            "error", name, "dangling-class", f"object class {obj.class_ref!r} is not declared"
        )
        return
    declared = declared_properties(cls)
    for value_name, value in obj.member_values:
        if value_name not in declared:
            yield Violation(
                "error",
                name,
                "unknown-override",
                f"object sets {value_name!r} which class {obj.class_ref!r} lacks",
            )
        elif not declared[value_name].codec.check(value):
            yield Violation(
                "error",
                name,
                "override-type",
                f"value for {value_name!r} does not match declared type "
                f"{declared[value_name]._value_}",
            )


def declared_properties(cls: KnowledgeClass) -> dict[str, ValueType]:
    """Value type of every property an object of ``cls`` may set, read off
    its declarations, so a class too wide to flatten still answers."""
    mapping: dict[str, ValueType] = {}
    for entry in cls.entries:
        if entry.member.value_type is not None:
            mapping[entry.member.name] = entry.member.value_type
    return mapping


def _cycles(graph: dict[str, Iterable[str]], roots: Iterable[str]) -> Iterator[list[str]]:
    """Each cycle a depth-first search from every root in turn meets, as
    the path around it with its first node repeated last.  The search keeps
    an explicit stack, so that a deep graph cannot exhaust the interpreter's."""
    state: dict[str, int] = {}  # 1 while on the path, 2 once done
    path: list[str] = []  # the nodes being visited, root first
    for root in roots:
        if root in state:
            continue
        state[root] = 1
        path.append(root)
        pending = [iter(graph.get(root, ()))]  # each path node's unvisited targets
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                pending.pop()
                state[path.pop()] = 2
            elif nxt not in state:
                state[nxt] = 1
                path.append(nxt)
                pending.append(iter(graph.get(nxt, ())))
            elif state[nxt] == 1:
                yield path[path.index(nxt):] + [nxt]


def violations_are_fatal(findings: Iterable[Violation]) -> bool:
    return any(v.severity == "error" for v in findings)


# ---------------------------------------------------------------------------
# Fuzziness predicate
# ---------------------------------------------------------------------------


def is_fuzzy(net: Network) -> bool:
    """True when the network holds any fuzzy object, class, or relation.

    The three sufficient conditions: an object with a genuinely fuzzy
    value, a class with a weak member or genuinely fuzzy property value,
    or a relation that carries a degree.
    """
    for cls in net.classes.values():
        if class_is_fuzzy(cls):
            return True
    # Every class is crisp by now, so an object is fuzzy by its own values.
    for obj in net.objects.values():
        for _, value in obj.member_values:
            if isinstance(value, FuzzySet) and value.genuinely_fuzzy:
                return True
    return any(relation.degree is not None for relation in net.relations)


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


def materialize(
    net: Network, name: str, extra: Iterable[HetClass] = ()
) -> MemberSet:
    """Effective member set of a named class or object.

    A participant of a heterogeneous class reconstructs as its core share
    plus all projections registered for it; a standalone homogeneous class
    is its own members; an object is its class's properties with the
    object's value overrides applied.  ``extra`` supplies heterogeneous
    results that are not registered in the network (for example, freshly
    executed inheritance plans).
    """
    table = net.classes
    hosts = [
        cls
        for cls in chain((table[key] for key in table.heterogeneous), extra)
        if isinstance(cls, HetClass) and name in cls.participants
    ]
    if len(hosts) > 1:
        raise UnknownEntityError(
            f"{name!r} participates in several heterogeneous classes; "
            f"reconstruct through a specific one"
        )
    if hosts:
        return hosts[0].member_view(name)
    cls = net.classes.get(name)
    if cls is not None:
        return cls.members()
    obj = net.objects.get(name)
    if obj is not None:
        return _object_members(net, obj)
    raise UnknownEntityError(f"nothing named {name!r} is declared")


def _object_members(net: Network, obj: ObjectInstance) -> MemberSet:
    cls = net.classes.get(obj.class_ref)
    if cls is None:
        raise UnknownEntityError(
            f"object {obj.name!r} references undeclared class {obj.class_ref!r}"
        )
    overrides = obj.values()
    rebuilt: list[DegreedMember] = []
    for entry in cls.members():
        member = entry.member
        if member.kind is _PROPERTY and member.name in overrides:
            member = prop(member.name, member.value_type, overrides[member.name], obj.name)
            rebuilt.append(DegreedMember(member, entry.degree))
        else:
            rebuilt.append(entry)
    return MemberSet(rebuilt)


from . import inheritance  # noqa: E402  # built on this module, so imported last
