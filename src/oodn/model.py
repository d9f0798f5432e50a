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

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .inheritance import InheritancePlan


class OodnError(Exception):
    """Base class for all errors raised by this package."""


class UnknownEntityError(OodnError):
    """A name does not resolve to any declared entity."""


class ModelInvariantError(OodnError):
    """A value would violate one of the model's construction invariants."""


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Degree:
    """Exact rational membership degree in the half-open interval (0, 1]."""

    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if not 0 < self.value <= 1:
            raise ModelInvariantError(f"degree must lie in (0, 1], got {self.value}")

    @property
    def is_weak(self) -> bool:
        return self.value < 1

    def __mul__(self, other: "Degree") -> "Degree":
        return Degree(self.value * other.value)

    def __str__(self) -> str:
        return format_rational(self.value)


DEGREE_ONE = Degree(Fraction(1))


def as_degree(value: "Degree | Fraction | int | str") -> Degree:
    """Coerce a raw number (or numeral text) into a Degree."""
    if isinstance(value, Degree):
        return value
    if isinstance(value, str):
        return Degree(Fraction(value))
    return Degree(Fraction(value))


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


class ValueType(Enum):
    """Type tag for property values and method parameters/returns."""

    INT = "int"
    REAL = "real"
    TEXT = "text"
    BOOL = "bool"
    FUZZY = "fuzzy"


FuzzyElement = Union[str, int, Fraction]


@dataclass(frozen=True)
class FuzzySet:
    """Finite fuzzy set: (element, membership) pairs with memberships in [0, 1]."""

    entries: tuple[tuple[FuzzyElement, Fraction], ...]

    def __post_init__(self) -> None:
        seen: list[FuzzyElement] = []
        for element, membership in self.entries:
            if not isinstance(membership, Fraction):
                raise ModelInvariantError("fuzzy memberships must be Fractions")
            if not 0 <= membership <= 1:
                raise ModelInvariantError(
                    f"fuzzy membership must lie in [0, 1], got {membership}"
                )
            if any(element == other for other in seen):
                raise ModelInvariantError(f"duplicate fuzzy element {element!r}")
            seen.append(element)

    @property
    def genuinely_fuzzy(self) -> bool:
        """True when some membership is strictly between 0 and 1.

        A fuzzy-set value whose memberships are all 0 or 1 is a crisp set
        in disguise and does not make its carrier fuzzy.
        """
        return any(0 < m < 1 for _, m in self.entries)


Value = Union[int, Fraction, str, bool, FuzzySet]


def value_matches_type(tag: ValueType, value: Value) -> bool:
    """Check that a raw value is consistent with a type tag."""
    if tag is ValueType.BOOL:
        return isinstance(value, bool)
    if tag is ValueType.INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if tag is ValueType.REAL:
        return isinstance(value, Fraction)
    if tag is ValueType.TEXT:
        return isinstance(value, str)
    if tag is ValueType.FUZZY:
        return isinstance(value, FuzzySet)
    return False


def format_value(tag: ValueType, value: Value) -> str:
    """Render a property value canonically for reports and serialization."""
    if tag is ValueType.BOOL:
        return "true" if value else "false"
    if tag is ValueType.INT:
        return str(value)
    if tag is ValueType.REAL:
        return format_rational(value)  # type: ignore[arg-type]
    if tag is ValueType.TEXT:
        return quote_text(value)  # type: ignore[arg-type]
    assert isinstance(value, FuzzySet)
    parts = []
    for element, membership in value.entries:
        if isinstance(element, str):
            shown = element if is_identifier(element) else quote_text(element)
        elif isinstance(element, Fraction):
            shown = format_rational(element)
        else:
            shown = str(element)
        parts.append(f"{shown}: {format_rational(membership)}")
    return "{" + ", ".join(parts) + "}"


def quote_text(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def is_identifier(text: str) -> bool:
    if not text or not (text[0].isalpha() or text[0] == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in text)


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------


class MemberKind(Enum):
    PROPERTY = "prop"
    METHOD = "method"


@dataclass(frozen=True)
class Member:
    """A property or method, stamped with the class that declared it.

    Identity within a member set is the (owner, name) pair: two classes may
    each declare a member called ``p1`` and both survive side by side in a
    heterogeneous structure.  Similarity (see :func:`similar`) deliberately
    ignores the owner so that equal knowledge declared twice can be
    recognized and merged where merging is wanted.
    """

    kind: MemberKind
    name: str
    owner: str
    value_type: ValueType | None = None
    value: Value | None = None
    params: tuple[tuple[str, ValueType], ...] = ()
    returns: ValueType | None = None

    def __post_init__(self) -> None:
        if self.kind is MemberKind.PROPERTY:
            if self.value_type is None:
                raise ModelInvariantError(f"property {self.name!r} needs a value type")
            if not value_matches_type(self.value_type, self.value):
                raise ModelInvariantError(
                    f"property {self.name!r}: value {self.value!r} does not match "
                    f"type {self.value_type.value}"
                )
            if self.params or self.returns is not None:
                raise ModelInvariantError(
                    f"property {self.name!r} cannot carry a method signature"
                )
        else:
            if self.value_type is not None or self.value is not None:
                raise ModelInvariantError(
                    f"method {self.name!r} cannot carry a property value"
                )
            seen = set()
            for pname, _ in self.params:
                if pname in seen:
                    raise ModelInvariantError(
                        f"method {self.name!r} has duplicate parameter {pname!r}"
                    )
                seen.add(pname)

    @property
    def identity(self) -> tuple[str, str]:
        return (self.owner, self.name)

    def similarity_key(self) -> tuple:
        """Owner-free content key; equal keys mean similar members."""
        if self.kind is MemberKind.PROPERTY:
            return (self.kind, self.name, self.value_type, self.value)
        return (self.kind, self.name, self.params, self.returns)

    def display(self) -> str:
        """Short owner-qualified form, e.g. ``p1(A1)``."""
        return f"{self.name}({self.owner})"


def value_text(member: Member) -> str:
    """A member's value as reports show it; a method has none."""
    if member.value_type is None:
        return "<method>"
    return format_value(member.value_type, member.value)


def prop(name: str, value_type: ValueType, value: Value, owner: str) -> Member:
    """Build a property member."""
    return Member(MemberKind.PROPERTY, name, owner, value_type=value_type, value=value)


def method(
    name: str,
    owner: str,
    params: Iterable[tuple[str, ValueType]] = (),
    returns: ValueType | None = None,
) -> Member:
    """Build a method member."""
    return Member(MemberKind.METHOD, name, owner, params=tuple(params), returns=returns)


def similar(a: Member, b: Member) -> bool:
    """Owner-free similarity.

    Properties are similar when name, value type, and value all coincide;
    methods are similar when name and the full symbolic signature coincide.
    Same-named members of different value types are dissimilar: they are
    different assertions that merely share a label.
    """
    return a.similarity_key() == b.similarity_key()


@dataclass(frozen=True)
class DegreedMember:
    """A member together with the degree to which it belongs to its carrier."""

    member: Member
    degree: Degree = DEGREE_ONE

    @property
    def identity(self) -> tuple[str, str]:
        return self.member.identity

    def display(self) -> str:
        base = self.member.display()
        if self.degree.is_weak:
            return f"{base}/{self.degree}"
        return base


def member_text(entry: DegreedMember, head: str) -> str:
    """An entry's kind, typing, value and degree around ``head``, the
    member's name as the caller shows it."""
    member = entry.member
    if member.kind is MemberKind.PROPERTY:
        assert member.value_type is not None
        text = f"prop {head}: {member.value_type.value} = {value_text(member)}"
    else:
        params = ", ".join(f"{n}: {t.value}" for n, t in member.params)
        text = f"method {head}({params})"
        if member.returns is not None:
            text += f" -> {member.returns.value}"
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
    same knowledge.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Member | DegreedMember] = ()) -> None:
        coerced: list[DegreedMember] = []
        seen: set[tuple[str, str]] = set()
        for item in items:
            entry = item if isinstance(item, DegreedMember) else DegreedMember(item)
            if entry.identity in seen:
                owner, name = entry.identity
                raise ModelInvariantError(
                    f"duplicate member {name!r} owned by {owner!r} in one member set"
                )
            seen.add(entry.identity)
            coerced.append(entry)
        self._items: tuple[DegreedMember, ...] = tuple(coerced)

    def __iter__(self) -> Iterator[DegreedMember]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

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

    def bare_names(self) -> list[str]:
        """Member names in declaration order, duplicates preserved."""
        return [entry.member.name for entry in self._items]

    def properties(self) -> "MemberSet":
        return MemberSet(e for e in self._items if e.member.kind is MemberKind.PROPERTY)

    def methods(self) -> "MemberSet":
        return MemberSet(e for e in self._items if e.member.kind is MemberKind.METHOD)

    def extended(self, item: Member | DegreedMember) -> "MemberSet":
        return MemberSet([*self._items, item])

    def without(self, owner: str, name: str) -> "MemberSet":
        return MemberSet(e for e in self._items if e.identity != (owner, name))


def dedupe_similar(entries: Iterable[DegreedMember]) -> MemberSet:
    """Collapse similar members, first occurrence wins.

    Used when flattening a heterogeneous structure back into one member
    set: a later copy of knowledge that is similar to an earlier one adds
    nothing and is dropped, regardless of owner.
    """
    kept: list[DegreedMember] = []
    seen_keys: set[tuple] = set()
    for entry in entries:
        key = entry.member.similarity_key()
        if key in seen_keys:
            continue
        seen_keys.add(key)
        kept.append(entry)
    return MemberSet(kept)


# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomClass:
    """Homogeneous class: a specification of properties and a signature of methods."""

    name: str
    spec: MemberSet = field(default_factory=MemberSet)
    sig: MemberSet = field(default_factory=MemberSet)

    def __post_init__(self) -> None:
        for entry in self.spec:
            if entry.member.kind is not MemberKind.PROPERTY:
                raise ModelInvariantError(
                    f"class {self.name!r}: specification holds properties only"
                )
        for entry in self.sig:
            if entry.member.kind is not MemberKind.METHOD:
                raise ModelInvariantError(
                    f"class {self.name!r}: signature holds methods only"
                )
        names = set()
        for entry in list(self.spec) + list(self.sig):
            if entry.identity in names:
                raise ModelInvariantError(
                    f"class {self.name!r}: duplicate member {entry.member.name!r}"
                )
            names.add(entry.identity)

    def members(self) -> MemberSet:
        """Specification and signature in declaration order."""
        return MemberSet([*self.spec, *self.sig])


@dataclass(frozen=True)
class Projection:
    """Members typical of one participant of a heterogeneous class."""

    label: str
    members: MemberSet = field(default_factory=MemberSet)
    depends_on: tuple[str, ...] = ()


@dataclass(frozen=True)
class HetClass:
    """Heterogeneous class: shared core plus labeled projections.

    ``participants`` maps each participating class (or object) name to the
    labels of the projections that carry its typical members; a participant
    mapped to an empty tuple owns nothing beyond the core.  The same
    (owner, name) member may appear in two projections only at different
    degrees, which is how one participant keeps a member crisply while
    another holds it weakly; it never appears in both the core and a
    projection.
    """

    name: str
    core: MemberSet = field(default_factory=MemberSet)
    projections: tuple[Projection, ...] = ()
    participants: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = [p.label for p in self.projections]
        if len(labels) != len(set(labels)):
            raise ModelInvariantError(f"class {self.name!r}: duplicate projection labels")
        label_set = set(labels)
        for projection in self.projections:
            for dep in projection.depends_on:
                if dep not in label_set:
                    raise ModelInvariantError(
                        f"class {self.name!r}: projection {projection.label!r} "
                        f"depends on unknown label {dep!r}"
                    )
        self._check_dependency_acyclicity()
        core_ids = {entry.identity for entry in self.core}
        placements: dict[tuple[str, str], list[tuple[str, Degree]]] = {}
        for projection in self.projections:
            for entry in projection.members:
                if entry.identity in core_ids:
                    raise ModelInvariantError(
                        f"class {self.name!r}: member {entry.member.display()} "
                        f"appears in both the core and projection {projection.label!r}"
                    )
                placements.setdefault(entry.identity, []).append(
                    (projection.label, entry.degree)
                )
        for identity, spots in placements.items():
            degrees = [degree for _, degree in spots]
            if len(degrees) != len(set(degrees)):
                owner, name = identity
                raise ModelInvariantError(
                    f"class {self.name!r}: member {name!r} of {owner!r} repeats "
                    f"at the same degree across projections"
                )
        for participant, plabels in self.participants.items():
            for label in plabels:
                if label not in label_set:
                    raise ModelInvariantError(
                        f"class {self.name!r}: participant {participant!r} maps to "
                        f"unknown projection {label!r}"
                    )

    def _check_dependency_acyclicity(self) -> None:
        graph = {p.label: p.depends_on for p in self.projections}
        state: dict[str, int] = {}

        def visit(node: str) -> None:
            if state.get(node) == 1:
                raise ModelInvariantError(
                    f"class {self.name!r}: projection dependencies form a cycle at {node!r}"
                )
            if state.get(node) == 2:
                return
            state[node] = 1
            for nxt in graph.get(node, ()):
                visit(nxt)
            state[node] = 2

        for label in graph:
            visit(label)

    def projection_by_label(self, label: str) -> Projection:
        for projection in self.projections:
            if projection.label == label:
                return projection
        raise UnknownEntityError(f"class {self.name!r} has no projection {label!r}")

    def member_view(self, participant: str) -> MemberSet:
        """Effective member set of one participant: core plus its projections.

        Similar members are collapsed, first occurrence (core first, then
        projection order) winning, so one piece of knowledge declared at
        several levels is reported once.
        """
        if participant not in self.participants:
            raise UnknownEntityError(
                f"{participant!r} does not participate in class {self.name!r}"
            )
        wanted = set(self.participants[participant])
        entries: list[DegreedMember] = list(self.core)
        for projection in self.projections:
            if projection.label in wanted:
                entries.extend(projection.members)
        return dedupe_similar(entries)

    def full_content(self) -> MemberSet:
        """Core plus every projection, similar members collapsed."""
        entries: list[DegreedMember] = list(self.core)
        for projection in self.projections:
            entries.extend(projection.members)
        return dedupe_similar(entries)


KnowledgeClass = Union[HomClass, HetClass]


def class_is_fuzzy(cls: KnowledgeClass) -> bool:
    """A class is fuzzy when it holds a weak member or a genuinely fuzzy value."""
    if isinstance(cls, HomClass):
        entries = list(cls.spec) + list(cls.sig)
    else:
        entries = list(cls.core)
        for projection in cls.projections:
            entries.extend(projection.members)
    for entry in entries:
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
        if self.kind is not RelationKind.ASSOCIATION and self.label:
            raise ModelInvariantError(
                f"{self.kind.value} relations do not carry a label"
            )
        if self.degree is not None and not self.degree.is_weak:
            object.__setattr__(self, "degree", None)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


@dataclass
class Network:
    """The five-part knowledge container plus declared inheritance plans.

    ``exploiters`` and ``modifiers`` are registries of named operations;
    :func:`oodn.operations.make_network` returns a network with the built-in
    operations installed.  ``stale`` collects names of heterogeneous classes
    whose inputs were mutated after construction; they are flagged, never
    rebuilt behind the caller's back.
    """

    objects: dict[str, ObjectInstance] = field(default_factory=dict)
    classes: dict[str, KnowledgeClass] = field(default_factory=dict)
    relations: list[Relation] = field(default_factory=list)
    exploiters: dict[str, Callable] = field(default_factory=dict)
    modifiers: dict[str, Callable] = field(default_factory=dict)
    plans: list["InheritancePlan"] = field(default_factory=list)
    stale: set[str] = field(default_factory=set)


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
    relation endpoints, generalization cycles, override mismatches);
    a class with no members at all is reported as a warning only.
    """
    findings: list[Violation] = []

    def error(entity: str, rule: str, message: str) -> None:
        findings.append(Violation("error", entity, rule, message))

    def warning(entity: str, rule: str, message: str) -> None:
        findings.append(Violation("warning", entity, rule, message))

    for name, cls in net.classes.items():
        if cls.name != name:
            error(name, "registry-name", f"registered as {name!r} but named {cls.name!r}")
        if isinstance(cls, HomClass) and not cls.spec and not cls.sig:
            warning(name, "empty-class", "class declares no properties and no methods")
        if isinstance(cls, HetClass) and not cls.core and not any(
            p.members for p in cls.projections
        ):
            warning(name, "empty-class", "class declares no members in core or projections")

    for name, obj in net.objects.items():
        if obj.name != name:
            error(name, "registry-name", f"registered as {name!r} but named {obj.name!r}")
        cls = net.classes.get(obj.class_ref)
        if cls is None:
            error(name, "dangling-class", f"object class {obj.class_ref!r} is not declared")
            continue
        declared = _declared_properties(cls)
        for value_name, value in obj.member_values:
            if value_name not in declared:
                error(
                    name,
                    "unknown-override",
                    f"object sets {value_name!r} which class {obj.class_ref!r} lacks",
                )
            elif not value_matches_type(declared[value_name], value):
                error(
                    name,
                    "override-type",
                    f"value for {value_name!r} does not match declared type "
                    f"{declared[value_name].value}",
                )

    known = set(net.classes) | set(net.objects)
    for relation in net.relations:
        where = f"{relation.source}->{relation.target}"
        for endpoint in (relation.source, relation.target):
            if endpoint not in known:
                error(where, "dangling-endpoint", f"relation endpoint {endpoint!r} is not declared")
        if relation.kind is RelationKind.GENERALIZATION:
            if relation.source not in net.classes or relation.target not in net.classes:
                error(where, "generalization-endpoints", "generalization links class to class")
        if relation.kind is RelationKind.INSTANCE_OF:
            if relation.source not in net.objects or relation.target not in net.classes:
                error(where, "instance-of-endpoints", "instance_of links object to class")

    for cycle in _generalization_cycles(net):
        error(
            " -> ".join(cycle),
            "generalization-cycle",
            "generalization relations form a cycle through " + ", ".join(cycle),
        )

    for plan in net.plans:
        for class_name in plan.class_names():
            if class_name in net.classes:
                continue
            if class_name == plan.heir:
                warning(
                    plan.describe(),
                    "plan-heir-synthesized",
                    f"heir {class_name!r} is not declared; it will be built "
                    f"with no own members",
                )
            else:
                error(
                    plan.describe(),
                    "plan-dangling-class",
                    f"inheritance plan names undeclared class {class_name!r}",
                )

    return findings


def _declared_properties(cls: KnowledgeClass) -> dict[str, ValueType]:
    mapping: dict[str, ValueType] = {}
    if isinstance(cls, HomClass):
        entries = list(cls.spec)
    else:
        entries = [e for e in cls.full_content() if e.member.kind is MemberKind.PROPERTY]
    for entry in entries:
        if entry.member.value_type is not None:
            mapping[entry.member.name] = entry.member.value_type
    return mapping


def _generalization_cycles(net: Network) -> list[list[str]]:
    """Depth-first cycle search over the generalization edges."""
    graph: dict[str, list[str]] = {}
    for relation in net.relations:
        if relation.kind is RelationKind.GENERALIZATION:
            graph.setdefault(relation.source, []).append(relation.target)
    cycles: list[list[str]] = []
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(node: str) -> None:
        state[node] = 1
        stack.append(node)
        for nxt in graph.get(node, ()):
            if state.get(nxt, 0) == 0:
                visit(nxt)
            elif state.get(nxt) == 1:
                cycle = stack[stack.index(nxt):] + [nxt]
                cycles.append(cycle)
        stack.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            visit(node)
    return cycles


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
    for obj in net.objects.values():
        if _object_is_fuzzy(net, obj):
            return True
    return any(relation.degree is not None for relation in net.relations)


def _object_is_fuzzy(net: Network, obj: ObjectInstance) -> bool:
    for _, value in obj.member_values:
        if isinstance(value, FuzzySet) and value.genuinely_fuzzy:
            return True
    cls = net.classes.get(obj.class_ref)
    return cls is not None and class_is_fuzzy(cls)


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
    hosts = [
        cls
        for cls in list(net.classes.values()) + list(extra)
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
    if isinstance(cls, HomClass):
        return cls.members()
    if isinstance(cls, HetClass):
        return cls.full_content()
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
    base = cls.members() if isinstance(cls, HomClass) else cls.full_content()
    for entry in base:
        member = entry.member
        if member.kind is MemberKind.PROPERTY and member.name in overrides:
            member = Member(
                MemberKind.PROPERTY,
                member.name,
                obj.name,
                value_type=member.value_type,
                value=overrides[member.name],
            )
            rebuilt.append(DegreedMember(member, entry.degree))
        else:
            rebuilt.append(entry)
    return MemberSet(rebuilt)
