"""Inheritance engine: plans, octant classification, and structure building.

Inheritance turns a plan (one heir, one or more sources, a selection per
source) into a heterogeneous class.  The construction works in four steps:

1. compute every participant's *view*, the degreed member set it ends up
   holding: a source's view is its declared members; an heir's view is its
   own members plus whatever the selections let through, with degrees
   composed multiplicatively along chains;
2. the *core* collects members held crisply (degree 1) by every
   participant — exactly the knowledge the whole family shares;
3. what remains of each view is grouped by *audience*, the set of
   participants holding that exact member at that exact degree; each
   audience becomes one projection, so a member kept crisply by its owner
   but passed on weakly shows up twice, at different degrees, in two
   different projections;
4. a projection whose audience is strictly contained in another's depends
   on it, which is how a chain's nesting (each level building on the one
   below) is recorded.

Plans come in eight kinds along three axes: single vs multiple sources,
full vs partial selections, strong vs weak degrees.  ``classify_plan``
reads those axes off a plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .model import (
    DEGREE_ONE,
    Degree,
    DegreedMember,
    HetClass,
    HomClass,
    MemberKind,
    MemberSet,
    Network,
    OodnError,
    Projection,
    UnknownEntityError,
    format_value,
)

Identity = tuple[str, str]
View = dict[Identity, DegreedMember]


# ---------------------------------------------------------------------------
# Selections and plans
# ---------------------------------------------------------------------------


class SelectionMode(Enum):
    ALL = "all"
    LISTED = "listed"


@dataclass(frozen=True)
class Selection:
    """What an heir takes from one source.

    ``ALL`` takes every member the source offers; its entries, if any, are
    per-name degree overrides.  ``LISTED`` takes exactly the named members,
    each at its listed degree.  Degree 1 is crisp; below 1 is weak.
    """

    mode: SelectionMode = SelectionMode.ALL
    entries: tuple[tuple[str, Degree], ...] = ()

    def __post_init__(self) -> None:
        names = [name for name, _ in self.entries]
        if len(names) != len(set(names)):
            raise OodnError("selection names a member twice")
        if self.mode is SelectionMode.LISTED and not self.entries:
            raise OodnError("a listed selection must name at least one member")

    @property
    def is_weak(self) -> bool:
        return any(degree.is_weak for _, degree in self.entries)

    def degree_for(self, name: str) -> Degree:
        for entry_name, degree in self.entries:
            if entry_name == name:
                return degree
        return DEGREE_ONE

    @cached_property
    def items_text(self) -> str | None:
        """The entries as ``InheritancePlan.describe`` shows them, or None
        for a bare take-all; rendered once, however many plans share it."""
        if self.mode is SelectionMode.ALL and not self.entries:
            return None
        return ", ".join(
            name if not degree.is_weak else f"{name}/{degree}"
            for name, degree in self.entries
        )


SELECT_ALL = Selection()


@dataclass(frozen=True)
class InheritancePlan:
    """One heir, its sources, and how much of each source it takes.

    For a chain plan the sources are ordered nearest ancestor first (the
    written order of ``C inherits B inherits A``), and each selection
    governs what flows out of the source it is attached to.  For a
    parallel plan the sources are siblings in declaration order.
    """

    heir: str
    sources: tuple[tuple[str, Selection], ...]
    chain: bool = True

    def __post_init__(self) -> None:
        if not self.sources:
            raise OodnError("an inheritance plan needs at least one source")
        names = [name for name, _ in self.sources]
        if len(names) != len(set(names)):
            raise OodnError("an inheritance plan names a source twice")
        if self.heir in names:
            raise OodnError(f"heir {self.heir!r} cannot be its own source")

    def class_names(self) -> list[str]:
        return [name for name, _ in self.sources] + [self.heir]

    def participants_root_first(self) -> list[str]:
        if self.chain:
            return [name for name, _ in reversed(self.sources)] + [self.heir]
        return [name for name, _ in self.sources] + [self.heir]

    def selection_for(self, source: str) -> Selection:
        for name, selection in self.sources:
            if name == source:
                return selection
        raise UnknownEntityError(f"plan has no source {source!r}")

    def describe(self) -> str:
        joiner = " inherits " if self.chain else ", "
        rendered = joiner.join(
            name if sel.items_text is None else f"{name} ({sel.items_text})"
            for name, sel in self.sources
        )
        return f"{self.heir} inherits {rendered}"


# ---------------------------------------------------------------------------
# Octants
# ---------------------------------------------------------------------------


class Arity(Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


class Extent(Enum):
    FULL = "full"
    PARTIAL = "partial"


class Strength(Enum):
    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class Octant:
    """Position of a plan along the three inheritance axes."""

    arity: Arity
    extent: Extent
    strength: Strength

    def render(self) -> str:
        return f"{self.arity.value}/{self.extent.value}/{self.strength.value}"


def classify_plan(plan: InheritancePlan, net: Network | None = None) -> Octant:
    """Read a plan's octant off its shape.

    Without a network, any listed selection counts as partial.  With one,
    a listed selection that happens to name everything its source offers
    is recognized as full coverage.
    """
    arity = Arity.MULTIPLE if (not plan.chain and len(plan.sources) >= 2) else Arity.SINGLE
    strength = (
        Strength.WEAK
        if any(selection.is_weak for _, selection in plan.sources)
        else Strength.STRONG
    )
    listed = [
        (name, selection)
        for name, selection in plan.sources
        if selection.mode is SelectionMode.LISTED
    ]
    if not listed:
        extent = Extent.FULL
    elif net is None:
        extent = Extent.PARTIAL
    else:
        offered = _offered_names(plan, net)
        extent = Extent.FULL
        for name, selection in listed:
            chosen = {entry_name for entry_name, _ in selection.entries}
            if offered.get(name, set()) - chosen:
                extent = Extent.PARTIAL
                break
    return Octant(arity, extent, strength)


def _offered_names(plan: InheritancePlan, net: Network) -> dict[str, set[str]]:
    """Bare names each source offers at its link, chains folded bottom-up."""
    offered: dict[str, set[str]] = {}
    if plan.chain:
        order = plan.participants_root_first()
        current: set[str] = set()
        for index, name in enumerate(order[:-1]):
            current = current | {
                entry.member.name for entry in _declared_entries(net, name)
            }
            selection = plan.selection_for(name)
            offered[name] = set(current)
            if selection.mode is SelectionMode.LISTED:
                current = {n for n, _ in selection.entries}
    else:
        for name, _ in plan.sources:
            offered[name] = {
                entry.member.name for entry in _declared_entries(net, name)
            }
    return offered


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------


class Policy(Enum):
    """How to resolve one member arriving weakly from two sources."""

    REJECT = "reject"
    MIN = "min"
    MAX = "max"


class InheritanceConflictError(OodnError):
    """Construction aborted; carries a machine-applicable repair when one exists."""

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        subjects: tuple[str, ...] = (),
        members: tuple[str, ...] = (),
        suggestion: InheritancePlan | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.subjects = subjects
        self.members = members
        self.suggestion = suggestion


# ---------------------------------------------------------------------------
# Core extraction over explicit member sets
# ---------------------------------------------------------------------------


def compute_core(sets: Sequence[MemberSet]) -> tuple[MemberSet, list[MemberSet]]:
    """Split member sets into shared core and per-set remainders.

    A member lands in the core when every input set holds a similar member
    at the same degree; the first set's copy represents the whole
    similarity class.  Each remainder is its input minus the core, so
    core + remainder rebuilds each input exactly (up to which similar copy
    stands for the shared knowledge).
    """
    if len(sets) < 2:
        raise OodnError("core extraction needs at least two member sets")
    keysets = [
        {(entry.member.similarity_key(), entry.degree) for entry in member_set}
        for member_set in sets
    ]
    shared = set.intersection(*keysets)
    core_entries: list[DegreedMember] = []
    seen: set[tuple] = set()
    for entry in sets[0]:
        key = (entry.member.similarity_key(), entry.degree)
        if key in shared and key not in seen:
            core_entries.append(entry)
            seen.add(key)
    remainders = [
        MemberSet(
            entry
            for entry in member_set
            if (entry.member.similarity_key(), entry.degree) not in shared
        )
        for member_set in sets
    ]
    return MemberSet(core_entries), remainders


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


def _declared_entries(net: Network, name: str) -> list[DegreedMember]:
    cls = net.classes.get(name)
    if cls is None:
        raise UnknownEntityError(f"class {name!r} is not declared")
    if isinstance(cls, HetClass):
        raise OodnError(
            f"class {name!r} is heterogeneous and cannot join a plan directly"
        )
    assert isinstance(cls, HomClass)
    return list(cls.members())


def _heir_entries(net: Network, name: str) -> list[DegreedMember]:
    """An heir may be a declared class or a brand-new name with no members."""
    if name in net.classes:
        return _declared_entries(net, name)
    return []


def _apply_selection(
    parent_view: View, selection: Selection, source: str
) -> View:
    """Members flowing through a selection, degrees composed by product."""
    by_name: dict[str, list[DegreedMember]] = {}
    for entry in parent_view.values():
        by_name.setdefault(entry.member.name, []).append(entry)
    for name, _ in selection.entries:
        if name not in by_name:
            raise UnknownEntityError(
                f"selection names {name!r}, which {source!r} does not offer"
            )
    taken: View = {}
    chosen = {name for name, _ in selection.entries}
    for entry in parent_view.values():
        name = entry.member.name
        if selection.mode is SelectionMode.LISTED and name not in chosen:
            continue
        degree = entry.degree * selection.degree_for(name)
        taken[entry.identity] = DegreedMember(entry.member, degree)
    return taken


def _exception_conflicts(
    own: Iterable[DegreedMember], taken: View
) -> list[tuple[str, DegreedMember, DegreedMember]]:
    """Crisp arrivals contradicting an own property of the same name and type.

    Only a member arriving at degree 1 can contradict: a weak arrival and a
    restricted selection are precisely the two ways such a clash is
    legitimately avoided.  A same-named property of a different value type
    is a different assertion, not a contradiction.
    """
    conflicts = []
    own_props = {
        entry.member.name: entry
        for entry in own
        if entry.member.kind is MemberKind.PROPERTY
    }
    for arriving in taken.values():
        if arriving.member.kind is not MemberKind.PROPERTY:
            continue
        if arriving.degree.is_weak:
            continue
        local = own_props.get(arriving.member.name)
        if local is None:
            continue
        if (
            local.member.value_type == arriving.member.value_type
            and local.member.value != arriving.member.value
        ):
            conflicts.append((arriving.member.name, local, arriving))
    return conflicts


def _restricted_selection(
    selection: Selection, parent_view: View, excluded: set[str]
) -> Selection | None:
    """The selection narrowed to exclude the given bare names."""
    degrees = dict(selection.entries)
    candidates: Iterable[str] = degrees
    if selection.mode is SelectionMode.ALL:
        candidates = dict.fromkeys(e.member.name for e in parent_view.values())
    kept = tuple(
        (name, degrees.get(name, DEGREE_ONE))
        for name in candidates
        if name not in excluded
    )
    return Selection(SelectionMode.LISTED, kept) if kept else None


def _raise_exception_conflict(
    plan: InheritancePlan,
    source: str,
    child: str,
    parent_view: View,
    conflicts: list[tuple[str, DegreedMember, DegreedMember]],
) -> None:
    names = tuple(sorted({name for name, _, _ in conflicts}))
    narrowed = _restricted_selection(
        plan.selection_for(source), parent_view, set(names)
    )
    suggestion = None
    if narrowed is not None:
        suggestion = replace(
            plan,
            sources=tuple(
                (name, narrowed if name == source else selection)
                for name, selection in plan.sources
            ),
        )
    detail = "; ".join(
        f"{name}: {local.member.display()}={_value_text(local)} vs "
        f"{arriving.member.display()}={_value_text(arriving)}"
        for name, local, arriving in conflicts
    )
    raise InheritanceConflictError(
        "exception",
        f"{child!r} contradicts members inherited crisply from {source!r} ({detail}); "
        f"exclude or weaken the inherited copy",
        subjects=(source, child),
        members=names,
        suggestion=suggestion,
    )


def _value_text(entry: DegreedMember) -> str:
    member = entry.member
    if member.value_type is None:
        return "<method>"
    return format_value(member.value_type, member.value)


def build_views(
    plan: InheritancePlan, net: Network, policy: Policy = Policy.REJECT
) -> dict[str, View]:
    """Effective member set of every participant, conflicts checked.

    Raises :class:`InheritanceConflictError` for crisp contradictions
    (with a partial-plan repair attached) and for one member arriving
    weakly from two sources at different degrees under ``Policy.REJECT``.
    """
    views: dict[str, View] = {}
    if plan.chain:
        order = plan.participants_root_first()
        root = order[0]
        views[root] = {e.identity: e for e in _declared_entries(net, root)}
        for parent, child in zip(order, order[1:]):
            selection = plan.selection_for(parent)
            taken = _apply_selection(views[parent], selection, parent)
            own = (
                _heir_entries(net, child)
                if child == plan.heir
                else _declared_entries(net, child)
            )
            conflicts = _exception_conflicts(own, taken)
            if conflicts:
                _raise_exception_conflict(
                    plan, parent, child, views[parent], conflicts
                )
            view: View = dict(taken)
            for entry in own:
                view[entry.identity] = entry
            views[child] = view
        return views

    for source, _ in plan.sources:
        views[source] = {e.identity: e for e in _declared_entries(net, source)}
    merged: View = {}
    arrival_source: dict[Identity, str] = {}
    for source, selection in plan.sources:
        taken = _apply_selection(views[source], selection, source)
        for identity, entry in taken.items():
            if identity not in merged:
                merged[identity] = entry
                arrival_source[identity] = source
                continue
            present = merged[identity]
            if present.degree == entry.degree:
                continue
            if policy is Policy.REJECT:
                raise InheritanceConflictError(
                    "ambiguity",
                    f"member {entry.member.display()} arrives from "
                    f"{arrival_source[identity]!r} at degree {present.degree} and from "
                    f"{source!r} at degree {entry.degree}; pass a min or max policy "
                    f"to resolve",
                    subjects=(arrival_source[identity], source, plan.heir),
                    members=(entry.member.name,),
                )
            pick_new = (
                entry.degree < present.degree
                if policy is Policy.MIN
                else entry.degree > present.degree
            )
            if pick_new:
                merged[identity] = entry
                arrival_source[identity] = source
    own = _heir_entries(net, plan.heir)
    conflicts = _exception_conflicts(own, merged)
    if conflicts:
        offenders = sorted(
            {arrival_source[arriving.identity] for _, _, arriving in conflicts}
        )
        offender_conflicts = [
            c for c in conflicts if arrival_source[c[2].identity] == offenders[0]
        ]
        _raise_exception_conflict(
            plan, offenders[0], plan.heir, views[offenders[0]], offender_conflicts
        )
    heir_view: View = dict(merged)
    for entry in own:
        heir_view[entry.identity] = entry
    views[plan.heir] = heir_view
    return views


# ---------------------------------------------------------------------------
# Structure building
# ---------------------------------------------------------------------------


def inherit(
    plan: InheritancePlan, net: Network, policy: Policy = Policy.REJECT
) -> HetClass:
    """Execute a plan, producing the heterogeneous class it describes.

    The result is named after the heir.  No degree below 1 ever appears
    unless the plan asked for it, and no member lands in both the core and
    a projection.
    """
    views = build_views(plan, net, policy)
    order = plan.participants_root_first()
    index_of = {name: i for i, name in enumerate(order)}

    first_view = views[order[0]]
    core_entries = [
        entry
        for identity, entry in first_view.items()
        if all(
            identity in views[p] and not views[p][identity].degree.is_weak
            for p in order
        )
        and not entry.degree.is_weak
    ]
    core_ids = {entry.identity for entry in core_entries}

    residuals: dict[str, list[DegreedMember]] = {
        name: [e for e in views[name].values() if e.identity not in core_ids]
        for name in order
    }

    audience: dict[DegreedMember, list[int]] = {}
    for name in order:
        for entry in residuals[name]:
            audience.setdefault(entry, []).append(index_of[name])
    groups: dict[tuple[int, ...], list[DegreedMember]] = {}
    for name in order:
        for entry in residuals[name]:
            key = tuple(audience[entry])
            bucket = groups.setdefault(key, [])
            if entry not in bucket:
                bucket.append(entry)

    heir_index = index_of[plan.heir]
    groups.setdefault((heir_index,), [])

    parallel = not plan.chain and len(plan.sources) >= 2
    emission = list(groups.keys())
    labels: dict[tuple[int, ...], str] = {}
    used: set[str] = set()
    for key in emission:
        if len(key) == 1:
            name = order[key[0]]
            label = f"heir({name})" if (parallel and key[0] == heir_index) else name
            labels[key] = label
            used.add(label)
    for key in emission:
        if len(key) > 1:
            names = [order[i] for i in key]
            label = names[0] if names[0] not in used else "&".join(names)
            labels[key] = label
            used.add(label)

    def minimal_supersets(key: tuple[int, ...]) -> list[tuple[int, ...]]:
        mine = set(key)
        supers = [
            other
            for other in emission
            if mine < set(other) and groups[other]
        ]
        return [
            s
            for s in supers
            if not any(mine < set(t) < set(s) for t in supers)
        ]

    projections = []
    for key in emission:
        members = groups[key]
        if not members and key != (heir_index,):
            continue
        deps = tuple(labels[s] for s in minimal_supersets(key))
        projections.append(
            Projection(labels[key], MemberSet(members), depends_on=deps)
        )
    emitted_keys = [
        key for key in emission if groups[key] or key == (heir_index,)
    ]
    participants = {
        name: tuple(
            labels[key] for key in emitted_keys if index_of[name] in key
        )
        for name in order
    }

    return HetClass(
        name=plan.heir,
        core=MemberSet(core_entries),
        projections=tuple(projections),
        participants=participants,
    )


def inherit_single(chain: Sequence[str], net: Network) -> HetClass:
    """Full, crisp inheritance along a chain given root first.

    The root's whole member set becomes the core; every later level
    contributes its own members as a projection nested on the previous
    level's.
    """
    if len(chain) < 2:
        raise OodnError("a chain needs at least two classes")
    sources = tuple((name, SELECT_ALL) for name in reversed(list(chain[:-1])))
    plan = InheritancePlan(heir=chain[-1], sources=sources, chain=True)
    return inherit(plan, net)


def inherit_multiple(
    sources: Sequence[str], heir: str, net: Network, policy: Policy = Policy.REJECT
) -> HetClass:
    """Full, crisp inheritance from parallel sources.

    Normally each source keeps its whole member set as a base projection
    and there is no core; when the sources turn out to hold mutually
    similar knowledge, the shared part is hoisted into a core and only the
    differences remain in the base projections.
    """
    if len(sources) < 2:
        raise OodnError("multiple inheritance needs at least two sources")
    plan = InheritancePlan(
        heir=heir,
        sources=tuple((name, SELECT_ALL) for name in sources),
        chain=False,
    )
    result = inherit(plan, net, policy)
    base_sets = []
    for name in sources:
        found = [p for p in result.projections if p.label == name]
        base_sets.append(found[0].members if found else MemberSet())
    core, remainders = compute_core(base_sets)
    if not core:
        return result
    kept: dict[str, MemberSet] = {
        name: remainder for name, remainder in zip(sources, remainders)
    }
    projections: list[Projection] = []
    surviving_base: list[str] = []
    for projection in result.projections:
        if projection.label in kept:
            if kept[projection.label]:
                projections.append(
                    Projection(projection.label, kept[projection.label])
                )
                surviving_base.append(projection.label)
        else:
            projections.append(
                Projection(
                    projection.label,
                    projection.members,
                    depends_on=tuple(surviving_base),
                )
            )
    surviving_labels = {p.label for p in projections}
    participants = {
        name: tuple(label for label in labels if label in surviving_labels)
        for name, labels in result.participants.items()
    }
    return HetClass(
        name=result.name,
        core=MemberSet(list(core)),
        projections=tuple(projections),
        participants=participants,
    )


def decompose(het: HetClass, name: str) -> MemberSet:
    """Rebuild one participant's member set from core and projections."""
    return het.member_view(name)
