"""Inheritance engine: plans, octant classification, and structure building.

Inheritance turns a plan (one heir, one or more sources, a selection per
source) into a heterogeneous class.  The construction works in four steps:

1. compute every participant's *view*, the degreed member set it ends up
   holding: a source's view is its declared members; an heir's view is its
   own members plus whatever the selections let through, with degrees
   composed multiplicatively along chains;
2. each entry of a view (a member at a degree) has an *audience*, the set
   of participants holding that exact member at that exact degree; the
   *core* is the entries every participant holds at degree 1, read off
   those audiences — exactly the knowledge the whole family shares;
3. every other entry is grouped by audience; each audience becomes one
   projection, so a member kept crisply by its owner but passed on weakly
   shows up twice, at different degrees, in two different projections;
4. a projection whose audience is strictly contained in another's depends
   on it, which is how a chain's nesting (each level building on the one
   below) is recorded; only the smallest such audiences are named, so the
   edges are the transitive reduction of the subset order.

A chain is walked member by member rather than view by view: a member's
degree changes only where a selection or a re-declaration names it, so it
is held over a run of consecutive levels, and that run is its audience.
Audiences are bitmasks of participant indices, so grouping and the subset
tests cost a few integer operations each, and layering grows about
linearly with the number of declared members.

Plans come in eight kinds along three axes: single vs multiple sources,
full vs partial selections, strong vs weak degrees.  ``classify_plan``
reads those axes off a plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, partial
from itertools import count
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator, Sequence

from .model import (
    DEGREE_ONE,
    Degree,
    DegreedMember,
    HetClass,
    HomClass,
    KEYWORDS,
    MemberKind,
    MemberSet,
    Network,
    OodnError,
    Projection,
    UnknownEntityError,
    check_names,
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
        check_names(*names)
        if len(names) != len(set(names)):
            raise OodnError("selection names a member twice")
        if self.mode is SelectionMode.LISTED and not self.entries:
            raise OodnError("a listed selection must name at least one member")

    @property
    def is_weak(self) -> bool:
        return any(degree.is_weak for _, degree in self.entries)

    @cached_property
    def text(self) -> str:
        """The selection as written after its source in a file, such as
        ``(only p/0.5)``, or "" for a bare take-all; rendered once, however
        many plans share it."""
        listed = self.mode is SelectionMode.LISTED
        if not listed and not self.entries:
            return ""
        weak = [degree.is_weak for _, degree in self.entries]
        items = ", ".join(
            f"{name}/{degree}" if is_weak or not listed else name
            for (name, degree), is_weak in zip(self.entries, weak)
        )
        if listed and all(weak):
            return f"(only {items})"
        return f"({items})"


@dataclass(frozen=True)
class InheritancePlan:
    """One heir, its sources, and how much of each source it takes.

    For a chain plan the sources are ordered nearest ancestor first (the
    written order of ``C inherits B inherits A``), and each selection
    governs what flows out of the source it is attached to.  For a
    parallel plan the sources are siblings in declaration order; a plan
    with one source is a chain.
    """

    heir: str
    sources: tuple[tuple[str, Selection], ...]
    chain: bool = True

    def __post_init__(self) -> None:
        if not self.sources:
            raise OodnError("an inheritance plan needs at least one source")
        names = [name for name, _ in self.sources]
        check_names(*names)
        check_names(self.heir, keywords=KEYWORDS)
        if len(names) != len(set(names)):
            raise OodnError("an inheritance plan names a source twice")
        if self.heir in names:
            raise OodnError(f"heir {self.heir!r} cannot be its own source")
        if len(names) == 1 and not self.chain:
            # A lone source is inherited the same either way, and plan text
            # cannot tell the two apart.
            object.__setattr__(self, "chain", True)

    def class_names(self) -> list[str]:
        return [name for name, _ in self.sources] + [self.heir]

    def participants_root_first(self) -> list[str]:
        if self.chain:
            return [name for name, _ in reversed(self.sources)] + [self.heir]
        return [name for name, _ in self.sources] + [self.heir]

    def describe(self) -> str:
        """The plan as written in a file, without the closing ``;``."""
        return self.written(_source_text(name, sel) for name, sel in self.sources)

    def written(self, parts: Iterable[str]) -> str:
        """The plan's text around the given per-source texts, in order."""
        joiner = " inherits " if self.chain else ", "
        return f"{self.heir} inherits {joiner.join(parts)}"


def _source_text(name: str, selection: Selection) -> str:
    return f"{name} {selection.text}" if selection.text else name


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
    arity = Arity.SINGLE if plan.chain else Arity.MULTIPLE
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
        # Names only, not the walk: classification must answer for plans
        # that do not execute.
        offered = _offered_names(plan, net)
        extent = Extent.FULL
        for name, selection in listed:
            chosen = {entry_name for entry_name, _ in selection.entries}
            if offered.get(name, set()) - chosen:
                extent = Extent.PARTIAL
                break
    return Octant(arity, extent, strength)


def _offered_names(plan: InheritancePlan, net: Network) -> dict[str, set[str]]:
    """Bare names each source offers at its link, chains folded bottom-up.
    Of a chain, only the sources with a listed selection are given: only
    those are read."""
    offered: dict[str, set[str]] = {}
    if plan.chain:
        current: set[str] = set()
        for name, selection in reversed(plan.sources):
            current.update(entry.member.name for entry in _declared_entries(net, name))
            if selection.mode is SelectionMode.LISTED:
                offered[name] = current  # no longer grown: a listing starts anew
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
    """How to resolve one member arriving from two sources at two degrees."""

    REJECT = "reject"
    MIN = "min"
    MAX = "max"


class InheritanceConflictError(OodnError):
    """Construction refused, carrying the finding of diagnosis that blocks it."""

    def __init__(self, finding: diagnostics.Diagnostic) -> None:
        super().__init__(finding.message)
        self.finding = finding


# ---------------------------------------------------------------------------
# The plan walk
# ---------------------------------------------------------------------------


Conflict = tuple[str, DegreedMember, DegreedMember]


@dataclass
class Link:
    """One step of a plan: what ``parent`` passes on to ``child``.

    ``parent_view`` is everything the parent holds, and ``taken`` what
    flows out of it through its selection, degrees composed.  Both are
    built on first use: layering a chain reads neither (its links share
    its ``runs``), and diagnosis reads them only for the links it reports.
    """

    parent: str
    child: str
    selection: Selection
    own: Sequence[DegreedMember]
    _parent_view: Callable[[], View]
    _conflicts: list[Conflict] | None = None
    runs: _Runs | None = None

    @cached_property
    def parent_view(self) -> View:
        return self._parent_view()

    @cached_property
    def taken(self) -> View:
        """Members flowing through the selection, degrees composed by
        product; a member passed at a crisp factor arrives as the very entry
        it left as."""
        factors = dict(self.selection.entries)
        listed = self.selection.mode is SelectionMode.LISTED
        taken: View = {}
        for identity, entry in self.parent_view.items():
            factor = factors.get(entry.member.name)
            if factor is None:
                if not listed:
                    taken[identity] = entry
            elif factor.is_weak:
                taken[identity] = DegreedMember(entry.member, entry.degree * factor)
            else:
                taken[identity] = entry
        return taken

    def conflicts(self) -> list[Conflict]:
        """Crisp arrivals contradicting one of the child's own properties,
        as (name, own entry, arriving entry)."""
        if self._conflicts is None:
            self._conflicts = _exception_conflicts(self.own, self.taken.values())
        return self._conflicts

    def narrowed(self, excluded: Container[str]) -> Selection | None:
        """This link's selection without the given bare names, over what
        the parent holds; None when nothing is left.  Every repair narrows
        through here, so a repaired take never exceeds the original one."""
        degrees = dict(self.selection.entries)
        candidates: Iterable[str] = degrees
        if self.selection.mode is SelectionMode.ALL:
            candidates = dict.fromkeys(e.member.name for e in self.parent_view.values())
        kept = tuple(
            (name, degrees.get(name, DEGREE_ONE))
            for name in candidates
            if name not in excluded
        )
        return Selection(SelectionMode.LISTED, kept) if kept else None


@dataclass(frozen=True, eq=False)
class Repair:
    """A repair held as what it removes: each narrowed source's link with
    the bare names it stops passing on, and per plan on offer, the source
    that plan keeps whole (or None).  Sources are narrowed on first use,
    once for every plan.  A source narrowed to nothing drops out of a
    parallel plan; a chain cannot lose a level, so its plan is then None,
    as is a plan left without sources.  Equal plans make equal repairs."""

    plan: InheritancePlan
    excluded: tuple[tuple[Link, frozenset[str]], ...]
    kept: tuple[str | None, ...] = (None,)

    @cached_property
    def _narrowed(self) -> dict[str, Selection | None]:
        return {link.parent: link.narrowed(names) for link, names in self.excluded}

    def _offered(self, item: Callable[[str, Selection], object]) -> list[list | None]:
        """Each plan on offer as ``item(source, selection)`` per source it
        keeps, in source order, or None when it has no plan."""
        position = {name: at for at, (name, _) in enumerate(self.plan.sources)}
        whole = [item(*source) for source in self.plan.sources]
        cut = whole.copy()
        for name, selection in self._narrowed.items():
            cut[position[name]] = selection and item(name, selection)
        offered = []
        for kept in self.kept:
            items = cut
            if kept is not None:
                at = position[kept]
                items = [*cut[:at], whole[at], *cut[at + 1 :]]
            left = list(filter(None, items))  # drops None: an item is never empty
            whole_chain = not self.plan.chain or len(left) == len(items)
            offered.append(left if left and whole_chain else None)
        return offered

    @cached_property
    def plans(self) -> tuple[InheritancePlan | None, ...]:
        return tuple(
            sources and replace(self.plan, sources=tuple(sources))
            for sources in self._offered(lambda *source: source)
        )

    def texts(self) -> list[str | None]:
        """Each plan on offer as ``describe`` writes it, without building it."""
        offered = self._offered(_source_text)
        return [parts and self.plan.written(parts) for parts in offered]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Repair) and self.plans == other.plans

    def __hash__(self) -> int:
        return hash(self.plans)


def _declared_entries(net: Network, name: str) -> Sequence[DegreedMember]:
    cls = net.classes.get(name)
    if cls is None:
        raise UnknownEntityError(f"class {name!r} is not declared")
    if isinstance(cls, HetClass):
        raise OodnError(
            f"class {name!r} is heterogeneous and cannot join a plan directly"
        )
    assert isinstance(cls, HomClass)
    return cls.entries


def _heir_entries(net: Network, name: str) -> Sequence[DegreedMember]:
    """An heir may be a declared class or a brand-new name with no members."""
    if name in net.classes:
        return _declared_entries(net, name)
    return ()


def _check_offered(offered: Container[str], selection: Selection, source: str) -> None:
    for name, _ in selection.entries:
        if name not in offered:
            raise UnknownEntityError(
                f"selection names {name!r}, which {source!r} does not offer"
            )


def _exception_conflicts(
    own: Iterable[DegreedMember], arrivals: Iterable[DegreedMember]
) -> list[Conflict]:
    """Crisp arrivals contradicting an own property of the same name and type.

    An arrival is compared with every own property of its name, whichever
    order they are declared in: a class may hold its own ``p`` and another
    owner's.  Only a member arriving at degree 1 can contradict: a weak
    arrival and a restricted selection are precisely the two ways such a
    clash is legitimately avoided.  A same-named property of a different
    value type is a different assertion, not a contradiction.
    """
    conflicts: list[Conflict] = []
    own_props: dict[str, list[DegreedMember]] = {}
    for entry in own:
        if entry.member.kind is MemberKind.PROPERTY:
            own_props.setdefault(entry.member.name, []).append(entry)
    if not own_props:  # nothing to contradict
        return conflicts
    for arriving in arrivals:
        member = arriving.member
        if member.kind is not MemberKind.PROPERTY or arriving.degree.is_weak:
            continue
        for local in own_props.get(member.name, ()):
            if local.member.value_type == member.value_type and local.member.value != member.value:
                conflicts.append((member.name, local, arriving))
    return conflicts


class _Runs:
    """A chain's members as runs.

    A run is a stretch of levels (participants, root first) holding one
    entry at one degree: ``[entry, first level, last level, slot]``.  It
    starts where the member is declared, where a level re-declares it, or
    where a weak selection factor changes its degree; it ends at a
    re-declaration, at a weakening, or at the first listed selection that
    leaves the member out.  The slot orders the members of any one level
    as that level's view lists them.
    """

    def __init__(self) -> None:
        self.runs: list[list] = []

    def open(self, entry: DegreedMember, level: int, slot: int) -> list:
        run = [entry, level, None, slot]
        self.runs.append(run)
        return run

    def view(self, level: int) -> View:
        """What the participant at ``level`` holds, in view order."""
        held = [run for run in self.runs if run[1] <= level <= run[2]]
        held.sort(key=itemgetter(3))
        return {run[0].identity: run[0] for run in held}

    def holdings(self) -> Iterator[tuple[DegreedMember, int]]:
        """Every run as (entry, audience bitmask), in order of first
        appearance: by first level, then view order.  Runs over the same
        levels share one mask, so masks take space per range, not per run."""
        masks: dict[tuple[int, int], int] = {}
        for entry, first, last, _ in sorted(self.runs, key=itemgetter(1, 3)):
            if first <= last:
                mask = masks.get((first, last))
                if mask is None:
                    mask = masks[first, last] = (1 << (last + 1)) - (1 << first)
                yield entry, mask


def _walk_chain(plan: InheritancePlan, net: Network) -> list[Link]:
    """A chain's links, sharing its runs.  A link touches only the members its
    selection or its child's declarations name, or, for a listed
    selection, the members it drops, so the walk is linear in members plus
    selection entries."""
    order = plan.participants_root_first()
    runs = _Runs()
    # identity -> open run, in view order; name -> those identities
    current: dict[Identity, list] = {}
    named: dict[str, list[Identity]] = {}
    slots = count()
    for entry in _declared_entries(net, order[0]):
        current[entry.identity] = runs.open(entry, 0, next(slots))
        named.setdefault(entry.member.name, []).append(entry.identity)
    links: list[Link] = []
    for level, ((parent, selection), child) in enumerate(
        zip(reversed(plan.sources), order[1:])
    ):
        _check_offered(named, selection, parent)
        if selection.mode is SelectionMode.LISTED:
            chosen = dict(selection.entries)
            kept = {}
            for identity, run in current.items():
                if run[0].member.name in chosen:
                    kept[identity] = run
                else:
                    run[2] = level
            current = kept
            named = {name: named[name] for name in chosen}
        for name, factor in selection.entries:
            if factor.is_weak:
                for identity in named[name]:
                    run = current[identity]
                    run[2] = level
                    weakened = DegreedMember(run[0].member, run[0].degree * factor)
                    current[identity] = runs.open(weakened, level + 1, run[3])
        own = (
            _heir_entries(net, child)
            if child == plan.heir
            else _declared_entries(net, child)
        )
        own_props = {e.member.name for e in own if e.member.kind is MemberKind.PROPERTY}
        arriving = sorted(
            (current[i] for name in own_props for i in named.get(name, ())),
            key=itemgetter(3),
        )
        conflicts = _exception_conflicts(own, (run[0] for run in arriving))
        for entry in own:
            identity = entry.identity
            run = current.get(identity)
            if run is None:
                slot = next(slots)
                named.setdefault(entry.member.name, []).append(identity)
            else:
                run[2] = level  # empty when the run began at this link
                slot = run[3]
            current[identity] = runs.open(entry, level + 1, slot)
        view = partial(runs.view, level)
        links.append(Link(parent, child, selection, own, view, conflicts, runs=runs))
    for run in current.values():
        run[2] = len(order) - 1
    return links


def walk(plan: InheritancePlan, net: Network) -> list[Link]:
    """Every link of a plan: one per chain level, root first, or one per
    parallel source into the heir.

    Lookup faults (an undeclared class, a heterogeneous participant, a
    selection naming a member its source does not offer) raise here.
    Conflicts do not stop the walk (see :meth:`Link.conflicts`): a
    contradicted chain level still passes its members upward, so that
    every link can be inspected.
    """
    if plan.chain:
        return _walk_chain(plan, net)
    views = []
    for source, selection in plan.sources:
        view = {e.identity: e for e in _declared_entries(net, source)}
        _check_offered({e.member.name for e in view.values()}, selection, source)
        views.append(view)
    own = _heir_entries(net, plan.heir)  # after the sources: theirs are reported first
    return [
        Link(source, plan.heir, selection, own, view.copy)
        for (source, selection), view in zip(plan.sources, views)
    ]


def merge(links: Sequence[Link], policy: Policy) -> View:
    """What a parallel plan's links deliver to the heir, in arrival order.

    A member arriving again at another degree keeps the lower degree under
    ``Policy.MIN`` and the higher under ``Policy.MAX``, the first arrival
    winning ties; ``Policy.REJECT`` keeps the first (``inherit`` refuses).
    """
    merged: View = {}
    for link in links:
        for identity, entry in link.taken.items():
            if identity not in merged:
                merged[identity] = entry
                continue
            present = merged[identity]
            if (policy is Policy.MIN and entry.degree < present.degree) or (
                policy is Policy.MAX and entry.degree > present.degree
            ):
                merged[identity] = entry
    return merged


def _parallel_views(links: Sequence[Link], policy: Policy) -> list[View]:
    """Each source's view, then the heir's: what arrives, merged under
    ``policy``, with the heir's own members on top."""
    heir = merge(links, policy)
    heir.update((entry.identity, entry) for entry in links[0].own)
    return [link.parent_view for link in links] + [heir]


def audiences(
    plan: InheritancePlan, links: list[Link], policy: Policy
) -> dict[DegreedMember, int]:
    """Every entry a participant holds, with its audience: the bitmask of
    the participants holding it, root first, in order of first holding."""
    holdings: Iterable[tuple[DegreedMember, int]]
    if plan.chain:
        holdings = links[0].runs.holdings()
    else:
        views = enumerate(_parallel_views(links, policy))
        holdings = ((entry, 1 << at) for at, view in views for entry in view.values())
    audience: dict[DegreedMember, int] = {}
    for entry, mask in holdings:
        held = audience.get(entry)
        audience[entry] = mask if held is None else held | mask
    return audience


def _walked(plan: InheritancePlan, net: Network, policy: Policy) -> list[Link]:
    """A plan's links, once the first finding of diagnosis that blocks the
    plan under ``policy``, if any, is raised as :class:`InheritanceConflictError`."""
    links = walk(plan, net)
    finding = diagnostics.refusal(plan, links, net, policy)
    if finding is not None:
        raise InheritanceConflictError(finding)
    return links


def build_views(
    plan: InheritancePlan, net: Network, policy: Policy = Policy.REJECT
) -> dict[str, View]:
    """Effective member set of every participant, root first, refused as
    ``inherit`` refuses."""
    links = _walked(plan, net, policy)
    order = plan.participants_root_first()
    if plan.chain:
        return {name: links[0].runs.view(level) for level, name in enumerate(order)}
    return dict(zip(order, _parallel_views(links, policy)))


# ---------------------------------------------------------------------------
# Structure building
# ---------------------------------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """Indices of a bitmask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def inherit(
    plan: InheritancePlan, net: Network, policy: Policy = Policy.REJECT
) -> HetClass:
    """Execute a plan, producing the heterogeneous class it describes.

    The result is named after the heir.  No degree below 1 ever appears
    unless the plan asked for it, and no member lands in both the core and
    a projection.

    Each audience (the participants holding one member at one degree) is
    a bitmask of participant indices, root first; on a chain it is a run's
    range of levels.  The core is the entries whose audience is every
    participant, at degree 1, and every other entry goes to its audience's
    group: one rule for chains and parallel plans alike.  A projection
    depends on the smallest audiences strictly containing its own, the
    transitive reduction of the subset order over the non-empty groups.
    A participant holds one entry per identity, so no group holds two: its
    member set needs no check.  Diagnosis refuses a plan that would put
    one identity at one degree in two groups (see ``diagnostics.refusal``).
    """
    order = plan.participants_root_first()
    audience = audiences(plan, _walked(plan, net, policy), policy)
    everyone = (1 << len(order)) - 1
    core_entries: list[DegreedMember] = []
    groups: dict[int, list[DegreedMember]] = {}
    for entry, mask in audience.items():
        if mask == everyone and not entry.degree.is_weak:
            core_entries.append(entry)
        else:
            groups.setdefault(mask, []).append(entry)
    heir_mask = 1 << (len(order) - 1)
    groups.setdefault(heir_mask, [])

    labels: dict[int, str] = {}
    for mask in groups:
        if mask & (mask - 1) == 0:
            name = order[mask.bit_length() - 1]
            labels[mask] = (
                f"heir({name})" if not plan.chain and mask == heir_mask else name
            )
    used = set(labels.values())
    for mask in groups:
        if mask & (mask - 1):
            first = order[(mask & -mask).bit_length() - 1]
            label = (
                first if first not in used else "&".join(order[i] for i in _bits(mask))
            )
            labels[mask] = label
            used.add(label)

    filled = [mask for mask, members in groups.items() if members]
    projections = []
    for mask, members in groups.items():
        supersets = [o for o in filled if o != mask and o & mask == mask]
        # By size, so a superset is minimal unless a smaller minimal one
        # lies inside it.
        minimal: list[int] = []
        for other in sorted(supersets, key=int.bit_count):
            if not any(inner & other == inner for inner in minimal):
                minimal.append(other)
        deps = tuple(labels[other] for other in supersets if other in minimal)
        projections.append(
            Projection(labels[mask], MemberSet._subset(members), depends_on=deps)
        )
    participants = {
        name: tuple(labels[mask] for mask in groups if mask >> index & 1)
        for index, name in enumerate(order)
    }
    return HetClass(
        name=plan.heir,
        core=MemberSet._subset(core_entries),
        projections=tuple(projections),
        participants=participants,
    )


def decompose(het: HetClass, name: str) -> MemberSet:
    """Rebuild one participant's member set from core and projections."""
    return het.member_view(name)


# Diagnosis is built on this module and decides its refusals.  Imported last,
# so that either module can be imported first.
from . import diagnostics  # noqa: E402
