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
is held over a run of consecutive levels, its audience.  A parallel plan in
which no class borrows is grouped source by source.  Audiences are bitmasks
of participant indices, so grouping and the subset tests cost a few integer
operations each, and layering grows about linearly with declared members.

Plans come in eight kinds along three axes: single vs multiple sources,
full vs partial selections, strong vs weak degrees.  ``classify_plan``
reads those axes off a plan.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import count, groupby
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator, Sequence

from .model import (
    DEGREE_ONE,
    Degree,
    DegreedMember,
    HetClass,
    KEYWORDS,
    MemberKind,
    MemberSet,
    Network,
    OodnError,
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


# Tags read per member as module names (see ``model._PROPERTY``).
_ALL, _LISTED, _PROPERTY = SelectionMode.ALL, SelectionMode.LISTED, MemberKind.PROPERTY


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
        if self.mode is _LISTED and not self.entries:
            raise OodnError("a listed selection must name at least one member")

    @property
    def is_weak(self) -> bool:
        return any(degree.is_weak for _, degree in self.entries)

    @cached_property
    def text(self) -> str:
        """``selection_text``'s text, rendered once however many plans share it."""
        return selection_text(self.mode is _LISTED, self.entries)


def selection_text(listed: bool, entries: Sequence[tuple[str, Degree]]) -> str:
    """A selection as written after its source in a file, such as
    ``(only p/0.5)``, or "" for a bare take-all."""
    if not listed and not entries:
        return ""
    weak = [degree.is_weak for _, degree in entries]
    items = ", ".join(
        f"{name}/{degree}" if is_weak or not listed else name
        for (name, degree), is_weak in zip(entries, weak)
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
        if not isinstance(self.chain, bool):  # the text and JSON writers test it
            raise OodnError(f"a plan's chain flag is {self.chain!r}, not a bool")
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
        return f"{self.arity._value_}/{self.extent._value_}/{self.strength._value_}"


def classify_plan(plan: InheritancePlan, net: Network) -> Octant:
    """Read a plan's octant off its shape.

    A listed selection that happens to name everything its source offers
    is recognized as full coverage.
    """
    arity = Arity.SINGLE if plan.chain else Arity.MULTIPLE
    strength = (
        Strength.WEAK
        if any(selection.is_weak for _, selection in plan.sources)
        else Strength.STRONG
    )
    # Once one source lists, every source is read (see ``_offered_names``).
    leaves_out = any(selection.mode is _LISTED for _, selection in plan.sources) and any([
        selection.mode is _LISTED and not offered.issubset(dict(selection.entries))
        for _, selection, offered in _offered_names(plan, net)
    ])
    return Octant(arity, Extent.PARTIAL if leaves_out else Extent.FULL, strength)


def _offered_names(plan: InheritancePlan, net: Network,
                   lost: tuple = ()) -> Iterator[tuple[str, Selection, set]]:
    """Each source, its selection and the bare names it offers at its link,
    in walk order: names only, so that plans that do not walk are answered.
    Each source is read once, so an undeclared one raises; a chain grows one
    set, which a listing starts anew, so a set is valid until the next.  A
    class that has ``lost`` a name, given as (class, name), still offers it."""
    offered: set[str] = set()
    for name, selection in reversed(plan.sources) if plan.chain else plan.sources:
        if not plan.chain:
            offered = set()  # a sibling offers its own names only
        offered.update(entry.member.name for entry in _declared_entries(net, name))
        if lost and name == lost[0]:
            offered.add(lost[1])
        yield name, selection, offered
        if selection.mode is _LISTED:
            offered = {entry_name for entry_name, _ in selection.entries}


def not_offered(plan: InheritancePlan, net: Network, lost: tuple = ()) -> Iterator[str]:
    """A message for each name a selection lists that its source does not
    offer at its link (as it was before ``lost``, see ``_offered_names``):
    validation reports each, the walk raises the first."""
    if any(selection.entries for _, selection in plan.sources):
        for source, selection, offered in _offered_names(plan, net, lost):
            for name, _ in selection.entries:
                if name not in offered:
                    yield f"selection names {name!r}, which {source!r} does not offer"


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

    ``parent_view`` is everything the parent holds: a parallel source's
    view is built from ``held``, its declared entries, on first read and
    kept, and a chain level's is built from the chain's ``runs`` at each
    read.  ``taken``, what flows out through the selection, degrees
    composed, is built on first read and kept.  Readers change neither, and
    layering reads neither where it can read ``held`` or ``runs``.
    ``conflicts``, filled by the walk, are the crisp arrivals contradicting
    a child's own property, as (name, own entry, arriving entry).
    """

    parent: str
    child: str
    selection: Selection
    own: Sequence[DegreedMember]
    held: Sequence[DegreedMember] = ()
    conflicts: list[Conflict] = field(default_factory=list)
    runs: _Runs | None = None
    level: int = 0

    @property
    def parent_view(self) -> View:
        if self.runs is not None:
            return self.runs.view(self.level)
        return self._held_view

    @cached_property
    def _held_view(self) -> View:
        return {entry.identity: entry for entry in self.held}

    @cached_property
    def taken(self) -> View:
        """Members flowing through the selection, degrees composed by
        product; a member passed at a crisp factor arrives as the very entry
        it left as."""
        factors = dict(self.selection.entries)
        listed = self.selection.mode is _LISTED
        if not factors and not listed:  # a bare take-all passes everything as is
            return self.parent_view
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

    @cached_property
    def _parent_names(self) -> tuple[str, ...]:
        """The bare names the parent holds, in view order, read once per link."""
        return tuple(dict.fromkeys(e.member.name for e in self.parent_view.values()))

    def kept(self, excluded: Container[str]) -> tuple[tuple[str, Degree], ...]:
        """The (name, degree) items this link's selection lists without the
        given bare names, over what the parent holds: every repair narrows
        through here, so a repaired take never exceeds the original one."""
        degrees = dict(self.selection.entries)
        candidates = self._parent_names if self.selection.mode is _ALL else degrees
        return tuple(
            (name, degrees.get(name, DEGREE_ONE)) for name in candidates if name not in excluded
        )

    def narrowed(self, excluded: Container[str]) -> Selection | None:
        """``kept`` as a listed selection; None when nothing is left."""
        kept = self.kept(excluded)
        return Selection(_LISTED, kept) if kept else None


@dataclass(frozen=True, eq=False)
class Repair:
    """A repair held as what it removes: each narrowed source's link with
    the bare names it stops passing on, and per plan on offer, the source
    that plan keeps whole (or None).  Sources are narrowed as the plans or
    their texts are made; only ``plans`` and each link's parent names are
    kept.  A source narrowed to nothing drops out of a parallel plan; a
    chain cannot lose a level, so its plan is then None, as is a plan left
    without sources.  Equal plans make equal repairs."""

    plan: InheritancePlan
    excluded: tuple[tuple[Link, frozenset[str]], ...]
    kept: tuple[str | None, ...] = (None,)

    def _offered(self, text: bool) -> list[list | None]:
        """Each plan on offer as its (source, selection) pairs or, with
        ``text``, their texts, in source order, or None when it has no plan.
        A narrowed source's text is written from the items its link keeps."""
        position = {name: at for at, (name, _) in enumerate(self.plan.sources)}
        item: Callable[[str, Selection], object] = _source_text if text else lambda *source: source
        whole = [item(*source) for source in self.plan.sources]
        cut = whole.copy()
        for link, names in self.excluded:
            if text:
                listing = link.kept(names)
                cut[position[link.parent]] = listing and f"{link.parent} {selection_text(True, listing)}"
            else:
                selection = link.narrowed(names)
                cut[position[link.parent]] = selection and (link.parent, selection)
        offered = []
        for kept in self.kept:
            items = cut
            if kept is not None:
                at = position[kept]
                items = [*cut[:at], whole[at], *cut[at + 1 :]]
            left = list(filter(None, items))  # drops the sources narrowed to nothing
            whole_chain = not self.plan.chain or len(left) == len(items)
            offered.append(left if left and whole_chain else None)
        return offered

    @cached_property
    def plans(self) -> tuple[InheritancePlan | None, ...]:
        return tuple(
            sources and replace(self.plan, sources=tuple(sources))
            for sources in self._offered(False)
        )

    def texts(self) -> Iterator[str | None]:
        """Each plan on offer as ``describe`` writes it, each text made as it
        is reached, building no plan or selection and checking no name."""
        return (parts and self.plan.written(parts) for parts in self._offered(True))

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
    return cls.entries


def borrows(plan: InheritancePlan, net: Network) -> bool:
    """Whether a class of the plan declares a member another class owns
    (``HomClass.borrows``): only then can one member arrive at two degrees,
    be held in two contents, or one entry be held by two sources."""
    classes = map(net.classes.get, plan.class_names())
    return any(cls.borrows for cls in classes if cls is not None)


def _heir_entries(net: Network, name: str) -> Sequence[DegreedMember]:
    """An heir may be a declared class or a brand-new name with no members."""
    if name in net.classes:
        return _declared_entries(net, name)
    return ()


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
        if entry.member.kind is _PROPERTY:
            own_props.setdefault(entry.member.name, []).append(entry)
    if not own_props:  # nothing to contradict
        return conflicts
    for arriving in arrivals:
        member = arriving.member
        if member.kind is not _PROPERTY or arriving.degree.is_weak:
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
        if selection.mode is _LISTED:
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
        own_props = {e.member.name for e in own if e.member.kind is _PROPERTY}
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
        links.append(Link(parent, child, selection, own, (), conflicts, runs, level))
    for run in current.values():
        run[2] = len(order) - 1
    return links


def walk(plan: InheritancePlan, net: Network) -> list[Link]:
    """Every link of a plan: one per chain level, root first, or one per
    parallel source into the heir.

    Lookup faults (an undeclared class, a heterogeneous participant, a
    selection naming a member its source does not offer) raise here.
    Conflicts do not stop the walk (see :attr:`Link.conflicts`): a
    contradicted chain level still passes its members upward, so that
    every link can be inspected.
    """
    for message in not_offered(plan, net):
        raise UnknownEntityError(message)
    if plan.chain:
        return _walk_chain(plan, net)
    held = [_declared_entries(net, name) for name, _ in plan.sources]
    own = _heir_entries(net, plan.heir)  # after the sources: theirs are reported first
    links = [
        Link(source, plan.heir, selection, own, entries)
        for (source, selection), entries in zip(plan.sources, held)
    ]
    for link in links if own else ():  # an heir of no members contradicts nothing
        link.conflicts = _exception_conflicts(own, link.taken.values())
    return links


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
    the participants holding it, root first, in order of first holding.
    An entry is hashed once where it is first held, twice after."""
    audience: dict[DegreedMember, int] = {}
    if plan.chain:
        for entry, mask in links[0].runs.holdings():
            held = audience.setdefault(entry, mask)
            if held != mask:
                audience[entry] = held | mask
        return audience
    for at, view in enumerate(_parallel_views(links, policy)):
        bit = 1 << at
        for entry in view.values():
            held = audience.setdefault(entry, bit)
            if held != bit:
                audience[entry] = held | bit
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
    group: one rule for chains and parallel plans alike, read source by
    source on a parallel plan in which no class borrows.  A projection
    depends on the smallest audiences strictly containing its own, the
    transitive reduction of the subset order over the non-empty groups.
    A participant holds one entry per identity, so no group holds two.
    Diagnosis refuses a plan that would put one identity at one degree in
    two groups (see ``diagnostics.refusal``).
    """
    order = plan.participants_root_first()
    links = _walked(plan, net, policy)
    heir_mask = 1 << (len(order) - 1)
    core_entries: list[DegreedMember] = []
    if not plan.chain and not borrows(plan, net):
        groups = _source_groups(links, heir_mask)
    else:
        by_mask: dict[int, list[DegreedMember]] = {}
        # Entries of one audience mostly come in runs, each looked up once.
        for mask, run in groupby(audiences(plan, links, policy).items(), itemgetter(1)):
            entries = list(map(itemgetter(0), run))
            if mask == heir_mask * 2 - 1:  # everyone
                core_entries += (entry for entry in entries if not entry.degree.is_weak)
                entries = [entry for entry in entries if entry.degree.is_weak]
            if entries:
                by_mask.setdefault(mask, []).extend(entries)
        by_mask.setdefault(heir_mask, [])
        groups = list(by_mask.items())
    # Groups go by index: in a dict, masks whose bits lie 61 apart hash alike.
    masks = [mask for mask, _ in groups]
    bits = [list(_bits(mask)) for mask in masks]  # each mask's, read once
    labels = [""] * len(groups)
    for at, ones in enumerate(bits):
        if len(ones) == 1:
            name = order[ones[0]]
            labels[at] = f"heir({name})" if not plan.chain and name == plan.heir else name
    used = set(labels)
    # Each participant's groups, in group order.
    held: list[list[int]] = [[] for _ in order]
    for at, ones in enumerate(bits):
        for index in ones:
            held[index].append(at)
        if len(ones) > 1:
            label = order[ones[0]]
            if label in used:
                label = "&".join(order[i] for i in ones)
            labels[at] = label
            used.add(label)

    projections = []
    for at, (mask, members) in enumerate(groups):
        # A strict superset holds the group's lowest participant too.
        lowest = held[bits[at][0]]
        supersets = [o for o in lowest if o != at and masks[o] & mask == mask and groups[o][1]]
        deps = tuple(labels[o] for o in _minimal(supersets, masks))
        projections.append((labels[at], members, deps))
    participants = {name: tuple(labels[o] for o in ats) for name, ats in zip(order, held)}
    return HetClass.layered(plan.heir, core_entries, projections, participants)


def _source_groups(links: Sequence[Link], heir_mask: int) -> list[tuple[int, Sequence]]:
    """The (mask, entries) groups of a parallel plan in which no class borrows.
    A source's entry is then held by it and, if it reaches the heir unchanged,
    by the heir; its two groups come in the order of their first entries in
    its view, as audiences order them.  The heir's own group, last, holds the
    weakened copies in source order, then its own members."""
    groups: list[tuple[int, Sequence]] = []
    weakened: list[DegreedMember] = []
    for at, link in enumerate(links):
        view = kept = link.held  # a source's view, read without its identity map
        left: list[DegreedMember] = []
        if link.selection.entries:  # not a bare take-all: a listing names some member
            taken = link.taken
            kept = [e for e in view if taken.get(e.identity) is e]
            if len(kept) < len(view):
                left = [e for e in view if taken.get(e.identity) is not e]
                weakened += (taken[e.identity] for e in left if e.identity in taken)
        pair = [((1 << at) | heir_mask, kept), (1 << at, left)]
        if left and left[0] is view[0]:
            pair.reverse()
        groups += (group for group in pair if group[1])
    groups.append((heir_mask, weakened + list(links[0].own)))
    return groups


def _minimal(supersets: list[int], masks: list[int]) -> list[int]:
    """The groups among ``supersets`` whose masks contain none of the
    others', in their order.  Masks of one size cannot contain one another,
    so the smallest left are minimal, and each strikes out those containing it."""
    def size(group: int) -> int:
        return masks[group].bit_count()

    left = sorted(supersets, key=size)
    minimal: set[int] = set()
    while left:
        end = bisect_right(left, size(left[0]), key=size)
        layer, left = left[:end], left[end:]
        minimal.update(layer)
        for inner in layer:
            mask = masks[inner]
            left = [other for other in left if masks[other] & mask != mask]
    return [other for other in supersets if other in minimal]


def decompose(het: HetClass, name: str) -> MemberSet:
    """Rebuild one participant's member set from core and projections."""
    return het.member_view(name)


# Diagnosis is built on this module and decides its refusals.  Imported last,
# so that either module can be imported first.
from . import diagnostics  # noqa: E402
