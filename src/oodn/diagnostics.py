"""Detection of inheritance pathologies, with machine-applicable repairs.

Three pathologies are detected, none of which requires executing a plan:

* **exception** — an heir's own property contradicts one arriving crisply
  (same name, same type, different value).  Construction would abort on
  this; detection reports it and suggests the narrowed selection that
  avoids it.
* **ambiguity** — two parallel sources each pass down a same-named
  property carrying different knowledge, so which copy the heir should
  trust is undecided.  Construction succeeds (both copies are kept,
  identity-distinct), but flattening would silently prefer one; the
  suggestion keeps the first source's copy explicitly, with one
  alternative per other contributor.
* **redundancy** — the same knowledge reaches the heir more than once
  (similar members from several levels or sources), or, when the caller
  states which inherited names are actually required, everything arriving
  beyond that list.  The suggestion narrows selections so the surplus
  stops flowing.

Suggestions are full plans, directly executable in place of the original.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .inheritance import (
    InheritancePlan,
    Selection,
    SelectionMode,
    View,
    _apply_selection,
    _declared_entries,
    _exception_conflicts,
    _heir_entries,
    _restricted_selection,
    _value_text,
)
from .model import Degree, DegreedMember, Network, OodnError


class RequirementError(OodnError):
    """A stated requirement names members the plan cannot deliver."""


@dataclass(frozen=True)
class Diagnostic:
    """One detected pathology on one plan."""

    kind: str
    plan: str
    subjects: tuple[str, ...]
    members: tuple[str, ...]
    message: str
    suggestion: InheritancePlan | None = None
    alternatives: tuple[InheritancePlan, ...] = ()

    def render(self) -> str:
        lines = [f"{self.kind} in plan [{self.plan}]"]
        lines.append(f"  members: {', '.join(self.members)}")
        lines.append(f"  {self.message}")
        if self.suggestion is not None:
            lines.append(f"  suggestion: {self.suggestion.describe()}")
        else:
            lines.append("  suggestion: none")
        for alternative in self.alternatives:
            lines.append(f"  alternative: {alternative.describe()}")
        return "\n".join(lines)


def render_report(diagnostics: Sequence[Diagnostic]) -> str:
    if not diagnostics:
        return "no findings"
    count = len(diagnostics)
    noun = "finding" if count == 1 else "findings"
    body = "\n".join(d.render() for d in diagnostics)
    return f"{count} {noun}\n{body}"


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class _Link(NamedTuple):
    parent: str
    child: str
    parent_view: View
    own: list[DegreedMember]
    taken: View


class _Walk(NamedTuple):
    links: list[_Link]
    arrivals: list[DegreedMember]


def _walk(plan: InheritancePlan, net: Network) -> _Walk:
    """Walk a plan once: every link, and everything reaching the heir.

    A chain has one link per level, a parallel plan one per source into
    the heir.  Unlike construction, the walk never aborts: a contradicted
    link still passes its members upward so that every link gets
    inspected.  Arrivals come in arrival order; a member arriving from
    several parallel sources keeps its lowest degree.
    """
    links: list[_Link] = []
    if plan.chain:
        order = plan.participants_root_first()
        view: View = {e.identity: e for e in _declared_entries(net, order[0])}
        for parent, child in zip(order, order[1:]):
            taken = _apply_selection(view, plan.selection_for(parent), parent)
            own = (
                _heir_entries(net, child)
                if child == plan.heir
                else _declared_entries(net, child)
            )
            links.append(_Link(parent, child, view, own, taken))
            view = dict(taken)
            for entry in own:
                view[entry.identity] = entry
        return _Walk(links, list(links[-1].taken.values()))
    takens = []
    for source, selection in plan.sources:
        view = {e.identity: e for e in _declared_entries(net, source)}
        takens.append((source, view, _apply_selection(view, selection, source)))
    own = _heir_entries(net, plan.heir)  # after the sources: theirs are reported first
    merged: View = {}
    for source, view, taken in takens:
        links.append(_Link(source, plan.heir, view, own, taken))
        for identity, entry in taken.items():
            existing = merged.get(identity)
            if existing is None or entry.degree < existing.degree:
                merged[identity] = entry
    return _Walk(links, list(merged.values()))


def _with_selection(
    plan: InheritancePlan, source: str, selection: Selection | None
) -> InheritancePlan | None:
    """The plan with one source's selection replaced, or dropped when None."""
    if selection is None:
        remaining = tuple(
            (name, sel) for name, sel in plan.sources if name != source
        )
        if not remaining:
            return None
        if plan.chain and len(remaining) != len(plan.sources):
            return None
        return replace(plan, sources=remaining)
    return replace(
        plan,
        sources=tuple(
            (name, selection if name == source else sel)
            for name, sel in plan.sources
        ),
    )


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


def detect_exception(plan: InheritancePlan, net: Network) -> list[Diagnostic]:
    """Crisp arrivals that contradict an own property, link by link."""
    return _exception_findings(plan, _walk(plan, net))


def _exception_findings(plan: InheritancePlan, walk: _Walk) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for parent, child, parent_view, own, taken in walk.links:
        conflicts = _exception_conflicts(own, taken)
        if not conflicts:
            continue
        names = tuple(sorted({name for name, _, _ in conflicts}))
        narrowed = _restricted_selection(
            plan.selection_for(parent), parent_view, set(names)
        )
        suggestion = _with_selection(plan, parent, narrowed)
        detail = "; ".join(
            f"{name}: own {local.member.display()}={_value_text(local)} against "
            f"arriving {arriving.member.display()}={_value_text(arriving)}"
            for name, local, arriving in conflicts
        )
        diagnostics.append(
            Diagnostic(
                kind="exception",
                plan=plan.describe(),
                subjects=(parent, child),
                members=names,
                message=(
                    f"{child!r} contradicts members inherited crisply from "
                    f"{parent!r}: {detail}"
                ),
                suggestion=suggestion,
            )
        )
    return diagnostics


def detect_ambiguity(plan: InheritancePlan, net: Network) -> list[Diagnostic]:
    """Same-named, differently-valued members arriving from parallel sources.

    Each involved source's selection is narrowed once per ambiguous name;
    the suggestion and every alternative are then one plan each over the
    plan's sources, sharing those narrowed selections.
    """
    if plan.chain or len(plan.sources) < 2:
        return []
    return _ambiguity_findings(plan, _walk(plan, net))


def _ambiguity_findings(plan: InheritancePlan, walk: _Walk) -> list[Diagnostic]:
    if plan.chain or len(plan.sources) < 2:
        return []
    by_name: dict[str, list[tuple[str, DegreedMember]]] = {}
    for link in walk.links:
        for entry in link.taken.values():
            by_name.setdefault(entry.member.name, []).append((link.parent, entry))
    views = {link.parent: link.parent_view for link in walk.links}
    selections = dict(plan.sources)
    diagnostics = []
    for name in sorted(by_name):
        contributions = by_name[name]
        involved = dict.fromkeys(source for source, _ in contributions)
        if len(involved) < 2:
            continue
        keys = {entry.member.similarity_key() for _, entry in contributions}
        if len(keys) < 2:
            continue
        narrowed = [
            (source, _restricted_selection(selection, views[source], {name}))
            if source in involved
            else (source, selection)
            for source, selection in plan.sources
        ]

        def keep_copy_of(kept: str) -> InheritancePlan:
            # A source narrowed to nothing drops out; the kept one stays whole.
            return replace(
                plan,
                sources=tuple(
                    (source, selections[source] if source == kept else selection)
                    for source, selection in narrowed
                    if source == kept or selection is not None
                ),
            )

        suggestion, *alternatives = (keep_copy_of(kept) for kept in involved)
        detail = "; ".join(
            f"{source} passes {entry.member.display()}={_value_text(entry)}"
            for source, entry in contributions
        )
        diagnostics.append(
            Diagnostic(
                kind="ambiguity",
                plan=plan.describe(),
                subjects=tuple(involved),
                members=(name,),
                message=(
                    f"{name!r} arrives from {len(involved)} sources with "
                    f"conflicting content: {detail}"
                ),
                suggestion=suggestion,
                alternatives=tuple(alternatives),
            )
        )
    return diagnostics


def detect_redundancy(
    plan: InheritancePlan,
    net: Network,
    required: Sequence[str] | None = None,
) -> list[Diagnostic]:
    """Knowledge arriving at the heir that adds nothing.

    Without ``required``: similar members arriving more than once.  With
    ``required``: every arriving name outside the required list, as a
    single finding whose suggestion narrows the heir-facing selections to
    exactly what was asked for.
    """
    return _redundancy_findings(plan, net, _walk(plan, net), required)


def _redundancy_findings(
    plan: InheritancePlan,
    net: Network,
    walk: _Walk,
    required: Sequence[str] | None,
) -> list[Diagnostic]:
    if required is not None:
        return _surplus_against_required(plan, walk, list(required))

    groups: dict[tuple, list[DegreedMember]] = {}
    for entry in walk.arrivals:
        groups.setdefault(entry.member.similarity_key(), []).append(entry)
    source_order = [name for name, _ in plan.sources]
    diagnostics = []
    flagged = [key for key, entries in groups.items() if len(entries) > 1]
    for key in sorted(flagged, key=lambda k: (k[1], str(k))):
        entries = groups[key]
        name = entries[0].member.name
        owners = sorted(
            {entry.member.owner for entry in entries},
            key=lambda owner: (
                source_order.index(owner) if owner in source_order else -1
            ),
        )
        keep = owners[0]
        candidate: InheritancePlan | None = plan
        for owner in owners[1:]:
            if owner not in source_order or candidate is None:
                candidate = None
                break
            view: View = {
                e.identity: e for e in _declared_entries(net, owner)
            }
            narrowed = _restricted_selection(
                candidate.selection_for(owner), view, {name}
            )
            candidate = _with_selection(candidate, owner, narrowed)
        diagnostics.append(
            Diagnostic(
                kind="redundancy",
                plan=plan.describe(),
                subjects=tuple(owners),
                members=(name,),
                message=(
                    f"{name!r} arrives {len(entries)} times with the same content "
                    f"(declared by {', '.join(owners)}); the copies beyond "
                    f"{keep!r}'s add nothing"
                ),
                suggestion=candidate,
            )
        )
    return diagnostics


def _surplus_against_required(
    plan: InheritancePlan,
    walk: _Walk,
    required: list[str],
) -> list[Diagnostic]:
    available = dict.fromkeys(entry.member.name for entry in walk.arrivals)
    missing = [name for name in required if name not in available]
    if missing:
        raise RequirementError(
            f"required members not delivered by this plan: {', '.join(sorted(missing))}"
        )
    surplus = tuple(sorted(name for name in available if name not in required))
    if not surplus:
        return []

    def required_from(link: _Link) -> tuple[tuple[str, Degree], ...]:
        selection = plan.selection_for(link.parent)
        names = dict.fromkeys(e.member.name for e in link.parent_view.values())
        return tuple((n, selection.degree_for(n)) for n in names if n in required)

    if plan.chain:
        heir_link = walk.links[-1]
        suggestion = _with_selection(
            plan,
            heir_link.parent,
            Selection(SelectionMode.LISTED, required_from(heir_link)),
        )
    else:
        candidate: InheritancePlan | None = plan
        for link in walk.links:
            if candidate is None:
                break
            kept = required_from(link)
            narrowed = Selection(SelectionMode.LISTED, kept) if kept else None
            candidate = _with_selection(candidate, link.parent, narrowed)
        suggestion = candidate

    return [
        Diagnostic(
            kind="redundancy",
            plan=plan.describe(),
            subjects=(plan.heir,),
            members=surplus,
            message=(
                f"{len(surplus)} inherited members are not in the required list: "
                f"{', '.join(surplus)}"
            ),
            suggestion=suggestion,
        )
    ]


def diagnose_all(
    net: Network, required: Sequence[str] | None = None
) -> list[Diagnostic]:
    """All findings over every declared plan, in declaration order.

    Each plan is walked once and the walk is shared by all three detectors.
    """
    findings: list[Diagnostic] = []
    for plan in net.plans:
        walk = _walk(plan, net)
        findings.extend(_exception_findings(plan, walk))
        findings.extend(_redundancy_findings(plan, net, walk, required))
        findings.extend(_ambiguity_findings(plan, walk))
    return findings
