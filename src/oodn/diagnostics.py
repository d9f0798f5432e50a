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
from typing import Sequence

from .inheritance import (
    InheritancePlan,
    Link,
    Policy,
    Selection,
    SelectionMode,
    View,
    merge,
    walk,
)
from .model import DegreedMember, Network, OodnError, value_text


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


def _replan(
    plan: InheritancePlan, narrowed: dict[str, Selection | None]
) -> InheritancePlan | None:
    """The plan with the given sources' selections replaced.

    A source narrowed to nothing (None) drops out of a parallel plan.  A
    chain cannot lose a level, so it then gets no repair; neither does a
    plan left without sources.
    """
    replaced = [
        (name, narrowed.get(name, selection)) for name, selection in plan.sources
    ]
    kept = tuple((name, sel) for name, sel in replaced if sel is not None)
    if not kept or (plan.chain and len(kept) != len(replaced)):
        return None
    return replace(plan, sources=kept)


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


def detect_exception(plan: InheritancePlan, net: Network) -> list[Diagnostic]:
    """Crisp arrivals that contradict an own property, link by link."""
    return _exception_findings(plan, walk(plan, net))


def _exception_findings(
    plan: InheritancePlan, links: list[Link]
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for link in links:
        conflicts = link.conflicts()
        if not conflicts:
            continue
        names = tuple(sorted({name for name, _, _ in conflicts}))
        narrowed = plan.selection_for(link.parent).restricted(
            link.parent_view, set(names)
        )
        detail = "; ".join(
            f"{name}: own {local.member.display()}={value_text(local.member)} "
            f"against arriving {arriving.member.display()}="
            f"{value_text(arriving.member)}"
            for name, local, arriving in conflicts
        )
        diagnostics.append(
            Diagnostic(
                kind="exception",
                plan=plan.describe(),
                subjects=(link.parent, link.child),
                members=names,
                message=(
                    f"{link.child!r} contradicts members inherited crisply from "
                    f"{link.parent!r}: {detail}"
                ),
                suggestion=_replan(plan, {link.parent: narrowed}),
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
    return _ambiguity_findings(plan, walk(plan, net))


def _ambiguity_findings(
    plan: InheritancePlan, links: list[Link]
) -> list[Diagnostic]:
    if plan.chain or len(plan.sources) < 2:
        return []
    by_name: dict[str, list[tuple[str, DegreedMember]]] = {}
    for link in links:
        for entry in link.taken.values():
            by_name.setdefault(entry.member.name, []).append((link.parent, entry))
    views = {link.parent: link.parent_view for link in links}
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
        narrowed = {
            source: selections[source].restricted(views[source], {name})
            for source in involved
        }
        # Every other involved source is narrowed; the kept one stays whole.
        suggestion, *alternatives = (
            _replan(plan, narrowed | {kept: selections[kept]}) for kept in involved
        )
        detail = "; ".join(
            f"{source} passes {entry.member.display()}={value_text(entry.member)}"
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
    return _redundancy_findings(plan, walk(plan, net), required)


def _redundancy_findings(
    plan: InheritancePlan,
    links: list[Link],
    required: Sequence[str] | None,
) -> list[Diagnostic]:
    # Everything reaching the heir; a member arriving from several parallel
    # sources keeps its lowest degree.
    arrivals = links[-1].taken if plan.chain else merge(plan, links, Policy.MIN)
    if required is not None:
        return _surplus_against_required(plan, links, arrivals, list(required))

    groups: dict[tuple, list[DegreedMember]] = {}
    for entry in arrivals.values():
        groups.setdefault(entry.member.similarity_key(), []).append(entry)
    position = {name: index for index, (name, _) in enumerate(plan.sources)}
    views = {link.parent: link.parent_view for link in links}
    selections = dict(plan.sources)
    diagnostics = []
    flagged = [key for key, entries in groups.items() if len(entries) > 1]
    for key in sorted(flagged, key=lambda k: (k[1], str(k))):
        entries = groups[key]
        name = entries[0].member.name
        owners = sorted(
            dict.fromkeys(entry.member.owner for entry in entries),
            key=lambda owner: position.get(owner, -1),
        )
        keep, *surplus = owners
        # Each surplus owner's outgoing selection is narrowed over all it
        # holds: on a chain that includes what its ancestors pass through.
        suggestion = None
        if all(owner in views for owner in surplus):
            suggestion = _replan(
                plan,
                {
                    owner: selections[owner].restricted(views[owner], {name})
                    for owner in surplus
                },
            )
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
                suggestion=suggestion,
            )
        )
    return diagnostics


def _surplus_against_required(
    plan: InheritancePlan,
    links: list[Link],
    arrivals: View,
    required: list[str],
) -> list[Diagnostic]:
    available = dict.fromkeys(entry.member.name for entry in arrivals.values())
    missing = [name for name in required if name not in available]
    if missing:
        raise RequirementError(
            f"required members not delivered by this plan: {', '.join(sorted(missing))}"
        )
    surplus = tuple(sorted(name for name in available if name not in required))
    if not surplus:
        return []

    def required_from(link: Link) -> Selection | None:
        selection = plan.selection_for(link.parent)
        names = dict.fromkeys(e.member.name for e in link.parent_view.values())
        kept = tuple((n, selection.degree_for(n)) for n in names if n in required)
        return Selection(SelectionMode.LISTED, kept) if kept else None

    # Only the selections facing the heir decide what reaches it.
    heir_facing = links[-1:] if plan.chain else links
    suggestion = _replan(
        plan, {link.parent: required_from(link) for link in heir_facing}
    )
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
        links = walk(plan, net)
        findings.extend(_exception_findings(plan, links))
        findings.extend(_redundancy_findings(plan, links, required))
        findings.extend(_ambiguity_findings(plan, links))
    return findings
