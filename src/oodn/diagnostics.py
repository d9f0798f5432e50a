"""Detection of inheritance pathologies, with machine-applicable repairs.

Three pathologies are detected, none of which requires executing a plan;
``inherit`` refuses a plan with the first that blocks it (:func:`refusal`).

* **exception** — a class's own property contradicts one arriving crisply
  at its link (same name, same type, different value).  It blocks under
  every policy; the suggestion narrows the selection that lets it through.
* **ambiguity** — two parallel sources each pass down a same-named
  property carrying different knowledge, so which copy the heir should
  trust is undecided.  Construction succeeds (both copies are kept,
  identity-distinct), but flattening would silently prefer one; the
  suggestion keeps the first source's copy explicitly, with one
  alternative per other contributor.  A member of that name arriving at
  two degrees blocks under ``Policy.REJECT``; a member held in two contents
  at one degree, shown as ``p(A)``, cannot be layered: it blocks, unrepaired.
* **redundancy** — the same knowledge reaches the heir more than once
  (similar members from several levels or sources), or, when the caller
  states which inherited names are actually required, everything arriving
  beyond that list.  The suggestion narrows selections so the surplus
  stops flowing.

A repair is held as what it removes (see :class:`Repair`), which costs
one entry per source, so diagnosis grows about linearly with declared
members.  The executable plans are built only when ``suggestion`` or
``alternatives`` is read, and ``lines`` writes them without building them,
one at a time, so a report can be written as it is rendered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator, Sequence

from .inheritance import (
    Identity,
    InheritancePlan,
    Link,
    Policy,
    Repair,
    View,
    audiences,
    borrows,
    merge,
    walk,
)
from .model import DegreedMember, Member, Network, OodnError, member_line, value_text


class RequirementError(OodnError):
    """A stated requirement names members the plan cannot deliver."""


@dataclass(frozen=True)
class Diagnostic:
    """One detected pathology on one plan, with its repair if it has one,
    and the policies under which it stops ``inherit``."""

    kind: str
    plan: str
    subjects: tuple[str, ...]
    members: tuple[str, ...]
    message: str
    repair: Repair | None = None
    blocks: tuple[Policy, ...] = ()

    @property
    def suggestion(self) -> InheritancePlan | None:
        return None if self.repair is None else self.repair.plans[0]

    @property
    def alternatives(self) -> tuple[InheritancePlan | None, ...]:
        return () if self.repair is None else self.repair.plans[1:]

    def lines(self) -> Iterator[str]:
        """The finding's report lines, each alternative's text built as it
        is reached."""
        texts = iter((None,) if self.repair is None else self.repair.texts())
        yield f"{self.kind} in plan [{self.plan}]"
        yield f"  members: {', '.join(self.members)}"
        yield f"  {self.message}"
        yield f"  suggestion: {next(texts) or 'none'}"
        for text in texts:
            yield f"  alternative: {text}"

    def render(self) -> str:
        return "\n".join(self.lines())


def report_lines(diagnostics: Sequence[Diagnostic]) -> Iterator[str]:
    """The report's lines: a count of findings, then each finding's lines."""
    count = len(diagnostics)
    noun = "finding" if count == 1 else "findings"
    yield f"{count} {noun}" if count else "no findings"
    for diagnostic in diagnostics:
        yield from diagnostic.lines()


def render_report(diagnostics: Sequence[Diagnostic]) -> str:
    return "\n".join(report_lines(diagnostics))


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


def detect_exception(plan: InheritancePlan, net: Network) -> list[Diagnostic]:
    """Crisp arrivals that contradict an own property, link by link."""
    return _exception_findings(plan, walk(plan, net))


def _exception_findings(plan: InheritancePlan, links: list[Link]) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for link in links:
        conflicts = link.conflicts
        if not conflicts:
            continue
        names = tuple(sorted({name for name, _, _ in conflicts}))
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
                repair=Repair(plan, ((link, frozenset(names)),)),
                blocks=tuple(Policy),
            )
        )
    return diagnostics


def detect_ambiguity(plan: InheritancePlan, net: Network) -> list[Diagnostic]:
    """Same-named members arriving from parallel sources in different
    contents or at two degrees, then members held in two contents at one degree.

    Each involved source is narrowed by the ambiguous name; the suggestion
    keeps the first whole and each alternative another, so the finding
    holds one repair whatever the number of alternatives.
    """
    links, borrowing = walk(plan, net), borrows(plan, net)
    return _ambiguity_findings(plan, links, borrowing) + _clash_findings(plan, links, borrowing)


def _ambiguity_findings(
    plan: InheritancePlan, links: list[Link], borrows: bool
) -> list[Diagnostic]:
    if plan.chain:
        return []
    by_name: dict[str, list[tuple[str, DegreedMember]]] = {}
    for link in links:
        for entry in link.taken.values():
            by_name.setdefault(entry.member.name, []).append((link.parent, entry))
    link_of = {link.parent: link for link in links}
    written = plan.describe()
    diagnostics = []
    for name in sorted(by_name):
        contributions = by_name[name]
        involved = dict.fromkeys(source for source, _ in contributions)
        if len(involved) < 2:
            continue
        keys = {entry.member.similarity_key() for _, entry in contributions}
        # The first member of the name arriving at a second degree, if any.
        split = ""
        first: dict[Identity, tuple[str, DegreedMember]] = {}
        for source, entry in contributions if borrows else ():
            earlier, present = first.setdefault(entry.identity, (source, entry))
            if present.degree != entry.degree and not split:
                split = (
                    f"member {entry.member.display()} arrives from {earlier!r} at "
                    f"degree {present.degree} and from {source!r} at degree "
                    f"{entry.degree}; pass a min or max policy to resolve"
                )
        if len(keys) < 2 and not split:
            continue
        excluded = frozenset({name})
        repair = Repair(
            plan,
            tuple((link_of[source], excluded) for source in involved),
            kept=tuple(involved),
        )
        detail = "; ".join(
            f"{source} passes {entry.member.display()}={value_text(entry.member)}"
            for source, entry in contributions
        )
        content = f"{name!r} arrives from {len(involved)} sources with conflicting content: {detail}"
        message = "; ".join(filter(None, (len(keys) > 1 and content, split)))
        blocks = (Policy.REJECT,) if split else ()
        diagnostics.append(
            Diagnostic("ambiguity", written, tuple(involved), (name,), message, repair, blocks)
        )
    return diagnostics


def _clash_findings(
    plan: InheritancePlan, links: list[Link], borrows: bool
) -> list[Diagnostic]:
    """Members two participants hold in two contents at one degree, which
    layering cannot place, read off its audiences under each policy (a
    parallel heir holds a member arriving at two degrees at the degree its
    policy keeps).  No repair is offered."""
    # (identity, degree) -> each content held there -> policy -> audience
    held: dict[tuple, dict[Member, dict[Policy, int]]] = {}
    for policy in Policy if borrows else ():
        for entry, mask in audiences(plan, links, policy).items():
            contents = held.setdefault((entry.identity, entry.degree), {})
            contents.setdefault(entry.member, {})[policy] = mask
    order = plan.participants_root_first()
    diagnostics = []
    for (_, degree), contents in held.items():
        blocks = tuple(p for p in Policy if sum(p in by for by in contents.values()) > 1)
        if not blocks:  # each content is held under other policies only
            continue
        holders = {}
        for member, by in contents.items():
            audience = reduce(or_, by.values())
            holders[member] = [name for at, name in enumerate(order) if audience >> at & 1]
        detail = "; ".join(
            f"{member_line(DegreedMember(member, degree))} by {', '.join(names)}"
            for member, names in holders.items()
        )
        subjects = tuple(name for name in order if any(name in h for h in holders.values()))
        shown = next(iter(contents)).display()
        message = f"member {shown} is held in {len(contents)} contents at one degree: {detail}"
        diagnostics.append(
            Diagnostic("ambiguity", plan.describe(), subjects, (shown,), message, blocks=blocks)
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
    arrivals = links[-1].taken if plan.chain else merge(links, Policy.MIN)
    if required is not None:
        return _surplus_against_required(plan, links, arrivals, list(required))

    groups: dict[tuple, list[DegreedMember]] = {}
    for entry in arrivals.values():
        groups.setdefault(entry.member.similarity_key(), []).append(entry)
    position = {name: index for index, (name, _) in enumerate(plan.sources)}
    written = plan.describe()
    diagnostics = []
    flagged = [key for key, entries in groups.items() if len(entries) > 1]
    # Where each copy enters the flow, by link index: on a chain, the link out
    # of the class nearest the heir declaring it (a level's own entries are its
    # incoming link's, the root's the rest); in parallel, each source taking it.
    enters: dict[Identity, list[int]] = {}
    if flagged and plan.chain:
        enters = {e.identity: [at] for at, link in enumerate(links[:-1], 1) for e in link.own}
    elif flagged:
        copies = {entry.identity for key in flagged for entry in groups[key]}
        for at, link in enumerate(links):
            for identity in copies.intersection(link.taken):
                enters.setdefault(identity, []).append(at)
    for key in sorted(flagged, key=lambda k: (k[1], str(k))):
        entries = sorted(groups[key], key=lambda e: position.get(e.member.owner, -1))
        name = entries[0].member.name
        owners = [entry.member.owner for entry in entries]
        # The copy arriving at the highest degree stays, the earliest on a
        # tie, so the repair never weakens what the heir holds.
        kept = max(entries, key=lambda entry: entry.degree)
        # Every other copy is stopped where it enters, unless the kept copy
        # passes there too: narrowing drops a name, so it would drop both.
        # On a chain the kept copy passes every link from the one it enters at.
        stops = {at for e in entries if e is not kept for at in enters.get(e.identity, [0])}
        passed = enters.get(kept.identity, [0])
        blocked = max(stops) >= passed[0] if plan.chain else not stops.isdisjoint(passed)
        repair = None
        if not blocked:
            excluded = frozenset({name})
            repair = Repair(plan, tuple((links[at], excluded) for at in stops))
        diagnostics.append(
            Diagnostic(
                kind="redundancy",
                plan=written,
                subjects=tuple(owners),
                members=(name,),
                message=(
                    f"{name!r} arrives {len(entries)} times with the same content "
                    f"(declared by {', '.join(owners)}); the copies beyond "
                    f"{kept.member.owner!r}'s add nothing"
                ),
                repair=repair,
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

    # Only the selections facing the heir decide what reaches it.  Each
    # drops the surplus and so keeps only required names it already took.
    heir_facing = links[-1:] if plan.chain else links
    excluded = frozenset(surplus)
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
            repair=Repair(plan, tuple((link, excluded) for link in heir_facing)),
        )
    ]


def diagnose_all(
    net: Network, required: Sequence[str] | None = None
) -> list[Diagnostic]:
    """All findings over every declared plan, in declaration order.

    Each plan is walked once and the walk is shared by all three detectors.
    Raises :class:`RequirementError` when a plan cannot deliver every
    ``required`` name, or when members are required of a network that
    declares no plan, since nothing delivers them there.
    """
    if required and not net.plans:
        raise RequirementError(
            "no plan is declared to deliver the required members: "
            f"{', '.join(sorted(required))}"
        )
    findings: list[Diagnostic] = []
    for plan in net.plans:
        links, borrowing = walk(plan, net), borrows(plan, net)
        findings.extend(_exception_findings(plan, links))
        findings.extend(_redundancy_findings(plan, links, required))
        findings.extend(_ambiguity_findings(plan, links, borrowing))
        findings.extend(_clash_findings(plan, links, borrowing))
    return findings


def refusal(
    plan: InheritancePlan, links: list[Link], net: Network, policy: Policy
) -> Diagnostic | None:
    """The first finding ``diagnose_all`` lists for a walked plan that blocks
    it under ``policy``, or None.  Only the finders that can block run."""
    findings = _exception_findings(plan, links)
    if not findings and borrows(plan, net):
        if policy is Policy.REJECT:
            findings = _ambiguity_findings(plan, links, True)
        findings += _clash_findings(plan, links, True)
    return next((f for f in findings if policy in f.blocks), None)
