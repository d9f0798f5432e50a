"""Seeded workload generator for the oodn benchmark.

Each workload is a knowledge file plus the facts the generator knows about
it from its own construction: per plan, the core size, projection count,
``depends_on`` edge count, every participant's flattened size and the
finding counts by kind; and, for the edit session, each edit's outcome and
the facts of its plan after the edit.  The facts come from a small model of
the inheritance rules kept here, never from ``oodn``, so the benchmark can
check ``oodn``'s output against them.

Workloads (see ``WORKLOADS``):

* ``chain``  -- one chain plan over D classes of W int properties and the
  same three methods;
* ``fanout`` -- one parallel plan ``H inherits S0, ..., S{S-1}`` whose
  sources share three ``common`` properties with parity-chosen values;
* ``mixed``  -- many small plans cycling through all eight octants, with
  objects, fuzzy associations and fuzzy-set, text, bool and weak real
  properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

ONE = Fraction(1)
WEAK_DEGREES = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))


# ---------------------------------------------------------------------------
# Network description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    """A declared member: ``value`` is raw data for properties, the
    signature text for methods."""

    owner: str
    name: str
    kind: str  # "prop" or "method"
    vtype: str | None
    value: object
    degree: Fraction = ONE

    @property
    def identity(self) -> tuple[str, str]:
        return (self.owner, self.name)

    @cached_property
    def key(self) -> tuple:
        """Owner-free content: equal keys are similar members."""
        if self.kind == "prop":
            return ("prop", self.name, self.vtype, canonical(self.vtype, self.value))
        return ("method", self.name, self.value)

    def line(self) -> str:
        suffix = "" if self.degree == ONE else f" /{fraction_text(self.degree)}"
        if self.kind == "prop":
            return f"prop {self.name}: {self.vtype} = {render(self.vtype, self.value)}{suffix};"
        return f"method {self.name}{self.value}{suffix};"


@dataclass(frozen=True)
class Source:
    name: str
    mode: str = "all"  # "all" or "listed"
    entries: tuple[tuple[str, Fraction], ...] = ()
    only: bool = False

    def text(self) -> str:
        if not self.entries:
            return self.name
        items = ", ".join(
            n if (d == ONE and self.mode == "listed") else f"{n}/{fraction_text(d)}"
            for n, d in self.entries
        )
        marker = "only " if self.only else ""
        return f"{self.name} ({marker}{items})"


@dataclass(frozen=True)
class Plan:
    heir: str
    sources: tuple[Source, ...]  # chain: nearest ancestor first
    chain: bool

    def order(self) -> list[str]:
        """Participants root first, heir last."""
        names = [s.name for s in self.sources]
        return (names[::-1] if self.chain else names) + [self.heir]

    def text(self) -> str:
        joiner = " inherits " if self.chain else ", "
        return f"{self.heir} inherits {joiner.join(s.text() for s in self.sources)};"


@dataclass(frozen=True)
class PlanFacts:
    heir: str
    core: int
    projections: int
    edges: int
    flattened: dict[str, int]
    findings: dict[str, int]
    view_entries: int


@dataclass(frozen=True)
class Edit:
    """One modifier call and what it must do.

    ``op`` is ``set`` (``modify_set_value``), ``add`` (``modify_add_member``)
    or ``remove`` (``modify_remove_member``).  ``plan`` names the heir of the
    plan to re-run after a commit; ``facts`` are that plan's facts after it.
    """

    op: str
    target: str
    member: str
    vtype: str | None = None
    value: object = None
    degree: Fraction = ONE
    commit: bool = True
    plan: str | None = None
    facts: PlanFacts | None = None


@dataclass
class Workload:
    name: str
    seed: int
    classes: dict[str, list[Member]] = field(default_factory=dict)
    objects: dict[str, tuple[str, list[tuple[str, str, object]]]] = field(default_factory=dict)
    relations: list[str] = field(default_factory=list)
    plans: list[Plan] = field(default_factory=list)
    facts: list[PlanFacts] = field(default_factory=list)
    edits: list[Edit] = field(default_factory=list)

    def text(self) -> str:
        blocks = []
        for name, members in self.classes.items():
            body = "".join(f"  {m.line()}\n" for m in members)
            blocks.append(f"class {name} {{\n{body}}}\n")
        for name, (cls, values) in self.objects.items():
            body = "".join(f"  {n} = {render(t, v)};\n" for n, t, v in values)
            blocks.append(f"object {name} : {cls} {{\n{body}}}\n")
        if self.relations:
            blocks.append("".join(f"{r}\n" for r in self.relations))
        blocks.append("".join(f"{p.text()}\n" for p in self.plans))
        return "\n".join(blocks)

    @property
    def declared_members(self) -> int:
        return sum(len(members) for members in self.classes.values())


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def canonical(vtype: str | None, value: object) -> object:
    if vtype == "real":
        return Fraction(value)  # type: ignore[arg-type]
    if vtype == "fuzzy":
        return tuple((e, Fraction(m)) for e, m in value)  # type: ignore[union-attr]
    return value


def render(vtype: str | None, value: object) -> str:
    if vtype == "bool":
        return "true" if value else "false"
    if vtype == "text":
        return f'"{value}"'
    if vtype == "fuzzy":
        return "{" + ", ".join(f"{e}: {m}" for e, m in value) + "}"  # type: ignore[union-attr]
    return str(value)


def random_value(rng: random.Random, vtype: str) -> object:
    if vtype == "int":
        return rng.randrange(-999, 1000)
    if vtype == "real":
        return f"{rng.randrange(1, 400)}/{rng.choice((3, 7, 8, 16))}"
    if vtype == "text":
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randrange(3, 9)))
    if vtype == "bool":
        return rng.random() < 0.5
    elements = rng.sample(("lo", "mid", "hi", "peak", "base"), rng.randrange(1, 4))
    return tuple((e, f"{rng.randrange(1, 9)}/8") for e in elements)


def other_value(rng: random.Random, vtype: str, old: object) -> object:
    """A value of the same type, different from ``old``."""
    while True:
        value = random_value(rng, vtype)
        if canonical(vtype, value) != canonical(vtype, old):
            return value


# ---------------------------------------------------------------------------
# The model: what executing and diagnosing a plan must yield
# ---------------------------------------------------------------------------

View = dict  # identity -> (Member, degree)


def _own(classes: dict[str, list[Member]], name: str) -> View:
    return {m.identity: (m, m.degree) for m in classes.get(name, ())}


def _take(view: View, source: Source) -> View:
    """Members flowing out of a source through its selection."""
    if source.mode == "all" and not source.entries:
        return view
    factors = dict(source.entries)
    return {
        ident: (m, d * factors[m.name] if m.name in factors else d)
        for ident, (m, d) in view.items()
        if source.mode == "all" or m.name in factors
    }


def _exceptions(own: View, taken: View) -> bool:
    props = {m.name: m for m, _ in own.values() if m.kind == "prop"}
    for m, d in taken.values():
        local = props.get(m.name)
        if (
            m.kind == "prop" and d == ONE and local is not None
            and local.vtype == m.vtype and local.key != m.key
        ):
            return True
    return False


def plan_facts(plan: Plan, classes: dict[str, list[Member]]) -> PlanFacts:
    """Facts of one plan under the ``min`` policy, from the rules alone.

    Views: a chain passes each level's view through the selection attached
    to it; parallel sources pass their own members, the weaker degree
    winning when one member arrives twice.  The core holds the root's crisp
    members that every participant holds crisply.  Every other (member,
    degree) pair lands in the projection of exactly the participants that
    hold it; the heir always has one.  A projection depends on each
    smallest strictly larger audience.  A participant's flattened size
    counts its distinct owner-free contents.
    """
    order = plan.order()
    views: dict[str, View] = {}
    exceptions = 0
    takens: list[tuple[str, View]] = []
    if plan.chain:
        views[order[0]] = _own(classes, order[0])
        by_name = {s.name: s for s in plan.sources}
        for parent, child in zip(order, order[1:]):
            taken = _take(views[parent], by_name[parent])
            own = _own(classes, child)
            exceptions += _exceptions(own, taken)
            views[child] = {**taken, **own}
        arrivals = list(taken.values())
    else:
        merged: View = {}
        for source in plan.sources:
            views[source.name] = _own(classes, source.name)
            taken = _take(views[source.name], source)
            takens.append((source.name, taken))
            for ident, (m, d) in taken.items():
                if ident not in merged or d < merged[ident][1]:
                    merged[ident] = (m, d)
        own = _own(classes, plan.heir)
        exceptions += _exceptions(own, merged)
        views[plan.heir] = {**merged, **own}
        arrivals = list(merged.values())

    core = {
        ident
        for ident, (_, d) in views[order[0]].items()
        if d == ONE and all(ident in views[p] and views[p][ident][1] == ONE for p in order)
    }
    audience: dict[tuple, set[int]] = {}
    for index, name in enumerate(order):
        for ident, (_, d) in views[name].items():
            if ident not in core:
                audience.setdefault((ident, d), set()).add(index)
    keys = {frozenset(a) for a in audience.values()}
    emitted = keys | {frozenset({len(order) - 1})}
    edges = 0
    for key in emitted:
        supers = [o for o in keys if key < o]
        edges += sum(1 for s in supers if not any(key < t < s for t in supers))

    contents: dict[tuple, int] = {}
    for m, _ in arrivals:
        contents[m.key] = contents.get(m.key, 0) + 1
    redundancy = sum(1 for count in contents.values() if count > 1)
    ambiguity = 0
    if not plan.chain and len(plan.sources) >= 2:
        by_member: dict[str, tuple[set, set]] = {}
        for source, taken in takens:
            for m, _ in taken.values():
                sources, variants = by_member.setdefault(m.name, (set(), set()))
                sources.add(source)
                variants.add(m.key)
        ambiguity = sum(1 for s, v in by_member.values() if len(s) > 1 and len(v) > 1)

    return PlanFacts(
        heir=plan.heir,
        core=len(core),
        projections=len(emitted),
        edges=edges,
        flattened={name: len({m.key for m, _ in views[name].values()}) for name in order},
        findings={"exception": exceptions, "redundancy": redundancy, "ambiguity": ambiguity},
        view_entries=sum(len(v) for v in views.values()),
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

CHAIN_METHODS = ("()", "(force: bool)", "(ch: int) -> real")
CHAIN_METHOD_NAMES = ("start", "stop", "read")


def chain(seed: int, depth: int = 60, width: int = 20, edits: int = 6) -> Workload:
    rng = random.Random(f"chain/{seed}")
    work = Workload("chain", seed)
    for i in range(depth):
        name = f"C{i}"
        members = [
            Member(name, f"c{i}_{j}", "prop", "int", rng.randrange(-999, 1000))
            for j in range(width)
        ]
        members += [
            Member(name, m, "method", None, sig)
            for m, sig in zip(CHAIN_METHOD_NAMES, CHAIN_METHODS)
        ]
        work.classes[name] = members
    sources = tuple(Source(f"C{i}") for i in reversed(range(depth - 1)))
    work.plans.append(Plan(f"C{depth - 1}", sources, chain=True))
    return _finish(work, rng, edits)


def fanout(seed: int, sources: int = 80, width: int = 20, edits: int = 60) -> Workload:
    rng = random.Random(f"fanout/{seed}")
    work = Workload("fanout", seed)
    common = [rng.sample(range(-999, 1000), 2) for _ in range(3)]
    for i in range(sources):
        name = f"S{i}"
        members = [
            Member(name, f"s{i}_{j}", "prop", "int", rng.randrange(-999, 1000))
            for j in range(width)
        ]
        members += [
            Member(name, f"common{k}", "prop", "int", values[i % 2])
            for k, values in enumerate(common)
        ]
        work.classes[name] = members
    work.plans.append(
        Plan("H", tuple(Source(f"S{i}") for i in range(sources)), chain=False)
    )
    return _finish(work, rng, edits)


# The eight octants as (partial extent, weak strength); arity alternates.
OCTANT_STYLES = ((False, False), (False, True), (True, False), (True, True))
MIXED_TYPES = ("int", "real", "text", "bool", "fuzzy")


def _mixed_class(rng: random.Random, name: str, prefix: str) -> list[Member]:
    members = []
    for j in range(rng.randrange(2, 5)):
        vtype = MIXED_TYPES[j % len(MIXED_TYPES)] if j < 2 else rng.choice(MIXED_TYPES)
        degree = rng.choice(WEAK_DEGREES) if vtype == "real" else ONE
        members.append(
            Member(name, f"{prefix}_{j}", "prop", vtype, random_value(rng, vtype), degree)
        )
    return members


def _selection(rng: random.Random, name: str, offered: list[str], partial: bool, weak: bool) -> Source:
    if not partial:
        if not weak:
            return Source(name)
        return Source(name, "all", ((rng.choice(offered), rng.choice(WEAK_DEGREES)),))
    picked = rng.sample(offered, rng.randrange(1, len(offered)))
    if not weak:
        return Source(name, "listed", tuple((n, ONE) for n in picked))
    degrees = [rng.choice(WEAK_DEGREES)] + [
        rng.choice((ONE, rng.choice(WEAK_DEGREES))) for _ in picked[1:]
    ]
    only = all(d != ONE for d in degrees)
    return Source(name, "listed", tuple(zip(picked, degrees)), only=only)


def mixed(seed: int, plans: int = 300, edits: int = 400) -> Workload:
    rng = random.Random(f"mixed/{seed}")
    work = Workload("mixed", seed)
    for k in range(plans):
        partial, weak = OCTANT_STYLES[(k // 2) % 4]
        is_chain = k % 2 == 0
        count = rng.randrange(2, 4)
        names = [f"{'ABC'[i]}{k}" for i in range(count)]  # root / sources first
        heir = f"H{k}"
        for name in names + [heir]:
            work.classes[name] = _mixed_class(rng, name, name.lower())
        if is_chain:
            for name in names:  # one shared method: repeated knowledge
                work.classes[name].append(Member(name, "ping", "method", None, "()"))
        else:
            shared = random_value(rng, "text")
            for index, name in enumerate(names):  # same content, and a clash
                work.classes[name].append(Member(name, f"unit{k}", "prop", "text", shared))
                work.classes[name].append(
                    Member(name, f"kind{k}", "prop", "int", k * 10 + index)
                )
        styled = rng.randrange(count)  # the source whose selection sets the octant
        sources = []
        for index, name in enumerate(names):
            own_names = [m.name for m in work.classes[name]]
            if index == styled:
                sources.append(_selection(rng, name, own_names, partial, weak))
            else:
                sources.append(Source(name))
        if is_chain:
            sources.reverse()  # written nearest ancestor first
        work.plans.append(Plan(heir, tuple(sources), chain=is_chain))

        root = names[0]
        target = work.classes[root][0]
        work.objects[f"o{k}"] = (
            root,
            [(target.name, target.vtype, other_value(rng, target.vtype, target.value))],
        )
        degree = rng.choice(WEAK_DEGREES)
        work.relations.append(f"relation association link{k} o{k} -> {heir} /{fraction_text(degree)};")
    return _finish(work, rng, edits)


# ---------------------------------------------------------------------------
# Edit session
# ---------------------------------------------------------------------------


def _finish(work: Workload, rng: random.Random, edits: int) -> Workload:
    work.facts = [plan_facts(plan, work.classes) for plan in work.plans]
    work.edits = _edit_session(work, rng, edits)
    return work


def _editable(members: list[Member]) -> list[Member]:
    """Properties whose name no other class of the plan uses."""
    return [m for m in members if m.kind == "prop" and m.name[0].islower() and "_" in m.name]


def _edit_session(work: Workload, rng: random.Random, count: int) -> list[Edit]:
    """Seeded modifier calls against a private copy of the network.

    Committed edits are applied to the copy, and the changed class's plan
    is re-modelled, so each edit carries the facts its plan has after it.
    Refused edits (wrong-typed values, removing a property an object
    overrides) leave the copy unchanged.
    """
    classes = {name: list(members) for name, members in work.classes.items()}
    overrides = {name: dict((n, (t, v)) for n, t, v in values) for name, (_, values) in work.objects.items()}
    plan_of = {name: plan for plan in work.plans for name in plan.order() if name in classes}
    current = {facts.heir: facts for facts in work.facts}
    pattern = ["set"] * 3 + ["add"] * 2 + ["add_weak"] * 2 + ["bad_type"]
    if work.objects:
        pattern += ["set_object"] * 2 + ["bad_object", "remove_overridden"]
    kinds = (pattern * (count // len(pattern) + 1))[:count]
    rng.shuffle(kinds)  # the mix of kinds is fixed; only their order is seeded
    edits = []
    for n, kind in enumerate(kinds):
        if kind in ("set_object", "bad_object", "remove_overridden"):
            obj = rng.choice(sorted(work.objects))
            cls = work.objects[obj][0]
            member, (vtype, value) = next(iter(overrides[obj].items()))
            plan = plan_of[cls]
            if kind == "set_object":
                value = other_value(rng, vtype, value)
                overrides[obj][member] = (vtype, value)
                edits.append(Edit("set", obj, member, vtype, value, plan=plan.heir,
                                  facts=current[plan.heir]))
            elif kind == "bad_object":
                edits.append(Edit("set", obj, member, *_wrong_value(rng, vtype), commit=False))
            else:
                edits.append(Edit("remove", cls, member, commit=False))
            continue
        cls = rng.choice(sorted(plan_of))
        plan = plan_of[cls]
        members = classes[cls]
        if kind == "set":
            index = members.index(rng.choice(_editable(members)))
            old = members[index]
            value = other_value(rng, old.vtype, old.value)
            members[index] = Member(cls, old.name, "prop", old.vtype, value, old.degree)
            # a uniquely named property changes value: no count moves
            edits.append(Edit("set", cls, old.name, old.vtype, value, plan=plan.heir,
                              facts=current[plan.heir]))
        elif kind in ("add", "add_weak"):
            vtype = rng.choice(MIXED_TYPES)
            value = random_value(rng, vtype)
            degree = rng.choice(WEAK_DEGREES) if kind == "add_weak" else ONE
            name = f"{cls.lower()}_x{n}"
            members.append(Member(cls, name, "prop", vtype, value, degree))
            current[plan.heir] = plan_facts(plan, classes)
            edits.append(Edit("add", cls, name, vtype, value, degree, plan=plan.heir,
                              facts=current[plan.heir]))
        else:
            old = rng.choice(_editable(members))
            edits.append(Edit("set", cls, old.name, *_wrong_value(rng, old.vtype), commit=False))
    return edits


def _wrong_value(rng: random.Random, vtype: str | None) -> tuple[str, object]:
    wrong = "int" if vtype != "int" else "text"
    return wrong, random_value(rng, wrong)


WORKLOADS = {"chain": chain, "fanout": fanout, "mixed": mixed}


def generate(name: str, seed: int, **sizes) -> Workload:
    return WORKLOADS[name](seed, **sizes)
