from __future__ import annotations

import copy
import json
import pickle
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from oodn.diagnostics import diagnose_all
from oodn.dsl import (
    ParseError,
    StructuredImportError,
    encode_hetclass,
    export_structured,
    import_structured,
    json_text,
    parse_network,
    serialize,
)
from oodn.inheritance import (
    InheritanceConflictError,
    InheritancePlan,
    Policy,
    Selection,
    SelectionMode,
    decompose,
    inherit,
    merge,
    walk,
)
from oodn.model import (
    DEGREE_ONE,
    ClassTable,
    Degree,
    DegreedMember,
    FuzzySet,
    HetClass,
    HomClass,
    Member,
    MemberKind,
    MemberSet,
    ModelInvariantError,
    Network,
    ObjectInstance,
    OodnError,
    Projection,
    Relation,
    RelationKind,
    UnknownEntityError,
    ValueType,
    _object_members,
    dedupe_similar,
    declared_properties,
    format_rational,
    materialize,
    method,
    prop,
    validate_network,
    violations_are_fatal,
)
from oodn.operations import (
    ModificationRejected,
    _mark_stale,
    make_network,
    modify_add_member,
    modify_remove_member,
    modify_set_value,
)

COMMON = settings(max_examples=200, deadline=None, derandomize=True)
# whole-network generation costs an order of magnitude more per example,
# so those suites run fewer examples to keep the whole file fast
WHOLE_NETWORK = settings(max_examples=80, deadline=None, derandomize=True)

# ---------------------------------------------------------------------------
# Name pools (kept apart so property and method names never share an identity)
# ---------------------------------------------------------------------------

PROP_NAMES = tuple(f"p{i}" for i in range(8))
METHOD_NAMES = tuple(f"m{i}" for i in range(8))
MEMBER_NAMES = PROP_NAMES + METHOD_NAMES
CLASS_NAMES = tuple(f"C{i}" for i in range(6))
OBJECT_NAMES = tuple(f"o{i}" for i in range(4))
ELEMENT_NAMES = tuple(f"e{i}" for i in range(5))
PARAM_NAMES = ("x", "y", "z")
TEXT_ALPHABET = 'abz 09_"\\\n'

degrees = st.fractions(
    min_value=Fraction(1, 64), max_value=1, max_denominator=64
).map(Degree)
weak_degrees = st.fractions(
    min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64
).map(Degree)

# Any character but a lone surrogate, and the ones JSON escapes or widens.
wide_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ('"', "\\", "\n", 'a"b\\c\nd', "é", "\u2028", "\x7f", "\U0001f600")
)

# Every element kind: bare and quoted strings, ints, and rationals, the
# whole-number ones included; ``unique`` keeps the elements distinct by ==.
# A text is written bare only if it is an ASCII identifier, so letters and
# digits of other scripts are drawn too.
fuzzy_elements = st.one_of(
    st.sampled_from(ELEMENT_NAMES + ("3", "a b", "true", "été", "a٣")),
    wide_texts,
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
fuzzy_sets = st.lists(fuzzy_elements, unique=True, min_size=1, max_size=3).flatmap(
    lambda elements: st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=10),
        min_size=len(elements),
        max_size=len(elements),
    ).map(lambda memberships: FuzzySet(tuple(zip(elements, memberships))))
)


def value_for(value_type: ValueType) -> st.SearchStrategy:
    return {
        ValueType.INT: st.integers(-999, 999),
        ValueType.REAL: st.fractions(
            min_value=-99, max_value=99, max_denominator=30
        ),
        ValueType.BOOL: st.booleans(),
        ValueType.TEXT: st.text(TEXT_ALPHABET, max_size=8),
        ValueType.FUZZY: fuzzy_sets,
    }[value_type]


@st.composite
def degreed_props(draw, name: str, owner: str) -> DegreedMember:
    value_type = draw(st.sampled_from(list(ValueType)))
    value = draw(value_for(value_type))
    degree = draw(st.one_of(st.just(DEGREE_ONE), degrees))
    return DegreedMember(prop(name, value_type, value, owner), degree)


@st.composite
def degreed_methods(draw, name: str, owner: str) -> DegreedMember:
    param_names = draw(
        st.lists(st.sampled_from(PARAM_NAMES), unique=True, max_size=2)
    )
    params = [
        (p, draw(st.sampled_from(list(ValueType)))) for p in param_names
    ]
    returns = draw(st.none() | st.sampled_from(list(ValueType)))
    degree = draw(st.one_of(st.just(DEGREE_ONE), degrees))
    return DegreedMember(method(name, owner, params, returns), degree)


@st.composite
def hom_classes(draw, name: str) -> HomClass:
    prop_names = draw(
        st.lists(st.sampled_from(PROP_NAMES), unique=True, max_size=4)
    )
    method_names = draw(
        st.lists(st.sampled_from(METHOD_NAMES), unique=True, max_size=2)
    )
    spec = MemberSet([draw(degreed_props(n, name)) for n in prop_names])
    sig = MemberSet([draw(degreed_methods(n, name)) for n in method_names])
    return HomClass(name, spec, sig)


@st.composite
def selections(draw) -> Selection:
    shape = draw(st.integers(0, 2))
    if shape == 0:
        return Selection()
    names = draw(
        st.lists(st.sampled_from(MEMBER_NAMES), unique=True, min_size=1, max_size=3)
    )
    entries = tuple(
        (n, draw(st.one_of(st.just(DEGREE_ONE), weak_degrees))) for n in names
    )
    return Selection(SelectionMode.ALL if shape == 1 else SelectionMode.LISTED, entries)


@st.composite
def networks(draw):
    net = make_network()
    class_names = draw(
        st.lists(st.sampled_from(CLASS_NAMES), unique=True, min_size=1, max_size=4)
    )
    for cname in class_names:
        net.classes[cname] = draw(hom_classes(cname))

    for oname in draw(
        st.lists(st.sampled_from(OBJECT_NAMES), unique=True, max_size=2)
    ):
        cls = net.classes[draw(st.sampled_from(class_names))]
        declared = list(cls.spec)
        overrides = []
        if declared:
            for index in draw(
                st.lists(
                    st.integers(0, len(declared) - 1), unique=True, max_size=2
                )
            ):
                entry = declared[index]
                overrides.append(
                    (entry.member.name, draw(value_for(entry.member.value_type)))
                )
        net.objects[oname] = ObjectInstance(oname, cls.name, tuple(overrides))

    endpoints = tuple(class_names) + tuple(net.objects)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(list(RelationKind)))
        label = None
        if kind is RelationKind.GENERALIZATION:
            if len(class_names) < 2:
                continue
            # child before parent keeps the hierarchy acyclic by construction
            hi = draw(st.integers(1, len(class_names) - 1))
            lo = draw(st.integers(0, hi - 1))
            source, target = class_names[hi], class_names[lo]
        elif kind is RelationKind.INSTANCE_OF:
            if not net.objects:
                continue
            source = draw(st.sampled_from(tuple(net.objects)))
            target = draw(st.sampled_from(class_names))
        else:
            if kind is RelationKind.ASSOCIATION:
                label = draw(st.sampled_from(("knows", "likes")))
            source = draw(st.sampled_from(endpoints))
            target = draw(st.sampled_from(endpoints))
        net.relations.append(
            Relation(
                kind,
                source,
                target,
                label=label,
                degree=draw(st.none() | weak_degrees),
            )
        )

    for _ in range(draw(st.integers(0, 2))):
        source_names = draw(
            st.lists(
                st.sampled_from(class_names),
                unique=True,
                min_size=1,
                max_size=min(3, len(class_names)),
            )
        )
        heir_pool = [n for n in class_names if n not in source_names] + ["H9"]
        heir = draw(st.sampled_from(heir_pool))
        chain = len(source_names) < 2 or draw(st.booleans())
        sources = tuple((n, draw(selections())) for n in source_names)
        net.plans.append(InheritancePlan(heir=heir, sources=sources, chain=chain))
    return net


@st.composite
def crisp_chains(draw):
    """A chain whose classes hold globally unique, crisp members."""
    level_count = draw(st.integers(2, 4))
    names = draw(
        st.lists(st.sampled_from(MEMBER_NAMES), unique=True, max_size=8)
    )
    assigned: dict[int, list[str]] = {i: [] for i in range(level_count)}
    for name in names:
        assigned[draw(st.integers(0, level_count - 1))].append(name)
    net = make_network()
    chain = [f"C{i}" for i in range(level_count)]
    for level, cname in enumerate(chain):
        entries = []
        for name in assigned[level]:
            if name in PROP_NAMES:
                entries.append(prop(name, ValueType.INT, draw(st.integers(0, 9)), cname))
            else:
                entries.append(method(name, cname))
        ms = MemberSet(entries)
        net.classes[cname] = HomClass(cname, *ms.by_kind())
    return net, chain


@st.composite
def plans(draw) -> InheritancePlan:
    """1-4 sources, either chain flag (a lone source makes it a chain)."""
    names = draw(
        st.lists(st.sampled_from(CLASS_NAMES), unique=True, min_size=1, max_size=4)
    )
    sources = tuple((name, draw(selections())) for name in names)
    return InheritancePlan(heir="H9", sources=sources, chain=draw(st.booleans()))


def full_chain_plan(chain: list[str]) -> InheritancePlan:
    """Take-all chain plan over classes given root first."""
    sources = tuple((name, Selection()) for name in reversed(chain[:-1]))
    return InheritancePlan(heir=chain[-1], sources=sources)


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


class TestDegreeAlgebra:
    @COMMON
    @given(a=degrees, b=degrees)
    def test_product_is_exact_and_closed(self, a, b):
        product = a * b
        assert isinstance(product, Degree)
        assert product.value == a.value * b.value  # no rounding, ever
        assert Fraction(0) < product.value <= 1
        assert product.value <= min(a.value, b.value)

    @COMMON
    @given(a=degrees)
    def test_full_degree_is_the_identity(self, a):
        assert (a * DEGREE_ONE) == a
        assert (DEGREE_ONE * a) == a

    @COMMON
    @given(f=st.fractions(min_value=Fraction(1, 97), max_value=1, max_denominator=97))
    def test_rendered_degree_reparses_exactly(self, f):
        text = f"class A {{ prop p: int = 1 /{format_rational(f)}; }}"
        net = parse_network(text)
        entry = net.classes["A"].members().get("A", "p")
        assert entry.degree.value == f


# ---------------------------------------------------------------------------
# Similarity-based deduplication
# ---------------------------------------------------------------------------


@st.composite
def entry_lists(draw):
    # identities stay unique (as any flattened structure guarantees);
    # similarity collisions across owners remain common on purpose
    identities = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("O1", "O2", "O3")),
                st.sampled_from(PROP_NAMES[:4]),
            ),
            unique=True,
            min_size=1,
            max_size=6,
        )
    )
    entries = []
    for owner, name in identities:
        value = draw(st.integers(0, 2))
        degree = draw(st.sampled_from((DEGREE_ONE, Degree(Fraction(1, 2)))))
        entries.append(
            DegreedMember(prop(name, ValueType.INT, value, owner), degree)
        )
    return entries


class TestDedupeSimilar:
    @COMMON
    @given(entries=entry_lists())
    def test_output_has_no_similar_pair(self, entries):
        kept = dedupe_similar(entries)
        keys = [e.member.similarity_key() for e in kept]
        assert len(keys) == len(set(keys))

    @COMMON
    @given(entries=entry_lists())
    def test_strongest_copy_wins_in_place_and_nothing_is_invented(self, entries):
        # Each piece of knowledge sits where it first occurs, held by its
        # highest-degree copy, the first such copy on a tie.
        kept = list(dedupe_similar(entries))
        expected = []
        for entry in entries:
            key = entry.member.similarity_key()
            if key not in [e.member.similarity_key() for e in expected]:
                copies = [e for e in entries if e.member.similarity_key() == key]
                top = max(e.degree for e in copies)
                expected.append(next(e for e in copies if e.degree == top))
        assert kept == expected

    @COMMON
    @given(entries=entry_lists())
    def test_idempotent(self, entries):
        once = dedupe_similar(entries)
        assert dedupe_similar(once) == once


# ---------------------------------------------------------------------------
# Chains with globally unique members
# ---------------------------------------------------------------------------


class TestChainFlattening:
    @COMMON
    @given(data=crisp_chains())
    def test_each_view_is_the_union_of_levels_so_far(self, data):
        net, chain = data
        het = inherit(full_chain_plan(chain), net)
        gathered: list[DegreedMember] = []
        for cname in chain:
            gathered.extend(net.classes[cname].members())
            assert decompose(het, cname) == MemberSet(gathered)

    @COMMON
    @given(data=crisp_chains())
    def test_total_content_counts_every_declaration(self, data):
        net, chain = data
        het = inherit(full_chain_plan(chain), net)
        total = sum(len(net.classes[c].members()) for c in chain)
        assert len(het.members()) == total


# ---------------------------------------------------------------------------
# Layering: what each participant holds comes back out of the structure
# ---------------------------------------------------------------------------


@st.composite
def similar_classes(draw, name: str) -> HomClass:
    """A class drawing from few names and values, so that classes often
    declare similar copies of one another's members."""
    entries = [
        DegreedMember(
            prop(p, ValueType.INT, draw(st.integers(0, 1)), name),
            draw(st.sampled_from((DEGREE_ONE, Degree(Fraction(1, 2))))),
        )
        for p in draw(st.lists(st.sampled_from(PROP_NAMES[:3]), unique=True))
    ]
    entries += [
        DegreedMember(
            method(m, name),
            draw(st.sampled_from((DEGREE_ONE, Degree(Fraction(1, 3))))),
        )
        for m in draw(st.lists(st.sampled_from(METHOD_NAMES[:2]), unique=True))
    ]
    members = MemberSet(entries)
    return HomClass(name, *members.by_kind())


@st.composite
def borrowed_copy(draw, entry: DegreedMember) -> DegreedMember:
    """Another class's declaration of ``entry``'s member: the same entry, the
    same member at another degree, or another content of its kind."""
    member = entry.member
    shape = draw(st.sampled_from(("same", "degree", "content")))
    if shape == "same":
        return entry
    if shape == "degree":
        degree = draw(st.sampled_from((DEGREE_ONE, Degree(Fraction(1, 2)))))
        return DegreedMember(member, degree)
    if member.kind is MemberKind.PROPERTY:
        return draw(degreed_props(member.name, member.owner))
    return draw(degreed_methods(member.name, member.owner))


@st.composite
def layered_plans(draw, borrowing: bool = True):
    """Two to five classes and one plan over them, every selection naming
    only members its source declares, so most plans execute.  With
    ``borrowing``, a class may also declare members another class of the
    plan owns, some in their owner's content and some not."""
    names = list(CLASS_NAMES[: draw(st.integers(2, 5))])
    net = make_network()
    for cname in names:
        net.classes[cname] = draw(st.one_of(hom_classes(cname), similar_classes(cname)))
    owned = {cname: list(net.classes[cname].members()) for cname in names}
    for cname in names:
        others = [entry for other in names if other != cname for entry in owned[other]]
        if not borrowing or not others:
            continue
        borrowed = draw(
            st.lists(st.sampled_from(others), unique_by=lambda e: e.identity, max_size=2)
        )
        entries = owned[cname] + [draw(borrowed_copy(entry)) for entry in borrowed]
        net.classes[cname] = HomClass(cname, *MemberSet(entries).by_kind())
    heir = draw(st.sampled_from([names[-1], "H9"]))
    source_names = names[:-1] if heir == names[-1] else names
    sources = []
    for cname in source_names:
        declared = [e.member.name for e in net.classes[cname].members()]
        mode = draw(st.sampled_from(list(SelectionMode)))
        picked = []
        if declared:
            picked = draw(st.lists(st.sampled_from(declared), unique=True))
        if mode is SelectionMode.LISTED and not picked:
            mode = SelectionMode.ALL
        entries = tuple(
            (n, draw(st.one_of(st.just(DEGREE_ONE), weak_degrees))) for n in picked
        )
        sources.append((cname, Selection(mode, entries)))
    chain = draw(st.booleans())
    if chain:
        sources.reverse()  # nearest ancestor first
    plan = InheritancePlan(heir=heir, sources=tuple(sources), chain=chain)
    return net, plan


class TestLayering:
    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_core_and_projections_rebuild_each_view(self, data):
        net, plan = data
        try:
            het = inherit(plan, net, Policy.MIN)
        except OodnError:
            assume(False)
        views, _ = naive_views(plan, net, Policy.MIN)
        projections = {p.label: p.members for p in het.projections}
        for name, view in views.items():
            rebuilt = [*het.core]
            for label in het.participants[name]:
                rebuilt.extend(projections[label])
            assert MemberSet(rebuilt) == MemberSet(view.values())

    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_core_and_projections_hold_distinct_identities(self, data):
        """``inherit`` builds its member sets unchecked, through
        ``HetClass.layered``, and the class checks every identity in one
        pass over its placements; each set's identities must be distinct.
        A plan may be refused: by a conflict, or by the heterogeneous class
        when two participants hold one member in different contents."""
        net, plan = data
        for shape in (plan, replace(plan, chain=not plan.chain)):
            try:
                het = inherit(shape, net, Policy.MIN)
            except (InheritanceConflictError, ModelInvariantError):
                continue
            for members in (het.core, *(p.members for p in het.projections)):
                identities = [entry.identity for entry in members]
                assert len(identities) == len(set(identities))

    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_flattening_keeps_each_contents_strongest_degree(self, data):
        net, plan = data
        try:
            het = inherit(plan, net, Policy.MIN)
        except OodnError:
            assume(False)
        views, _ = naive_views(plan, net, Policy.MIN)
        for name, view in views.items():
            assert decompose(het, name).similar_eq(dedupe_similar(view.values()))


@st.composite
def wide_parallel_plans(draw):
    """A parallel plan over three to twelve sources, each declaring members
    of its own and some of a shared pool owned by no source, so the
    audiences of the shared members nest and overlap.  A source may take a
    shared member weakly, which splits it across the heir's groups."""
    pool = [prop(f"s{i}", ValueType.INT, i, "Pool") for i in range(draw(st.integers(1, 6)))]
    net = make_network()
    sources = []
    for at in range(draw(st.integers(3, 12))):
        name = f"W{at}"
        own = [prop(f"w{j}", ValueType.INT, j, name) for j in range(draw(st.integers(0, 2)))]
        shared = draw(st.lists(st.sampled_from(pool), unique=True))
        net.classes[name] = HomClass(name, MemberSet(own + shared))
        weak = draw(st.lists(st.sampled_from(shared), unique=True, max_size=1)) if shared else []
        entries = tuple((member.name, Degree(Fraction(1, 2))) for member in weak)
        sources.append((name, Selection(SelectionMode.ALL, entries)))
    return net, InheritancePlan(heir="H9", sources=tuple(sources), chain=False)


class TestDependencies:
    """``depends_on`` names the smallest non-empty audiences strictly
    containing a projection's own, in projection order, and each
    participant lists its projections in projection order: neither may
    follow set order or the walk's order."""

    @staticmethod
    def check(het: HetClass) -> None:
        labels = [p.label for p in het.projections]
        audience = {
            label: frozenset(name for name, held in het.participants.items() if label in held)
            for label in labels
        }
        filled = [p.label for p in het.projections if len(p.members)]
        for projection in het.projections:
            own = audience[projection.label]
            supersets = [label for label in filled if audience[label] > own]
            minimal = [
                label
                for label in supersets
                if not any(audience[inner] < audience[label] for inner in supersets)
            ]
            assert projection.depends_on == tuple(minimal)
        for held in het.participants.values():
            assert list(held) == [label for label in labels if label in held]

    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_layered_plans_of_both_shapes(self, data):
        net, plan = data
        for shape in (plan, replace(plan, chain=not plan.chain)):
            try:
                het = inherit(shape, net, Policy.MIN)
            except OodnError:
                continue
            self.check(het)

    @WHOLE_NETWORK
    @given(data=wide_parallel_plans())
    def test_wide_parallel_plans(self, data):
        net, plan = data
        het = inherit(plan, net, Policy.MIN)
        assert len(het.participants) == len(plan.sources) + 1
        self.check(het)


class TestLayout:
    """The core and each projection, read as (the participants holding it,
    its members) in projection order, are the naive views' entries grouped
    by the participants holding them, in order of first holding: the core
    is the entries every participant holds at degree 1, and the heir's own
    group, if nothing fills it, comes last and empty.  A parallel plan in
    which no participant borrows is laid out source by source, every other
    plan through its audiences; both must read alike."""

    @staticmethod
    def grouped(plan: InheritancePlan, net: Network, policy: Policy) -> tuple[list, list]:
        views, _ = naive_views(plan, net, policy)
        holders: dict = {}  # entry -> its holders, in order of first holding
        for name, view in views.items():
            for entry in view.values():
                holders.setdefault(entry, []).append(name)
        core = [e for e, names in holders.items() if len(names) == len(views) and not e.degree.is_weak]
        groups: dict = {}
        for entry, names in holders.items():
            if len(names) < len(views) or entry.degree.is_weak:
                groups.setdefault(frozenset(names), []).append(entry)
        groups.setdefault(frozenset({plan.heir}), [])
        return core, list(groups.items())

    @WHOLE_NETWORK
    @given(data=st.one_of(layered_plans(), layered_plans(borrowing=False)))
    def test_groups_follow_first_holding(self, data):
        net, plan = data
        for shape in (plan, replace(plan, chain=not plan.chain)):
            for policy in Policy:
                try:
                    het = inherit(shape, net, policy)
                except OodnError:
                    continue
                laid_out = [
                    (frozenset(n for n, held in het.participants.items() if p.label in held), list(p.members))
                    for p in het.projections
                ]
                assert (list(het.core), laid_out) == self.grouped(shape, net, policy)


def arrivals_at_heir(plan: InheritancePlan, net: Network) -> dict:
    links = walk(plan, net)
    return links[-1].taken if plan.chain else merge(links, Policy.MIN)


def blocking(findings: list, policy: Policy) -> list:
    return [finding for finding in findings if policy in finding.blocks]


def naive_views(plan: InheritancePlan, net: Network, policy: Policy) -> tuple[dict, list]:
    """Every participant's view, root first, folded from the declarations
    without the walk, and each link's (child's own members, arrivals) pair.
    A parallel heir's arrivals merge under ``policy``, the first winning
    ties and every clash under ``Policy.REJECT``; its own members go on top."""
    order = plan.participants_root_first()
    declared = {
        name: {e.identity: e for e in net.classes[name].members()} if name in net.classes else {}
        for name in order
    }

    def take(view: dict, selection: Selection) -> dict:
        factors = dict(selection.entries)
        if selection.mode is SelectionMode.ALL:
            factors = {e.member.name: factors.get(e.member.name, DEGREE_ONE) for e in view.values()}
        return {
            identity: DegreedMember(entry.member, entry.degree * factors[entry.member.name])
            for identity, entry in view.items()
            if entry.member.name in factors
        }

    links = []
    if plan.chain:
        views = [declared[order[0]]]
        for (_, selection), child in zip(reversed(plan.sources), order[1:]):
            arrivals = take(views[-1], selection)
            links.append((declared[child], arrivals))
            views.append({**arrivals, **declared[child]})
    else:
        views = [declared[name] for name, _ in plan.sources]
        merged: dict = {}
        for (_, selection), view in zip(plan.sources, views):
            arrivals = take(view, selection)
            links.append((declared[plan.heir], arrivals))
            for identity, entry in arrivals.items():
                present = merged.setdefault(identity, entry)
                if (policy is Policy.MIN and entry.degree < present.degree) or (
                    policy is Policy.MAX and entry.degree > present.degree
                ):
                    merged[identity] = entry
        views.append({**merged, **declared[plan.heir]})
    return dict(zip(order, views)), links


def refusable(plan: InheritancePlan, net: Network, policy: Policy) -> set[str]:
    """What ``inherit`` may refuse a plan for under ``policy``, read off the
    declarations without the walk: the names of crisp contradictions at a
    link; under ``Policy.REJECT``, the names of members arriving at two
    degrees; and, shown as ``p(A)``, each member that two participants hold
    in two contents at one degree."""
    views, links = naive_views(plan, net, policy)
    refused: set[str] = set()
    first: dict = {}  # each member's first arrival at a parallel heir
    for own, arrivals in links:
        # Every own property of the arrival's name is compared with it.
        props = [e.member for e in own.values() if e.member.kind is MemberKind.PROPERTY]
        for entry in arrivals.values():
            member = entry.member
            if not plan.chain and policy is Policy.REJECT:
                if first.setdefault(entry.identity, entry).degree != entry.degree:
                    refused.add(member.name)
            if entry.degree.is_weak or member.kind is not MemberKind.PROPERTY:
                continue
            if any(
                local.name == member.name
                and local.value_type == member.value_type
                and local.value != member.value
                for local in props
            ):
                refused.add(member.name)
    contents: dict = {}
    for view in views.values():
        for entry in view.values():
            contents.setdefault((entry.identity, entry.degree), set()).add(entry.member)
    refused.update(next(iter(held)).display() for held in contents.values() if len(held) > 1)
    return refused


class TestRefusals:
    """``inherit`` refuses a plan only with a finding of diagnosis: the
    first one ``diagnose_all`` lists for the plan that blocks under the
    policy, naming a member the plan may be refused for."""

    @WHOLE_NETWORK
    @given(data=layered_plans(), policy=st.sampled_from(Policy))
    def test_every_refusal_is_the_first_blocking_finding(self, data, policy):
        net, plan = data
        net.plans.append(plan)
        try:
            findings = diagnose_all(net)
        except OodnError:
            assume(False)
        try:
            inherit(plan, net, policy)
        except InheritanceConflictError as refusal:
            assert refusal.finding == blocking(findings, policy)[0]
            assert set(refusal.finding.members) & refusable(plan, net, policy)
        else:
            assert blocking(findings, policy) == []
            assert refusable(plan, net, policy) == set()

    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_no_two_findings_share_kind_subjects_and_members(self, data):
        net, plan = data
        for shape in (plan, replace(plan, chain=not plan.chain)):
            net.plans[:] = [shape]
            try:
                findings = diagnose_all(net)
            except OodnError:
                continue
            keys = [(f.kind, f.subjects, f.members) for f in findings]
            assert len(keys) == len(set(keys))


class TestRepairs:
    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_each_suggestion_removes_its_own_finding(self, data):
        net, plan = data
        net.plans.append(plan)
        try:
            findings = diagnose_all(net)
        except OodnError:
            assume(False)
        for finding in findings:
            repaired = finding.suggestion
            if repaired is None:
                continue
            assert parse_network(repaired.describe() + ";").plans[0] == repaired
            net.plans[:] = [repaired]
            after = diagnose_all(net)
            # same kind, same owners: one name can form two similarity groups
            assert (finding.kind, finding.subjects, finding.members) not in {
                (f.kind, f.subjects, f.members) for f in after
            }
            if blocking(findings, Policy.MIN) in ([], [finding]):
                assert blocking(after, Policy.MIN) == []  # no other conflict is left

    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_redundancy_repair_keeps_the_kept_copy_alone(self, data):
        """With borrowed members, a copy may reach the heir through a class
        other than its owner.  Once a redundancy suggestion is applied, the
        heir still receives the copy the finding keeps (the strongest, the
        first reported on a tie) at its degree, and no other copy."""
        net, plan = data
        net.plans.append(plan)
        try:
            findings = diagnose_all(net)
        except OodnError:
            assume(False)
        arrived = arrivals_at_heir(plan, net)
        for finding in findings:
            if finding.kind != "redundancy" or finding.suggestion is None:
                continue
            (name,) = finding.members
            copies = {
                entry.member.owner: entry
                for entry in arrived.values()
                if entry.member.name == name and entry.member.owner in finding.subjects
            }
            kept = max((copies[owner] for owner in finding.subjects), key=lambda e: e.degree)
            key = kept.member.similarity_key()
            repaired = arrivals_at_heir(finding.suggestion, net)
            assert [
                entry for entry in repaired.values() if entry.member.similarity_key() == key
            ] == [kept]

    @WHOLE_NETWORK
    @given(data=layered_plans(), choice=st.data())
    def test_suggestions_only_narrow_what_each_source_took(self, data, choice):
        net, plan = data
        net.plans.append(plan)
        try:
            links = walk(plan, net)
        except OodnError:
            assume(False)
        arrivals = links[-1].taken if plan.chain else merge(links, Policy.MIN)
        arrived = sorted({entry.member.name for entry in arrivals.values()})
        assume(arrived)
        required = choice.draw(
            st.lists(st.sampled_from(arrived), unique=True, min_size=1)
        )
        offered = {
            link.parent: [e.member.name for e in link.parent_view.values()]
            for link in links
        }

        def takes(selection: Selection, source: str) -> dict:
            factors = dict(selection.entries)
            if selection.mode is SelectionMode.LISTED:
                return factors
            return {name: factors.get(name, DEGREE_ONE) for name in offered[source]}

        selections = dict(plan.sources)
        for finding in diagnose_all(net, required=required):
            if finding.suggestion is None:
                continue
            for source, selection in finding.suggestion.sources:
                before = takes(selections[source], source)
                assert takes(selection, source).items() <= before.items()

    @staticmethod
    def check_rendered_repairs(net, plan):
        """Each finding renders the very plans its ``suggestion`` and
        ``alternatives`` build, with and without a requirement."""
        net.plans.append(plan)
        try:
            findings = diagnose_all(net)
            links = walk(plan, net)
        except OodnError:
            assume(False)
        arrivals = links[-1].taken if plan.chain else merge(links, Policy.MIN)
        arrived = sorted({entry.member.name for entry in arrivals.values()})
        if arrived:
            findings += diagnose_all(net, required=arrived[: len(arrived) // 2 + 1])
        for finding in findings:
            lines = finding.render().split("\n")
            suggested = [line[14:] for line in lines if line.startswith("  suggestion: ")]
            assert len(suggested) == 1
            assert (suggested[0] == "none") == (finding.suggestion is None)
            if finding.suggestion is not None:
                assert suggested[0] == finding.suggestion.describe()
            assert [line[15:] for line in lines if line.startswith("  alternative: ")] == [
                alternative.describe() for alternative in finding.alternatives
            ]

    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_rendered_repairs_are_the_built_plans(self, data):
        self.check_rendered_repairs(*data)

    @WHOLE_NETWORK
    @given(data=layered_plans())
    def test_rendered_parallel_repairs_are_the_built_plans(self, data):
        net, plan = data
        self.check_rendered_repairs(net, replace(plan, chain=False))


class TestHashing:
    """Hashes are cached on first use; equal values must still hash alike
    whichever of them was hashed first, and caching must leave the
    dataclass surface alone."""

    @COMMON
    @given(entry=st.one_of(degreed_props("p0", "C0"), degreed_methods("m0", "C0")))
    def test_equal_values_built_apart_hash_alike(self, entry):
        member = entry.member
        value = entry.degree.value
        values = [
            (entry.degree, Degree(Fraction(3 * value.numerator, 3 * value.denominator))),
            (member, replace(member)),
            (entry, DegreedMember(replace(member), replace(entry.degree))),
        ]
        for first, second in values:
            assert first is not second and first == second
            before = hash(second)  # second's hash computed before first's
            assert hash(first) == before == hash(second)
            assert {first: 1}[second] == 1
            copied = replace(first)
            assert hash(copied) == hash(first)
            assert [f.name for f in fields(first)] == [f.name for f in fields(copied)]
            assert "_hash" not in repr(first)

    def test_the_cached_hash_is_no_field(self):
        entry = DegreedMember(prop("p", ValueType.INT, 1, "A"), Degree(Fraction(1, 2)))
        hash(entry)
        assert [f.name for f in fields(Member)] == [
            "kind", "name", "owner", "value_type", "value", "params", "returns",
        ]
        assert [f.name for f in fields(DegreedMember)] == ["member", "degree"]
        assert [f.name for f in fields(Degree)] == ["value"]
        assert replace(entry, degree=DEGREE_ONE) == DegreedMember(entry.member)
        # Nor is any other held key, and none shows in a repr.
        hash(entry.member), hash(entry.degree)
        held = {"_hash", "identity", "is_weak"}
        for value in (entry, entry.member, entry.degree):
            assert held.isdisjoint(f.name for f in fields(value))
            assert not any(key in repr(value) for key in held)

    @staticmethod
    def held_keys_hold(entry: DegreedMember) -> None:
        member, degree = entry.member, entry.degree
        assert member.identity == (member.owner, member.name) == entry.identity
        if member.kind is MemberKind.PROPERTY:
            owner_free = (member.kind, member.name, member.value_type, member.value)
        else:
            owner_free = (member.kind, member.name, member.params, member.returns)
        assert member.similarity_key() == owner_free
        assert degree.is_weak is (degree.value < 1)

    @COMMON
    @given(entry=st.one_of(degreed_props("p0", "C0"), degreed_methods("m0", "C0")))
    def test_held_keys_match_their_definitions_in_every_copy(self, entry):
        """Keys live in slots that are no fields; every way of copying a
        value must still leave the copy's keys equal to their definitions."""
        copies = [
            replace, copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
        ]
        self.held_keys_hold(entry)
        for make in copies:
            again = make(entry)
            assert again == entry and hash(again) == hash(entry)
            self.held_keys_hold(again)
            self.held_keys_hold(DegreedMember(make(entry.member), make(entry.degree)))

    @COMMON
    @given(entry=st.one_of(degreed_props("p0", "C0"), degreed_methods("m0", "C0")))
    def test_tags_and_keys_find_their_entries_after_a_pickle(self, entry):
        """Type tags hash by identity, so a tag read back must be the very
        singleton, and every key built from tags must still find its entry."""
        member = entry.member
        tags = [member.kind, member.value_type, member.returns, *(t for _, t in member.params)]
        tags = [tag for tag in tags if tag is not None]
        keys = [
            *tags, member.identity, member.similarity_key(), (member.similarity_key(), entry.degree),
            member, entry.degree, entry,
        ]
        table = {key: at for at, key in enumerate(keys)}
        for tag in tags:
            assert pickle.loads(pickle.dumps(tag)) is tag
        for key in keys:
            back = pickle.loads(pickle.dumps(key))
            assert back == key and hash(back) == hash(key)
            assert table[back] == table[key]


# ---------------------------------------------------------------------------
# Text and structured round-trips
# ---------------------------------------------------------------------------


# A string literal, or a comment up to the end of its line: an insertion
# anywhere after its first character lands inside it.
LITERAL_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|//[^\n]*')
# Digits of other scripts, and any other non-ASCII character but whitespace,
# which separates tokens in any script.
non_ascii_marks = st.sampled_from("٣۴१৭๓") | st.characters(
    min_codepoint=0x80, blacklist_categories=("Cs",)
).filter(lambda char: not char.isspace())


class TestRoundTrips:
    @COMMON
    @given(plan=plans())
    def test_plan_text_parses_back_to_the_plan(self, plan):
        assert parse_network(plan.describe() + ";").plans[0] == plan

    @WHOLE_NETWORK
    @given(net=networks())
    def test_parse_inverts_serialize(self, net):
        assert parse_network(serialize(net)) == net

    @WHOLE_NETWORK
    @given(net=networks())
    def test_serialize_is_idempotent_after_one_pass(self, net):
        canonical = serialize(net)
        assert serialize(parse_network(canonical)) == canonical

    @WHOLE_NETWORK
    @given(net=networks())
    def test_structured_export_inverts(self, net):
        rebuilt = import_structured(export_structured(net))
        assert rebuilt == net

    @WHOLE_NETWORK
    @given(net=networks())
    def test_equal_networks_export_equal_json(self, net):
        # parse(serialize(net)) == net, so the two must export alike
        assert export_structured(parse_network(serialize(net))) == export_structured(net)

    @WHOLE_NETWORK
    @given(net=networks(), choice=st.data())
    def test_any_spacing_parses_back(self, net, choice):
        """Spaces, tabs, CRLF line ends and comments separate tokens alike:
        each whitespace run outside a string literal may become any mix of
        them."""
        gaps = st.lists(
            st.sampled_from((" ", "\t", "\r\n", "// note\n")), min_size=1, max_size=4
        ).map("".join)

        def respace(match: re.Match) -> str:
            return choice.draw(gaps) if match[0].isspace() else match[0]

        text = re.sub(rf"{LITERAL_RE.pattern}|\s+", respace, serialize(net))
        assert parse_network(text) == net

    @WHOLE_NETWORK
    @given(net=networks(), char=non_ascii_marks, choice=st.data())
    def test_non_ascii_outside_literals_never_parses(self, net, char, choice):
        """Names, numbers and punctuation are ASCII, so a non-ASCII mark
        outside a string literal or a comment is an error wherever it
        stands, a digit of another script included; inside either it is
        text."""
        text = serialize(net) + f"// a comment may hold {char}\n"
        assert parse_network(text) == net
        inside = {
            index
            for match in LITERAL_RE.finditer(text)
            for index in range(match.start() + 1, match.end() + 1)
        }
        at = choice.draw(
            st.sampled_from([i for i in range(len(text) + 1) if i not in inside])
        )
        with pytest.raises(ParseError, match="unexpected character"):
            parse_network(text[:at] + char + text[at:])


# Identifiers, keywords, and names no text could read back; 3 is no string.
ENTERED_NAMES = st.sampled_from(
    ("Z", "q_1", "_u", "If", "class", "hetclass", "object", "relation")
    + ("", "x y", "été", "1A", "A.p", 3)
)
NAMED_BASE = (
    "class A { prop p: int = 1; method m(x: int); }\n"
    "class B { }\n"
    "object o : A { p = 2; }\n"
    "relation association owns o -> A;\n"
    "B inherits A (p);\n"
)


def name_entries(name) -> dict:
    """Each way ``name`` enters a network: a constructor or modifier call
    that puts what it builds into the network it is given."""
    int_ = ValueType.INT
    everything = Selection()
    return {
        "member": lambda net: modify_add_member(net, "A", prop(name, int_, 1, "A")),
        "owner": lambda net: modify_add_member(net, "A", prop("q", int_, 1, name)),
        "parameter": lambda net: modify_add_member(net, "A", method("f", "A", [(name, int_)])),
        "override": lambda net: modify_set_value(net, "o", name, 3),
        "class": lambda net: net.classes.update({name: HomClass(name)}),
        "hetclass": lambda net: net.classes.update({name: HetClass(name)}),
        "participant": lambda net: net.classes.update({"X": HetClass("X", participants={name: ()})}),
        "object": lambda net: net.objects.update({name: ObjectInstance(name, "A")}),
        "object class": lambda net: net.objects.update({"o2": ObjectInstance("o2", name)}),
        "object override": lambda net: net.objects.update(
            {"o2": ObjectInstance("o2", "A", ((name, 1),))}
        ),
        "relation source": lambda net: net.relations.append(
            Relation(RelationKind.GENERALIZATION, name, "A")
        ),
        "relation target": lambda net: net.relations.append(
            Relation(RelationKind.INSTANCE_OF, "o", name)
        ),
        "relation label": lambda net: net.relations.append(
            Relation(RelationKind.ASSOCIATION, "o", "B", name)
        ),
        "heir": lambda net: net.plans.append(InheritancePlan(name, (("A", everything),))),
        "source": lambda net: net.plans.append(InheritancePlan("H", ((name, everything),))),
        "selection entry": lambda net: net.plans.append(
            InheritancePlan(
                "H", (("A", Selection(SelectionMode.LISTED, ((name, DEGREE_ONE),))),)
            )
        ),
    }


class TestNameRule:
    @COMMON
    @given(name=ENTERED_NAMES, entry=st.sampled_from(sorted(name_entries("Z"))))
    def test_a_name_is_refused_or_reads_back(self, name, entry):
        """Whichever way a name enters the model, it is refused with a typed
        error, or the network's text reads back as the network."""
        net = parse_network(NAMED_BASE)
        try:
            name_entries(name)[entry](net)
        except OodnError:
            return
        assert parse_network(serialize(net)) == net


@st.composite
def json_networks(draw):
    """A generated network plus a class ``T`` of any-character texts and a
    big int, with no methods, and a heterogeneous class ``X`` whose labels
    hold any characters; its core and ``depends_on`` lists may be empty."""
    net = draw(networks())
    texts = draw(st.lists(wide_texts, min_size=1, max_size=3))
    entries = [prop(f"t{i}", ValueType.TEXT, text, "T") for i, text in enumerate(texts)]
    entries.append(prop("big", ValueType.INT, draw(st.integers(-(10**40), 10**40)), "T"))
    net.classes["T"] = HomClass("T", MemberSet(entries), MemberSet())
    labels = draw(st.lists(wide_texts, unique=True, max_size=3))
    projections = tuple(
        Projection(
            label,
            MemberSet([prop(f"q{i}", ValueType.TEXT, label, "T")]),
            tuple(draw(st.lists(st.sampled_from(labels[:i]), unique=True)) if i else ()),
        )
        for i, label in enumerate(labels)
    )
    core = MemberSet(entries[: draw(st.integers(0, 1))])
    net.classes["X"] = HetClass("X", core, projections, {"T": tuple(labels), "U": ()})
    return net


class TestJsonText:
    """``json_text`` writes what ``json.dumps(..., indent=2)`` writes."""

    @WHOLE_NETWORK
    @given(net=json_networks())
    def test_export_is_the_standard_library_text(self, net):
        text = export_structured(net)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @WHOLE_NETWORK
    @given(net=json_networks())
    def test_hetclass_documents_are_the_standard_library_text(self, net):
        document = [encode_hetclass(net.classes["X"])]
        for plan in net.plans:
            try:
                document.append(encode_hetclass(inherit(plan, net, Policy.MIN)))
            except OodnError:
                pass
        assert json_text(document) == json.dumps(document, indent=2)


# ---------------------------------------------------------------------------
# Modifier inverses
# ---------------------------------------------------------------------------


class TestModifierInverses:
    @WHOLE_NETWORK
    @given(net=networks(), data=st.data())
    def test_add_then_remove_is_identity(self, net, data):
        cname = data.draw(st.sampled_from(sorted(net.classes)))
        cls = net.classes[cname]
        used = {e.member.name for e in cls.members()}
        free = [n for n in MEMBER_NAMES if n not in used]
        name = data.draw(st.sampled_from(free))
        before = cls.members()
        if name in PROP_NAMES:
            added = data.draw(degreed_props(name, cname))
        else:
            added = data.draw(degreed_methods(name, cname))
        broken = unoffered_listings(net)
        modify_add_member(net, cname, added)
        repaired = broken - unoffered_listings(net)
        if not repaired:
            modify_remove_member(net, cname, name)
            assert net.classes[cname].members() == before
            return
        # The add made a listing of the name valid, so the removal would
        # break it again: that alone refuses the removal.
        with pytest.raises(ModificationRejected) as info:
            modify_remove_member(net, cname, name)
        assert {(v.entity, v.message) for v in info.value.findings if v.severity == "error"} == repaired
        assert net.classes[cname].members() == MemberSet([*before, added])

    @WHOLE_NETWORK
    @given(net=networks(), data=st.data())
    def test_remove_then_add_back_is_identity(self, net, data):
        candidates = [
            (cname, entry)
            for cname, cls in sorted(net.classes.items())
            for entry in cls.members()
            # skip members an object overrides: removing those must fail
            if not any(
                obj.class_ref == cname
                and entry.member.name in dict(obj.member_values)
                for obj in net.objects.values()
            )
        ]
        if not candidates:
            return
        cname, entry = data.draw(st.sampled_from(candidates))
        before = net.classes[cname].members()
        broken = unoffered_listings(net)
        try:
            modify_remove_member(net, cname, entry.member.name, entry.member.owner)
        except ModificationRejected as exc:
            # only a listing of the removed name, valid until the removal
            errors = [v for v in exc.findings if v.severity == "error"]
            assert errors and all(
                v.rule == "plan-unoffered-member"
                and v.message.startswith(f"selection names {entry.member.name!r},")
                and (v.entity, v.message) not in broken
                for v in errors
            )
            assert net.classes[cname].members() == before
            return
        modify_add_member(net, cname, entry)
        assert net.classes[cname].members() == before


def unoffered_listings(net: Network) -> set[tuple[str, str]]:
    """Each plan's listings of a name its source does not offer
    (``networks`` draws listings freely, so a network may hold some)."""
    return {
        (v.entity, v.message) for v in validate_network(net) if v.rule == "plan-unoffered-member"
    }


def any_type_or(value_type: ValueType) -> st.SearchStrategy:
    """The given type half the time, another type otherwise."""
    others = [t for t in ValueType if t is not value_type]
    return st.booleans().flatmap(
        lambda same: st.just(value_type) if same else st.sampled_from(others)
    )


class TestModifierScope:
    """A modifier checks only the rules its edit can change; on a network
    that validated clean, it commits exactly when the whole network would
    validate without error after the edit, and a rejection reports the
    whole network's errors."""

    @WHOLE_NETWORK
    @given(net=networks(), data=st.data())
    def test_commits_exactly_when_the_whole_network_validates(self, net, data):
        assume(not violations_are_fatal(validate_network(net)))
        after = make_network()
        after.classes, after.objects = dict(net.classes), dict(net.objects)
        after.relations, after.plans = list(net.relations), list(net.plans)
        before = (dict(net.classes), dict(net.objects))
        # Each branch sets ``run`` to one modifier call on ``net`` and makes
        # the same edit by hand on ``after``.
        edit = data.draw(st.sampled_from(("set object", "remove", "set class", "add")))
        unbuildable: OodnError | None = None
        try:
            if edit == "add":
                cname = data.draw(st.sampled_from(sorted(net.classes)))
                name = data.draw(st.sampled_from(MEMBER_NAMES))
                entry = data.draw(
                    degreed_props(name, cname) if name in PROP_NAMES
                    else degreed_methods(name, cname)
                )
                cls = net.classes[cname]
                run = lambda: modify_add_member(net, cname, entry)  # noqa: E731
                if entry.member.kind is MemberKind.PROPERTY:
                    after.classes[cname] = HomClass(cname, MemberSet([*cls.spec, entry]), cls.sig)
                else:
                    after.classes[cname] = HomClass(cname, cls.spec, MemberSet([*cls.sig, entry]))
            elif edit == "remove":
                owned = [(c, e) for c, cls in sorted(net.classes.items()) for e in cls.members()]
                listed = {
                    (source, name)
                    for plan in net.plans for source, selection in plan.sources
                    for name, _ in selection.entries
                }
                refused = [
                    (c, e) for c, e in owned
                    if (c, e.member.name) in listed
                    or any(o.class_ref == c and e.member.name in o.values()
                           for o in net.objects.values())
                ]
                assume(owned)
                # removing what an object overrides or a plan lists must fail,
                # so draw it often
                pool = refused if refused and data.draw(st.booleans()) else owned
                cname, entry = data.draw(st.sampled_from(pool))
                cls = net.classes[cname]
                run = lambda: modify_remove_member(net, cname, entry.member.name)  # noqa: E731
                removed = (cname, entry.member.name)
                after.classes[cname] = HomClass(
                    cname,
                    MemberSet(e for e in cls.spec if e.identity != removed),
                    MemberSet(e for e in cls.sig if e.identity != removed),
                )
            elif edit == "set class":
                props = [(c, e) for c, cls in sorted(net.classes.items()) for e in cls.spec]
                assume(props)
                cname, entry = data.draw(st.sampled_from(props))
                value_type = data.draw(any_type_or(entry.member.value_type))
                value = data.draw(value_for(value_type))
                cls = net.classes[cname]
                run = lambda: modify_set_value(net, cname, entry.member.name, value)  # noqa: E731
                member = prop(entry.member.name, entry.member.value_type, value, cname)
                spec = MemberSet(
                    DegreedMember(member, e.degree) if e.identity == entry.identity else e
                    for e in cls.spec
                )
                after.classes[cname] = HomClass(cname, spec, cls.sig)
            else:
                assume(net.objects)
                oname = data.draw(st.sampled_from(sorted(net.objects)))
                obj = net.objects[oname]
                declared = declared_properties(net.classes[obj.class_ref])
                assume(declared)
                name = data.draw(st.sampled_from(sorted(declared)))
                value_type = data.draw(any_type_or(declared[name]))
                value = data.draw(value_for(value_type))
                run = lambda: modify_set_value(net, oname, name, value)  # noqa: E731
                overrides = {**obj.values(), name: value}
                after.objects[oname] = ObjectInstance(
                    oname, obj.class_ref, tuple(overrides.items())
                )
        except OodnError as exc:  # the edited class or member cannot be built
            unbuildable = exc
        errors = [v.render() for v in validate_network(after) if v.severity == "error"]
        try:
            run()
        except ModificationRejected as exc:
            assert (net.classes, net.objects) == before
            reason = "; ".join(errors) if unbuildable is None else str(unbuildable)
            assert reason and str(exc).endswith(" rolled back: " + reason)
        else:
            assert unbuildable is None and not errors
            assert (net.classes, net.objects) == (after.classes, after.objects)


# ---------------------------------------------------------------------------
# The class table's index of heterogeneous classes
# ---------------------------------------------------------------------------

INDEX_NAMES = ("A", "B", "H", "K")  # registry keys, class names and participants


def materialize_by_scan(net: Network, name: str, extra=()) -> MemberSet:
    """``materialize`` as it was before the class table kept an index:
    it scanned every registered class, and ``extra``, for hosts."""
    hosts = [
        cls
        for cls in [*net.classes.values(), *extra]
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


def stale_by_scan(net: Network, changed: str) -> set[str]:
    """The names ``_mark_stale`` must flag, by one scan of every registered
    class: each heterogeneous class listing the changed entity as a
    participant, by the name it carries."""
    return {
        cls.name
        for cls in net.classes.values()
        if isinstance(cls, HetClass) and changed in cls.participants
    }


def outcome(call):
    """A call's member list, or the type and text of the error it raised."""
    try:
        return list(call())
    except OodnError as exc:
        return type(exc), str(exc)


index_hom_classes = st.builds(
    lambda name, value: HomClass(name, MemberSet([prop("p", ValueType.INT, value, name)])),
    st.sampled_from(INDEX_NAMES),
    st.integers(0, 3),
)
# The name may differ from the key it is stored under, and a class may list
# no participant at all.
index_het_classes = st.builds(
    lambda name, participants: HetClass(name, participants=dict.fromkeys(participants, ())),
    st.sampled_from(INDEX_NAMES),
    st.lists(st.sampled_from(INDEX_NAMES + ("o",)), unique=True, max_size=3),
)
index_classes = st.one_of(index_hom_classes, index_het_classes)
index_items = st.lists(st.tuples(st.sampled_from(INDEX_NAMES), index_classes), max_size=3)

INDEX_TEXT = """
class A { prop p: int = 1; }
class B { prop p: int = 2; }
hetclass H { core { prop q: int = 1; } participant A -> core; participant o -> core; }
hetclass K { participant B -> core; }
object o : A { }
K inherits A;
H inherits A, B;
"""


class HostIndexMachine(RuleBasedStateMachine):
    """Writes through every mutator of the class table, modifier calls,
    parsing, import, copies of the network and plain dicts assigned to it;
    after each step the table's ``heterogeneous`` keys must be what a scan
    finds, and ``materialize`` and marking stale must give what their scans
    gave."""

    def __init__(self) -> None:
        super().__init__()
        self.net = make_network()
        self.extra: list[HetClass] = []

    @initialize()
    def register_an_heir_without_participants(self) -> None:
        self.net.classes["A"] = HomClass("A", MemberSet([prop("p", ValueType.INT, 0, "A")]))
        self.net.classes["H"] = HetClass("H")
        self.net.plans.append(InheritancePlan(heir="H", sources=(("A", Selection()),)))

    @rule(key=st.sampled_from(INDEX_NAMES), cls=index_classes)
    def store(self, key, cls) -> None:
        self.net.classes[key] = cls

    @rule(key=st.sampled_from(INDEX_NAMES), default=st.booleans())
    def remove(self, key, default) -> None:
        table = self.net.classes
        if default:
            table.pop(key, None)
        elif key in table:
            del table[key]
        else:
            with pytest.raises(KeyError):
                table.pop(key)

    @rule()
    def pop_last(self) -> None:
        table = self.net.classes
        if table:
            last = list(table.items())[-1]
            assert table.popitem() == last
        else:
            with pytest.raises(KeyError):
                table.popitem()

    @rule(key=st.sampled_from(INDEX_NAMES), cls=index_classes)
    def store_unless_present(self, key, cls) -> None:
        self.net.classes.setdefault(key, cls)

    @rule(items=index_items, how=st.sampled_from(("mapping", "pairs", "keywords", "|=")))
    def merge(self, items, how) -> None:
        table = self.net.classes
        if how == "mapping":
            table.update(dict(items))
        elif how == "pairs":
            table.update(items)
        elif how == "keywords":
            table.update(**dict(items))
        else:
            table |= items

    @rule()
    def clear(self) -> None:
        self.net.classes.clear()

    @rule(key=st.sampled_from(INDEX_NAMES), value=st.integers(0, 3), edit=st.integers(0, 2))
    def modify(self, key, value, edit) -> None:
        before = set(self.net.stale)
        expected = before | stale_by_scan(self.net, key)
        try:
            if edit == 0:
                modify_set_value(self.net, key, "p", value)
            elif edit == 1:
                modify_add_member(self.net, key, prop(f"n{value}", ValueType.INT, value, key))
            else:
                modify_remove_member(self.net, key, f"n{value}")
        except OodnError:
            assert self.net.stale == before
        else:
            assert self.net.stale == expected

    @rule(
        heir=st.sampled_from(INDEX_NAMES),
        sources=st.lists(st.sampled_from(INDEX_NAMES), unique=True, min_size=1, max_size=2),
    )
    def plan(self, heir, sources) -> None:
        assume(heir not in sources)
        selected = tuple((name, Selection()) for name in sources)
        self.net.plans.append(InheritancePlan(heir=heir, sources=selected))

    @rule()
    def parse(self) -> None:
        self.net = parse_network(INDEX_TEXT)

    @rule()
    def export_and_import(self) -> None:
        document = export_structured(self.net)
        names = [cls.name for cls in self.net.classes.values()]
        if len(names) != len(set(names)):
            # Two keys hold classes of one name: their document declares
            # that class twice, which import refuses as the parser does.
            with pytest.raises(StructuredImportError, match="declared twice"):
                import_structured(document)
            return
        self.net = import_structured(document)

    @rule(how=st.sampled_from(("dict", "copy")))
    def reassigned(self, how) -> None:
        # A plain dict assigned to the network is wrapped, so the modifiers
        # that follow still find what they must mark stale.
        table = self.net.classes
        self.net.classes = dict(table) if how == "dict" else table.copy()

    @rule(how=st.sampled_from(("copy", "deepcopy", "pickle")))
    def copied(self, how) -> None:
        if how == "copy":
            self.net = copy.copy(self.net)
        elif how == "deepcopy":
            self.net = copy.deepcopy(self.net)
        else:
            self.net = pickle.loads(pickle.dumps(self.net))

    @rule(extra=st.lists(index_het_classes, max_size=2))
    def offer(self, extra) -> None:
        self.extra = extra

    @invariant()
    def index_is_what_a_scan_finds(self) -> None:
        table = self.net.classes
        assert isinstance(table, ClassTable)
        assert table.heterogeneous == {
            key for key, cls in table.items() if isinstance(cls, HetClass)
        }
        for name in INDEX_NAMES + ("o", "zz"):
            for extra in ((), self.extra):
                assert outcome(lambda: materialize(self.net, name, extra)) == outcome(
                    lambda: materialize_by_scan(self.net, name, extra)
                )
            saved, self.net.stale = self.net.stale, set()
            _mark_stale(self.net, name)
            assert self.net.stale == stale_by_scan(self.net, name)
            self.net.stale = saved


TestHostIndex = HostIndexMachine.TestCase
TestHostIndex.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None, derandomize=True
)
