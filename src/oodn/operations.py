"""Exploiters and modifiers: the two operation registries of a network.

Exploiters derive new knowledge without touching the network: set union
and intersection over class member sets, instance checking, and
materialization/decomposition re-exported from the model and inheritance
modules.  Modifiers change the network in place; every modifier is atomic
(the change is checked against the rules it can break, and rolled back
entirely if one of them reports an error) and marks heterogeneous classes
built from the modified entity as stale rather than silently rebuilding
them.  The check is :func:`oodn.model.validate_edit` on the edited class
or object, so an error elsewhere in the network does not block an edit,
and :attr:`ModificationRejected.findings` holds the findings in the edit's
scope, warnings included.  Marking stale reads only the heterogeneous
classes the class table (:class:`oodn.model.ClassTable`) keeps track of.
"""

from __future__ import annotations

from typing import Sequence

from .inheritance import decompose
from .model import (
    Degree,
    DegreedMember,
    HomClass,
    Member,
    MemberKind,
    MemberSet,
    Network,
    ObjectInstance,
    OodnError,
    UnknownEntityError,
    Value,
    declared_properties,
    dedupe_similar,
    materialize,
    prop,
    validate_edit,
    violations_are_fatal,
)


class ModificationRejected(OodnError):
    """A modifier was rolled back; carries the findings in the edit's scope
    (empty when the edited class or member could not even be built)."""

    def __init__(self, message: str, findings: list) -> None:
        super().__init__(message)
        self.findings = findings


# ---------------------------------------------------------------------------
# Exploiters
# ---------------------------------------------------------------------------


def _entry_key(entry: DegreedMember) -> tuple:
    return (entry.member.similarity_key(), entry.degree)


def exploit_union(
    net: Network, names: Sequence[str], result_name: str = "union"
) -> HomClass:
    """Union of the named entities' member sets, similar members merged.

    The first occurrence of each piece of knowledge wins, so the result
    lists members in input order with later similar copies dropped.
    """
    if len(names) < 2:
        raise OodnError("union needs at least two inputs")
    entries: list[DegreedMember] = []
    for name in names:
        entries.extend(materialize(net, name))
    merged = dedupe_similar(entries)
    spec, sig = merged.by_kind()
    return HomClass(result_name, spec=spec, sig=sig)


def exploit_intersection(
    net: Network, names: Sequence[str], result_name: str = "intersection"
) -> HomClass:
    """Members that every named entity holds, matched by similarity and degree."""
    if len(names) < 2:
        raise OodnError("intersection needs at least two inputs")
    sets = [materialize(net, name) for name in names]
    keysets = [{_entry_key(entry) for entry in member_set} for member_set in sets]
    shared = set.intersection(*keysets)
    kept = dedupe_similar(
        entry for entry in sets[0] if _entry_key(entry) in shared
    )
    spec, sig = kept.by_kind()
    return HomClass(result_name, spec=spec, sig=sig)


def exploit_instance_check(
    net: Network, object_name: str, class_name: str
) -> bool | Degree:
    """Would the named object qualify as an instance of the named class?

    The object qualifies when it offers a same-typed property for every
    property the class requires.  A crisp match answers ``True``; when the
    class holds some of those properties only weakly, the answer is the
    smallest such degree — membership is only as strong as the weakest
    requirement.  A missing or differently-typed property answers ``False``.
    """
    if object_name not in net.objects:
        raise UnknownEntityError(f"object {object_name!r} is not declared")
    offered = {
        entry.member.name: entry.member.value_type
        for entry in materialize(net, object_name)
        if entry.member.kind is MemberKind.PROPERTY
    }
    required = [
        entry
        for entry in materialize(net, class_name)
        if entry.member.kind is MemberKind.PROPERTY
    ]
    for entry in required:
        if offered.get(entry.member.name) != entry.member.value_type:
            return False
    weak = [entry.degree for entry in required if entry.degree.is_weak]
    if weak:
        return min(weak)
    return True


# ---------------------------------------------------------------------------
# Modifiers
# ---------------------------------------------------------------------------


def _commit_or_rollback(
    net: Network, entries: dict, edited: str, replacement: object, action: str
) -> None:
    """Put ``replacement`` in place of ``entries[edited]`` (a class or an
    object) and keep it only if the edit validates; once kept, mark what
    was built from it stale."""
    old = entries[edited]
    entries[edited] = replacement
    findings = validate_edit(net, edited)
    if violations_are_fatal(findings):
        entries[edited] = old
        rendered = "; ".join(f.render() for f in findings if f.severity == "error")
        raise ModificationRejected(f"{action} rolled back: {rendered}", findings)
    _mark_stale(net, edited)


def _mark_stale(net: Network, changed: str) -> None:
    """Flag heterogeneous classes whose inputs include the changed entity."""
    table = net.classes
    for key in table.heterogeneous:
        if changed in table[key].participants:
            net.stale.add(table[key].name)
    if table.heterogeneous:  # else no plan's heir can be one
        for plan in net.plans:
            if plan.heir in table.heterogeneous and changed in plan.class_names():
                net.stale.add(plan.heir)


def _require_hom(net: Network, class_name: str) -> HomClass:
    cls = net.classes.get(class_name)
    if cls is None:
        raise UnknownEntityError(f"class {class_name!r} is not declared")
    if not isinstance(cls, HomClass):
        raise OodnError(
            f"class {class_name!r} is heterogeneous; re-run its plan instead of "
            f"editing it in place"
        )
    return cls


def modify_add_member(
    net: Network,
    class_name: str,
    member: Member | DegreedMember,
) -> None:
    """Add one member to a homogeneous class, atomically."""
    entry = member if isinstance(member, DegreedMember) else DegreedMember(member)
    cls = _require_hom(net, class_name)
    action = f"adding {entry.member.display()} to {class_name!r}"
    try:
        if entry.member.kind is MemberKind.PROPERTY:
            replacement = HomClass(cls.name, cls.spec.extended(entry), cls.sig)
        else:
            replacement = HomClass(cls.name, cls.spec, cls.sig.extended(entry))
    except OodnError as exc:
        raise ModificationRejected(f"{action} rolled back: {exc}", []) from exc
    _commit_or_rollback(net, net.classes, class_name, replacement, action)


def modify_remove_member(
    net: Network,
    class_name: str,
    member_name: str,
    owner: str | None = None,
) -> None:
    """Remove one member from a homogeneous class, atomically.

    The owner defaults to the class itself; pass it explicitly to remove a
    member the class carries on another owner's behalf.
    """
    cls = _require_hom(net, class_name)
    owner = owner if owner is not None else class_name
    if cls.members().get(owner, member_name) is None:
        raise UnknownEntityError(
            f"class {class_name!r} has no member {member_name!r} owned by {owner!r}"
        )
    replacement = HomClass(
        cls.name,
        cls.spec.without(owner, member_name),
        cls.sig.without(owner, member_name),
    )
    action = f"removing {member_name!r} from {class_name!r}"
    _commit_or_rollback(net, net.classes, class_name, replacement, action)


def modify_set_value(
    net: Network,
    target: str,
    member_name: str,
    value: Value,
) -> None:
    """Change a property value on a class, or an override on an object.

    The new value must match the property's declared type; on mismatch (or
    any other resulting invariant breach) the network is left untouched.
    """
    if target in net.objects:
        _set_object_value(net, target, member_name, value)
        return
    cls = _require_hom(net, target)
    entry = cls.spec.get(target, member_name)
    if entry is None:
        candidates = [
            e for e in cls.spec if e.member.name == member_name
        ]
        if len(candidates) == 1:
            entry = candidates[0]
    if entry is None:
        raise UnknownEntityError(
            f"class {target!r} has no property {member_name!r}"
        )
    old = entry.member
    action = f"setting {member_name!r} on {target!r}"
    try:
        replaced = prop(old.name, old.value_type, value, old.owner)
    except OodnError as exc:
        raise ModificationRejected(f"{action} rolled back: {exc}", []) from exc
    new_spec = MemberSet(
        DegreedMember(replaced, e.degree) if e.identity == entry.identity else e
        for e in cls.spec
    )
    replacement = HomClass(cls.name, new_spec, cls.sig)
    _commit_or_rollback(net, net.classes, target, replacement, action)


def _set_object_value(
    net: Network, object_name: str, member_name: str, value: Value
) -> None:
    obj = net.objects[object_name]
    cls = net.classes.get(obj.class_ref)
    if cls is not None and member_name not in declared_properties(cls):
        raise UnknownEntityError(
            f"class {obj.class_ref!r} has no property {member_name!r}"
        )
    overrides = [
        (name, value if name == member_name else existing)
        for name, existing in obj.member_values
    ]
    if member_name not in {name for name, _ in obj.member_values}:
        overrides.append((member_name, value))
    replacement = ObjectInstance(obj.name, obj.class_ref, tuple(overrides))
    action = f"setting {member_name!r} on object {object_name!r}"
    _commit_or_rollback(net, net.objects, object_name, replacement, action)


# ---------------------------------------------------------------------------
# Default registries
# ---------------------------------------------------------------------------


def default_exploiters() -> dict:
    return {
        "union": exploit_union,
        "intersection": exploit_intersection,
        "instance_check": exploit_instance_check,
        "materialize": materialize,
        "decompose": decompose,
    }


def default_modifiers() -> dict:
    return {
        "add_member": modify_add_member,
        "remove_member": modify_remove_member,
        "set_value": modify_set_value,
    }


def make_network() -> Network:
    """A fresh network with the built-in operation registries installed."""
    return Network(
        exploiters=default_exploiters(),
        modifiers=default_modifiers(),
    )
