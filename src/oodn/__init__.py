"""Knowledge representation with heterogeneous classes and exact degrees.

The model ties five parts together — objects, classes, relations, and two
registries of operations (exploiters derive, modifiers change) — and adds
declarative inheritance plans on top.  Executing a plan produces a
heterogeneous class: the knowledge every participant shares crisply lands
in one core, everything else is grouped into projections by exactly who
holds it, and each participant's original member set can be reconstructed
from its share.

Quick tour::

    from oodn import dsl, inherit, materialize

    net = dsl.parse_network('''
        class A1 { prop p1: int = 1; method f1(); }
        class A2 { prop p2: text = "x"; }
        A2 inherits A1;
    ''')
    het = inherit(net.plans[0], net)
    het.core                       # what A1 and A2 share
    materialize(net, "A2", extra=[het])
"""

from .diagnostics import (
    Diagnostic,
    RequirementError,
    detect_ambiguity,
    detect_exception,
    detect_redundancy,
    diagnose_all,
    render_report,
)
from .inheritance import (
    Arity,
    Extent,
    InheritanceConflictError,
    InheritancePlan,
    Octant,
    Policy,
    Selection,
    SelectionMode,
    Strength,
    classify_plan,
    decompose,
    inherit,
)
from .model import (
    DEGREE_ONE,
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
    Violation,
    as_degree,
    class_is_fuzzy,
    dedupe_similar,
    is_fuzzy,
    materialize,
    member_line,
    method,
    prop,
    validate_edit,
    validate_network,
    violations_are_fatal,
)
from .operations import (
    ModificationRejected,
    exploit_instance_check,
    exploit_intersection,
    exploit_union,
    make_network,
    modify_add_member,
    modify_remove_member,
    modify_set_value,
)

__version__ = "0.1.0"

# The imports above are the export list: every public name they bind,
# less the submodules that importing them binds too.
__all__ = sorted(
    name
    for name in globals()
    if not name.startswith("_")
    and name not in {"diagnostics", "inheritance", "model", "operations"}
)
