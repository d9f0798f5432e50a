"""Finding inheritance pathologies and applying the suggested repairs.

Three classic troubles:

  * exception  — the heir contradicts a value it would inherit crisply
  * ambiguity  — two parents pass down the same name with different content
  * redundancy — more knowledge arrives than the stated purpose needs

Each finding carries a repair, held as what it removes; its suggestion is
an executable replacement plan, built when read, that makes the trouble
disappear.

Run me directly:

    python3 demos/03_diagnostics_and_repair.py
"""

from __future__ import annotations

from oodn import (
    InheritanceConflictError,
    decompose,
    diagnose_all,
    inherit,
    member_line,
    render_report,
)
from oodn.dsl import parse_network

TEXT = """
// A bird flies -- except when it is a penguin.
class Bird {
  prop fly: bool = true;
  prop feathers: bool = true;
}

class Penguin {
  prop fly: bool = false;
  prop swims: bool = true;
}

// Two affiliations, two incompatible stances under one name.
class Quaker {
  prop policy: text = "pacifist";
  prop faith: text = "quaker";
}

class Republican {
  prop policy: text = "hawk";
  prop party: text = "gop";
}

class Nixon {
  prop elected: bool = true;
}

Penguin inherits Bird;
Nixon inherits Quaker, Republican;
"""


def show(title: str, body: str) -> None:
    print(f"\n=== {title} ===")
    print(body)


net = parse_network(TEXT)

# -- Construction refuses to bake in a contradiction --------------------------

# The refusal carries the very finding the diagnostic sweep below reports.
try:
    inherit(net.plans[0], net)
except InheritanceConflictError as trouble:
    show("building the penguin plan fails", str(trouble))
    print(f"offending members: {', '.join(trouble.finding.members)}")
    print(f"repair on offer:   {trouble.finding.suggestion.describe()}")

# -- The diagnostic sweep reports every plan's troubles as data ---------------

findings = diagnose_all(net)
show("full diagnostic report", render_report(findings))

# -- Applying the suggestions makes the network clean -------------------------

# A finding's repair names the plan it was found on; the suggestion replaces it.
repaired = {f.repair.plan: f.suggestion for f in findings if f.suggestion}
net.plans[:] = [repaired.get(plan, plan) for plan in net.plans]

show("after applying every suggestion", render_report(diagnose_all(net)))

for plan in net.plans:
    het = inherit(plan, net)
    flattened = decompose(het, plan.heir)
    print(f"\n{plan.heir} now holds ({plan.describe()}):")
    for entry in flattened:
        print(f"  {member_line(entry)}")

# -- Redundancy against a stated purpose --------------------------------------
#
# When a requirement says exactly which members the heir is for, everything
# else that arrives is surplus, and the repair narrows the take.

chain = parse_network(
    """
class Sensor {
  prop range: real = 30.5;
  prop precision: real = 0.1;
  prop mass: real = 0.2;
}

class Mount {
  prop thread: text = "m42";
  prop tilt: bool = true;
}

class TripodCamera { }

TripodCamera inherits Mount inherits Sensor;
"""
)

surplus = diagnose_all(chain, required=["range", "thread"])
show("surplus against required = range, thread", render_report(surplus))

chain.plans[:] = [surplus[0].suggestion]
show(
    "after narrowing",
    render_report(diagnose_all(chain, required=["range", "thread"])),
)
het = inherit(chain.plans[0], chain)
for entry in decompose(het, "TripodCamera"):
    print(f"  {member_line(entry)}")
