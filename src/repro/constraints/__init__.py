"""Constraint system: Eq. 4/16 (capacity), Eq. 5/17 (assignment) and the
four affinity/anti-affinity relationships of Eq. 9-12.

Every constraint implements two evaluation paths:

* ``violations(assignment)`` — violation count for one genome;
* ``batch_violations(population)`` — a vectorized count for a whole
  population matrix of shape ``(pop, n)``, which is what the EA layer
  calls every generation.

:class:`GroupConstraint` is the one class behind every group rule:
its members, its kind (co-location or separation) and a location map
(server, datacenter or provider).  :class:`ConstraintSet` bundles the
constraints implied by an (infrastructure, request) pair and exposes
feasibility tests, total violation counts and per-constraint
breakdowns — the quantities behind the paper's Figure 10.
:func:`group_violations` is the scalar group-rule count, for the
move-by-move layers.
"""

from repro.constraints.base import Constraint
from repro.constraints.capacity import CapacityConstraint
from repro.constraints.assignment import AssignmentConstraint
from repro.constraints.load_cap import LoadCapConstraint
from repro.constraints.registry import ConstraintSet, make_group_constraint
from repro.constraints.rules import GroupConstraint, group_violations

__all__ = [
    "Constraint",
    "CapacityConstraint",
    "AssignmentConstraint",
    "GroupConstraint",
    "LoadCapConstraint",
    "ConstraintSet",
    "make_group_constraint",
    "group_violations",
]
