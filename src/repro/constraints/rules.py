"""The group rules (Eq. 9-12, and the market's provider co-location).

Every group rule is one of two kinds over one scope:

* co-location rules charge the extra distinct locations
  (``distinct - 1``);
* separation rules charge the collisions (``placed - distinct``).

The scope is where a member is located: its server, its datacenter or
(in the market layer) its provider.  :class:`~repro.types.PlacementRule`
names the kind (``is_affinity``) and the scope
(``is_datacenter_scope``) of the paper's four rules, and everything
else reads them from there.

:func:`group_violations` is the scalar count, on Python lists and sets:
the move-at-a-time incremental evaluator recounts a single group after
every move, where numpy's per-call dispatch on 2-8 element arrays
dominates.  :class:`GroupConstraint` is the one constraint class for
every kind and scope; it scores a single genome with
:func:`group_violations` and a population with
:func:`repro.engine.kernels.group_row_violations`, the count
:func:`repro.engine.kernels.batch_group_violations` applies to every
group of an instance at once.  :func:`pigeonholed` is the one
structural infeasibility test a separation rule admits.

Unplaced members (:data:`~repro.model.placement.UNPLACED`) are the
assignment constraint's concern and are skipped.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.constraints.base import Constraint
from repro.engine import kernels
from repro.errors import ConstraintError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import PlacementGroup
from repro.types import IntArray

__all__ = ["GroupConstraint", "group_violations", "pigeonholed"]

#: Location of an unplaced member in the batch count: above every
#: server, datacenter and provider id.
_NOWHERE = np.iinfo(np.int64).max


def group_violations(
    colocate: bool, genes: Iterable[int], location_of: Sequence[int] | None
) -> int:
    """Violation count of one group whose members sit on ``genes``.

    ``genes`` are the members' server ids (unplaced ones included and
    skipped); ``location_of`` maps a server id to its location, or is
    ``None`` when the location is the server itself.  ``colocate``
    selects the co-location charge, else the separation charge.
    """
    placed = [s for s in genes if s != UNPLACED]
    if len(placed) <= 1:
        return 0
    if location_of is None:
        distinct = len(set(placed))
    else:
        distinct = len({location_of[s] for s in placed})
    return distinct - 1 if colocate else len(placed) - distinct


class GroupConstraint(Constraint):
    """One group rule: its members, its kind and its location map.

    Parameters
    ----------
    members:
        The VMs the rule binds (at least two, no duplicates).
    colocate:
        True for a co-location rule, False for a separation rule.
    location_of:
        Server id -> location (datacenter or provider id), or ``None``
        when a member's location is its server.
    name:
        The breakdown key (``same_server``, ``same_provider``, ...).
    """

    def __init__(
        self,
        members: Iterable[int],
        colocate: bool,
        location_of: IntArray | None,
        name: str,
    ) -> None:
        members = tuple(int(k) for k in members)
        if len(members) < 2:
            raise ConstraintError(f"group needs >= 2 members, got {members}")
        if len(set(members)) != len(members):
            raise ConstraintError(f"duplicate members in {members}")
        self.members = members
        self.colocate = bool(colocate)
        self.location_of = (
            None if location_of is None else np.asarray(location_of, dtype=np.int64)
        )
        self.name = name
        self._idx = np.asarray(members, dtype=np.int64)

    def violations(self, assignment: IntArray) -> int:
        """Violation count of the group in one genome."""
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.ndim != 1:
            raise ValueError("assignment must be a 1-D genome")
        if self._idx.max() >= assignment.shape[0]:
            raise ConstraintError(
                f"group member {int(self._idx.max())} outside genome of "
                f"length {assignment.shape[0]}"
            )
        return group_violations(
            self.colocate, assignment[self._idx].tolist(), self.location_of
        )

    def batch_violations(self, population: IntArray) -> IntArray:
        """:meth:`violations` of every row of ``population``."""
        genes = np.asarray(population, dtype=np.int64)[:, self._idx]
        placed = genes != UNPLACED
        locations = genes
        if self.location_of is not None:
            locations = self.location_of[np.where(placed, genes, 0)]
        return kernels.group_row_violations(
            np.where(placed, locations, _NOWHERE), _NOWHERE, self.colocate
        )


def pigeonholed(group: PlacementGroup, infrastructure: Infrastructure) -> bool:
    """True when ``group`` separates more members than its scope has
    locations (datacenters or servers): no placement satisfies it."""
    rule = group.rule
    locations = infrastructure.g if rule.is_datacenter_scope else infrastructure.m
    return rule.is_anti_affinity and group.size > locations
