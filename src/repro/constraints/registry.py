"""ConstraintSet: everything an (infrastructure, request) pair implies.

The paper evaluates "each constraint (capacities constraint, affinity
and anti-affinity constraints) ... during the evaluation process"
(Fig. 3).  :class:`ConstraintSet` is that evaluation step: it owns the
capacity constraint, one group constraint per consumer placement rule,
and (optionally) the assignment constraint, and produces per-individual
and per-population violation counts plus the per-constraint breakdown
reported in Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.assignment import AssignmentConstraint
from repro.constraints.base import Constraint
from repro.constraints.capacity import CapacityConstraint
from repro.constraints.rules import GroupConstraint
from repro.engine import kernels
from repro.model.infrastructure import Infrastructure
from repro.model.request import PlacementGroup, Request
from repro.types import FloatArray, IntArray

__all__ = ["ConstraintSet", "make_group_constraint"]


def make_group_constraint(
    group: PlacementGroup, infrastructure: Infrastructure
) -> GroupConstraint:
    """The constraint of one placement group: its rule's kind, and the
    server -> datacenter map for a datacenter-scoped rule."""
    rule = group.rule
    return GroupConstraint(
        group.members,
        colocate=rule.is_affinity,
        location_of=infrastructure.server_datacenter if rule.is_datacenter_scope else None,
        name=rule.value,
    )


@dataclass
class ConstraintSet:
    """All hard constraints of one allocation problem instance.

    Parameters
    ----------
    infrastructure, request:
        The problem instance.
    base_usage:
        Committed usage from earlier windows (shrinks capacity).
    include_assignment:
        Whether to include Eq. 5's unplaced-gene check.  EAs evolve
        fully placed genomes, so they usually disable it; greedy
        algorithms that may leave resources unplaced keep it on.
    """

    infrastructure: Infrastructure
    request: Request
    base_usage: FloatArray | None = None
    include_assignment: bool = True
    qos_strict: bool = False
    #: Group constraint objects compiled once per instance (see
    #: :class:`repro.engine.CompiledProblem`); groups are stateless
    #: w.r.t. per-window dynamics, so sharing them is safe.
    prebuilt_groups: tuple[GroupConstraint, ...] | None = None

    def __post_init__(self) -> None:
        self.capacity = CapacityConstraint(
            self.infrastructure, self.request.demand, base_usage=self.base_usage
        )
        if self.prebuilt_groups is not None:
            self.group_constraints: tuple[GroupConstraint, ...] = self.prebuilt_groups
        else:
            self.group_constraints = tuple(
                make_group_constraint(gr, self.infrastructure)
                for gr in self.request.groups
            )
        self.assignment: AssignmentConstraint | None = (
            AssignmentConstraint(self.request.n) if self.include_assignment else None
        )
        self.load_cap = None
        if self.qos_strict:
            from repro.constraints.load_cap import LoadCapConstraint

            self.load_cap = LoadCapConstraint(
                self.infrastructure, self.request.demand, base_usage=self.base_usage
            )
        self._group_layout: kernels.GroupLayout | None = None

    # ------------------------------------------------------------------
    def group_layout(self) -> kernels.GroupLayout:
        """Flattened group-index layout for :mod:`repro.engine.kernels`.

        Built lazily and cached (the groups are immutable per instance).
        """
        if self._group_layout is None:
            self._group_layout = kernels.GroupLayout.from_groups(
                self.request.groups,
                self.infrastructure.server_datacenter,
                self.infrastructure.m,
            )
        return self._group_layout

    # ------------------------------------------------------------------
    @property
    def all_constraints(self) -> tuple[Constraint, ...]:
        """Capacity first, then groups, then the optional extras."""
        cons: tuple[Constraint, ...] = (self.capacity, *self.group_constraints)
        if self.load_cap is not None:
            cons = (*cons, self.load_cap)
        if self.assignment is not None:
            cons = (*cons, self.assignment)
        return cons

    def __len__(self) -> int:
        return len(self.all_constraints)

    # ------------------------------------------------------------------
    def violations(self, assignment: IntArray) -> int:
        """Total violation count across all constraints for one genome."""
        return sum(c.violations(assignment) for c in self.all_constraints)

    def breakdown(self, assignment: IntArray) -> dict[str, int]:
        """Violations keyed by constraint name (names may repeat → summed)."""
        out: dict[str, int] = {}
        for c in self.all_constraints:
            out[c.name] = out.get(c.name, 0) + c.violations(assignment)
        return out

    def is_feasible(self, assignment: IntArray) -> bool:
        """True iff every constraint is satisfied."""
        for c in self.all_constraints:
            if c.violations(assignment) > 0:
                return False
        return True

    # ------------------------------------------------------------------
    def batch_violations(self, population: IntArray) -> IntArray:
        """Total violations per individual, shape (pop,); every group
        scored in one :func:`~repro.engine.kernels.batch_group_violations`
        pass."""
        population = np.asarray(population, dtype=np.int64)
        total = kernels.batch_group_violations(population, self.group_layout())
        for c in (self.capacity, self.load_cap, self.assignment):
            if c is not None:
                total += c.batch_violations(population)
        return total

    def batch_feasible(self, population: IntArray) -> np.ndarray:
        """Boolean feasibility mask per individual."""
        return self.batch_violations(population) == 0

    def batch_breakdown(self, population: IntArray) -> dict[str, IntArray]:
        """Per-constraint-name violation vectors for a population."""
        population = np.asarray(population, dtype=np.int64)
        out: dict[str, IntArray] = {}
        for c in self.all_constraints:
            counts = c.batch_violations(population)
            if c.name in out:
                out[c.name] = out[c.name] + counts
            else:
                out[c.name] = counts
        return out
