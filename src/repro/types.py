"""Shared enums and type aliases used across the repro library.

The vocabulary mirrors the paper:

* :class:`PlacementRule` — the four affinity/anti-affinity relationships
  of Section III (Eq. 9-12).
* :class:`AlgorithmKind` — the six compared algorithms of Section IV.
* :class:`ObjectiveKind` — the three cost objectives aggregated into the
  global objective Z (Eq. 15).
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np
import numpy.typing as npt

__all__ = [
    "PlacementRule",
    "AlgorithmKind",
    "ObjectiveKind",
    "ConstraintHandling",
    "FloatArray",
    "IntArray",
    "BoolArray",
    "SeedLike",
]

#: A float64 NumPy array.
FloatArray = npt.NDArray[np.float64]
#: An integer NumPy array (genomes, index maps).
IntArray = npt.NDArray[np.int64]
#: A boolean NumPy array (masks).
BoolArray = npt.NDArray[np.bool_]
#: Anything acceptable to :func:`numpy.random.default_rng`.
SeedLike = Union[None, int, np.random.Generator]


class PlacementRule(enum.Enum):
    """The four consumer affinity/anti-affinity relationships (Section III).

    Members
    -------
    SAME_DATACENTER
        *Co-localization in same datacenter* (Eq. 9): all resources in
        the group must land in one datacenter.
    SAME_SERVER
        *Co-localization on same server* (Eq. 10): all resources in the
        group must land on one physical server.
    DIFFERENT_DATACENTERS
        *Separation in different datacenters* (Eq. 11): no two resources
        of the group may share a datacenter.
    DIFFERENT_SERVERS
        *Separation on different servers* (Eq. 12): no two resources of
        the group may share a server (same datacenter allowed).
    """

    SAME_DATACENTER = "same_datacenter"
    SAME_SERVER = "same_server"
    DIFFERENT_DATACENTERS = "different_datacenters"
    DIFFERENT_SERVERS = "different_servers"

    @property
    def is_affinity(self) -> bool:
        """True for the two co-localization rules."""
        return self in (PlacementRule.SAME_DATACENTER, PlacementRule.SAME_SERVER)

    @property
    def is_anti_affinity(self) -> bool:
        """True for the two separation rules."""
        return not self.is_affinity

    @property
    def is_datacenter_scope(self) -> bool:
        """True for the two rules whose location is a datacenter (Eq. 9,
        11); the other two locate a member by its server."""
        return self in (
            PlacementRule.SAME_DATACENTER,
            PlacementRule.DIFFERENT_DATACENTERS,
        )


class AlgorithmKind(enum.Enum):
    """The six allocation algorithms compared in Section IV."""

    ROUND_ROBIN = "round_robin"
    CONSTRAINT_PROGRAMMING = "constraint_programming"
    NSGA2 = "nsga2"
    NSGA3 = "nsga3"
    NSGA3_CONSTRAINT_SOLVER = "nsga3_constraint_solver"
    NSGA3_TABU = "nsga3_tabu"


class ObjectiveKind(enum.Enum):
    """The three monetary objectives aggregated into Z (Eq. 15)."""

    USAGE_AND_OPERATING_COST = "usage_and_operating_cost"  # Eq. 22
    DOWNTIME_COST = "downtime_cost"  # Eq. 23
    MIGRATION_COST = "migration_cost"  # Eq. 26


class ConstraintHandling(enum.Enum):
    """Strategies for strict constraints in evolutionary search (Section III).

    The paper lists four methods and adopts repair; we implement the
    first three plus the penalty variant the authors tried and rejected.
    """

    NONE = "none"  # unmodified NSGA: constraints ignored
    EXCLUDE = "exclude"  # method 1: drop infeasible individuals
    REPAIR_TABU = "repair_tabu"  # method 2 with tabu search (the contribution)
    REPAIR_CP = "repair_cp"  # method 2 with the constraint solver
    PENALTY = "penalty"  # attempted-and-rejected: violation penalty
