"""Provider-scoped constraints for multi-cloud brokered placements.

Two market-layer rules on top of the paper's four placement rules
(which are provider-blind):

* QoS co-location: every placed member of a group must land inside one
  provider's estate.  Chatty tiers (the MORPHOSYS-style latency
  contract) cannot straddle a cross-provider WAN link.  It is a
  :class:`~repro.constraints.rules.GroupConstraint` over the server ->
  provider map, named ``same_provider``.
* :class:`ProviderQuotaConstraint` — provider-scoped capacity: a cap on
  the resources (VM count) a brokered plan may consume per provider —
  the contractual commitment a broker holds with each provider,
  distinct from physical server capacity.

These are plain :class:`~repro.constraints.base.Constraint` objects the
:class:`~repro.market.broker.BrokeredAllocator` (and anyone else)
scores alongside an instance's
:class:`~repro.constraints.registry.ConstraintSet`; they are not
:class:`~repro.types.PlacementRule` members, so the paper's four-rule
kernel/CP/tabu paths never see them and the single-provider pipeline
remains byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.base import Constraint
from repro.errors import ConstraintError
from repro.model.placement import UNPLACED
from repro.types import IntArray

__all__ = ["ProviderQuotaConstraint"]


class ProviderQuotaConstraint(Constraint):
    """Provider-scoped capacity: at most ``quota[k]`` VMs per provider.

    Violations count the VMs placed beyond each provider's quota, so
    repair progress is visible one eviction at a time.  A negative
    quota entry means *unlimited* for that provider.
    """

    name = "provider_quota"

    def __init__(self, server_provider: IntArray, quotas) -> None:
        self._provider = np.asarray(server_provider, dtype=np.int64)
        self._quotas = np.asarray(quotas, dtype=np.int64)
        p = int(self._provider.max()) + 1 if self._provider.size else 0
        if self._quotas.ndim != 1 or self._quotas.shape[0] != p:
            raise ConstraintError(
                f"quota vector has shape {self._quotas.shape}, expected ({p},)"
            )

    def violations(self, assignment: IntArray) -> int:
        assignment = np.asarray(assignment, dtype=np.int64)
        placed = assignment[assignment != UNPLACED]
        if placed.size == 0:
            return 0
        counts = np.bincount(
            self._provider[placed], minlength=self._quotas.shape[0]
        )
        capped = self._quotas >= 0
        excess = np.maximum(counts[capped] - self._quotas[capped], 0)
        return int(excess.sum())

    def batch_violations(self, population: IntArray) -> IntArray:
        population = np.asarray(population, dtype=np.int64)
        pop, _ = population.shape
        out = np.empty(pop, dtype=np.int64)
        for i in range(pop):
            out[i] = self.violations(population[i])
        return out
