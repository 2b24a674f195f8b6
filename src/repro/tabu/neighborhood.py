"""Neighbour search for the tabu repair (the paper's Fig. 6).

``findNeighbor(I, i)`` scans servers and returns the first one where
re-hosting VM i is a *valid allocation*: the server has room for the
VM's demand on every attribute, and the move does not break any
affinity/anti-affinity group the VM belongs to.  The scan is vectorized
— one boolean mask over all m servers per query — and a
:class:`TabuList` removes recently vacated (vm, server) pairs from the
candidate set so repeated repairs do not cycle.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.constraints.rules import (
    DIFFERENT_DATACENTERS,
    DIFFERENT_SERVERS,
    RULE_CODE,
    SAME_DATACENTER,
    SAME_SERVER,
)
from repro.errors import ValidationError
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.types import BoolArray, FloatArray, IntArray

__all__ = ["TabuList", "NeighborFinder"]


class TabuList:
    """Fixed-capacity memory of forbidden (vm, server) moves.

    The classic short-term tabu memory (Glover 1986): when VM k leaves
    server j during repair, (k, j) becomes tabu for ``tenure``
    insertions, preventing the walk from immediately undoing itself.
    """

    def __init__(self, tenure: int = 64) -> None:
        if tenure < 0:
            raise ValidationError(f"tenure must be >= 0, got {tenure}")
        self.tenure = int(tenure)
        self._entries: OrderedDict[tuple[int, int], None] = OrderedDict()
        # Per-VM index so findNeighbor's hot path is O(|tabu for vm|),
        # not O(tenure) — this was the profiler's top line otherwise.
        self._by_vm: dict[int, set[int]] = {}

    def add(self, vm: int, server: int) -> None:
        """Forbid moving ``vm`` back onto ``server`` for a while."""
        if self.tenure == 0:
            return
        vm, server = int(vm), int(server)
        key = (vm, server)
        self._entries.pop(key, None)
        self._entries[key] = None
        self._by_vm.setdefault(vm, set()).add(server)
        while len(self._entries) > self.tenure:
            (old_vm, old_server), _ = self._entries.popitem(last=False)
            servers = self._by_vm.get(old_vm)
            if servers is not None:
                servers.discard(old_server)
                if not servers:
                    del self._by_vm[old_vm]

    def __contains__(self, key: tuple[int, int]) -> bool:
        return (int(key[0]), int(key[1])) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def forbidden_servers(self, vm: int) -> set[int]:
        """All servers currently tabu for ``vm`` (do not mutate)."""
        return self._by_vm.get(int(vm), _EMPTY_SET)

    def clear(self) -> None:
        """Drop all memory (between individuals)."""
        self._entries.clear()
        self._by_vm.clear()


_EMPTY_SET: frozenset = frozenset()


class NeighborFinder:
    """Vectorized ``isValidAllocation`` over all servers at once.

    Parameters
    ----------
    infrastructure, request:
        The problem instance.
    base_usage:
        Committed usage from earlier windows (shrinks free capacity).
    compiled:
        Optional :class:`~repro.engine.CompiledProblem` of the same
        instance; when given, its effective-capacity matrix and per-VM
        group index are reused instead of recomputed.
    """

    def __init__(
        self,
        infrastructure: Infrastructure,
        request: Request,
        base_usage: FloatArray | None = None,
        compiled=None,
    ) -> None:
        self.infrastructure = infrastructure
        self.request = request
        limit = (
            compiled.effective_capacity
            if compiled is not None
            else infrastructure.effective_capacity
        )
        if base_usage is not None:
            limit = limit - np.asarray(base_usage, dtype=np.float64)
        self.limit = limit
        # Per-VM capacity test operand ``demand - 1e-9``, computed once
        # (elementwise, so the same floats as a per-call subtraction).
        self._need = request.demand - 1e-9
        # Group membership index: for each VM, the groups it belongs to.
        if compiled is not None:
            self._groups_of_vm: list[list[int]] = [
                list(ids) for ids in compiled.member_groups
            ]
        else:
            self._groups_of_vm = [[] for _ in range(request.n)]
            for gi, group in enumerate(request.groups):
                for member in group.members:
                    self._groups_of_vm[member].append(gi)
        # Hot-path tables, hoisted out of the per-query loops.
        self._members = [list(group.members) for group in request.groups]
        self._rule_codes = [RULE_CODE[group.rule] for group in request.groups]
        self._dc_of = infrastructure.server_datacenter
        self._m = infrastructure.m
        self._g = infrastructure.g
        self._no_groups_mask = np.ones(infrastructure.m, dtype=bool)
        self._no_groups_mask.setflags(write=False)

    # ------------------------------------------------------------------
    def capacity_mask(
        self, usage: FloatArray, assignment: IntArray, vm: int
    ) -> BoolArray:
        """Servers that can absorb ``vm`` given current ``usage``.

        ``usage`` must reflect ``assignment`` *including* the VM's
        current placement; the VM's own demand is credited back to its
        current host before testing.
        """
        demand = self.request.demand[vm]
        residual = self.limit - usage
        current = int(assignment[vm])
        if current >= 0:
            residual = residual.copy()
            residual[current] += demand
        return np.all(residual >= demand - 1e-9, axis=1)

    def affinity_mask(self, assignment: IntArray, vm: int) -> BoolArray:
        """Servers where hosting ``vm`` violates none of its groups.

        Other members are taken at their *current* positions; the mask
        is therefore the constraint-graph view the repair walks, one VM
        at a time.
        """
        groups = self._groups_of_vm[vm]
        if not groups:
            return self._no_groups_mask
        m, dc_of = self._m, self._dc_of
        mask = np.ones(m, dtype=bool)
        for gi in groups:
            genes = [assignment[k] for k in self._members[gi] if k != vm]
            placed = [s for s in genes if s >= 0]
            if not placed:
                continue
            code = self._rule_codes[gi]
            if code == SAME_SERVER:
                # Any current member server is progress: joining one
                # strictly reduces the distinct-location count, and the
                # capacity mask steers the group toward a member server
                # that actually has room.
                allowed = np.zeros(m, dtype=bool)
                allowed[placed] = True
                mask &= allowed
            elif code == SAME_DATACENTER:
                allowed = np.zeros(self._g, dtype=bool)
                allowed[dc_of[placed]] = True
                mask &= allowed[dc_of]
            elif code == DIFFERENT_SERVERS:
                mask[placed] = False
            elif code == DIFFERENT_DATACENTERS:
                used = np.zeros(self._g, dtype=bool)
                used[dc_of[placed]] = True
                mask &= ~used[dc_of]
        return mask

    # ------------------------------------------------------------------
    def find(
        self,
        usage: FloatArray,
        assignment: IntArray,
        vm: int,
        tabu: TabuList | None = None,
        order: str = "first",
        rng: np.random.Generator | None = None,
        *,
        residual: FloatArray | None = None,
    ) -> int | None:
        """The Fig. 6 scan: the first (or best) valid server for ``vm``.

        Parameters
        ----------
        order:
            ``"first"`` — lowest server id (the paper's literal loop);
            ``"best_fit"`` — the valid server with the least residual
            headroom after the move (tighter packing);
            ``"random"`` — a uniformly random valid server.

        residual:
            ``limit - usage``, when the caller maintains it (the repair
            walk does, row by row); the capacity test is then one
            compare-and-reduce with no (m, h) temporary, and ``usage``
            is not read.  Computed from ``usage`` when omitted.

        ``assignment`` may be an int array or a list of server ids.

        Returns
        -------
        A server id, or None when no valid allocation exists
        (``findNeighbor`` falls through its loop).
        """
        if residual is None:
            residual = self.limit - usage
        # The VM's current host is excluded below, so its own demand
        # need not be credited back as :meth:`capacity_mask` does.
        valid = (residual >= self._need[vm]).all(axis=1)
        valid &= self.affinity_mask(assignment, vm)
        current = int(assignment[vm])
        if current >= 0:
            valid[current] = False
        if tabu is not None:
            for server in tabu.forbidden_servers(vm):
                valid[server] = False
        candidates = valid.nonzero()[0]
        if candidates.size == 0:
            return None
        if order == "first":
            return int(candidates[0])
        if order == "best_fit":
            demand = self.request.demand[vm]
            headroom = residual[candidates] - demand
            slack = headroom.sum(axis=1)
            return int(candidates[np.argmin(slack)])
        if order == "random":
            gen = rng if rng is not None else np.random.default_rng()
            return int(gen.choice(candidates))
        raise ValidationError(
            f"order must be 'first', 'best_fit' or 'random', got {order!r}"
        )
