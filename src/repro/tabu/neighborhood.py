"""Neighbour search for the tabu repair (the paper's Fig. 6).

``findNeighbor(I, i)`` scans servers and returns the first one where
re-hosting VM i is a *valid allocation*: the server has room for the
VM's demand on every attribute, and the move does not break any
affinity/anti-affinity group the VM belongs to.  The scan is vectorized
— one boolean mask over all m servers per query, and one (queries, m)
mask for a batch of independent queries — and a :class:`TabuList`
removes recently vacated (vm, server) pairs from the candidate set so
repeated repairs do not cycle.
"""

from __future__ import annotations

from collections import deque

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

__all__ = ["TabuList", "NeighborFinder", "attribute_sum"]

_ORDERS = ("first", "best_fit", "random")


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
        self._entries: deque[tuple[int, int]] = deque()  # oldest first
        # Per-VM index so findNeighbor's hot path is O(|tabu for vm|),
        # not O(tenure) — this was the profiler's top line otherwise.
        # Tuples, not sets: a batch of repair walks holds one list each.
        self._by_vm: dict[int, tuple[int, ...]] = {}

    def add(self, vm: int, server: int) -> None:
        """Forbid moving ``vm`` back onto ``server`` for a while."""
        if self.tenure == 0:
            return
        vm, server = int(vm), int(server)
        key = (vm, server)
        servers = self._by_vm.get(vm, _NONE)
        if server in servers:
            self._entries.remove(key)  # re-adding refreshes the entry
            self._entries.append(key)
            return
        self._entries.append(key)
        self._by_vm[vm] = servers + (server,)
        while len(self._entries) > self.tenure:
            old_vm, old_server = self._entries.popleft()
            servers = self._by_vm[old_vm]
            if len(servers) == 1:
                del self._by_vm[old_vm]
            else:
                self._by_vm[old_vm] = tuple(s for s in servers if s != old_server)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return int(key[1]) in self._by_vm.get(int(key[0]), _NONE)

    def __len__(self) -> int:
        return len(self._entries)

    def forbidden_servers(self, vm: int) -> tuple[int, ...]:
        """All servers currently tabu for ``vm``."""
        return self._by_vm.get(int(vm), _NONE)

    def clear(self) -> None:
        """Drop all memory (between individuals)."""
        self._entries.clear()
        self._by_vm.clear()


_NONE: tuple[int, ...] = ()


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
        # (elementwise, so the same floats as a per-call subtraction),
        # as an (h, 1) column per VM to broadcast over servers.
        self._need = (request.demand - 1e-9)[:, :, None]
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
        self._dc_of = infrastructure.server_datacenter.tolist()
        self._m = infrastructure.m
        # Per datacenter, the mask of its servers and of all others.
        self._in_dc = (
            np.arange(infrastructure.g)[:, None] == infrastructure.server_datacenter
        )
        self._outside_dc = ~self._in_dc
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
        if not self._groups_of_vm[vm]:
            return self._no_groups_mask
        mask = self._no_groups_mask.copy()
        self.restrict_to_groups(mask, assignment, vm)
        return mask

    def restrict_to_groups(
        self, mask: BoolArray, assignment: IntArray, vm: int
    ) -> None:
        """``mask &= affinity_mask(assignment, vm)``, in place."""
        dc_of = self._dc_of
        for gi in self._groups_of_vm[vm]:
            placed = [assignment[k] for k in self._members[gi] if k != vm]
            placed = [s for s in placed if s >= 0]
            if not placed:
                continue
            code = self._rule_codes[gi]
            if code == SAME_SERVER:
                # Any current member server is progress: joining one
                # strictly reduces the distinct-location count, and the
                # capacity mask steers the group toward a member server
                # that actually has room.
                allowed = np.zeros(self._m, dtype=bool)
                allowed[placed] = True
                mask &= allowed
            elif code == DIFFERENT_SERVERS:
                mask[placed] = False
            else:
                datacenters = {dc_of[s] for s in placed}
                if code == SAME_DATACENTER:
                    if len(datacenters) == 1:
                        mask &= self._in_dc[datacenters.pop()]
                    else:
                        mask &= self._in_dc[list(datacenters)].any(axis=0)
                else:  # DIFFERENT_DATACENTERS
                    for dc in datacenters:
                        mask &= self._outside_dc[dc]

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

        One query of :meth:`find_rows`; see there for ``order``.

        residual:
            ``limit - usage`` as an (m, h) matrix, when the caller
            maintains it; ``usage`` is then not read.  Computed from
            ``usage`` when omitted.

        ``assignment`` may be an int array or a list of server ids.

        Returns
        -------
        A server id, or None when no valid allocation exists
        (``findNeighbor`` falls through its loop).
        """
        if residual is None:
            residual = self.limit - usage
        return self.find_rows(
            residual.T[None], [assignment], [vm], [tabu], order, [rng]
        )[0]

    def find_rows(
        self,
        residual: FloatArray,
        assignments: list,
        vms: list[int],
        tabus: list[TabuList | None],
        order: str,
        rngs: list[np.random.Generator | None],
    ) -> list[int | None]:
        """The Fig. 6 scan for a batch of independent queries at once.

        Query ``k`` asks for a server for VM ``vms[k]`` in the walk whose
        attribute-major residual ``limit - usage`` is ``residual[k]``
        (shape (q, h, m) overall), whose genes are ``assignments[k]``
        (an int array or a list of server ids) and whose tabu memory,
        if any, is ``tabus[k]``.

        order:
            ``"first"`` — lowest server id (the paper's literal loop);
            ``"best_fit"`` — the valid server with the least residual
            headroom after the move (tighter packing);
            ``"random"`` — a uniformly random valid server, drawn from
            ``rngs[k]`` (a fresh generator when that is None).

        Returns
        -------
        One server id per query, None where no valid allocation exists
        (``findNeighbor`` falls through its loop).
        """
        if order not in _ORDERS:
            raise ValidationError(
                f"order must be 'first', 'best_fit' or 'random', got {order!r}"
            )
        m = self._m
        # Attribute-major: the capacity test reduces over the leading
        # axis of each (h, m) slice, as h whole-row ANDs.  The VM's
        # current host is excluded below, so its own demand need not be
        # credited back as :meth:`capacity_mask` does.
        fits = residual >= self._need[vms]
        valid = fits[:, 0].copy()
        for attr in range(1, fits.shape[1]):
            valid &= fits[:, attr]
        excluded: list[int] = []
        for k, vm in enumerate(vms):
            assignment = assignments[k]
            if self._groups_of_vm[vm]:
                self.restrict_to_groups(valid[k], assignment, vm)
            current = int(assignment[vm])
            if current >= 0:
                excluded.append(k * m + current)
            if tabus[k] is not None:
                # A server -1 (left by an unplaced VM) is the last one.
                for server in tabus[k].forbidden_servers(vm):
                    excluded.append(k * m + server % m)
        valid.put(excluded, False)
        if order == "first":
            picks = valid.argmax(axis=1).tolist()
        elif order == "best_fit":
            demand = self.request.demand[vms][:, :, None]
            slack = attribute_sum(residual - demand)
            picks = np.where(valid, slack, np.inf).argmin(axis=1).tolist()
        else:
            picks = []
            for k in range(len(vms)):
                candidates = valid[k].nonzero()[0]
                if candidates.size == 0:
                    picks.append(0)  # not valid: answered None below
                    continue
                gen = rngs[k] if rngs[k] is not None else np.random.default_rng()
                picks.append(int(gen.choice(candidates)))
        return [
            pick if valid.item(k, pick) else None for k, pick in enumerate(picks)
        ]


def attribute_sum(values: FloatArray) -> FloatArray:
    """Sum a (q, h, m) stack over its attribute axis -> (q, m).

    Bit-identical to summing each server's contiguous h-vector with
    ``.sum(axis=-1)``, as the server-major repair did: numpy adds fewer
    than 8 terms left to right, and 8 or more pairwise, so the
    long-attribute case sums the same contiguous rows.
    """
    h = values.shape[1]
    if h >= 8:
        return np.ascontiguousarray(np.moveaxis(values, 1, 2)).sum(axis=2)
    total = values[:, 0].copy()
    for attr in range(1, h):
        total += values[:, attr]
    return total
