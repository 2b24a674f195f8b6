"""Neighbour search for the tabu repair (the paper's Fig. 6).

``findNeighbor(I, i)`` scans servers and returns the first one where
re-hosting VM i is a *valid allocation*: the server has room for the
VM's demand on every attribute, and the move does not break any
affinity/anti-affinity group the VM belongs to.  The scan is vectorized
— one boolean mask over all m servers per query, and one (queries, m)
mask for a batch of independent queries — and tabu memory removes
recently vacated (vm, server) pairs from the candidate set so repeated
repairs do not cycle: a :class:`TabuList` per search, or one
:class:`TabuMemory` table for a batch of repair walks.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.engine.kernels import GroupLayout
from repro.errors import ValidationError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.types import BoolArray, FloatArray, IntArray

__all__ = ["TabuList", "TabuMemory", "NeighborFinder", "attribute_sum"]

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
        # Per-VM index so a lookup is O(|tabu for vm|), not O(tenure).
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


class TabuMemory:
    """The tabu lists of a batch of repair walks, one row per walk.

    Row ``r`` is walk ``r``'s :class:`TabuList` as a least-recently-used
    table of ``(vm, server, stamp)`` slots: a re-added pair takes a new
    stamp in place, and a new pair fills an empty slot or evicts the
    oldest stamp, exactly the deque's refresh and eviction.  Both calls
    are one tensor op over the queried walks.
    """

    def __init__(self, rows: int, tenure: int, m: int) -> None:
        if tenure < 0:
            raise ValidationError(f"tenure must be >= 0, got {tenure}")
        self.tenure = int(tenure)
        self._m = m
        self._first = np.arange(rows) * tenure
        self.vms = np.full((rows, tenure), -1, dtype=np.int64)  # -1: empty
        self.servers = np.zeros((rows, tenure), dtype=np.int64)
        self.pairs = np.full((rows, tenure), -1, dtype=np.int64)  # vm * m + server
        self.stamps = np.full((rows, tenure), -1, dtype=np.int64)
        self._clock = 0

    def add(self, rows: IntArray, vms: IntArray, servers: IntArray) -> None:
        """Forbid ``vms[k]`` on ``servers[k]`` in walk ``rows[k]``; at
        most one pair per walk."""
        if self.tenure == 0 or rows.size == 0:
            return
        pairs = vms * self._m + servers
        # The pair's own slot if held, else an empty (-1) one, else the
        # oldest.
        stamps = self.stamps[rows]
        stamps[self.pairs[rows] == pairs[:, None]] = -2
        cells = self._first[rows] + stamps.argmin(axis=1)
        self.vms.reshape(-1)[cells] = vms
        self.servers.reshape(-1)[cells] = servers
        self.pairs.reshape(-1)[cells] = pairs
        self.stamps.reshape(-1)[cells] = self._clock
        self._clock += 1

    def forbidden(self, rows: IntArray, vms: IntArray) -> tuple[IntArray, IntArray]:
        """Every pair ``(k, server)`` with ``server`` tabu for ``vms[k]``
        in walk ``rows[k]``, as a query index array and a server array."""
        queries, slots = (self.vms[rows] == vms[:, None]).nonzero()
        return queries, self.servers.reshape(-1).take(self._first[rows[queries]] + slots)


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
        instance; when given, its effective-capacity matrix is reused
        instead of recomputed.

    The batch methods read genes as a C-contiguous (walks, n + 1)
    matrix whose last column is UNPLACED: padding entries of the group
    tables name VM ``n``.
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
        m, n = infrastructure.m, request.n
        self._m = m
        # Group tables: each group's members padded with VM n, and per
        # slot each VM's groups padded with the dummy group G (VM n is
        # in none).
        self.layout = GroupLayout.from_groups(
            request.groups, infrastructure.server_datacenter, m
        )
        self.n_groups = groups = self.layout.n_groups
        self.members = self.layout.member_table(pad=n)
        groups_of_vm = request.groups_by_member() + ((),)
        self.vm_groups = np.full((max(1, *map(len, groups_of_vm)), n + 1), groups)
        for vm, ids in enumerate(groups_of_vm):
            self.vm_groups[: len(ids), vm] = ids
        # Locations: server s is s, datacenter d is m + d, and
        # ``nowhere`` (m + g) stands for an unplaced member.  A group's
        # member on server s (-1 if unplaced) is at
        # ``_location[_location_base[group] + s]``.
        dc_of = infrastructure.server_datacenter
        self.nowhere = nowhere = m + infrastructure.g
        self._location = np.concatenate(([nowhere], np.arange(m), [nowhere], m + dc_of))
        self._location_base = np.where(self.layout.uses_datacenter, m + 2, 1)
        self._dc_locations = m + dc_of
        self._separates = ~self.layout.counts_distinct
        self._no_groups_mask = np.ones(m, dtype=bool)
        self._no_groups_mask.setflags(write=False)

    def member_locations(
        self, genes: IntArray, rows: IntArray, groups: IntArray, members: IntArray
    ) -> IntArray:
        """(P, widest group): the locations of group ``groups[k]``'s
        ``members[k]`` (its row of :attr:`members`) in walk
        ``genes[rows[k]]``, ``nowhere`` for padding and unplaced
        members."""
        servers = genes.reshape(-1).take((rows * genes.shape[1])[:, None] + members)
        return self._location.take(self._location_base[groups][:, None] + servers)

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
        at a time.  One query of :meth:`affinity_masks`.
        """
        if self.vm_groups[0, vm] == self.n_groups:
            return self._no_groups_mask
        return self.affinity_masks(_with_pad(assignment), _ROW0, np.array([vm]))[0]

    def affinity_masks(
        self, genes: IntArray, rows: IntArray, vms: IntArray
    ) -> BoolArray | None:
        """(q, m): row k masks the servers where VM ``vms[k]`` violates
        none of its groups in walk ``genes[rows[k]]``; one tensor op
        over every (query, group) pair.  None when no VM is in a group.

        Each pair's group marks the locations of its other placed
        members.  A co-location rule then allows only marked servers
        (when any member is placed), a separation rule only unmarked
        ones.  Joining any current member's server or datacenter
        strictly reduces a co-location group's distinct count, and the
        capacity mask steers the group toward one that has room.
        """
        slot_groups = self.vm_groups[:, vms]
        slots, queries = (slot_groups < self.n_groups).nonzero()
        if queries.size == 0:
            return None
        m, nowhere = self._m, self.nowhere
        groups = slot_groups[slots, queries]
        members = self.members[groups]
        locations = self.member_locations(genes, rows[queries], groups, members)
        locations[members == vms[queries, None]] = nowhere
        pairs = queries.size
        marked = np.zeros((pairs, nowhere + 1), dtype=bool)
        marked[np.arange(pairs)[:, None], locations] = True
        # A server group marks servers, a datacenter group datacenters.
        allowed = marked[:, :m] | marked[:, self._dc_locations]
        keep_unmarked = self._separates[groups]
        keep_unmarked |= locations.min(axis=1) == nowhere
        allowed ^= keep_unmarked[:, None]
        masks = np.ones((vms.size, m), dtype=bool)
        if slots[-1] == 0:
            masks[queries] = allowed
            return masks
        # Pairs come slot by slot; within a slot each query is once.
        start = 0
        for slot, count in enumerate(np.bincount(slots).tolist()):
            part = slice(start, start + count)
            if slot == 0:
                masks[queries[part]] = allowed[part]
            else:
                masks[queries[part]] &= allowed[part]
            start += count
        return masks

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
        genes = _with_pad(assignment)
        excluded = [] if tabu is None else list(tabu.forbidden_servers(vm))
        if genes[0, vm] >= 0:
            excluded.append(int(genes[0, vm]))
        vms = np.array([vm])
        pick = self.find_rows(
            residual.T[None],
            _ROW0,
            vms,
            (np.zeros(len(excluded), dtype=np.int64), np.array(excluded, dtype=np.int64)),
            self.affinity_masks(genes, _ROW0, vms),
            order,
            [rng],
        )[0]
        return None if pick < 0 else int(pick)

    def find_rows(
        self,
        residual: FloatArray,
        rows: IntArray,
        vms: IntArray,
        excluded: tuple[IntArray, IntArray],
        affinity: BoolArray | None,
        order: str,
        rngs: list[np.random.Generator | None],
    ) -> IntArray:
        """The Fig. 6 scan for a batch of independent queries at once.

        Query ``k`` asks for a server for VM ``vms[k]`` in walk
        ``rows[k]``, whose attribute-major residual ``limit - usage`` is
        ``residual[k]`` (shape (q, h, m) overall).  ``excluded`` lists
        the ``(query, server)`` pairs no query may take, as two index
        arrays: the VM's current host and its tabu servers.
        ``affinity`` is the queries' :meth:`affinity_masks` (None: no VM
        is in a group).

        order:
            ``"first"`` — lowest server id (the paper's literal loop);
            ``"best_fit"`` — the valid server with the least residual
            headroom after the move (tighter packing);
            ``"random"`` — a uniformly random valid server, drawn from
            walk ``rows[k]``'s ``rngs[rows[k]]`` (a fresh generator when
            that is None).

        Returns
        -------
        One server id per query, -1 where no valid allocation exists
        (``findNeighbor`` falls through its loop).
        """
        if order not in _ORDERS:
            raise ValidationError(
                f"order must be 'first', 'best_fit' or 'random', got {order!r}"
            )
        # Attribute-major: the capacity test reduces over the leading
        # axis of each (h, m) slice, as h whole-row ANDs.  The VM's
        # current host is excluded, so its own demand need not be
        # credited back as :meth:`capacity_mask` does.
        fits = residual >= self._need[vms]
        valid = fits[:, 0].copy()
        for attr in range(1, fits.shape[1]):
            valid &= fits[:, attr]
        if affinity is not None:
            valid &= affinity
        valid[excluded] = False
        if order == "first":
            picks = valid.argmax(axis=1)
        elif order == "best_fit":
            demand = self.request.demand[vms][:, :, None]
            slack = attribute_sum(residual - demand)
            picks = np.where(valid, slack, np.inf).argmin(axis=1)
        else:
            picks = np.zeros(vms.size, dtype=np.int64)
            for k, row in enumerate(rows.tolist()):
                candidates = valid[k].nonzero()[0]
                if candidates.size:  # else not valid: answered -1 below
                    gen = rngs[row] if rngs[row] is not None else np.random.default_rng()
                    picks[k] = gen.choice(candidates)
        return np.where(valid[np.arange(vms.size), picks], picks, -1)


def _with_pad(assignment) -> IntArray:
    """One genome as a (1, n + 1) gene matrix with the UNPLACED column."""
    return np.append(np.asarray(assignment, dtype=np.int64), UNPLACED)[None]


_ROW0 = np.zeros(1, dtype=np.int64)


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
