"""The array primitives under batch evaluation.

Every population-level evaluation of the paper's constraints and
objectives runs through these functions: the usage tensor (Eq. 4/16),
the active-server mask, over-capacity cell counts, the group rules
(Eq. 9-12) and the worst-attribute QoS (Eq. 24/25).  None of them loops
over rows or groups in Python.

A group rule is a kind (co-location or separation) over a scope
(server or datacenter), both read from
:class:`~repro.types.PlacementRule` by :meth:`GroupLayout.from_groups`.
:func:`batch_group_violations` scores every group of an instance in
one pass; :func:`group_row_violations` scores single groups from their
member locations, for the tabu repair's recounts and for
:class:`~repro.constraints.rules.GroupConstraint` (any location map,
the market's provider scope included).

Callers reach them through the module (``kernels.server_min_qos(...)``),
looked up at call time, so :func:`repro.verify.kernels.reference_kernels`
can swap in the independent reference implementations for a scope and
compare the bytes (``python -m repro verify --check-kernels``).  Results
must match the reference bit for bit; see ``docs/PERFORMANCE.md``.

Shapes: populations are ``(pop, n)`` int64 genome matrices (values in
``[0, m)`` or :data:`UNPLACED`), demand is the request's ``(n, h)``
float64 matrix, usage tensors are ``(pop, m, h)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.placement import UNPLACED
from repro.types import BoolArray, FloatArray, IntArray

__all__ = [
    "GroupLayout",
    "batch_active",
    "batch_group_violations",
    "batch_over_counts",
    "batch_usage",
    "group_row_violations",
    "server_min_qos",
]


@dataclass(frozen=True)
class GroupLayout:
    """Flattened index structure over all placement groups of an instance.

    Concatenating every group's member array lets
    :func:`batch_group_violations` score all groups of a whole
    population in one pass instead of one Python iteration per group.
    Built once per constraint set (the groups are immutable per
    instance) by :meth:`from_groups`.
    """

    #: (T,) concatenated member VM indices, in group order.
    members: IntArray
    #: (T,) group id of each entry (non-decreasing).
    segments: IntArray
    #: (G + 1,) start offset of each group inside :attr:`members`.
    offsets: IntArray
    #: (G,) True where the rule charges ``max(distinct - 1, 0)``.
    counts_distinct: BoolArray
    #: (G,) True where keys are datacenters instead of servers.
    uses_datacenter: BoolArray
    #: (m,) server -> datacenter map.
    server_datacenter: IntArray
    #: Composite-key radix: strictly greater than any location key; the
    #: value ``radix - 1`` is the unplaced sentinel.
    radix: int

    @property
    def n_groups(self) -> int:
        """Number of placement groups in the layout."""
        return int(self.offsets.shape[0] - 1)

    @staticmethod
    def from_groups(groups, server_datacenter: IntArray, m: int) -> "GroupLayout":
        """Layout for a request's placement groups (any number, none
        included); each group's flags are its rule's kind and scope."""
        parts = [np.asarray(group.members, dtype=np.int64) for group in groups]
        sizes = np.array([part.shape[0] for part in parts], dtype=np.int64)
        offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        segments = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
        server_datacenter = np.asarray(server_datacenter, dtype=np.int64)
        max_dc = int(server_datacenter.max()) if server_datacenter.size else 0
        radix = max(int(m), max_dc + 1) + 1
        rules = [group.rule for group in groups]
        return GroupLayout(
            members=np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64),
            segments=segments,
            offsets=offsets,
            counts_distinct=np.array([rule.is_affinity for rule in rules], dtype=bool),
            uses_datacenter=np.array(
                [rule.is_datacenter_scope for rule in rules], dtype=bool
            ),
            server_datacenter=server_datacenter,
            radix=radix,
        )

    def member_table(self, pad: int) -> IntArray:
        """(G, widest group) member indices, each row padded with ``pad``."""
        sizes = np.diff(self.offsets)
        table = np.full((self.n_groups, int(sizes.max(initial=1))), pad, dtype=np.int64)
        table[self.segments, np.arange(self.members.shape[0]) - self.offsets[self.segments]] = (
            self.members
        )
        return table


def batch_usage(population: IntArray, demand: FloatArray, m: int) -> FloatArray:
    """Population usage tensor (pop, m, h); UNPLACED genes contribute 0.

    One bincount per attribute over flat (row, server) cells: each cell
    accumulates its genes in gene order, as ``np.add.at`` does.  One
    bincount over (row, server, attr) keys would need pop·n·h index and
    weight vectors.
    """
    pop, n = population.shape
    h = demand.shape[1]
    mask = population != UNPLACED
    # Route unplaced genes to a scratch bucket at index m.
    servers = np.where(mask, population, m)
    flat = (np.arange(pop)[:, None] * (m + 1) + servers).ravel()
    usage = np.empty((pop, m, h))
    for col in range(h):
        weights = np.broadcast_to(demand[:, col], (pop, n)).ravel()
        counts = np.bincount(flat, weights=weights, minlength=pop * (m + 1))
        usage[:, :, col] = counts.reshape(pop, m + 1)[:, :m]
    return usage


def batch_active(population: IntArray, m: int) -> BoolArray:
    """(pop, m) mask of servers hosting >= 1 placed gene per row."""
    pop = population.shape[0]
    mask = population != UNPLACED
    servers = np.where(mask, population, m)
    flat = (np.arange(pop, dtype=np.int64)[:, None] * (m + 1) + servers).ravel()
    counts = np.bincount(flat, minlength=pop * (m + 1))
    return counts.reshape(pop, m + 1)[:, :m] > 0


def batch_over_counts(usage: FloatArray, threshold: FloatArray) -> IntArray:
    """Per-row count of cells with ``usage > threshold`` -> (pop,) int64."""
    over = usage > threshold
    axes = tuple(range(1, over.ndim))
    return np.count_nonzero(over, axis=axes).astype(np.int64)


def batch_group_violations(population: IntArray, layout: GroupLayout) -> IntArray:
    """Summed group-rule violations per row -> (pop,) int64.

    All groups of the population are scored in one pass over a
    composite-key sort; integer arithmetic, so the counts are exact.
    """
    pop = population.shape[0]
    if layout.n_groups == 0:
        return np.zeros(pop, dtype=np.int64)
    genes = population[:, layout.members]  # (pop, T)
    placed = genes != UNPLACED
    keys = genes
    if layout.uses_datacenter.any():
        dc_keys = layout.server_datacenter[np.where(placed, genes, 0)]
        dc_cols = layout.uses_datacenter[layout.segments]
        keys = np.where(dc_cols[None, :], dc_keys, genes)
    radix = layout.radix
    seg_base = layout.segments * radix
    # Composite key: segment-major, location-minor, with unplaced
    # entries pinned to the per-segment sentinel (radix - 1).  A row
    # sort therefore sorts within each segment independently, and
    # every position keeps its (static) segment.
    comp = seg_base[None, :] + np.where(placed, keys, radix - 1)
    comp.sort(axis=1)
    sentinel = seg_base + (radix - 1)
    placed_sorted = comp != sentinel[None, :]
    # Distinct count = number of first occurrences per segment.
    starts = _first_occurrences(comp, placed_sorted)
    cuts = layout.offsets[:-1]
    distinct = np.add.reduceat(starts, cuts, axis=1)
    placed_counts = np.add.reduceat(placed_sorted, cuts, axis=1)
    violations = _rule_charge(layout.counts_distinct[None, :], distinct, placed_counts)
    return violations.sum(axis=1).astype(np.int64)


def group_row_violations(
    locations: IntArray, nowhere: int, counts_distinct: BoolArray
) -> IntArray:
    """Violations of P groups -> (P,) int64, scored as
    :func:`batch_group_violations` scores a segment.

    Row k of ``locations`` (P, W) holds group k's member locations
    (servers, datacenters or providers), with ``nowhere``, greater than
    every location, for unplaced members and padding;
    ``counts_distinct[k]`` (or one bool for every row) is the group's
    rule kind.
    """
    keys = np.sort(locations, axis=1)
    placed = keys != nowhere
    return _rule_charge(
        counts_distinct, _first_occurrences(keys, placed).sum(axis=1), placed.sum(axis=1)
    )


def _first_occurrences(keys: IntArray, placed: BoolArray) -> BoolArray:
    """In rows of sorted ``keys``, each placed key's first occurrence."""
    starts = placed.copy()
    starts[:, 1:] &= keys[:, 1:] != keys[:, :-1]
    return starts


def _rule_charge(counts_distinct, distinct, placed):
    """A group rule's charge from its distinct locations and
    placed members: ``max(distinct - 1, 0)`` for the co-location rules,
    ``placed - distinct`` (collisions) for the others."""
    return np.where(counts_distinct, np.maximum(distinct - 1, 0), placed - distinct)


def server_min_qos(
    usage: FloatArray,
    base_usage: FloatArray,
    capacity: FloatArray,
    max_load: FloatArray,
    max_qos: FloatArray,
) -> FloatArray:
    """Worst-attribute QoS per server for a (..., m, h) usage array.

    Eq. 25 loads then Eq. 24 QoS, minimum over attributes, with the
    float ops of :func:`repro.objectives.qos.loads_from_usage` and
    :func:`repro.objectives.qos.qos_from_load`.
    """
    # One (..., m) plane per attribute, folded into the running
    # minimum, so no temporary spans the whole (..., m, h) tile.
    all_positive = bool((capacity > 0).all())
    worst = None
    for col in range(usage.shape[-1]):
        cap = capacity[..., col]
        knee = max_load[..., col]
        load = usage[..., col] + base_usage[..., col]
        if all_positive:
            load /= cap
        else:
            total = load
            load = total / np.where(cap > 0, cap, 1.0)
            load = np.where((cap <= 0) & (total > 0), np.inf, load)
        # Eq. 24 without the select: the exp argument is < 0 exactly
        # on the overloaded cells (load > knee), so clamping it at 0
        # gives every other cell max_qos * exp(0) = max_qos, and keeps
        # exp from overflowing.  fmin maps a NaN load to max_qos too,
        # as the select does.
        qos = np.subtract(knee, load, out=load)
        qos /= 1.0 - knee
        np.fmin(qos, 0.0, out=qos)
        np.exp(qos, out=qos)
        qos *= max_qos[..., col]
        worst = qos if worst is None else np.minimum(worst, qos, out=worst)
    return worst
