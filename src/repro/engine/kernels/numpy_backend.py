"""The vectorized numpy backend.

Same results as :class:`~repro.engine.kernels.base.ReferenceKernel`
bit for bit, reached by different routes:

* scatters run through ``np.bincount`` instead of ``np.add.at`` — both
  accumulate duplicate indices in input order, so the float64 sums are
  identical (population tiles use the reference's own per-attribute
  bincount);
* all placement groups of an instance are scored in **one** pass over
  a composite-key sort (integer arithmetic — exact) instead of one
  Python iteration per group;
* the Eq. 24 QoS runs one attribute plane at a time, folded into a
  running minimum, and evaluates ``exp`` on every cell with its
  argument clamped at 0 instead of selecting the overloaded cells: a
  cell that is not overloaded gets ``max_qos * exp(0)``, which is
  ``max_qos`` exactly, and an overloaded one sees the reference's
  operands.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels.base import GroupLayout, Kernel, ReferenceKernel
from repro.model.placement import UNPLACED
from repro.types import BoolArray, FloatArray, IntArray

__all__ = ["NumpyKernel"]


class NumpyKernel(Kernel):
    """Per-attribute bincount tiles + single-pass group scoring."""

    name = "numpy"
    vectorized_groups = True

    def scatter_usage(
        self, servers: IntArray, demand_rows: FloatArray, m: int
    ) -> FloatArray:
        h = demand_rows.shape[1]
        usage = np.empty((m, h), dtype=np.float64)
        for col in range(h):
            usage[:, col] = np.bincount(
                servers, weights=demand_rows[:, col], minlength=m
            )[:m]
        return usage

    # The reference's tile, one bincount per attribute over flat
    # (row, server) cells, is also the fastest: one bincount over
    # (row, server, attr) keys needs pop·n·h index and weight vectors.
    batch_usage = ReferenceKernel.batch_usage

    def batch_active(self, population: IntArray, m: int) -> BoolArray:
        pop = population.shape[0]
        mask = population != UNPLACED
        servers = np.where(mask, population, m)
        flat = (np.arange(pop, dtype=np.int64)[:, None] * (m + 1) + servers).ravel()
        counts = np.bincount(flat, minlength=pop * (m + 1))
        return counts.reshape(pop, m + 1)[:, :m] > 0

    def batch_over_counts(
        self, usage: FloatArray, threshold: FloatArray
    ) -> IntArray:
        over = usage > threshold
        axes = tuple(range(1, over.ndim))
        return np.count_nonzero(over, axis=axes).astype(np.int64)

    def batch_group_violations(
        self, population: IntArray, layout: GroupLayout
    ) -> IntArray:
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
        # A "start" is the first occurrence of a placed location inside
        # its segment: distinct count = number of starts per segment.
        starts = placed_sorted.copy()
        starts[:, 1:] &= comp[:, 1:] != comp[:, :-1]
        cuts = layout.offsets[:-1]
        distinct = np.add.reduceat(starts, cuts, axis=1)
        placed_counts = np.add.reduceat(placed_sorted, cuts, axis=1)
        violations = np.where(
            layout.counts_distinct[None, :],
            np.maximum(distinct - 1, 0),
            placed_counts - distinct,
        )
        return violations.sum(axis=1).astype(np.int64)

    def server_min_qos(
        self,
        usage: FloatArray,
        base_usage: FloatArray,
        capacity: FloatArray,
        max_load: FloatArray,
        max_qos: FloatArray,
    ) -> FloatArray:
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
