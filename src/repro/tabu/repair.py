"""The tabu-search repair process (the paper's Figures 4-6).

``Repair(I)`` scans an individual for servers whose constraints are
exceeded (``exceedingDetection``) and re-hosts every VM found on an
offending server via ``findNeighbor``.  We extend the scan to the
affinity/anti-affinity groups — the paper checks "each constraint
(capacities constraint, affinity and anti-affinity constraints)" during
evaluation and repairs whatever is invalid.

The repair runs for up to ``max_rounds`` full passes.  Every
intermediate state is scored, and — following the paper's Euclidean
rule ("we choose the solution that is found closer to the ideal point
where cost and rejection rate are the next to naught") — the state
returned is the one minimizing (violations, usage-cost) lexicographic
distance to the ideal: zero violations first, cheapest placement among
equals.

A batch's walks share one :class:`RepairBatch`, whose tables (genes,
attribute-major usage, group counts, tabu memory) are updated per move
rather than recounted; every comparison they feed sees the floats a
from-scratch recount would.  The walks advance in lockstep, their
control (scan lists, cursors, rounds) held in arrays: each step answers
every walk that wants a target with one tensor pass.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constraints.registry import ConstraintSet
from repro.engine import kernels
from repro.engine.parallel import RepairParams
from repro.errors import ValidationError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.tabu.neighborhood import NeighborFinder, TabuMemory, attribute_sum
from repro.telemetry import (
    HistogramSummary,
    MetricsSnapshot,
    RepairInvoked,
    get_bus,
    get_registry,
)
from repro.types import BoolArray, FloatArray, IntArray
from repro.utils.rng import as_generator, derive_sequence, root_sequence

__all__ = ["RepairBatch", "TabuRepair"]

#: Cells of usage per walked chunk, (rows * m * h): ~64 MB of float64.
_TILE_CELLS = 8_000_000
#: Scan entries tested per walk at once.  A walk checks the deadline
#: every ``_WINDOW`` scans, so a window never spans a check.
_WINDOW = 32
_SPAN = np.arange(_WINDOW)


class RepairBatch:
    """The shared state of a batch of repair walks, kept current per step.

    Row ``r`` of every table belongs to walk ``r``: the gene matrix
    ``genes`` (rows, n); the attribute-major ``usage`` (rows, h, m), its
    ``residual`` ``limit - usage`` and ``over``, each server's count of
    attributes over threshold (rows, m); ``group_viol``, each group's
    violation count (rows, G); and the walks' :class:`TabuMemory`.
    :meth:`move` re-hosts one VM in each of any subset of rows as one
    tensor op, with the float operations a one-genome walk performs, so
    every reader sees the bits a from-scratch recount would.

    Behind the public views, ``genes`` has a trailing UNPLACED column
    (VM ``n``, which pads the group and scan tables), ``over`` a
    trailing 0 (read by UNPLACED genes) and ``group_viol`` a trailing 0
    (the dummy group G).
    """

    def __init__(self, repair: TabuRepair, genomes: IntArray) -> None:
        self._repair = repair
        rows, n = genomes.shape
        h, m = repair._limit_t.shape
        groups = repair.finder.n_groups
        self._genes = np.full((rows, n + 1), UNPLACED, dtype=np.int64)
        self._genes[:, :n] = genomes
        self.genes = self._genes[:, :n]
        tile = repair._usage_tile(genomes, np.arange(rows))
        self.usage = np.ascontiguousarray(tile.transpose(0, 2, 1))
        del tile
        self.residual = repair._limit_t - self.usage
        self._over = np.zeros((rows, m + 1), dtype=np.int64)
        self.over = self._over[:, :m]
        self.over[...] = (self.usage > repair._threshold_t).sum(axis=1)
        self._group_viol = np.zeros((rows, groups + 1), dtype=np.int64)
        self.group_viol = self._group_viol[:, :groups]
        self.tabu = TabuMemory(rows, repair.tenure, m)
        # Flat views, and each walk's first cell in them.
        self._gene_cells = self._genes.reshape(-1)
        self._usage_cells = self.usage.reshape(-1)
        self._residual_cells = self.residual.reshape(-1)
        self._over_cells = self._over.reshape(-1)
        self._viol_cells = self._group_viol.reshape(-1)
        walks = np.arange(rows)
        self._gene_first = walks * (n + 1)
        self._usage_first = walks * (h * m)
        self._over_first = walks * (m + 1)
        self._viol_first = walks * (groups + 1)
        self._attr_cells = np.arange(h) * m
        self._vms = np.arange(n)
        if groups:
            self._recount(*np.divmod(np.arange(rows * groups), groups))

    def _recount(self, rows: IntArray, groups: IntArray) -> None:
        """Rescore group ``groups[k]`` of walk ``rows[k]``, for every k."""
        finder = self._repair.finder
        locations = finder.member_locations(
            self._genes, rows, groups, finder.members[groups]
        )
        self._viol_cells[self._viol_first[rows] + groups] = kernels.group_row_violations(
            locations, finder.nowhere, finder.layout.counts_distinct[groups]
        )

    # -- readers ---------------------------------------------------------
    def faulty(self, rows: IntArray, vms: IntArray) -> BoolArray:
        """Whether VM ``vms[..., k]`` of walk ``rows[...]`` must move: it
        sits on an overloaded server or in a violated affinity/anti-
        affinity group (Fig. 5, line 2).  ``rows`` and ``vms``
        broadcast."""
        servers = self._gene_cells.take(self._gene_first[rows] + vms)
        count = self._over_cells.take(self._over_first[rows] + servers)
        first = self._viol_first[rows]
        for slot_groups in self._repair.finder.vm_groups:
            count += self._viol_cells.take(first + slot_groups.take(vms))
        return count > 0

    def excluded(self, rows: IntArray, vms: IntArray) -> tuple[IntArray, IntArray]:
        """The targets query ``k`` (VM ``vms[k]`` of walk ``rows[k]``) may
        not take, as ``(query, server)`` index arrays: the VM's current
        host and its tabu servers."""
        current = self._gene_cells.take(self._gene_first[rows] + vms)
        placed = (current >= 0).nonzero()[0]
        queries, servers = self.tabu.forbidden(rows, vms)
        return np.concatenate((placed, queries)), np.concatenate((current[placed], servers))

    def violations(self, rows: IntArray) -> IntArray:
        """Each walk's violation count: servers over threshold, per
        attribute, plus its groups' violations."""
        return self.over[rows].sum(axis=1) + self.group_viol[rows].sum(axis=1)

    def cost(self, row: int) -> float:
        """Walk ``row``'s usage cost, the ideal-point tie-break."""
        genes = self.genes[row]
        return float(self._repair._cost_rate[genes[genes >= 0]].sum())

    # -- update ----------------------------------------------------------
    def move(self, rows: IntArray, vms: IntArray, targets: IntArray) -> IntArray:
        """Re-host ``vms[k]`` on ``targets[k]`` in walk ``rows[k]``, for
        every k at once (one move per walk); returns the servers the VMs
        left.

        A VM leaving UNPLACED frees no server and leaves no tabu pair.
        """
        repair = self._repair
        gene_cells = self._gene_first[rows] + vms
        olds = self._gene_cells.take(gene_cells)
        rows_left, vms_left, olds_left = rows, vms, olds
        if np.count_nonzero(olds < 0):
            left = olds >= 0
            rows_left, vms_left, olds_left = rows[left], vms[left], olds[left]
        # Each left server, then each target.  A walk's two servers
        # differ (the target is never the current host), so every cell
        # is updated once: usage[old] - demand, usage[target] + demand,
        # as u + -d, the bits of u - d.
        walks = np.concatenate((rows_left, rows))
        servers = np.concatenate((olds_left, targets))
        attr_cells = servers[:, None] + self._attr_cells
        cells = self._usage_first[walks][:, None] + attr_cells
        signed = np.concatenate((vms_left, vms + repair.request.n))
        after = self._usage_cells[cells] + repair._signed_demand[signed]
        self._usage_cells[cells] = after
        self._residual_cells[cells] = repair._limit_cells[attr_cells] - after
        self._over_cells[self._over_first[walks] + servers] = (
            after > repair._threshold_cells[attr_cells]
        ).sum(axis=1)
        self._gene_cells[gene_cells] = targets
        self.tabu.add(rows_left, vms_left, olds_left)
        finder = repair.finder
        slot_groups = finder.vm_groups[:, vms]
        slots, moved = (slot_groups < finder.n_groups).nonzero()
        if moved.size:
            self._recount(rows[moved], slot_groups[slots, moved])
        return olds


class _Walks:
    """The control state of a batch's repair walks (Fig. 5), in arrays.

    In its current round, walk ``r`` scans its shuffled fault list, row
    ``r`` of a scan matrix, up to flat cell ``end[r]``; ``next[r]`` is
    the flat cell of its next entry.  ``moves``, the rounds, the stall count
    and the best state found so far complete the walk.  Round ends
    (ideal-point cost) and the shuffles of round starts run walk by
    walk; :meth:`next_candidates` advances every walk at once.
    """

    def __init__(self, repair: TabuRepair, batch: RepairBatch, rngs: list) -> None:
        rows, n = batch.genes.shape
        self._repair = repair
        self._batch = batch
        self._rngs = rngs
        # Past the end of a list the scan holds VM n, never faulty.
        self._pad = n
        scan = np.full((rows, n + _WINDOW), n, dtype=np.int64)
        self._scan_cells = scan.reshape(-1)
        self._first = np.arange(rows) * scan.shape[1]
        self.next = self._first.copy()
        self.end = self._first.copy()
        self._hit_cells = np.arange(rows) * _WINDOW
        self.moves = np.zeros(rows, dtype=np.int64)
        self._round_moves = np.zeros(rows, dtype=np.int64)
        self._rounds = [0] * rows
        self._stall = [0] * rows
        self.best: list = [None] * rows
        self.best_score = [
            (violations, batch.cost(row))
            for row, violations in enumerate(batch.violations(np.arange(rows)).tolist())
        ]

    def start_rounds(self, rows: list[int]) -> list[int]:
        """Begin each walk's next round; returns the walks that go on."""
        repair, batch = self._repair, self._batch
        rows = [row for row in rows if self._rounds[row] < repair.max_rounds]
        if not rows or repair._deadline_passed():
            return []
        started, ends = [], []
        for row, flags in zip(rows, batch.faulty(np.array(rows)[:, None], batch._vms)):
            vms = flags.nonzero()[0]
            if vms.size == 0:
                continue
            # Shuffle, then visit ungrouped VMs first: moving them never
            # perturbs an affinity rule, so capacity pressure drains off
            # overloaded servers without collateral group damage.
            self._rngs[row].shuffle(vms)
            vms = vms[np.argsort(repair._grouped[vms], kind="stable")]
            first = int(self._first[row])
            end = first + vms.size
            self._scan_cells[first:end] = vms
            self._scan_cells[end : end + _WINDOW] = self._pad
            self._rounds[row] += 1
            started.append(row)
            ends.append(end)
        self.next[started] = self._first[started]
        self.end[started] = ends
        self._round_moves[started] = self.moves[started]
        return started

    def end_rounds(self, rows: list[int]) -> list[int]:
        """Score each walk's finished round and start its next one;
        returns the walks that go on."""
        batch, go_on = self._batch, []
        violations = batch.violations(rows).tolist()
        moved = (self.moves[rows] > self._round_moves[rows]).tolist()
        for row, row_violations, moved_any in zip(rows, violations, moved):
            score = (row_violations, batch.cost(row))
            if score < self.best_score[row]:
                self.best_score[row] = score
                self.best[row] = batch.genes[row].copy()
                self._stall[row] = 0
            else:
                self._stall[row] += 1
            # Done once feasible; stuck after a round without a move or
            # three without progress.
            if self.best_score[row][0] and moved_any and self._stall[row] < 3:
                go_on.append(row)
        return self.start_rounds(go_on)

    def next_candidates(self, rows: IntArray) -> tuple[IntArray, IntArray]:
        """Advance each walk of ``rows`` past its next VM that is still
        faulty, ending (and maybe restarting) rounds on the way.
        Returns the walks that found one, ascending, and their VMs.

        Earlier moves in a round may already have fixed a listed VM's
        server or group; moving it too would overshoot, so it is
        skipped.  Each pass tests a window of every walk's next
        ``_WINDOW`` entries at once.  Under a deadline a window stops at
        the walk's next check: the round can be long on big instances,
        so the budget is re-checked every ``_WINDOW`` scans.
        """
        repair, batch = self._repair, self._batch
        deadline = repair.deadline is not None
        found_rows, found_vms = [], []
        while rows.size:
            cells = self.next[rows]
            ended = cells >= self.end[rows]
            if deadline:
                # Scans left before the next check; at a check, a full
                # window.
                span = (_WINDOW - 2 - (cells - self._first[rows])) % _WINDOW + 1
                check = (span == _WINDOW) & ~ended
                if check.any() and repair._deadline_passed():
                    ended |= check
            if np.count_nonzero(ended):
                go_on = np.array(self.end_rounds(rows[ended].tolist()), dtype=np.int64)
                rows = np.sort(np.concatenate((rows[~ended], go_on)))
                if rows.size == 0:
                    break
                cells = self.next[rows]
                if deadline:
                    span = (_WINDOW - 2 - (cells - self._first[rows])) % _WINDOW + 1
            window = cells[:, None] + _SPAN
            hit = batch.faulty(rows[:, None], self._scan_cells.take(window))
            if deadline:
                hit &= _SPAN < span[:, None]
            first = hit.argmax(axis=1)
            got = hit.reshape(-1).take(self._hit_cells[: rows.size] + first)
            # A walk without a hit has first == 0: it moves a window on.
            cells += first
            found_rows.append(rows[got])
            found_vms.append(self._scan_cells.take(cells[got]))
            self.next[rows] = np.where(got, cells + 1, cells + (span if deadline else _WINDOW))
            rows = rows[~got]
        if len(found_rows) < 2:
            return (found_rows[0], found_vms[0]) if found_rows else (_NONE, _NONE)
        rows, vms = np.concatenate(found_rows), np.concatenate(found_vms)
        order = np.argsort(rows)
        return rows[order], vms[order]


_NONE = np.zeros(0, dtype=np.int64)


class TabuRepair:
    """Callable genome repairer; plugs into
    :class:`~repro.ea.constraint_handling.RepairHandling`.

    Parameters
    ----------
    infrastructure, request:
        The problem instance.
    base_usage:
        Committed usage from earlier windows.
    max_rounds:
        Full repair passes per individual before giving up.
    tenure:
        Tabu-list tenure (forbidden (vm, server) pairs remembered).
    order:
        Neighbour preference passed to :class:`NeighborFinder`.
    seed:
        RNG for the ``"random"`` order and VM scan shuffling.
    compiled:
        Optional :class:`~repro.engine.CompiledProblem` of the same
        instance; when given, the constraint set shares its prebuilt
        group constraints and the finder reuses its compiled indexes —
        one compilation then serves every repair call of a run.
    engine:
        Optional :class:`~repro.engine.parallel.ParallelEngine`.  When
        given (and ``compiled`` is too), population repair fans the
        infeasible rows out across the engine's worker pool.  Results
        are byte-identical to the serial path: each individual's RNG
        stream is derived from ``(seed, batch_index, row)`` whether it
        is repaired in-process or in a worker.
    """

    def __init__(
        self,
        infrastructure: Infrastructure,
        request: Request,
        base_usage: FloatArray | None = None,
        max_rounds: int = 4,
        tenure: int = 64,
        order: str = "first",
        allow_worsening_moves: bool = True,
        seed=None,
        compiled=None,
        engine=None,
    ) -> None:
        if max_rounds < 1:
            raise ValidationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.infrastructure = infrastructure
        self.request = request
        self.compiled = compiled
        if compiled is not None:
            self.constraints = compiled.constraint_set(
                base_usage=base_usage, include_assignment=False
            )
        else:
            self.constraints = ConstraintSet(
                infrastructure, request, base_usage=base_usage, include_assignment=False
            )
        self.finder = NeighborFinder(
            infrastructure, request, base_usage=base_usage, compiled=compiled
        )
        self.max_rounds = int(max_rounds)
        self.tenure = int(tenure)
        self.order = order
        self.allow_worsening_moves = bool(allow_worsening_moves)
        self.engine = engine
        self._base_usage = base_usage
        self._rng = as_generator(seed)
        # Per-individual streams are addressed by (batch, row) under this
        # root — the determinism contract the parallel fan-out relies on.
        self._root_seq = root_sequence(seed)
        self._batch_counter = 0
        # E + U per server: the cheap cost proxy for ideal-point scoring.
        self._cost_rate = (
            compiled.per_resource_rate
            if compiled is not None
            else infrastructure.operating_cost + infrastructure.usage_cost
        )
        # Walk tables, hoisted out of the per-genome state; the capacity
        # tables attribute-major, as the batch tensors are.
        self._limit_t = np.ascontiguousarray(self.finder.limit.T)
        self._threshold_t = np.ascontiguousarray(
            self.constraints.capacity._threshold.T
        )
        # Row vm subtracts a VM's demand, row n + vm adds it.
        self._signed_demand = np.concatenate((-request.demand, request.demand))
        # Per (attribute, server) cell, flat: the limit and threshold.
        self._limit_cells = self._limit_t.reshape(-1)
        self._threshold_cells = self._threshold_t.reshape(-1)
        self._grouped = self.finder.vm_groups[0, : request.n] < self.finder.n_groups
        self.repaired_individuals = 0
        self.moves_performed = 0
        #: Optional wall-clock cutoff (``time.perf_counter`` stamp) set
        #: by the EA loop when its config carries a ``time_limit``; every
        #: walk of a batch stops at its next check once it has passed,
        #: so one pathological repair cannot blow through the run's
        #: budget.  NOTE: a deadline makes results timing-
        #: dependent — runs relying on byte-identical determinism
        #: (parallel/resume verification) leave ``time_limit`` unset.
        self.deadline: float | None = None

    # ------------------------------------------------------------------
    # Runtime hooks used by the EA loop (deadline propagation) and the
    # checkpoint subsystem (trajectory state across kill/resume).
    # ------------------------------------------------------------------
    def set_deadline(self, deadline: float | None) -> None:
        """Bound all subsequent repair work by a ``perf_counter`` stamp."""
        self.deadline = None if deadline is None else float(deadline)

    def _deadline_passed(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def runtime_state(self) -> dict:
        """Checkpoint payload: the RNG batch counter plus run counters.

        ``batch_counter`` addresses the per-individual RNG streams of
        population repair — restoring it is what keeps a resumed run on
        the exact random trajectory of the uninterrupted one.
        """
        return {
            "batch_counter": int(self._batch_counter),
            "repaired_individuals": int(self.repaired_individuals),
            "moves_performed": int(self.moves_performed),
        }

    def restore_runtime_state(self, state: dict) -> None:
        """Inverse of :meth:`runtime_state` (resume path)."""
        self._batch_counter = int(state["batch_counter"])
        self.repaired_individuals = int(state.get("repaired_individuals", 0))
        self.moves_performed = int(state.get("moves_performed", 0))

    # ------------------------------------------------------------------
    def _least_overflow_rows(
        self,
        batch: RepairBatch,
        rows: IntArray,
        vms: IntArray,
        stuck: IntArray,
        excluded: tuple[IntArray, IntArray],
        affinity: BoolArray | None,
    ) -> IntArray:
        """Worsening-tolerant tabu move for each stuck query ``k`` of a
        step (``(rows[k], vms[k])`` for ``k`` in ``stuck``, whose walk
        found no strictly valid server): relocate to the server that adds
        the least capacity overflow, preferring affinity-consistent
        targets.  ``excluded`` and ``affinity`` are the step's
        (:meth:`RepairBatch.excluded`, ``affinity_masks``).  This is
        what lets the walk escape local optima instead of stalling, at
        the price of temporarily shifted violations (bounded by the
        walk's best-state tracking).  -1 where every server is the
        current host or tabu."""
        # Each query's row among the stuck ones, -1 if not stuck.
        position = np.full(rows.size, -1)
        position[stuck] = np.arange(stuck.size)
        rows, vms = rows[stuck], vms[stuck]
        limit = self._limit_t
        # Overflow each prospective target would add, per walk.
        after = batch.usage[rows]
        before = after - limit
        np.maximum(0.0, before, out=before)
        after += self.request.demand[vms][:, :, None]
        after -= limit
        np.maximum(0.0, after, out=after)
        after -= before
        added = attribute_sum(after)
        # The current host and the tabu servers are no candidates.
        queries = position[excluded[0]]
        kept = queries >= 0
        added[queries[kept], excluded[1][kept]] = np.inf
        picks = added.argmin(axis=1)
        each = np.arange(stuck.size)
        if affinity is not None:
            # Affinity-consistent servers first, when one is a candidate
            # (all are, for a VM in no group).
            affine = np.where(affinity[stuck], added, np.inf)
            best = affine.argmin(axis=1)
            consistent = affine[each, best] < np.inf
            picks[consistent] = best[consistent]
        return np.where(added[each, picks] < np.inf, picks, -1)

    def _lockstep(self, genomes: IntArray, rngs: list) -> None:
        """Repair every row of ``genomes`` in place (row ``r`` drawing
        from ``rngs[r]``), all walks in lockstep (Fig. 5).

        Each step answers every walk that wants a target at once: one
        capacity test, affinity mask, tabu exclusion, pick and (for
        walks with no valid server) least-overflow fallback over the
        batch's tensors, then one tensor update for all the moves and
        one window scan for every walk's next VM.  The walks are
        independent, so each one's result equals walking it alone.

        A walk ends after ``max_rounds`` rounds, once it is feasible,
        after a round without a move or three without progress, or at
        its next deadline check.  It returns the state closest to the
        ideal point: fewest violations, then cheapest.
        """
        if self._deadline_passed():
            return  # pass-through: no round could start
        finder = self.finder
        batch = RepairBatch(self, genomes)
        walks = _Walks(self, batch, rngs)
        rows = len(rngs)
        active, pending = walks.next_candidates(
            np.array(walks.start_rounds(list(range(rows))), dtype=np.int64)
        )
        # Walks only ever drop out, so the first step is the widest.
        widest = width = active.size
        steps = answered = 0
        while active.size:
            width = active.size
            excluded = batch.excluded(active, pending)
            affinity = finder.affinity_masks(batch._genes, active, pending)
            targets = finder.find_rows(
                # Every walk pending: the tensor itself, no gather.
                batch.residual if width == rows else batch.residual[active],
                active,
                pending,
                excluded,
                affinity,
                self.order,
                rngs,
            )
            stuck = (targets < 0).nonzero()[0]
            if stuck.size and self.allow_worsening_moves:
                targets[stuck] = self._least_overflow_rows(
                    batch, active, pending, stuck, excluded, affinity
                )
                stuck = (targets < 0).nonzero()[0]
            moved = active
            if stuck.size:
                kept = targets >= 0
                moved, pending, targets = active[kept], pending[kept], targets[kept]
            batch.move(moved, pending, targets)
            walks.moves[moved] += 1
            steps += 1
            answered += width
            active, pending = walks.next_candidates(active)

        bus = get_bus()
        for row, best in enumerate(walks.best):
            if best is not None:
                genomes[row] = best
            if bus.enabled:
                bus.emit(
                    RepairInvoked(
                        repairer="tabu",
                        moves=int(walks.moves[row]),
                        repaired=walks.best_score[row][0] == 0,
                    )
                )
        moves = int(walks.moves.sum())
        self.repaired_individuals += rows
        self.moves_performed += moves
        registry = get_registry()
        registry.count("tabu.repair.individuals", rows, repairer="tabu")
        registry.count("tabu.repair.moves", moves, repairer="tabu")
        registry.count("tabu.repair.steps", steps)
        registry.count("tabu.neighbor.queries", answered)
        if steps:
            registry.merge(
                MetricsSnapshot(
                    histograms={
                        "tabu.repair.step_walks": HistogramSummary(
                            steps, float(answered), float(width), float(widest)
                        )
                    }
                )
            )

    # ------------------------------------------------------------------
    def repair_genome(self, assignment: IntArray, rng=None) -> IntArray:
        """Repair one genome (Fig. 5).  Returns a new array.

        ``rng`` overrides the repairer's own stream; population repair
        derives one generator per individual from the root seed, so a
        walk is a pure function of (seed, batch, row) — identical
        whether it runs alone, in a batch or in a pool worker.
        """
        repaired = np.array(assignment, dtype=np.int64)
        if not self.constraints.is_feasible(repaired):
            self._lockstep(repaired[None], [self._rng if rng is None else rng])
        return repaired

    def repair_batch(
        self,
        genomes: IntArray,
        rows: IntArray,
        *,
        root: np.random.SeedSequence,
        batch_index: int,
    ) -> IntArray:
        """Repair batch-screened infeasible genomes in place, walking
        them in lockstep (in row chunks under the usage-tile cap), and
        return them.

        ``rows`` carries the genomes' population indices: genome ``k``
        walks on ``derive_sequence(root, batch_index, rows[k])``.  Both
        population repair and the pool workers call this.
        """
        m, h = self.finder.limit.shape
        chunk = max(1, _TILE_CELLS // (m * h))
        for start in range(0, len(rows), chunk):
            part = slice(start, start + chunk)
            rngs = [
                np.random.default_rng(derive_sequence(root, batch_index, int(row)))
                for row in rows[part]
            ]
            self._lockstep(genomes[part], rngs)
        return genomes

    # ------------------------------------------------------------------
    def __call__(self, population: IntArray) -> IntArray:
        """Repair a whole population matrix (infeasible rows only).

        Each batch call advances ``_batch_counter`` — the "generation"
        coordinate of the per-individual RNG streams.  The call order
        of population repairs within a run is fixed (init, parents,
        offspring per generation), so the counter is identical across
        serial and parallel executions of the same seed.
        """
        population = np.asarray(population, dtype=np.int64)
        if population.ndim == 1:
            return self.repair_genome(population)
        batch_index = self._batch_counter
        self._batch_counter += 1
        feasible = self.constraints.batch_feasible(population)
        if feasible.all():
            return population
        rows = np.flatnonzero(~feasible)
        repaired = population.copy()

        engine = self.engine
        if (
            engine is not None
            and engine.available
            and self.compiled is not None
            and rows.size >= engine.min_dispatch_rows
            and not self._deadline_passed()
        ):
            fanned = engine.repair_rows(
                self.compiled,
                RepairParams(
                    max_rounds=self.max_rounds,
                    tenure=self.tenure,
                    order=self.order,
                    allow_worsening_moves=self.allow_worsening_moves,
                ),
                population[rows],
                rows,
                root=self._root_seq,
                batch_index=batch_index,
                base_usage=self._base_usage,
            )
            if fanned is not None:
                repaired[rows] = fanned
                return repaired
            # Engine degraded: repair here instead, on the very same
            # per-row streams — same bytes out.

        repaired[rows] = self.repair_batch(
            population[rows], rows, root=self._root_seq, batch_index=batch_index
        )
        return repaired

    def _usage_tile(self, population: IntArray, rows: IntArray) -> FloatArray | None:
        """Score the batch's usage as one kernel tile (rows, m, h).

        Rows of the tile are bitwise-equal to per-genome
        ``server_usage`` scatters (kernel conformance contract).
        ``None`` for an empty ``rows``.
        """
        if rows.size == 0:
            return None
        tile = self.constraints.capacity.batch_usage(population[rows])
        registry = get_registry()
        registry.count("engine.kernel.repair_tiles")
        registry.count("engine.kernel.repair_tile_rows", int(rows.size))
        return tile
