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

Each genome's walk runs on a :class:`RepairState` that is updated per
move rather than recounted; every comparison it feeds sees the floats a
from-scratch recount would.  A batch's walks share one attribute-major
:class:`RepairBatch` and advance in lockstep: each step answers every
walk that wants a target with one tensor pass.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constraints.registry import ConstraintSet
from repro.constraints.rules import group_violations
from repro.engine.parallel import RepairParams
from repro.errors import ValidationError
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.tabu.neighborhood import NeighborFinder, TabuList, attribute_sum
from repro.telemetry import (
    HistogramSummary,
    MetricsSnapshot,
    RepairInvoked,
    get_bus,
    get_registry,
)
from repro.types import FloatArray, IntArray
from repro.utils.rng import as_generator, derive_sequence, root_sequence

__all__ = ["RepairBatch", "RepairState", "TabuRepair"]

#: Cells of usage per walked chunk, (rows * m * h): ~64 MB of float64.
_TILE_CELLS = 8_000_000
#: Moves per step from which :meth:`RepairBatch.move` updates all walks
#: with one tensor op instead of walk by walk.
_WIDE_STEP = 8


class RepairBatch:
    """The shared state of a batch of repair walks, kept current per step.

    Attribute-major tensors over the batch's rows: ``usage`` (rows, h,
    m), its ``residual`` ``limit - usage`` and ``over``, each server's
    count of attributes over threshold (rows, m).  Row ``r`` belongs to
    ``states[r]``, whose arrays are views into these.  :meth:`move`
    re-hosts one VM in each of any subset of rows with the float
    operations a one-genome walk performs, so every reader sees the
    bits a from-scratch recount would.
    """

    def __init__(self, repair: TabuRepair, genomes: IntArray) -> None:
        self._repair = repair
        rows = genomes.shape[0]
        tile = repair._usage_tile(genomes, np.arange(rows))
        self.usage = np.ascontiguousarray(tile.transpose(0, 2, 1))
        del tile
        self.residual = repair._limit_t - self.usage
        self.over = np.count_nonzero(self.usage > repair._threshold_t, axis=1)
        h, m = repair._limit_t.shape
        self._m = m
        self._row_cells = h * m
        self._attr_cells = np.arange(h) * m
        self._usage_cells = self.usage.reshape(-1)
        self._residual_cells = self.residual.reshape(-1)
        self._over_cells = self.over.reshape(-1)
        self.states = [RepairState(self, row, genomes[row]) for row in range(rows)]

    def move(self, rows: list[int], vms: list[int], targets: list[int]) -> list[int]:
        """Re-host ``vms[k]`` on ``targets[k]`` in walk ``rows[k]``, for
        every k at once; returns the servers the VMs left.

        A step of fewer than ``_WIDE_STEP`` moves goes walk by walk
        (:meth:`RepairState.move`): one tensor op's fixed cost, the
        index arrays and fancy gathers, is that of several scalar
        updates.  Both write the same bits.
        """
        if len(rows) < _WIDE_STEP:
            return [self.states[row].move(vm, t) for row, vm, t in zip(rows, vms, targets)]
        repair = self._repair
        m, row_cells = self._m, self._row_cells
        states = [self.states[row] for row in rows]
        olds = [state.genes[vm] for state, vm in zip(states, vms)]
        # Each left server, then each target.  A server -1 (left by an
        # unplaced VM) is the last server, as the one-genome walk
        # indexes it.
        servers = [old % m for old in olds] + targets
        walks = rows + rows
        cells = (
            np.array([row * row_cells + s for row, s in zip(walks, servers)])[:, None]
            + self._attr_cells
        )
        signed = np.array(vms + [vm + repair.request.n for vm in vms])
        # usage[old] -= demand, then usage[target] += demand: ``add.at``
        # applies the cells in order, so a target that is also the left
        # server sees the first update (u - d == u + -d bit for bit).
        usage = self._usage_cells
        np.add.at(usage, cells, repair._signed_demand.take(signed, axis=0))
        after = usage[cells]
        attr_cells = cells % row_cells
        self._residual_cells[cells] = repair._limit_t.reshape(-1)[attr_cells] - after
        exceeds = after > repair._threshold_t.reshape(-1)[attr_cells]
        self._over_cells[np.array([row * m + s for row, s in zip(walks, servers)])] = (
            exceeds.sum(axis=1)
        )
        for state, vm, old, target in zip(states, vms, olds, targets):
            state._rehost(vm, old, target)
        return olds


class RepairState:
    """One genome's repair walk: row ``row`` of a :class:`RepairBatch`.

    Holds the assignment (an int array for the cost sum and the
    returned plan, a list for scalar reads), views of the batch's
    attribute-major ``usage`` and ``residual`` (h, m) and ``over`` (m,),
    each group's violation count and the walk's tabu memory.
    """

    def __init__(self, batch: RepairBatch, row: int, assignment: IntArray) -> None:
        repair = batch._repair
        self._repair = repair
        # The batch's flat tensors, not the batch: a state that held
        # its batch would be a reference cycle, kept alive until the
        # cyclic collector runs.
        self._usage_cells = batch._usage_cells
        self._residual_cells = batch._residual_cells
        self._first_cell = row * batch._row_cells
        self.row = row
        self.assignment = assignment.copy()
        self.genes: list[int] = self.assignment.tolist()
        self.usage = batch.usage[row]
        self.residual = batch.residual[row]
        self.over = batch.over[row]
        self.group_viol: list[int] = [
            self._count_group(gi) for gi in range(len(repair.finder._members))
        ]
        self.tabu = TabuList(tenure=repair.tenure)

    def _count_group(self, gi: int) -> int:
        finder, genes = self._repair.finder, self.genes
        return group_violations(
            finder._rule_codes[gi],
            [genes[k] for k in finder._members[gi]],
            finder._dc_of,
        )

    # -- readers ---------------------------------------------------------
    def faulty_vms(self) -> IntArray:
        """VMs that must move: hosted on an overloaded server, or member
        of a violated affinity/anti-affinity group (Fig. 5, line 2)."""
        # One flag per server, plus a trailing False that UNPLACED (-1)
        # genes index.
        overloaded = np.zeros(len(self.over) + 1, dtype=bool)
        overloaded[:-1] = self.over
        faulty = overloaded[self.assignment]
        members = self._repair.finder._members
        for gi, violations in enumerate(self.group_viol):
            if violations:
                faulty[members[gi]] = True
        return np.flatnonzero(faulty)

    def still_faulty(self, vm: int) -> bool:
        """Whether ``vm`` still sits on an overloaded server or in a
        violated group."""
        if self.over[self.genes[vm]]:
            return True
        group_viol = self.group_viol
        return any(group_viol[gi] for gi in self._repair.finder._groups_of_vm[vm])

    def score(self) -> tuple[int, float]:
        """(violations, usage cost) — the lexicographic ideal-point key."""
        assignment = self.assignment
        cost = float(self._repair._cost_rate[assignment[assignment >= 0]].sum())
        return int(self.over.sum()) + sum(self.group_viol), cost

    # -- update ----------------------------------------------------------
    def move(self, vm: int, target: int) -> int:
        """Re-host ``vm`` on ``target``; returns the server it left."""
        repair = self._repair
        old = self.genes[vm]
        usage, residual = self._usage_cells, self._residual_cells
        limit, threshold = repair._limit_cells, repair._threshold_cells
        first = self._first_cell
        m = len(self.over)
        # usage[old] -= demand, then usage[target] += demand, each
        # server's h cells in Python floats (IEEE doubles, as numpy's;
        # u - d == u + -d).  A server -1 (left by an unplaced VM) is the
        # last server, as the one-genome walk indexes it.
        for server, delta in (
            (old % m, repair._demand_rows[vm][0]),
            (target, repair._demand_rows[vm][1]),
        ):
            over = 0
            for cell, d in zip(range(server, len(limit), m), delta):
                value = usage.item(first + cell) + d
                usage[first + cell] = value
                residual[first + cell] = limit[cell] - value
                over += value > threshold[cell]
            self.over[server] = over
        self._rehost(vm, old, target)
        return old

    def _rehost(self, vm: int, old: int, target: int) -> None:
        """The scalar bookkeeping of a move: genes, groups, tabu."""
        self.assignment[vm] = target
        self.genes[vm] = target
        for gi in self._repair.finder._groups_of_vm[vm]:
            self.group_viol[gi] = self._count_group(gi)
        self.tabu.add(vm, old)


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
        # The same as Python floats, for one walk's moves: per VM, the
        # (negated, plain) demand; per (attribute, server) cell, the
        # limit and threshold.
        self._demand_rows = list(
            zip((-request.demand).tolist(), request.demand.tolist())
        )
        self._limit_cells = self._limit_t.ravel().tolist()
        self._threshold_cells = self._threshold_t.ravel().tolist()
        self._grouped = np.zeros(request.n, dtype=bool)
        for group in request.groups:
            self._grouped[list(group.members)] = True
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
        self, batch: RepairBatch, rows: list[int], vms: list[int]
    ) -> list[int | None]:
        """Worsening-tolerant tabu move for each ``(rows[k], vms[k])``
        whose walk found no strictly valid server: relocate to the
        server that adds the least capacity overflow, preferring
        affinity-consistent targets.  This is what lets the walk escape
        local optima instead of stalling, at the price of temporarily
        shifted violations (bounded by the walk's best-state tracking).
        None where every server is the current host or tabu."""
        m = self.finder.limit.shape[0]
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
        # The current host (server -1, for an unplaced VM, is the last
        # one) and the tabu servers are no candidates.
        states = [batch.states[row] for row in rows]
        excluded: list[int] = []
        for k, (state, vm) in enumerate(zip(states, vms)):
            excluded.append(k * m + state.genes[vm] % m)
            for server in state.tabu.forbidden_servers(vm):
                excluded.append(k * m + server % m)
        added.put(excluded, np.inf)
        picks = added.argmin(axis=1).tolist()
        groups_of_vm = self.finder._groups_of_vm
        targets: list[int | None] = []
        for k, (state, vm) in enumerate(zip(states, vms)):
            pick = picks[k]
            if groups_of_vm[vm]:
                affine = np.where(
                    self.finder.affinity_mask(state.genes, vm), added[k], np.inf
                )
                best = int(affine.argmin())
                if affine[best] < np.inf:
                    pick = best
            targets.append(pick if added.item(k, pick) < np.inf else None)
        return targets

    # ------------------------------------------------------------------
    def _walk(self, state: RepairState, rng):
        """One genome's repair rounds (Fig. 5), as a generator.

        Yields each VM that needs a target; :meth:`_lockstep` answers
        whether it moved the VM.  Returns ``(best assignment, best
        score, moves)``, the assignment None while the input is still
        best.
        """
        best = None
        best_score = state.score()
        moves = 0
        stall_rounds = 0
        for _ in range(self.max_rounds):
            if self._deadline_passed():
                break
            faulty = state.faulty_vms()
            if faulty.size == 0:
                break
            # Shuffle, then visit ungrouped VMs first: moving them never
            # perturbs an affinity rule, so capacity pressure drains off
            # overloaded servers without collateral group damage.
            rng.shuffle(faulty)
            faulty = faulty[np.argsort(self._grouped[faulty], kind="stable")]
            moved_any = False
            for scanned, vm in enumerate(faulty.tolist()):
                # The round itself can be long on big instances; re-check
                # the budget every few dozen candidate moves.
                if scanned % 32 == 31 and self._deadline_passed():
                    break
                # Earlier moves in this round may already have fixed the
                # VM's server or group; moving it too would overshoot.
                if not state.still_faulty(vm):
                    continue
                if (yield vm):
                    moves += 1
                    moved_any = True
            score = state.score()
            if score < best_score:
                best_score = score
                best = state.assignment.copy()
                stall_rounds = 0
            else:
                stall_rounds += 1
            if best_score[0] == 0:
                break
            if not moved_any or stall_rounds >= 3:
                break  # stuck (no move, or three rounds without progress)
        return best, best_score, moves

    def _lockstep(self, genomes: IntArray, rngs: list) -> None:
        """Repair every row of ``genomes`` in place (row ``r`` drawing
        from ``rngs[r]``), all walks in lockstep.

        Each step answers every pending walk at once: one capacity test,
        pick and (for walks with no valid server) least-overflow
        fallback over the batch's attribute-major tensors, then one
        tensor update for all the moves.  The walks are independent, so
        each one's result equals walking it alone.
        """
        if self._deadline_passed():
            return  # pass-through: no round could start
        batch = RepairBatch(self, genomes)
        states = batch.states
        walks = [self._walk(state, rng) for state, rng in zip(states, rngs)]
        outcomes: list = [None] * len(walks)
        active: list[int] = []
        pending: list[int] = []

        def resume(row: int, answer) -> None:
            try:
                vm = walks[row].send(answer)
            except StopIteration as done:
                outcomes[row] = done.value
            else:
                active.append(row)
                pending.append(vm)

        for row in range(len(walks)):
            resume(row, None)
        # Walks only ever drop out, so the first step is the widest.
        widest = width = len(active)
        steps = answered = 0
        while active:
            width = len(active)
            targets = self.finder.find_rows(
                # Every walk pending: the tensor itself, no gather.
                batch.residual if width == len(walks) else batch.residual[active],
                [states[row].genes for row in active],
                pending,
                [states[row].tabu for row in active],
                self.order,
                [rngs[row] for row in active],
            )
            if None in targets and self.allow_worsening_moves:
                stuck = [k for k, target in enumerate(targets) if target is None]
                rescued = self._least_overflow_rows(
                    batch, [active[k] for k in stuck], [pending[k] for k in stuck]
                )
                for k, target in zip(stuck, rescued):
                    targets[k] = target
            if None in targets:
                moved = [k for k, target in enumerate(targets) if target is not None]
                batch.move(
                    [active[k] for k in moved],
                    [pending[k] for k in moved],
                    [targets[k] for k in moved],
                )
            else:
                batch.move(active, pending, targets)
            steps += 1
            answered += width
            stepped = active
            active, pending = [], []
            for row, target in zip(stepped, targets):
                resume(row, target is not None)

        moves = 0
        bus = get_bus()
        for row, (best, best_score, walk_moves) in enumerate(outcomes):
            if best is not None:
                genomes[row] = best
            moves += walk_moves
            if bus.enabled:
                bus.emit(
                    RepairInvoked(
                        repairer="tabu", moves=walk_moves, repaired=best_score[0] == 0
                    )
                )
        self.repaired_individuals += len(walks)
        self.moves_performed += moves
        registry = get_registry()
        registry.count("tabu.repair.individuals", len(walks), repairer="tabu")
        registry.count("tabu.repair.moves", moves, repairer="tabu")
        registry.count("tabu.repair.steps", steps)
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
