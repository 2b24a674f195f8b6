"""Kernel conformance verification.

The batch primitives in :mod:`repro.engine.kernels` must produce
byte-identical usage tensors, violation counts and objective vectors to
an independent reference kept here, written the obvious way:

* ``np.add.at`` scatters for the usage tensor, the active-server mask
  and the single-genome usage matrix
  (:func:`repro.utils.scatter.scatter_rows`);
* one :func:`repro.constraints.rules.group_violations` call per row and
  placement group;
* Eq. 25 then Eq. 24 via :func:`repro.objectives.qos.loads_from_usage`
  and :func:`repro.objectives.qos.qos_from_load`, minimum over
  attributes.

``np.bincount`` and ``np.add.at`` both accumulate duplicate indices in
input order, and the QoS kernel performs the reference's float
operations on every cell it keeps, so exactness is achievable and
therefore demanded: any drift is a bug, not a tolerance question.

:func:`reference_kernels` swaps the reference functions into
:mod:`repro.engine.kernels` for one scope.  It is the test seam only;
no production code selects it.

The checker drives fuzzed scenario instances plus the structural edge
cases vectorized code most often gets wrong — the empty population,
rows with every gene :data:`~repro.model.placement.UNPLACED`, the
single-server estate, ``int32`` genomes, and a zero-capacity attribute
both used and unused — through both implementations, comparing raw
bytes at two levels:

1. **primitive level** — the single-genome scatter, ``batch_usage`` /
   ``batch_active`` / ``batch_over_counts`` / ``server_min_qos`` on the
   same inputs;
2. **evaluator level** — full ``evaluate_population`` objectives and
   violations (which also exercises the composite-key group scoring
   against the per-group reference counts).

``python -m repro verify --check-kernels`` runs this from the CLI;
telemetry lands in ``verify.kernels.*``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.constraints.rules import group_violations
from repro.engine import kernels
from repro.engine.compiled import CompiledProblem
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.objectives.qos import loads_from_usage, qos_from_load
from repro.telemetry import get_registry
from repro.utils.scatter import scatter_rows
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = [
    "KernelMismatch",
    "KernelConformanceReport",
    "check_kernel_conformance",
    "reference_kernels",
]


# ----------------------------------------------------------------------
# The independent reference
# ----------------------------------------------------------------------
def _scatter_rows(servers, rows, m):
    usage = np.zeros((m, rows.shape[1]), dtype=np.float64)
    np.add.at(usage, servers, rows)
    return usage


def _placed_cells(population):
    """(row, server, gene) index vectors of every placed gene, row-major."""
    rows, genes = np.nonzero(population != UNPLACED)
    return rows, population[rows, genes], genes


def _batch_usage(population, demand, m):
    usage = np.zeros((population.shape[0], m, demand.shape[1]))
    rows, servers, genes = _placed_cells(population)
    np.add.at(usage, (rows, servers), demand[genes])
    return usage


def _batch_active(population, m):
    counts = np.zeros((population.shape[0], m), dtype=np.int64)
    rows, servers, _ = _placed_cells(population)
    np.add.at(counts, (rows, servers), 1)
    return counts > 0


def _batch_over_counts(usage, threshold):
    over = usage > threshold
    return over.sum(axis=tuple(range(1, over.ndim))).astype(np.int64)


def _batch_group_violations(population, layout):
    datacenter_of = layout.server_datacenter.tolist()
    rules = [
        (colocate, datacenter_of if per_datacenter else None)
        for colocate, per_datacenter in zip(
            layout.counts_distinct.tolist(), layout.uses_datacenter.tolist()
        )
    ]
    bounds = layout.offsets.tolist()
    members = layout.members.tolist()
    out = np.zeros(population.shape[0], dtype=np.int64)
    for row, genome in enumerate(population.tolist()):
        out[row] = sum(
            group_violations(
                colocate,
                [genome[vm] for vm in members[bounds[g] : bounds[g + 1]]],
                location_of,
            )
            for g, (colocate, location_of) in enumerate(rules)
        )
    return out


def _server_min_qos(usage, base_usage, capacity, max_load, max_qos):
    load = loads_from_usage(usage + base_usage, capacity)
    return qos_from_load(load, max_load, max_qos).min(axis=-1)


_REFERENCE = {
    "batch_usage": _batch_usage,
    "batch_active": _batch_active,
    "batch_over_counts": _batch_over_counts,
    "batch_group_violations": _batch_group_violations,
    "server_min_qos": _server_min_qos,
}


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the scope with the reference functions in place of
    :mod:`repro.engine.kernels`' own, restoring them on exit.

    The swap is process-wide for the scope's duration (worker processes
    keep the production functions), so use it from a single thread.
    """
    saved = {name: getattr(kernels, name) for name in _REFERENCE}
    try:
        for name, function in _REFERENCE.items():
            setattr(kernels, name, function)
        yield
    finally:
        for name, function in saved.items():
            setattr(kernels, name, function)


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelMismatch:
    """One array that differed between the kernels and the reference."""

    case: str  #: which fuzzed instance / edge case
    field: str  #: which compared array drifted
    message: str

    def __str__(self) -> str:
        return f"{self.case}: {self.field} diverged from reference — {self.message}"


@dataclass
class KernelConformanceReport:
    """Outcome of one :func:`check_kernel_conformance` pass."""

    seed: int
    cases: tuple[str, ...] = ()
    comparisons: int = 0
    mismatches: list[KernelMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every kernel matched the reference byte for byte."""
        return not self.mismatches

    def format(self) -> str:
        """Human-readable summary plus each mismatch."""
        header = (
            f"kernel conformance: seed={self.seed} over {len(self.cases)} "
            f"cases — {self.comparisons} comparisons, "
            f"{len(self.mismatches)} mismatches"
        )
        if self.ok:
            return header + "\nkernels bitwise-identical to reference"
        return "\n".join([header, *map(str, self.mismatches)])


def _compare(
    report: KernelConformanceReport,
    case: str,
    pairs: dict[str, tuple[np.ndarray, np.ndarray]],
) -> None:
    registry = get_registry()
    for name, (ref, got) in pairs.items():
        report.comparisons += 1
        registry.count("verify.kernels.comparisons")
        ref = np.asarray(ref)
        got = np.asarray(got)
        if ref.shape == got.shape and ref.tobytes() == got.tobytes():
            continue
        registry.count("verify.kernels.mismatches")
        if ref.shape != got.shape:
            message = f"shape {got.shape} != reference {ref.shape}"
        else:
            drift = int(np.count_nonzero(ref != got))
            message = f"{drift} of {ref.size} entries differ"
        report.mismatches.append(
            KernelMismatch(case=case, field=name, message=message)
        )


def _population(
    rng: np.random.Generator, pop: int, n: int, m: int, unplaced: float
) -> np.ndarray:
    population = rng.integers(0, m, size=(pop, n), dtype=np.int64)
    if unplaced > 0.0 and population.size:
        mask = rng.random(population.shape) < unplaced
        population[mask] = UNPLACED
    return population


def _cases(seed: int, instances: int):
    """(name, compiled, population) triples: fuzzed + structural edges."""
    rng = np.random.default_rng(seed)
    shapes = [(6, 14), (12, 30), (20, 48)]
    out = []
    for index in range(instances):
        servers, vms = shapes[index % len(shapes)]
        spec = ScenarioSpec(
            servers=servers,
            datacenters=max(1, servers // 4),
            vms=vms,
            tightness=0.9,
        )
        scenario = ScenarioGenerator(spec, seed=seed + index).generate()
        merged, _ = Request.concatenate(list(scenario.requests))
        compiled = CompiledProblem(scenario.infrastructure, merged)
        pop = int(rng.integers(3, 17))
        population = _population(
            rng, pop, merged.n, scenario.infrastructure.m, unplaced=0.05
        )
        out.append((f"fuzz[{index}] {servers}x{vms}", compiled, population))

    base = out[0][1]  # reuse the first fuzzed instance for edge shapes
    n, m = base.n, base.m
    out.append(("edge: empty population", base, np.empty((0, n), np.int64)))
    out.append(
        (
            "edge: all-unplaced rows",
            base,
            np.full((4, n), UNPLACED, dtype=np.int64),
        )
    )
    out.append(
        (
            "edge: int32 genomes",
            base,
            _population(rng, 6, n, m, unplaced=0.1).astype(np.int32),
        )
    )

    single = ScenarioGenerator(
        ScenarioSpec(servers=1, datacenters=1, vms=6, tightness=0.6),
        seed=seed + 101,
    ).generate()
    merged_single, _ = Request.concatenate(list(single.requests))
    compiled_single = CompiledProblem(single.infrastructure, merged_single)
    out.append(
        (
            "edge: single-server estate",
            compiled_single,
            _population(rng, 5, merged_single.n, 1, unplaced=0.2),
        )
    )

    # Capacity 0 on one attribute of servers 0 and 1: server 0 carries
    # load (Eq. 25 reports inf there), server 1 stays empty (load 0).
    capacity = base.infrastructure.capacity.copy()
    capacity[:2, 0] = 0.0
    zero = CompiledProblem(replace(base.infrastructure, capacity=capacity), base.request)
    population = _population(rng, 6, n, m, unplaced=0.05)
    population[population == 1] = 2
    population[:, 0] = 0
    out.append(("edge: zero-capacity attribute", zero, population))
    return out


def _snapshot(compiled: CompiledProblem, population: np.ndarray, scatter) -> dict:
    """Everything the kernels compute for (instance, population)."""
    evaluator = compiled.evaluator(include_assignment_constraint=True)
    capacity = evaluator.constraints.capacity
    infra = compiled.infrastructure
    population64 = np.ascontiguousarray(population, dtype=np.int64)
    usage = capacity.batch_usage(population64)
    out = {
        "batch_usage": usage,
        "batch_over_counts": kernels.batch_over_counts(
            usage, capacity._threshold
        ),
        "batch_active": kernels.batch_active(population64, infra.m),
        "server_min_qos": kernels.server_min_qos(
            usage,
            evaluator.downtime.base_usage,
            infra.capacity,
            infra.max_load,
            infra.max_qos,
        ),
    }
    if population64.shape[0]:
        row = population64[0]
        mask = row != UNPLACED
        out["scatter_usage"] = scatter(row[mask], compiled.demand[mask], infra.m)
    result = evaluator.evaluate_population(population)
    out["objectives"] = result.objectives
    out["violations"] = result.violations
    return out


def check_kernel_conformance(
    *, seed: int = 0, instances: int = 3
) -> KernelConformanceReport:
    """Prove the kernels bitwise-equal to the reference on fuzzed +
    edge-case inputs."""
    report = KernelConformanceReport(seed=seed)
    get_registry().count("verify.kernels.checks")

    cases = _cases(seed, instances)
    report.cases = tuple(name for name, _, _ in cases)
    for name, compiled, population in cases:
        with reference_kernels():
            ref = _snapshot(compiled, population, _scatter_rows)
        got = _snapshot(compiled, population, scatter_rows)
        _compare(report, name, {key: (ref[key], got[key]) for key in ref})
    return report
