"""Kernel-backend conformance verification.

The kernel layer's contract (``docs/PERFORMANCE.md``) is *bitwise*
equality: every backend registered in :mod:`repro.engine.kernels` must
produce byte-identical usage tensors, violation counts and objective
vectors to the ``reference`` backend — the pre-kernel code paths kept
verbatim.  ``np.bincount`` and ``np.add.at`` both accumulate duplicate
indices in input order, and the numba backend keeps its inner gene
loops serial, so exactness is achievable and therefore demanded: any
drift is a bug, not a tolerance question.

The checker drives fuzzed scenario instances plus the structural edge
cases vectorized code most often gets wrong — the empty population,
rows with every gene :data:`~repro.model.placement.UNPLACED`, the
single-server estate, ``int32`` genomes, and a zero-capacity attribute
both used and unused — through every available backend, comparing raw
bytes against the reference at two levels:

1. **primitive level** — ``scatter_usage`` / ``batch_usage`` /
   ``batch_active`` / ``batch_over_counts`` / ``server_min_qos`` on the
   same inputs;
2. **evaluator level** — full ``evaluate_population`` objectives and
   violations (which also exercises the vectorized group scoring
   against the reference backend's per-constraint loop).

``python -m repro verify --check-kernels`` runs this from the CLI;
telemetry lands in ``verify.kernels.*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.engine.compiled import CompiledProblem
from repro.engine.kernels import active_kernel, available_kernels, use_kernel
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.telemetry import get_registry
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = [
    "KernelMismatch",
    "KernelConformanceReport",
    "check_kernel_conformance",
]


@dataclass(frozen=True)
class KernelMismatch:
    """One array that differed between a backend and the reference."""

    backend: str
    case: str  #: which fuzzed instance / edge case
    field: str  #: which compared array drifted
    message: str

    def __str__(self) -> str:
        return (
            f"[{self.backend}] {self.case}: {self.field} diverged from "
            f"reference — {self.message}"
        )


@dataclass
class KernelConformanceReport:
    """Outcome of one :func:`check_kernel_conformance` pass."""

    backends: tuple[str, ...]
    seed: int
    cases: tuple[str, ...] = ()
    comparisons: int = 0
    mismatches: list[KernelMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every backend matched the reference byte for byte."""
        return not self.mismatches

    def format(self) -> str:
        """Human-readable summary plus each mismatch."""
        header = (
            f"kernel conformance: seed={self.seed} "
            f"backends={list(self.backends)} over {len(self.cases)} cases — "
            f"{self.comparisons} comparisons, "
            f"{len(self.mismatches)} mismatches"
        )
        if self.ok:
            return header + "\nall backends bitwise-identical to reference"
        return "\n".join([header, *map(str, self.mismatches)])


def _compare(
    report: KernelConformanceReport,
    backend: str,
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
            KernelMismatch(
                backend=backend, case=case, field=name, message=message
            )
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


def _snapshot(compiled: CompiledProblem, population: np.ndarray) -> dict:
    """Everything one backend computes for (instance, population)."""
    evaluator = compiled.evaluator(include_assignment_constraint=True)
    capacity = evaluator.constraints.capacity
    infra = compiled.infrastructure
    kern = active_kernel()
    population64 = np.ascontiguousarray(population, dtype=np.int64)
    usage = capacity.batch_usage(population64)
    out = {
        "batch_usage": usage,
        "batch_over_counts": kern.batch_over_counts(
            usage, capacity._threshold
        ),
        "batch_active": kern.batch_active(population64, infra.m),
        "server_min_qos": kern.server_min_qos(
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
        out["scatter_usage"] = kern.scatter_usage(
            row[mask], compiled.demand[mask], infra.m
        )
    result = evaluator.evaluate_population(population)
    out["objectives"] = result.objectives
    out["violations"] = result.violations
    return out


def check_kernel_conformance(
    *,
    seed: int = 0,
    instances: int = 3,
    kernels: tuple[str, ...] | None = None,
) -> KernelConformanceReport:
    """Prove bitwise backend equality on fuzzed + edge-case inputs.

    ``kernels`` defaults to every registered backend (the numba backend
    participates exactly when numba is importable); the ``reference``
    backend is always the baseline and never compared against itself.
    """
    backends = tuple(kernels) if kernels is not None else available_kernels()
    others = tuple(b for b in backends if b != "reference")
    report = KernelConformanceReport(backends=backends, seed=seed)
    registry = get_registry()
    registry.count("verify.kernels.checks")

    cases = _cases(seed, instances)
    report.cases = tuple(name for name, _, _ in cases)
    for name, compiled, population in cases:
        with use_kernel("reference"):
            ref = _snapshot(compiled, population)
        for backend in others:
            with use_kernel(backend):
                got = _snapshot(compiled, population)
            _compare(
                report,
                backend,
                name,
                {key: (ref[key], got[key]) for key in ref},
            )
    return report
