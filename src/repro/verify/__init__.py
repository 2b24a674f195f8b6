"""repro.verify — cross-solver conformance tooling.

The paper's claims are comparative (Figures 7-11), so the reproduction
stands or falls on every allocator scoring the same placement the same
way.  This package is that guarantee, in three layers:

* :mod:`repro.verify.invariants` — composable checkers of the model's
  ground rules (capacity respected by accepted work, exactly-once
  hosting, affinity closure, objective finiteness, Pareto-front mutual
  non-domination);
* :mod:`repro.verify.oracle` — a differential oracle replaying any
  placement through the reference evaluator, the incremental move
  path, the sparse ILP encoding + LP relaxation bound and (on small
  instances) the complete CP search, with per-term mismatch diagnoses;
* :mod:`repro.verify.metamorphic` + :mod:`repro.verify.fuzzer` —
  transformation laws with provable consequences, driven over seeded
  random scenarios (``python -m repro verify --fuzz N``);
* :mod:`repro.verify.dynamic` — stream-level metamorphic laws over the
  dynamic scenario registry: batch-permutation evaluation equivalence,
  integral time-shift invariance, drain-then-fail equivalence
  (``python -m repro verify --scenario NAME``);
* :mod:`repro.verify.kernels` — bitwise conformance of the evaluation
  kernels against an independent reference on fuzzed and edge-case
  instances (``python -m repro verify --check-kernels``);
* :mod:`repro.verify.parallel` — serial-vs-parallel byte-identity of
  the execution engine's repair fan-out and chunked evaluation
  (``python -m repro verify --check-parallel 1,2,4``);
* :mod:`repro.verify.resume` — kill-and-resume byte-identity of the
  checkpoint subsystem: a run truncated at a checkpoint boundary and
  resumed from disk must finish exactly as the uninterrupted run
  (``python -m repro verify --check-resume``);
* :mod:`repro.verify.service` — live-vs-batch conformance of the
  allocation service: replaying a service admission log through a
  fresh batch scheduler reproduces residents, ledger and clock byte
  for byte (``python -m repro verify --check-service``);
* :mod:`repro.verify.anytime` — the anytime portfolio contract:
  monotone non-worsening pooled front, ``allocate()`` ≡ stepwise
  parity, seed determinism and the reoptimizer's portfolio wiring
  (``python -m repro verify --check-anytime``);
* :mod:`repro.verify.market` — the market layer's promises: a
  single-provider market is byte-identical to the pre-market model,
  brokered fronts are mutually nondominated with provider-confined
  routes, and preference selection is deterministic, total and
  permutation-invariant (``python -m repro verify --check-market``).

Telemetry lands in the ``verify.*`` namespace (see
``docs/OBSERVABILITY.md``); the checker catalog, oracle semantics and
extension guide live in ``docs/VERIFY.md``.
"""

from repro.verify.anytime import (
    AnytimeMismatch,
    AnytimeReport,
    check_anytime_conformance,
)
from repro.verify.dynamic import (
    DYNAMIC_LAWS,
    DrainFailEquivalenceLaw,
    DynamicReport,
    TimeShiftLaw,
    WindowPermutationLaw,
    check_dynamic_laws,
)
from repro.verify.fuzzer import FuzzConfig, FuzzFailure, FuzzReport, run_fuzz
from repro.verify.kernels import (
    KernelConformanceReport,
    KernelMismatch,
    check_kernel_conformance,
)
from repro.verify.invariants import (
    CheckContext,
    InvariantReport,
    InvariantViolation,
    invariant_names,
    register_invariant,
    run_invariants,
)
from repro.verify.market import (
    MarketConformanceReport,
    MarketMismatch,
    check_market_conformance,
)
from repro.verify.metamorphic import (
    ALL_LAWS,
    CapacityInflationLaw,
    CostScalingLaw,
    DuplicateRequestIdempotenceLaw,
    LawViolation,
    MetamorphicLaw,
    ServerPermutationLaw,
    run_laws,
)
from repro.verify.oracle import (
    DifferentialOracle,
    OracleMismatch,
    OracleReport,
    TermDelta,
)
from repro.verify.parallel import (
    ParallelDeterminismReport,
    ParallelMismatch,
    check_parallel_determinism,
)
from repro.verify.resume import (
    ResumeDeterminismReport,
    ResumeMismatch,
    check_resume_determinism,
)
from repro.verify.service import (
    ServiceConformanceReport,
    ServiceMismatch,
    check_service_conformance,
)

__all__ = [
    # invariants
    "CheckContext",
    "InvariantReport",
    "InvariantViolation",
    "invariant_names",
    "register_invariant",
    "run_invariants",
    # oracle
    "DifferentialOracle",
    "OracleMismatch",
    "OracleReport",
    "TermDelta",
    # metamorphic
    "ALL_LAWS",
    "MetamorphicLaw",
    "ServerPermutationLaw",
    "CapacityInflationLaw",
    "CostScalingLaw",
    "DuplicateRequestIdempotenceLaw",
    "LawViolation",
    "run_laws",
    # dynamic (stream-level) laws
    "DYNAMIC_LAWS",
    "DrainFailEquivalenceLaw",
    "DynamicReport",
    "TimeShiftLaw",
    "WindowPermutationLaw",
    "check_dynamic_laws",
    # fuzzing
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    # kernel-backend conformance
    "KernelConformanceReport",
    "KernelMismatch",
    "check_kernel_conformance",
    # parallel determinism
    "ParallelDeterminismReport",
    "ParallelMismatch",
    "check_parallel_determinism",
    # kill-and-resume determinism
    "ResumeDeterminismReport",
    "ResumeMismatch",
    "check_resume_determinism",
    # live-service conformance
    "ServiceConformanceReport",
    "ServiceMismatch",
    "check_service_conformance",
    # anytime-portfolio conformance
    "AnytimeMismatch",
    "AnytimeReport",
    "check_anytime_conformance",
    # market-layer conformance
    "MarketConformanceReport",
    "MarketMismatch",
    "check_market_conformance",
]
