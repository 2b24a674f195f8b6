"""Property tests: population repair walks every infeasible row in
lockstep, and each row must come out as if it had been walked alone.

Row ``r`` of batch ``b`` walks on ``derive_sequence(root, b, r)``
whether it shares its steps with the rest of the batch or runs through
:meth:`TabuRepair.repair_genome` by itself, so the two must agree on
every genome byte and on the move count.  The instances are small and
tight, so most rows are infeasible and the early steps are wide enough
for the one-tensor move update.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import AttributeSchema, Infrastructure, Request
from repro.tabu import repair as repair_module
from repro.tabu.repair import TabuRepair
from repro.telemetry import MetricsRegistry, use_registry
from repro.utils.rng import derive_sequence
from tests.property.test_prop_repair_state import instances


@given(
    instances(),
    st.integers(0, 2**31 - 1),
    st.integers(1, 12),
    st.sampled_from(["first", "best_fit", "random"]),
    st.booleans(),
    st.sampled_from([0, 3, 64]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_population_repair_equals_rows_alone(
    instance, seed, rows, order, with_base, tenure, worsening, unplaced
):
    infra, request = instance
    rng = np.random.default_rng(seed)
    base = (
        rng.uniform(0.0, 0.4, size=(infra.m, infra.h)) * infra.effective_capacity
        if with_base
        else None
    )
    population = rng.integers(-1 if unplaced else 0, infra.m, size=(rows, request.n))

    def repairer():
        return TabuRepair(
            infra,
            request,
            base_usage=base,
            tenure=tenure,
            order=order,
            allow_worsening_moves=worsening,
            seed=seed,
        )

    batched, alone = repairer(), repairer()
    repaired = batched(population)

    expected = population.copy()
    for row in np.flatnonzero(~alone.constraints.batch_feasible(population)):
        walk = np.random.default_rng(derive_sequence(alone._root_seq, 0, int(row)))
        expected[row] = alone.repair_genome(population[row], rng=walk)
    assert repaired.tobytes() == expected.tobytes()
    assert batched.moves_performed == alone.moves_performed


def _tight_instance():
    """12 servers under heavy pressure: random genomes are infeasible."""
    rng = np.random.default_rng(2)
    infra = Infrastructure(
        capacity=rng.uniform(20.0, 40.0, size=(12, 2)),
        capacity_factor=np.ones((12, 2)),
        operating_cost=np.ones(12),
        usage_cost=np.full(12, 0.5),
        max_load=np.full((12, 2), 0.8),
        max_qos=np.full((12, 2), 0.9),
        server_datacenter=np.zeros(12, dtype=np.int64),
        schema=AttributeSchema(names=("cpu", "ram")),
    )
    request = Request(
        demand=rng.uniform(2.0, 9.0, size=(60, 2)),
        qos_guarantee=np.full(60, 0.8),
        downtime_cost=np.ones(60),
        migration_cost=np.ones(60),
        schema=infra.schema,
    )
    return infra, request


def test_deadline_after_the_first_step_stops_every_walk():
    """Every in-flight walk stops at its next deadline check (round
    start, or every 32 scans) and returns its best-so-far, which is
    never scored worse than its input."""
    infra, request = _tight_instance()
    # Every VM on three of the twelve servers: a first round has far
    # more than 31 VMs to move, so only the in-round check stops it.
    population = np.random.default_rng(5).integers(0, 3, size=(20, request.n))
    repair = TabuRepair(infra, request, max_rounds=1_000, seed=0)
    assert not repair.constraints.batch_feasible(population).any()
    find_rows = repair.finder.find_rows

    def find_rows_then_expire(*args, **kwargs):
        targets = find_rows(*args, **kwargs)
        repair.set_deadline(0.0)  # long passed from here on
        return targets

    repair.finder.find_rows = find_rows_then_expire
    with use_registry(MetricsRegistry()) as registry:
        repaired = repair(population)
    violations = repair.constraints.violations
    for before, after in zip(population, repaired):
        assert violations(after) <= violations(before)
    assert repair.runtime_state()["batch_counter"] == 1
    # A walk yields at most at scans 0..30 of a round before its check.
    snapshot = registry.snapshot()
    assert 1 <= snapshot.counter_total("tabu.repair.steps") <= 31
    assert snapshot.histograms["tabu.repair.step_walks"].maximum == 20
    # One neighbour query per walk per step, counted by the library.
    assert snapshot.counter_total("tabu.neighbor.queries") == (
        snapshot.histograms["tabu.repair.step_walks"].total
    )


def test_chunked_batch_equals_one_lockstep(monkeypatch):
    """Above the usage-tile cap a batch walks in row chunks; the rows
    come out as when the whole batch shares one lockstep."""
    infra, request = _tight_instance()
    population = np.random.default_rng(6).integers(0, infra.m, size=(10, request.n))
    whole = TabuRepair(infra, request, seed=3)
    assert not whole.constraints.batch_feasible(population).any()
    expected = whole(population)
    # Three rows' usage per chunk: chunks of 3, 3, 3 and 1 rows.
    monkeypatch.setattr(repair_module, "_TILE_CELLS", 3 * infra.m * infra.h)
    chunked = TabuRepair(infra, request, seed=3)
    with use_registry(MetricsRegistry()) as registry:
        repaired = chunked(population)
    assert repaired.tobytes() == expected.tobytes()
    assert chunked.moves_performed == whole.moves_performed
    assert registry.snapshot().counter_total("engine.kernel.repair_tiles") == 4
