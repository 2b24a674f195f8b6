"""Property tests: the tabu repair's incremental state must equal a
from-scratch recount after every move of a random walk.

The repair reads its fault set, its per-VM re-checks and its
ideal-point score from :class:`repro.tabu.repair.RepairState`, a row of
a :class:`~repro.tabu.repair.RepairBatch` whose attribute-major (h, m)
usage and residual recount only the two touched servers and the moved
VM's groups per move.  Here every move is followed by a full recount
through :class:`~repro.constraints.ConstraintSet` and
``limit - server_usage``.  Moves go walk by walk
(:meth:`RepairState.move`) and, for a wide batch, as one tensor update
(:meth:`RepairBatch.move`); the two must write the same bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CompiledProblem
from repro.model import AttributeSchema, Infrastructure, PlacementGroup, Request
from repro.tabu.repair import _WIDE_STEP, RepairBatch, RepairState, TabuRepair
from repro.types import PlacementRule


@st.composite
def instances(draw):
    """A random small, tight instance with up to four groups."""
    m = draw(st.integers(2, 10))
    g = draw(st.integers(1, min(3, m)))
    n = draw(st.integers(2, 14))
    h = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    infra = Infrastructure(
        capacity=rng.uniform(10, 100, size=(m, h)),
        capacity_factor=rng.uniform(0.5, 1.0, size=(m, h)),
        operating_cost=rng.uniform(0.1, 5.0, size=m),
        usage_cost=rng.uniform(0.1, 5.0, size=m),
        max_load=rng.uniform(0.3, 0.95, size=(m, h)),
        max_qos=rng.uniform(0.5, 0.99, size=(m, h)),
        server_datacenter=np.sort(np.r_[np.arange(g), rng.integers(0, g, m - g)]),
        schema=AttributeSchema(names=tuple(f"a{i}" for i in range(h))),
    )
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(2, min(4, n)))
        members = tuple(int(k) for k in rng.choice(n, size=size, replace=False))
        groups.append(PlacementGroup(draw(st.sampled_from(list(PlacementRule))), members))
    request = Request(
        demand=rng.uniform(0.0, 40.0, size=(n, h)),
        qos_guarantee=rng.uniform(0.5, 1.0, size=n),
        downtime_cost=rng.uniform(0.0, 10.0, size=n),
        migration_cost=rng.uniform(0.0, 10.0, size=n),
        groups=tuple(groups),
        schema=infra.schema,
    )
    return infra, request


def _assert_parity(state: RepairState, repair: TabuRepair) -> None:
    constraints = repair.constraints
    assignment = state.assignment
    assert state.genes == assignment.tolist()

    capacity = constraints.capacity.violations(assignment)
    groups = sum(c.violations(assignment) for c in constraints.group_constraints)
    assert sum(state.over) == capacity
    assert sum(state.group_viol) == groups
    assert state.score()[0] == constraints.violations(assignment)
    assert np.array_equal(
        np.flatnonzero(state.over), constraints.capacity.overloaded_servers(assignment)
    )

    # The residual is the state's own ``limit - usage`` bit for bit, and
    # that usage tracks a fresh scatter up to float reassociation.  Both
    # are attribute-major (h, m) views of the batch's tensors.
    limit = repair.finder.limit
    assert np.array_equal(state.residual.T, limit - state.usage.T)
    np.testing.assert_allclose(
        state.residual.T,
        limit - constraints.capacity.server_usage(assignment),
        rtol=0.0,
        atol=1e-9,
    )

    overloaded = set(constraints.capacity.overloaded_servers(assignment).tolist())
    faulty = {k for k, s in enumerate(assignment.tolist()) if s in overloaded}
    for group in constraints.group_constraints:
        if group.violations(assignment):
            faulty.update(group.members)
    assert state.faulty_vms().tolist() == sorted(faulty)
    assert [state.still_faulty(vm) for vm in range(len(assignment))] == [
        vm in faulty for vm in range(len(assignment))
    ]


@given(
    instances(),
    st.integers(0, 2**31 - 1),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_random_moves_track_full_recount(instance, seed, with_base, compiled):
    infra, request = instance
    rng = np.random.default_rng(seed)
    base = (
        rng.uniform(0.0, 0.4, size=(infra.m, infra.h)) * infra.effective_capacity
        if with_base
        else None
    )
    repair = TabuRepair(
        infra,
        request,
        base_usage=base,
        compiled=CompiledProblem(infra, request) if compiled else None,
    )
    assignment = rng.integers(0, infra.m, size=request.n)
    state = RepairBatch(repair, assignment[None]).states[0]
    _assert_parity(state, repair)
    for _ in range(30):
        vm = int(rng.integers(request.n))
        target = int(rng.integers(infra.m - 1))
        target += target >= state.genes[vm]  # any server but the current one
        old = state.genes[vm]
        assert state.move(vm, target) == old
        _assert_parity(state, repair)


@given(instances(), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_tensor_moves_equal_walk_by_walk_moves(instance, seed, with_base):
    """A wide step's one tensor update writes the bits that moving each
    walk on its own does, and every row keeps parity with a recount."""
    infra, request = instance
    rng = np.random.default_rng(seed)
    base = (
        rng.uniform(0.0, 0.4, size=(infra.m, infra.h)) * infra.effective_capacity
        if with_base
        else None
    )
    repair = TabuRepair(infra, request, base_usage=base)
    rows = _WIDE_STEP + 2
    genomes = rng.integers(0, infra.m, size=(rows, request.n))
    tensor = RepairBatch(repair, genomes)
    walk_by_walk = RepairBatch(repair, genomes)
    for _ in range(10):
        vms = rng.integers(request.n, size=rows).tolist()
        targets = []
        for state, vm in zip(tensor.states, vms):
            target = int(rng.integers(infra.m - 1))
            targets.append(target + (target >= state.genes[vm]))
        olds = tensor.move(list(range(rows)), vms, targets)
        assert olds == [
            state.move(vm, target)
            for state, vm, target in zip(walk_by_walk.states, vms, targets)
        ]
        for name in ("usage", "residual", "over"):
            assert getattr(tensor, name).tobytes() == getattr(walk_by_walk, name).tobytes()
        for state in tensor.states:
            _assert_parity(state, repair)
