"""Property tests: the tabu repair's incremental state must equal a
from-scratch recount after every move of a random walk.

The repair reads its fault flags, group counts and ideal-point score
from a :class:`repro.tabu.repair.RepairBatch`, whose attribute-major
(h, m) usage and residual recount only the two touched servers and the
moved VM's groups per move.  Here every move is followed by a full
recount through :class:`~repro.constraints.ConstraintSet`,
``limit - server_usage`` and a fresh ``batch_usage`` scatter, on
genomes with and without UNPLACED genes.  Moving every row of a batch
in one tensor update must write the bits that moving each row on its
own does.  The batch's :class:`~repro.tabu.neighborhood.TabuMemory`
must forbid what a :class:`~repro.tabu.TabuList` per walk forbids, and
its affinity masks must equal the four rules applied group by group.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CompiledProblem, kernels
from repro.model import AttributeSchema, Infrastructure, PlacementGroup, Request
from repro.tabu import NeighborFinder, TabuList
from repro.tabu.neighborhood import TabuMemory
from repro.tabu.repair import RepairBatch, TabuRepair
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


def _assert_parity(batch: RepairBatch, row: int, repair: TabuRepair) -> None:
    constraints = repair.constraints
    assignment = batch.genes[row]

    capacity = constraints.capacity.violations(assignment)
    groups = [c.violations(assignment) for c in constraints.group_constraints]
    assert batch.over[row].sum() == capacity
    assert batch.group_viol[row].tolist() == groups
    assert batch.violations(np.array([row])).tolist() == [constraints.violations(assignment)]
    assert np.array_equal(
        np.flatnonzero(batch.over[row]), constraints.capacity.overloaded_servers(assignment)
    )

    # The residual is the batch's own ``limit - usage`` bit for bit, and
    # that usage tracks a fresh scatter up to float reassociation.  Both
    # are attribute-major (h, m) views of the batch's tensors.
    limit = repair.finder.limit
    assert np.array_equal(batch.residual[row].T, limit - batch.usage[row].T)
    np.testing.assert_allclose(
        batch.residual[row].T,
        limit - constraints.capacity.server_usage(assignment),
        rtol=0.0,
        atol=1e-9,
    )
    fresh = kernels.batch_usage(
        assignment[None], repair.request.demand, repair.infrastructure.m
    )[0]
    np.testing.assert_allclose(batch.usage[row].T, fresh, rtol=0.0, atol=1e-9)

    overloaded = set(constraints.capacity.overloaded_servers(assignment).tolist())
    faulty = {k for k, s in enumerate(assignment.tolist()) if s in overloaded}
    for group in constraints.group_constraints:
        if group.violations(assignment):
            faulty.update(group.members)
    vms = np.arange(len(assignment))
    assert batch.faulty(row, vms).tolist() == [vm in faulty for vm in vms]


def _other_server(rng, m: int, current: int) -> int:
    """Any server but ``current`` (any server for an unplaced VM)."""
    if current < 0:
        return int(rng.integers(m))
    target = int(rng.integers(m - 1))
    return target + (target >= current)


@given(
    instances(),
    st.integers(0, 2**31 - 1),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_random_moves_track_full_recount(instance, seed, with_base, compiled, unplaced):
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
    assignment = rng.integers(-1 if unplaced else 0, infra.m, size=request.n)
    batch = RepairBatch(repair, assignment[None])
    _assert_parity(batch, 0, repair)
    row = np.zeros(1, dtype=np.int64)
    for _ in range(30):
        vm = int(rng.integers(request.n))
        old = int(batch.genes[0, vm])
        target = _other_server(rng, infra.m, old)
        before = set(batch.tabu.forbidden(row, np.array([vm]))[1].tolist())
        assert batch.move(row, np.array([vm]), np.array([target])).tolist() == [old]
        _assert_parity(batch, 0, repair)
        # Leaving a server makes it tabu; leaving UNPLACED adds nothing.
        after = set(batch.tabu.forbidden(row, np.array([vm]))[1].tolist())
        assert after == (before | {old} if old >= 0 else before)


@given(instances(), st.integers(0, 2**31 - 1), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_tensor_moves_equal_walk_by_walk_moves(instance, seed, with_base, unplaced):
    """One tensor update over every row writes the bits that moving
    each row on its own does, and every row keeps parity with a
    recount."""
    infra, request = instance
    rng = np.random.default_rng(seed)
    base = (
        rng.uniform(0.0, 0.4, size=(infra.m, infra.h)) * infra.effective_capacity
        if with_base
        else None
    )
    repair = TabuRepair(infra, request, base_usage=base)
    rows = 10
    genomes = rng.integers(-1 if unplaced else 0, infra.m, size=(rows, request.n))
    tensor = RepairBatch(repair, genomes)
    walk_by_walk = RepairBatch(repair, genomes)
    every = np.arange(rows)
    for _ in range(10):
        vms = rng.integers(request.n, size=rows)
        targets = np.array(
            [_other_server(rng, infra.m, old) for old in tensor.genes[every, vms].tolist()]
        )
        olds = tensor.move(every, vms, targets)
        assert olds.tolist() == [
            walk_by_walk.move(np.array([row]), vms[[row]], targets[[row]])[0]
            for row in range(rows)
        ]
        for name in ("genes", "usage", "residual", "over", "group_viol"):
            assert getattr(tensor, name).tobytes() == getattr(walk_by_walk, name).tobytes()
        for row in range(rows):
            _assert_parity(tensor, row, repair)
        # The window form of the fault test: (rows, 1) walks by (rows, w) VMs.
        window = rng.integers(request.n, size=(rows, 4))
        assert np.array_equal(
            tensor.faulty(every[:, None], window),
            np.array([tensor.faulty(row, window[row]) for row in range(rows)]),
        )


@given(
    st.sampled_from([0, 1, 3, 64]),
    st.lists(
        st.lists(
            st.none() | st.tuples(st.integers(0, 5), st.integers(0, 3)),
            min_size=3,
            max_size=3,
        ),
        max_size=60,
    ),
)
@settings(max_examples=80, deadline=None)
def test_tabu_memory_forbids_what_tabu_lists_forbid(tenure, steps):
    """Random steps of at most one (vm, server) add per walk, with many
    re-adds: after each step, every walk's forbidden servers per VM
    equal its own TabuList's."""
    walks = 3
    memory = TabuMemory(walks, tenure, m=4)
    lists = [TabuList(tenure=tenure) for _ in range(walks)]
    for step in steps:
        rows = [row for row, pair in enumerate(step) if pair is not None]
        pairs = [step[row] for row in rows]
        memory.add(
            np.array(rows, dtype=np.int64),
            np.array([vm for vm, _ in pairs], dtype=np.int64),
            np.array([server for _, server in pairs], dtype=np.int64),
        )
        for row, (vm, server) in zip(rows, pairs):
            lists[row].add(vm, server)
        for vm in range(6):
            queries, servers = memory.forbidden(np.arange(walks), np.full(walks, vm))
            for row in range(walks):
                assert sorted(servers[queries == row].tolist()) == sorted(
                    lists[row].forbidden_servers(vm)
                )


def _reference_affinity(infra, request, genes, vm):
    """The four rules applied group by group, one query at a time."""
    mask = np.ones(infra.m, dtype=bool)
    dc_of = infra.server_datacenter
    for group in request.groups:
        if vm not in group.members:
            continue
        placed = [int(genes[k]) for k in group.members if k != vm and genes[k] >= 0]
        if not placed:
            continue
        if group.rule is PlacementRule.SAME_SERVER:
            mask &= np.isin(np.arange(infra.m), placed)
        elif group.rule is PlacementRule.DIFFERENT_SERVERS:
            mask[placed] = False
        elif group.rule is PlacementRule.SAME_DATACENTER:
            mask &= np.isin(dc_of, dc_of[placed])
        else:
            mask &= ~np.isin(dc_of, dc_of[placed])
    return mask


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_affinity_masks_equal_the_rules_group_by_group(instance, seed):
    """Batch masks over several walks, VMs in up to four groups and
    UNPLACED members, against the rules applied one group at a time."""
    infra, request = instance
    rng = np.random.default_rng(seed)
    finder = NeighborFinder(infra, request)
    genomes = rng.integers(-1, infra.m, size=(5, request.n))
    genes = np.concatenate((genomes, np.full((5, 1), -1)), axis=1)
    rows = rng.integers(5, size=8)
    vms = rng.integers(request.n, size=8)
    masks = finder.affinity_masks(genes, rows, vms)
    for k, (row, vm) in enumerate(zip(rows.tolist(), vms.tolist())):
        expected = _reference_affinity(infra, request, genomes[row], vm).tolist()
        assert (np.ones(infra.m, dtype=bool) if masks is None else masks[k]).tolist() == expected
        assert finder.affinity_mask(genomes[row], vm).tolist() == expected
