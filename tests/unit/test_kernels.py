"""Unit tests for the batch kernels (edge cases, tiles, golden bytes).

The heavy sweep lives in :func:`repro.verify.check_kernel_conformance`;
these tests pin down the structural edge cases vectorized code most
often gets wrong — empty populations, all-UNPLACED rows, single-server
estates, int32 genomes — against the independent reference, the
reference seam itself, and the satellite contracts around the kernels
(capacity retargeting, the repair usage tile, batch_violations
overrides).
"""

import warnings

import numpy as np
import pytest

from repro.constraints.base import Constraint
from repro.constraints.capacity import CapacityConstraint
from repro.constraints.load_cap import LoadCapConstraint
from repro.constraints.rules import GroupConstraint
from repro.engine import CompiledProblem, kernels
from repro.engine.kernels import GroupLayout
from repro.errors import DimensionError
from repro.market import ProviderMarket
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.verify import check_kernel_conformance
from repro.verify.kernels import reference_kernels
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


def _compiled(servers=6, datacenters=2, vms=14, seed=5, tightness=0.8):
    spec = ScenarioSpec(
        servers=servers, datacenters=datacenters, vms=vms, tightness=tightness
    )
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    merged, _ = Request.concatenate(list(scenario.requests))
    return CompiledProblem.compile(scenario.infrastructure, merged)


class TestReferenceSeam:
    def test_restores_production_functions_when_the_body_raises(self):
        production = {
            name: getattr(kernels, name)
            for name in (
                "batch_usage",
                "batch_active",
                "batch_over_counts",
                "batch_group_violations",
                "server_min_qos",
            )
        }
        with pytest.raises(RuntimeError, match="boom"):
            with reference_kernels():
                assert kernels.server_min_qos is not production["server_min_qos"]
                raise RuntimeError("boom")
        for name, function in production.items():
            assert getattr(kernels, name) is function, name


class TestEdgeCases:
    """Structural edge cases byte-identical to the reference."""

    @staticmethod
    def _bytes(compiled, population):
        evaluator = compiled.evaluator(include_assignment_constraint=True)
        result = evaluator.evaluate_population(population)
        return result.objectives.tobytes(), result.violations.tobytes()

    def _assert_identical(self, compiled, population):
        with reference_kernels():
            reference = self._bytes(compiled, population)
        assert self._bytes(compiled, population) == reference

    def test_empty_population(self):
        compiled = _compiled()
        population = np.empty((0, compiled.request.n), dtype=np.int64)
        self._assert_identical(compiled, population)

    def test_all_unplaced_rows(self):
        compiled = _compiled()
        population = np.full((4, compiled.request.n), UNPLACED, dtype=np.int64)
        self._assert_identical(compiled, population)

    def test_single_server_estate(self):
        compiled = _compiled(servers=1, datacenters=1, vms=6, tightness=0.6)
        rng = np.random.default_rng(0)
        population = rng.integers(0, 1, size=(5, compiled.request.n))
        population[0, 0] = UNPLACED
        self._assert_identical(compiled, population)

    def test_int32_genomes(self):
        compiled = _compiled()
        rng = np.random.default_rng(1)
        population = rng.integers(
            0, compiled.m, size=(6, compiled.request.n)
        ).astype(np.int32)
        self._assert_identical(compiled, population)

    def test_conformance_checker_clean(self):
        # A zero-capacity attribute sends loads to inf; neither side may
        # warn on the way to QoS 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_kernel_conformance(seed=7, instances=1)
        assert report.ok, report.format()
        assert report.comparisons > 0
        assert "edge: zero-capacity attribute" in report.cases


class TestBatchViolationOverrides:
    """Satellite: no built-in constraint rides the Python-loop fallback."""

    def test_every_builtin_constraint_overrides_the_fallback(self):
        compiled = _compiled(servers=8, vms=20, seed=9)
        constraints = compiled.constraint_set(include_assignment=True)
        checked = [constraints.capacity, *constraints.group_constraints]
        if constraints.assignment is not None:
            checked.append(constraints.assignment)
        checked.append(
            LoadCapConstraint(compiled.infrastructure, compiled.request.demand)
        )
        assert len(checked) >= 3
        for constraint in checked:
            assert (
                type(constraint).batch_violations
                is not Constraint.batch_violations
            ), f"{type(constraint).__name__} uses the generic fallback"

    def test_overrides_match_the_fallback_rowwise(self):
        compiled = _compiled(servers=8, vms=20, seed=9)
        constraints = compiled.constraint_set(include_assignment=True)
        rng = np.random.default_rng(3)
        population = rng.integers(0, compiled.m, size=(12, compiled.request.n))
        population[rng.random(population.shape) < 0.05] = UNPLACED
        market = ProviderMarket.from_infrastructure(compiled.infrastructure, 3)
        provider_of = market.compile().infrastructure.provider_of_server
        assert np.unique(provider_of).size == 3
        same_provider = GroupConstraint(
            (0, 3, 5, 7, 11), colocate=True, location_of=provider_of, name="same_provider"
        )
        assert (population[:, same_provider.members] == UNPLACED).any()
        for constraint in (
            constraints.capacity,
            *constraints.group_constraints,
            same_provider,
        ):
            vectorized = constraint.batch_violations(population)
            fallback = Constraint.batch_violations(constraint, population)
            assert vectorized.tolist() == fallback.tolist(), constraint.name


class TestCapacityRetarget:
    def test_retarget_keeps_threshold_consistent(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        new_limit = constraint.limit * 0.5
        constraint.retarget(new_limit)
        expected_slack = constraint.tolerance * np.maximum(
            1.0, np.abs(new_limit)
        )
        assert np.array_equal(constraint.limit, new_limit)
        assert np.array_equal(constraint._slack, expected_slack)
        assert np.array_equal(
            constraint._threshold, new_limit + expected_slack
        )

    def test_retarget_rejects_wrong_shape(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        with pytest.raises(DimensionError):
            constraint.retarget(np.zeros((1, 1)))

    def test_load_cap_threshold_tracks_knee(self, small_infra, small_request):
        cap = LoadCapConstraint(small_infra, small_request.demand)
        inner = cap._inner
        assert np.array_equal(
            inner._threshold, inner.limit + inner._slack
        )


class TestGroupLayout:
    def test_layout_skips_groupless_instances(self):
        spec = ScenarioSpec(servers=4, datacenters=1, vms=6, affinity_probability=0.0)
        scenario = ScenarioGenerator(spec, seed=2).generate()
        merged, _ = Request.concatenate(list(scenario.requests))
        compiled = CompiledProblem.compile(scenario.infrastructure, merged)
        constraints = compiled.constraint_set()
        if not constraints.group_constraints:
            assert constraints.group_layout().n_groups == 0

    def test_layout_counts_match_constraints(self):
        compiled = _compiled(servers=8, vms=24, seed=11)
        constraints = compiled.constraint_set()
        layout = constraints.group_layout()
        if layout.n_groups == 0:
            pytest.skip("fuzzed instance drew no placement groups")
        assert isinstance(layout, GroupLayout)
        assert layout.n_groups == len(constraints.group_constraints)


class TestRepairUsageTile:
    def test_tile_rows_match_per_genome_usage(self):
        from repro.tabu.repair import TabuRepair

        compiled = _compiled(servers=6, vms=16, seed=13, tightness=0.95)
        repairer = TabuRepair(
            compiled.infrastructure,
            compiled.request,
            seed=0,
            compiled=compiled,
        )
        rng = np.random.default_rng(4)
        population = rng.integers(
            0, compiled.m, size=(7, compiled.request.n), dtype=np.int64
        )
        rows = np.arange(population.shape[0])
        tile = repairer._usage_tile(population, rows)
        assert tile is not None
        for local, i in enumerate(rows):
            expected = repairer.constraints.capacity.server_usage(population[i])
            assert tile[local].tobytes() == expected.tobytes()

    def test_tile_skipped_for_empty_rows(self):
        from repro.tabu.repair import TabuRepair

        compiled = _compiled()
        repairer = TabuRepair(
            compiled.infrastructure,
            compiled.request,
            seed=0,
            compiled=compiled,
        )
        population = np.zeros((3, compiled.request.n), dtype=np.int64)
        assert repairer._usage_tile(population, np.array([], dtype=np.int64)) is None


class TestEvaluationGoldenBytes:
    """Population evaluation and the numpy usage/QoS tiles pinned byte
    for byte to digests recorded before those kernels dropped their
    widest temporaries, at the paper's largest size (Fig. 8, 800x1600)."""

    #: field -> blake2b-128 of its dtype, shape and bytes.
    GOLDEN = {
        "objectives": "4648ba184dc8e5d7cd6f37080c3a24ad",
        "violations": "ba01bd6421c1b4c40b08a5ede590b99f",
        "objectives@variant": "1f615ff4d4a83f279949ead88d01435e",
        "violations@variant": "9081b79b353104d3590fecf138fcb45c",
        "batch_usage": "9e14758da547b654ad83a603fe243d0b",
        "server_min_qos@0.0": "d706fa75657d73bc766d8082ec5c3068",
        "server_min_qos@0.5": "103ae36c19d4d6f68f5e698dd704fbf7",
    }

    @pytest.fixture(scope="class")
    def paper_instance(self):
        """One generated 800x1600 instance and 20 random rows with about
        2% UNPLACED genes."""
        compiled = _compiled(
            servers=800, datacenters=4, vms=1600, seed=3, tightness=0.65
        )
        rng = np.random.default_rng(11)
        population = rng.integers(0, compiled.m, size=(20, compiled.request.n))
        population[rng.random(population.shape) < 0.02] = UNPLACED
        return compiled, population

    @staticmethod
    def _snapshot(compiled, population) -> dict:
        infra = compiled.infrastructure
        result = compiled.evaluator().evaluate_population(population)
        # Every other objective mode, on a loaded estate.
        variant = compiled.evaluator(
            base_usage=0.3 * infra.capacity,
            previous_assignment=population[0],
            downtime_mode="literal",
            per_server_operating=True,
        ).evaluate_population(population)
        usage = kernels.batch_usage(population, compiled.request.demand, infra.m)
        qos = {
            f"server_min_qos@{load}": kernels.server_min_qos(
                usage,
                load * infra.capacity,
                infra.capacity,
                infra.max_load,
                infra.max_qos,
            )
            for load in (0.0, 0.5)
        }
        return {
            "objectives": result.objectives,
            "violations": result.violations,
            "objectives@variant": variant.objectives,
            "violations@variant": variant.violations,
            "batch_usage": usage,
            **qos,
        }

    def test_bytes_unchanged(self, paper_instance):
        import hashlib

        got = {}
        for name, array in self._snapshot(*paper_instance).items():
            array = np.ascontiguousarray(array)
            digest = hashlib.blake2b(digest_size=16)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
            got[name] = digest.hexdigest()
        assert got == self.GOLDEN
