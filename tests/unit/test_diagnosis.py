"""Unit tests for instance pre-flight diagnosis."""

import numpy as np

from repro.model import AttributeSchema, PlacementGroup, Request
from repro.model.diagnosis import diagnose_instance
from repro.types import PlacementRule


def _request(demand, groups=(), schema=None):
    demand = np.asarray(demand, dtype=np.float64)
    n = demand.shape[0]
    kwargs = {}
    if schema is not None:
        kwargs["schema"] = schema
    return Request(
        demand=demand,
        qos_guarantee=np.full(n, 0.9),
        downtime_cost=np.ones(n),
        migration_cost=np.ones(n),
        groups=groups,
        **kwargs,
    )


class TestDiagnosis:
    def test_clean_instance_reports_nothing(self, small_infra, small_request):
        assert diagnose_instance(small_infra, small_request) == []

    def test_schema_mismatch_short_circuits(self, small_infra):
        request = _request(
            np.ones((2, 2)), schema=AttributeSchema(names=("a", "b"))
        )
        findings = diagnose_instance(small_infra, request)
        assert [f.code for f in findings] == ["schema_mismatch"]

    def test_unhostable_resource(self, small_infra):
        request = _request([[1e6, 1.0, 1.0]])
        findings = diagnose_instance(small_infra, request)
        assert any(f.code == "unhostable_resource" for f in findings)
        assert findings[0].resources == (0,)

    def test_aggregate_overcommit(self, small_infra):
        # Each VM fits somewhere, but 300 of them exceed the estate.
        per_vm = small_infra.effective_capacity.min(axis=0) * 0.5
        request = _request(np.tile(per_vm, (300, 1)))
        findings = diagnose_instance(small_infra, request)
        assert any(f.code == "aggregate_overcommit" for f in findings)

    def test_pigeonhole_datacenters(self, small_infra):
        request = _request(
            np.ones((3, 3)),
            groups=(
                PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (0, 1, 2)),
            ),
        )
        findings = diagnose_instance(small_infra, request)
        assert any(f.code == "pigeonhole_datacenters" for f in findings)

    def test_pigeonhole_servers(self, small_infra):
        request = _request(
            np.ones((9, 3)),
            groups=(PlacementGroup(PlacementRule.DIFFERENT_SERVERS, tuple(range(9))),),
        )
        findings = diagnose_instance(small_infra, request)
        assert [f.code for f in findings] == ["pigeonhole_servers"]
        assert findings[0].message.endswith("needs 9 distinct servers but only 8 exist")

    def test_same_server_too_big(self, small_infra):
        biggest = small_infra.effective_capacity.max(axis=0)
        request = _request(
            np.tile(biggest * 0.7, (2, 1)),
            groups=(PlacementGroup(PlacementRule.SAME_SERVER, (0, 1)),),
        )
        findings = diagnose_instance(small_infra, request)
        assert any(f.code == "same_server_too_big" for f in findings)

    def test_contradictory_rules(self, small_infra):
        request = _request(
            np.ones((3, 3)),
            groups=(
                PlacementGroup(PlacementRule.SAME_SERVER, (0, 1, 2)),
                PlacementGroup(PlacementRule.DIFFERENT_SERVERS, (0, 1)),
            ),
        )
        findings = diagnose_instance(small_infra, request)
        assert any(f.code == "contradictory_rules" for f in findings)

    def test_same_dc_vs_diff_dc_contradiction(self, small_infra):
        request = _request(
            np.ones((2, 3)),
            groups=(
                PlacementGroup(PlacementRule.SAME_DATACENTER, (0, 1)),
                PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (0, 1)),
            ),
        )
        findings = diagnose_instance(small_infra, request)
        assert any(f.code == "contradictory_rules" for f in findings)

    def test_same_server_plus_diff_dc_contradiction(self, small_infra):
        request = _request(
            np.ones((2, 3)),
            groups=(
                PlacementGroup(PlacementRule.SAME_SERVER, (0, 1)),
                PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (0, 1)),
            ),
        )
        findings = diagnose_instance(small_infra, request)
        assert any(f.code == "contradictory_rules" for f in findings)

    def test_findings_agree_with_cp_infeasibility(self, small_infra):
        """Every diagnosed instance must actually be CP-infeasible
        (findings are sound)."""
        from repro.cp import CPSolver, SearchLimits

        bad_requests = [
            _request([[1e6, 1.0, 1.0]]),
            _request(
                np.ones((3, 3)),
                groups=(
                    PlacementGroup(
                        PlacementRule.DIFFERENT_DATACENTERS, (0, 1, 2)
                    ),
                ),
            ),
        ]
        for request in bad_requests:
            assert diagnose_instance(small_infra, request)
            solution = CPSolver(
                small_infra,
                request,
                limits=SearchLimits(max_nodes=100_000, time_limit=10),
            ).find_feasible()
            assert not solution.found and solution.proved
