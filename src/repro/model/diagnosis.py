"""Pre-flight diagnosis of an (infrastructure, request) instance.

Solvers report *that* a request is infeasible; operators want to know
*why* before any search runs.  :func:`diagnose_instance` performs the
cheap necessary-condition checks and returns human-readable findings:

* schema mismatch (h != h');
* resources no single server can ever host;
* aggregate demand exceeding estate capacity per attribute;
* anti-affinity pigeonhole violations (group larger than the number of
  datacenters/servers);
* same-server groups whose combined demand no server can hold;
* contradictory rule pairs (same members required both together and
  apart).

Findings are *necessary*-condition failures: any finding proves
infeasibility, but an empty report does not prove feasibility (that is
the solvers' job).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.rules import pigeonholed
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.types import PlacementRule

__all__ = ["Finding", "diagnose_instance"]


@dataclass(frozen=True)
class Finding:
    """One diagnosed impossibility."""

    code: str
    message: str
    resources: tuple[int, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.message}"


def diagnose_instance(
    infrastructure: Infrastructure, request: Request
) -> list[Finding]:
    """Run every necessary-condition check; empty list = nothing
    provably wrong."""
    findings: list[Finding] = []

    if request.h != infrastructure.h:
        findings.append(
            Finding(
                code="schema_mismatch",
                message=(
                    f"request has {request.h} attributes, "
                    f"infrastructure has {infrastructure.h} (paper requires h = h')"
                ),
            )
        )
        return findings  # nothing else is meaningful

    effective = infrastructure.effective_capacity

    # Per-resource hostability: some server must fit it alone.
    fits_somewhere = np.any(
        np.all(request.demand[:, None, :] <= effective[None, :, :] + 1e-9, axis=2),
        axis=1,
    )
    unhostable = np.flatnonzero(~fits_somewhere)
    for k in unhostable:
        findings.append(
            Finding(
                code="unhostable_resource",
                message=(
                    f"resource {int(k)} demands {request.demand[k].tolist()} "
                    "which no server can host even when empty"
                ),
                resources=(int(k),),
            )
        )

    # Aggregate capacity per attribute.
    total_demand = request.demand.sum(axis=0)
    total_capacity = effective.sum(axis=0)
    for l in range(request.h):
        if total_demand[l] > total_capacity[l] + 1e-9:
            findings.append(
                Finding(
                    code="aggregate_overcommit",
                    message=(
                        f"attribute {infrastructure.schema.names[l]!r}: total "
                        f"demand {total_demand[l]:.1f} exceeds estate capacity "
                        f"{total_capacity[l]:.1f}"
                    ),
                )
            )

    # Group-level checks.
    for group in request.groups:
        members = group.members
        if pigeonholed(group, infrastructure):
            scope, count = (
                ("datacenters", infrastructure.g)
                if group.rule.is_datacenter_scope
                else ("servers", infrastructure.m)
            )
            findings.append(
                Finding(
                    code=f"pigeonhole_{scope}",
                    message=(
                        f"group {members} needs {group.size} distinct "
                        f"{scope} but only {count} exist"
                    ),
                    resources=members,
                )
            )
        elif group.rule is PlacementRule.SAME_SERVER:
            combined = request.demand[list(members)].sum(axis=0)
            if not np.any(np.all(combined <= effective + 1e-9, axis=1)):
                findings.append(
                    Finding(
                        code="same_server_too_big",
                        message=(
                            f"same-server group {members} demands "
                            f"{combined.tolist()} combined; no server can "
                            "host them together"
                        ),
                        resources=members,
                    )
                )

    # Contradictory rule pairs over shared member pairs.
    for i, a in enumerate(request.groups):
        for b in request.groups[i + 1 :]:
            shared = set(a.members) & set(b.members)
            if len(shared) < 2:
                continue
            contradictory = (
                {a.rule, b.rule}
                in (
                    {PlacementRule.SAME_SERVER, PlacementRule.DIFFERENT_SERVERS},
                    {
                        PlacementRule.SAME_SERVER,
                        PlacementRule.DIFFERENT_DATACENTERS,
                    },
                    {
                        PlacementRule.SAME_DATACENTER,
                        PlacementRule.DIFFERENT_DATACENTERS,
                    },
                )
            )
            if contradictory:
                findings.append(
                    Finding(
                        code="contradictory_rules",
                        message=(
                            f"resources {tuple(sorted(shared))} appear in both a "
                            f"{a.rule.value} and a {b.rule.value} group — "
                            "unsatisfiable together"
                        ),
                        resources=tuple(sorted(shared)),
                    )
                )
    return findings
