"""The four group-rule semantics (Eq. 9-12) as one scalar count.

The constraint classes score whole populations with numpy; the
move-at-a-time incremental evaluator recounts a single group after
every move, where numpy's per-call dispatch on 2-8 element arrays
dominates.  (The tabu repair recounts a whole batch's moved groups at
once, with :func:`repro.engine.kernels.group_row_violations`.)  :func:`group_violations` is
that scalar count, on integer rule codes and Python sets, with exactly
the constraint classes' integer results:

* co-localization rules charge the extra distinct locations
  (``distinct - 1``);
* separation rules charge the collisions (``placed - distinct``).

Unplaced members (:data:`~repro.model.placement.UNPLACED`) are the
assignment constraint's concern and are skipped.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.model.placement import UNPLACED
from repro.types import PlacementRule

__all__ = [
    "DIFFERENT_DATACENTERS",
    "DIFFERENT_SERVERS",
    "RULE_CODE",
    "SAME_DATACENTER",
    "SAME_SERVER",
    "group_violations",
]

SAME_SERVER, SAME_DATACENTER, DIFFERENT_SERVERS, DIFFERENT_DATACENTERS = range(4)

#: Integer code of each placement rule (hoisted out of hot loops, where
#: enum comparisons and ``.value`` lookups add up).
RULE_CODE: dict[PlacementRule, int] = {
    PlacementRule.SAME_SERVER: SAME_SERVER,
    PlacementRule.SAME_DATACENTER: SAME_DATACENTER,
    PlacementRule.DIFFERENT_SERVERS: DIFFERENT_SERVERS,
    PlacementRule.DIFFERENT_DATACENTERS: DIFFERENT_DATACENTERS,
}


def group_violations(
    code: int, genes: Iterable[int], datacenter_of: Sequence[int]
) -> int:
    """Violation count of one group whose members sit on ``genes``.

    ``genes`` are the members' server ids (unplaced ones included and
    skipped); ``datacenter_of`` maps a server id to its datacenter.
    """
    placed = [s for s in genes if s != UNPLACED]
    if len(placed) <= 1:
        return 0
    if code == SAME_SERVER:
        return len(set(placed)) - 1
    if code == DIFFERENT_SERVERS:
        return len(placed) - len(set(placed))
    datacenters = {datacenter_of[s] for s in placed}
    if code == SAME_DATACENTER:
        return len(datacenters) - 1
    return len(placed) - len(datacenters)
