"""Fast self-test of the benchmark harness, at a toy size.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` is the manifest the catalog describes,
that every toy workload emits every declared metric with its unit in
both modes, and that an injected invariant failure trips
``failed_ratio``.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

run._import_program()

import catalog  # noqa: E402
import workloads  # noqa: E402
from repro import NSGA3Allocator, NSGA3TabuAllocator, ScenarioSpec  # noqa: E402
from repro.allocator import AnytimeRun  # noqa: E402

_TOY = ScenarioSpec(servers=12, vms=24, datacenters=2, tightness=0.5)
TOYS = [
    workloads.Workload("toy_hybrid", NSGA3TabuAllocator, 10, 30, instances=2, traced=1, spec=_TOY),
    workloads.Workload("toy_nsga3", NSGA3Allocator, 10, 30, instances=2, traced=1, spec=_TOY),
    workloads.Workload(
        "toy_stream",
        NSGA3TabuAllocator,
        10,
        30,
        instances=1,
        traced=1,
        stream=dataclasses.replace(workloads.WORKLOADS["stream_hetero_fleet"].stream, servers=10, horizon=3),
    ),
    workloads.Workload("toy_w2", NSGA3TabuAllocator, 10, 30, instances=2, traced=1, spec=_TOY, n_workers=2),
]


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.stderr.write(f"selftest FAILED: {message}\n")
        raise SystemExit(1)


def check_manifest() -> dict:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(manifest == catalog.manifest(), "BENCHMARK.json differs from catalog.manifest()")
    check(set(catalog.WHY) == set(workloads.WORKLOADS), "catalog and workloads name different workloads")
    return manifest


def check_metrics(manifest: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        for toy in TOYS:
            result = run.measure(toy, seed=3, seconds=0.0, trace=trace)
            emitted, shown = run.emit(result, trace)
            label = f"{toy.name} trace={int(trace)}"
            check(result["failed"] == 0, f"{label} failed: {result['problems']}")
            check(set(emitted) == set(declared), f"{label} emitted {sorted(set(emitted) ^ set(declared))} wrongly")
            for name, entry in emitted.items():
                check(entry["unit"] == declared[name], f"{label}: {name} has unit {entry['unit']}")
                check(isinstance(entry["value"], float), f"{label}: {name} is not a number")
            for name in list(catalog.QUALITY) + list(catalog.RAW):
                check(name in shown, f"{label}: {name} not printed")


def check_injected_failure() -> None:
    """A plan that breaks the capacity invariant must count as failed."""
    finish = AnytimeRun.finish

    def broken_finish(self):
        outcome = finish(self)
        return dataclasses.replace(
            outcome,
            assignment=outcome.assignment * 0,
            accepted=outcome.accepted | True,
        )

    AnytimeRun.finish = broken_finish
    try:
        result = run.measure(TOYS[0], seed=3, seconds=0.0, trace=False)
    finally:
        AnytimeRun.finish = finish
    check(result["failed"] == result["attempted"] > 0, f"injected failure not counted: {result['failed']}")
    check(result["quality"]["failed_ratio"] == 1.0, "failed_ratio did not trip")
    check(any("capacity" in p for p in result["problems"]), f"unexpected problems: {result['problems']}")


def main() -> int:
    try:
        manifest = check_manifest()
        check_metrics(manifest)
        check_injected_failure()
    finally:
        run._stop_resource_tracker()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
