"""End-to-end and per-layer benchmark of the allocation stack.

Run from the repository root::

    python3 perfbench/run.py --workload hybrid_200x400 --seed 1 --seconds 25 --trace 0

``--trace 0`` solves the workload's inputs untraced, in passes, until
``--seconds`` is used, and reports the end-to-end metrics, with timings
scaled to a reference host speed (see ``calibration.py``).  ``--trace 1``
solves the first inputs once untraced and once with a span recorded
around every layer entry point (see ``spans.py``), and reports the
per-layer metrics.  Every metric is printed as ``name value unit``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment block and (traced) the spans, is written under
``perfbench/results/``.

The benchmark builds nothing: it imports the package from ``src/`` of
the checkout it runs in, and exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def _import_program():
    """Put the checkout's ``src/`` and root on the path; fail if absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no src/repro under {ROOT}; nothing to benchmark\n")
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def environment() -> dict:
    """The repository's bench provenance block (cores, kernel, versions)."""
    from benchmarks.conftest import bench_environment

    return bench_environment()


def _stop_resource_tracker() -> None:
    """End the shared-memory tracker process multiprocessing started."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quality(outcomes) -> dict:
    """Mean of each output quality over the operations that produced it."""
    import catalog

    names = ["provider_cost"] + [k for k in catalog.QUALITY if k != "failed_ratio"]
    return {k: _mean(o.quality[k] for o in outcomes if o.quality) for k in names}


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return every metric it produced."""
    import workloads

    reference = workloads.reference_digest(workload, seed)
    outcomes: list = []
    problems: list[str] = []

    def record(index: int, outcome, expected: str | None) -> None:
        outcomes.append(outcome)
        if expected is not None and outcome.digest != expected:
            outcome.problems.append("output differs from the reference solve")
        problems.extend(f"input {index}: {p}" for p in outcome.problems)

    if not trace:
        passes: list[list] = []
        started = time.perf_counter()
        while True:
            current = []
            for index in range(workload.instances):
                outcome = workloads.run_operation(workload, seed, index)
                # Every pass must reproduce the first one byte for byte.
                expected = passes[0][index].digest if passes else (reference if index == 0 else None)
                record(index, outcome, expected)
                current.append(outcome)
            passes.append(current)
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) > seconds:
                break
        quality = _quality(passes[0])
        metrics = {
            "setup_s": statistics.median(o.setup_s for o in outcomes),
            "solve_s": statistics.median(_mean(o.solve_s for o in p) for p in passes),
            "provider_cost": quality["provider_cost"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        import spans
        from repro.telemetry import MetricsSnapshot

        recorder = spans.SpanRecorder()
        untraced, traced = [], []
        for index in range(workload.traced):
            outcome = workloads.run_operation(workload, seed, index)
            record(index, outcome, reference if index == 0 else None)
            untraced.append(outcome)
            recorder.run_id = f"{workload.name}/seed{seed}/input{index}"
            spans.install_layers(recorder)
            try:
                outcome = workloads.run_operation(workload, seed, index, recorder)
            finally:
                recorder.uninstall()
            record(index, outcome, untraced[-1].digest)
            traced.append(outcome)
        quality = _quality(untraced)
        metrics = spans.layer_metrics(recorder, MetricsSnapshot.merge_all(o.snapshot for o in traced))
        metrics["trace.solve_s"] = sum(o.solve_wall_s for o in traced)
        metrics["trace.overhead_ratio"] = _ratio(sum(o.solve_s for o in traced), sum(o.solve_s for o in untraced))
        metrics.update(quality)
        RESULTS.mkdir(parents=True, exist_ok=True)
        recorder.write(RESULTS / f"{workload.name}-seed{seed}-spans.jsonl")

    failed = sum(1 for o in outcomes if o.problems)
    quality["failed_ratio"] = metrics["failed_ratio"] = failed / len(outcomes)
    # Raw wall times, for the table and the results file only.
    quality["setup_wall_s"] = statistics.median(o.setup_wall_s for o in outcomes)
    quality["solve_wall_s"] = _mean(o.solve_wall_s for o in outcomes)
    quality["host_scale"] = _ratio(sum(o.solve_s for o in outcomes), sum(o.solve_wall_s for o in outcomes))
    return {
        "metrics": metrics,
        "quality": quality,
        "attempted": len(outcomes),
        "failed": failed,
        "problems": problems,
        "operations": [
            {"setup_s": o.setup_s, "solve_s": o.solve_s, "solve_wall_s": o.solve_wall_s, "problems": o.problems}
            for o in outcomes
        ],
    }


def emit(result: dict, trace: bool) -> tuple[dict, dict]:
    """(metrics for the JSON line, every metric for the table), with units.

    The JSON line carries exactly the declared metrics of the mode:
    end-to-end untraced, per-layer traced.
    """
    import catalog

    declared = catalog.PER_LAYER if trace else catalog.END_TO_END
    emitted = {name: {"value": float(result["metrics"][name]), "unit": declared[name]["unit"]} for name in declared}
    shown = dict(emitted)
    for name, spec in {**catalog.QUALITY, **catalog.RAW}.items():
        shown.setdefault(name, {"value": float(result["quality"][name]), "unit": spec["unit"]})
    return emitted, shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()

    emitted, shown = emit(result, bool(args.trace))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, entry in shown.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": shown,
        "operations": result["operations"],
    }
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": emitted,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
