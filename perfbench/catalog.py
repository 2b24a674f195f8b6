"""What the benchmark measures, and why.

Every metric the benchmark can emit is declared here once, with its
unit, its direction and — for the per-layer metrics — the end-to-end
metric and workload it should move (and the workloads it should leave
alone).  ``BENCHMARK.json`` lists the same names; the self-test checks
that the two agree, so a later change cites a metric by name and finds
its prediction here.
"""

from __future__ import annotations

#: The metrics a user of the allocator sees, emitted by untraced runs
#: (``--trace 0``).  Every workload reports every one of them:
#: ``solve_s`` is the time of one solve — one ``allocate`` driven
#: through ``start()``/``step()``/``finish()`` on the instance
#: workloads, one whole stream replay on the stream workload.  Both
#: timings are scaled to the reference host speed (``calibration.py``);
#: the raw wall times are printed next to them.
END_TO_END: dict[str, dict] = {
    "setup_s": {
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "what": "median over the run's set-ups of instance or stream "
        "generation plus allocator construction (plus the worker-pool "
        "start on the _w2 workload)",
    },
    "solve_s": {
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "what": "mean time of one solve over the workload's input set, "
        "median over the passes made within --seconds",
    },
    "provider_cost": {
        "unit": "cost",
        "better": "lower",
        "bound": 0.1,
        "what": "mean provider cost (usage + operating, Eq. 22) of the "
        "committed plans",
    },
    "peak_rss_mb": {
        "unit": "MB",
        "better": "lower",
        "bound": 0.1,
        "what": "peak resident set size of the benchmark process",
    },
}

#: The other end-to-end quantities.  They are zero on some workloads (a
#: hybrid plan has no violations, only the stream migrates), so they
#: cannot carry a relative bound; they are printed by every run, stored
#: in the results file and emitted as per-layer metrics of the traced
#: run, where they are measured untraced.
QUALITY: dict[str, dict] = {
    "time_to_feasible_s": {
        "unit": "s",
        "better": "lower",
        "what": "solve start to the first generation holding a "
        "zero-violation, fully placed individual (hybrids; 0 elsewhere)",
    },
    "hypervolume": {
        "unit": "1",
        "better": "higher",
        "what": "feasible final front against the workload's fixed "
        "reference point (hybrids; 0 elsewhere)",
    },
    "rejection_rate": {"unit": "ratio", "better": "lower", "what": "rejected requests / requests"},
    "violations": {
        "unit": "count",
        "better": "lower",
        "what": "constraint violations of the committed plans; non-zero "
        "only for the unmodified NSGA-III",
    },
    "sla_violations": {"unit": "count", "better": "lower", "what": "stream only"},
    "migration_moves": {"unit": "count", "better": "lower", "what": "stream only"},
    "failed_ratio": {
        "unit": "ratio",
        "better": "lower",
        "what": "failed operations / attempted operations",
    },
}

#: Unscaled timings, printed and stored in the results file next to the
#: scaled end-to-end ones.
RAW: dict[str, dict] = {
    "setup_wall_s": {"unit": "s", "better": "lower", "what": "setup_s before scaling"},
    "solve_wall_s": {"unit": "s", "better": "lower", "what": "mean solve wall time before scaling"},
    "host_scale": {
        "unit": "1",
        "better": "higher",
        "what": "scaled over wall solve time: the run's factor to the reference host speed",
    },
}

_SOLVE_HYBRID = "solve_s and time_to_feasible_s on hybrid_200x400"
_NOT_NSGA3 = ["nsga3_800x1600"]
_NOT_HYBRID = ["hybrid_200x400"]
_SERIAL = ["hybrid_200x400", "nsga3_800x1600", "stream_hetero_fleet"]
_SINGLE = ["hybrid_200x400", "hybrid_200x400_w2", "nsga3_800x1600"]


def _layer(unit: str, better: str, moves: str, steady_on: list[str]) -> dict:
    return {"unit": unit, "better": better, "moves": moves, "steady_on": steady_on}


#: Per-layer metrics of the traced run (``--trace 1``).  ``moves``
#: names the end-to-end metric and workload a change to the layer
#: should move; ``steady_on`` the workloads where it should not.
PER_LAYER: dict[str, dict] = {
    # repro.tabu
    "tabu.repair.calls": _layer("count", "lower", _SOLVE_HYBRID + "; solve_s on stream_hetero_fleet", _NOT_NSGA3),
    "tabu.repair.rows_in": _layer("count", "lower", _SOLVE_HYBRID + "; solve_s on stream_hetero_fleet", _NOT_NSGA3),
    "tabu.repair.busy_s": _layer("s", "lower", _SOLVE_HYBRID + "; solve_s on stream_hetero_fleet", _NOT_NSGA3),
    "tabu.repair.self_s": _layer("s", "lower", _SOLVE_HYBRID + "; solve_s on stream_hetero_fleet", _NOT_NSGA3),
    "tabu.repair.moves": _layer("count", "lower", _SOLVE_HYBRID + "; solve_s on stream_hetero_fleet", _NOT_NSGA3),
    "tabu.repair.fixed_ratio": _layer(
        "ratio", "higher", _SOLVE_HYBRID + "; hypervolume on hybrid_200x400", _NOT_NSGA3
    ),
    "tabu.neighbor.find_calls": _layer("count", "lower", _SOLVE_HYBRID + "; solve_s on stream_hetero_fleet", _NOT_NSGA3),
    "tabu.neighbor.find_busy_s": _layer("s", "lower", _SOLVE_HYBRID + "; solve_s on stream_hetero_fleet", _NOT_NSGA3),
    # repro.objectives
    "objectives.evaluate.calls": _layer("count", "lower", "solve_s on nsga3_800x1600", _NOT_HYBRID),
    "objectives.evaluate.rows": _layer("count", "lower", "solve_s on nsga3_800x1600", _NOT_HYBRID),
    "objectives.evaluate.busy_s": _layer("s", "lower", "solve_s on nsga3_800x1600", _NOT_HYBRID),
    # repro.ea
    "ea.variation.calls": _layer("count", "lower", "solve_s on nsga3_800x1600", _NOT_HYBRID),
    "ea.variation.busy_s": _layer("s", "lower", "solve_s on nsga3_800x1600", _NOT_HYBRID),
    "ea.sort.busy_s": _layer("s", "lower", "solve_s on nsga3_800x1600 and stream_hetero_fleet", _NOT_HYBRID),
    "ea.niching.busy_s": _layer("s", "lower", "solve_s on nsga3_800x1600 and stream_hetero_fleet", _NOT_HYBRID),
    "ea.mating.busy_s": _layer("s", "lower", "solve_s on nsga3_800x1600 and stream_hetero_fleet", _NOT_HYBRID),
    # repro.engine (compile, cache)
    "engine.compile.calls": _layer("count", "lower", "solve_s and setup_s on stream_hetero_fleet", _SINGLE),
    "engine.compile.busy_s": _layer("s", "lower", "solve_s and setup_s on stream_hetero_fleet", _SINGLE),
    "engine.cache.hit_ratio": _layer("ratio", "higher", "solve_s and setup_s on stream_hetero_fleet", _SINGLE),
    # repro.engine.parallel
    "parallel.dispatch.calls": _layer("count", "lower", "solve_s on hybrid_200x400_w2", _SERIAL),
    "parallel.dispatch.rows": _layer("count", "lower", "solve_s on hybrid_200x400_w2", _SERIAL),
    "parallel.dispatch.wait_s": _layer("s", "lower", "solve_s on hybrid_200x400_w2", _SERIAL),
    "parallel.worker.busy_s": _layer("s", "lower", "solve_s on hybrid_200x400_w2", _SERIAL),
    "parallel.fallbacks": _layer("count", "lower", "failed_ratio on hybrid_200x400_w2", _SERIAL),
    # repro.scheduler
    "scheduler.window.calls": _layer("count", "lower", "solve_s on stream_hetero_fleet", _SINGLE),
    "scheduler.window.self_s": _layer("s", "lower", "solve_s on stream_hetero_fleet", _SINGLE),
    "scheduler.reoptimize.calls": _layer(
        "count", "lower", "solve_s, migration_moves and provider_cost on stream_hetero_fleet", _SINGLE
    ),
    "scheduler.reoptimize.busy_s": _layer(
        "s", "lower", "solve_s, migration_moves and provider_cost on stream_hetero_fleet", _SINGLE
    ),
    # repro.hybrid / allocator
    "hybrid.start_s": _layer("s", "lower", "time_to_feasible_s and solve_s on the hybrids", _NOT_NSGA3),
    "hybrid.finish_s": _layer("s", "lower", "time_to_feasible_s and solve_s on the hybrids", _NOT_NSGA3),
    # repro.workloads
    "workloads.generate_s": _layer("s", "lower", "setup_s on every workload", []),
    # harness
    "trace.solve_s": _layer("s", "lower", "the base the busy_s shares are taken against", []),
    "trace.overhead_ratio": _layer("ratio", "lower", "nothing: traced solve_s / untraced solve_s", []),
}
PER_LAYER.update(
    {name: _layer(spec["unit"], spec["better"], "itself (measured untraced)", []) for name, spec in QUALITY.items()}
)

#: Why each workload is in the benchmark.  The one-line form is the
#: ``why`` of ``BENCHMARK.json``.
WHY: dict[str, str] = {
    "hybrid_200x400": "the paper's NSGA-III + tabu hybrid; repair is ~98% of its time, "
    "so repair changes show here and evaluation changes must not",
    "nsga3_800x1600": "bare NSGA-III at the paper's largest size; no repair, so it isolates "
    "evaluation, variation and selection",
    "stream_hetero_fleet": "hetero_fleet stream: many small repair batches against committed "
    "usage, plus reoptimization, compile cache and migration",
    "hybrid_200x400_w2": "the hybrid on 2 workers: the only workload where parallel dispatch "
    "does the work; its plan must equal the serial one",
}

#: Fixed hypervolume reference points (provider cost, QoS, migration)
#: per hybrid workload.  A reference taken from the run's own front
#: moves with the front it scores, so these are constants chosen above
#: every front objective seen on the 200x400 instances.
HV_REFERENCE: dict[str, tuple[float, float, float]] = {
    "hybrid_200x400": (2200.0, 700.0, 1.0),
    "hybrid_200x400_w2": (2200.0, 700.0, 1.0),
}


#: Seconds one run measures (``--seconds``).
RUN_SECONDS = 25


def manifest() -> dict:
    """The content of ``BENCHMARK.json``, built from this catalog."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [
            {"name": name, "unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for name, m in END_TO_END.items()
        ],
        "per_layer": [{"name": name, "unit": m["unit"], "better": m["better"]} for name, m in PER_LAYER.items()],
    }


if __name__ == "__main__":
    import json
    from pathlib import Path

    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {target}")
