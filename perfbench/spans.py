"""Span recording around each layer's public entry points.

The benchmark does not edit the program to trace it: :class:`SpanRecorder`
replaces a layer's entry point (a method, or a module-level function
where its caller looks it up) with a wrapper that records one span
per call — name, start, end, parent span and run id — into a list kept in
memory, and restores the originals on :meth:`SpanRecorder.uninstall`.
Spans are written out once, at the end of the run.

A layer's self time is its spans' durations minus the part covered by
their direct child spans.  Worker processes forked while the wrappers are
installed inherit them; the recorder turns itself off in the child, so a
worker's calls cost one attribute check and leave no spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable

import numpy as np

# Span record layout (a list, mutated in place when the span closes).
NAME, START, END, PARENT, RUN, ATTRS = range(6)


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording -------------------------------------------------------
    def open(self, name: str, attrs: dict | None = None) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, attrs])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one)."""
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`open`/:meth:`close`."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping --------------------------------------------------------
    def wrap(
        self,
        target: str,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``target``.

        ``target`` is ``"package.module:function"`` (patched where the
        caller looks it up) or ``"package.module:Class.method"``.
        ``before(args, kwargs)`` may return a dict of span attributes;
        ``after(args, kwargs, result, span)`` may add to them.  Both run
        outside the timed interval.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            attrs = before(args, kwargs) if before is not None else None
            index = recorder.open(name, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(args, kwargs, result, recorder.spans[index])
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        selfs = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                selfs[s[PARENT]] -= s[END] - s[START]
        return selfs

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "run": s[RUN],
                            **(s[ATTRS] or {}),
                        }
                    )
                )
                handle.write("\n")


# ----------------------------------------------------------------------
# The layer entry points and the per-layer metrics derived from them
# ----------------------------------------------------------------------
_REPAIR_SPANS = ("tabu.repair", "tabu.repair_genome")


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""

    def top_level_repair() -> bool:
        return recorder.parent_name() not in _REPAIR_SPANS

    def repair_batch_before(args, kwargs):
        repairer, population = args[0], np.asarray(args[1])
        if not top_level_repair():
            return None
        if population.ndim == 1:
            infeasible = np.array([not repairer.constraints.is_feasible(population)])
        else:
            infeasible = ~repairer.constraints.batch_feasible(population)
        return {"top": True, "rows": int(infeasible.size), "infeasible": infeasible}

    def repair_batch_after(args, kwargs, result, span):
        attrs = span[ATTRS]
        if attrs is None:
            return
        repairer, infeasible = args[0], attrs.pop("infeasible")
        result = np.asarray(result)
        if result.ndim == 1:
            fixed = np.array([repairer.constraints.is_feasible(result)])
        else:
            fixed = repairer.constraints.batch_feasible(result)
        attrs["infeasible_in"] = int(infeasible.sum())
        attrs["fixed"] = int((fixed & infeasible).sum())

    def rows_of(position: int):
        return lambda args, kwargs: {"rows": int(np.shape(args[position])[0])}

    wrap = recorder.wrap
    wrap("repro.tabu.repair:TabuRepair.__call__", "tabu.repair", repair_batch_before, repair_batch_after)
    wrap("repro.tabu.repair:TabuRepair.repair_genome", "tabu.repair_genome", repair_batch_before, repair_batch_after)
    wrap("repro.tabu.neighborhood:NeighborFinder.find", "tabu.neighbor.find")
    wrap(
        "repro.objectives.evaluator:PopulationEvaluator.evaluate_population",
        "objectives.evaluate",
        rows_of(1),
    )
    wrap("repro.ea.nsga_base:sbx_crossover", "ea.variation")
    wrap("repro.ea.nsga_base:polynomial_mutation", "ea.variation")
    wrap("repro.ea.nsga_base:fast_non_dominated_sort", "ea.sort")
    wrap("repro.ea.reference_points:ReferencePointNiching.select", "ea.niching")
    wrap("repro.ea.nsga3:binary_tournament", "ea.mating")
    wrap("repro.ea.nsga3:random_mating_pool", "ea.mating")
    # ProblemCache compiles through the constructor, not the
    # ``compile`` classmethod, so the constructor is the entry point.
    wrap("repro.engine.compiled:CompiledProblem.__init__", "engine.compile")
    wrap("repro.engine.parallel:ParallelEngine.repair_rows", "parallel.dispatch", rows_of(4))
    wrap("repro.scheduler.window:TimeWindowScheduler.run_window", "scheduler.window")
    wrap("repro.scheduler.window:TimeWindowScheduler.reoptimize", "scheduler.reoptimize")
    wrap("repro.hybrid.nsga_allocators:_NSGAAllocatorBase.allocate", "hybrid.allocate")
    wrap("repro.hybrid.nsga_allocators:_NSGAAllocatorBase.start", "hybrid.start")
    wrap("repro.allocator:AnytimeRun.finish", "hybrid.finish")
    wrap("repro.workloads.generator:ScenarioGenerator.generate", "workloads.generate")
    wrap("repro.workloads.scenarios:compile_scenario", "workloads.generate")


def layer_metrics(recorder: SpanRecorder, snapshot) -> dict[str, float]:
    """Per-layer metrics from the recorded spans plus registry counts.

    ``snapshot`` is the :class:`~repro.telemetry.MetricsSnapshot` of the
    traced operations' registry.
    """
    spans = recorder.spans
    selfs = recorder.self_times()
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    rows: dict[str, int] = defaultdict(int)
    repair = {"calls": 0, "rows": 0, "busy": 0.0, "infeasible": 0, "fixed": 0}
    for s, own in zip(spans, selfs):
        name, duration, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        calls[name] += 1
        busy[name] += duration
        self_s[name] += own
        rows[name] += attrs.get("rows", 0)
        if attrs.get("top"):
            repair["calls"] += 1
            repair["rows"] += attrs["rows"]
            repair["busy"] += duration
            repair["infeasible"] += attrs["infeasible_in"]
            repair["fixed"] += attrs["fixed"]

    hits = snapshot.counter_total("engine.cache.hits")
    lookups = hits + snapshot.counter_total("engine.cache.misses")
    worker_busy = sum(
        summary.total
        for key, summary in snapshot.histograms.items()
        if key.split("{")[0] == "engine.parallel.task_seconds"
    )
    return {
        "tabu.repair.calls": repair["calls"],
        "tabu.repair.rows_in": repair["rows"],
        "tabu.repair.busy_s": repair["busy"],
        "tabu.repair.self_s": sum(self_s[n] for n in _REPAIR_SPANS),
        "tabu.repair.moves": snapshot.counter_total("tabu.repair.moves"),
        "tabu.repair.fixed_ratio": repair["fixed"] / repair["infeasible"] if repair["infeasible"] else 0.0,
        "tabu.neighbor.find_calls": calls["tabu.neighbor.find"],
        "tabu.neighbor.find_busy_s": busy["tabu.neighbor.find"],
        "objectives.evaluate.calls": calls["objectives.evaluate"],
        "objectives.evaluate.rows": rows["objectives.evaluate"],
        "objectives.evaluate.busy_s": busy["objectives.evaluate"],
        "ea.variation.calls": calls["ea.variation"],
        "ea.variation.busy_s": busy["ea.variation"],
        "ea.sort.busy_s": busy["ea.sort"],
        "ea.niching.busy_s": busy["ea.niching"],
        "ea.mating.busy_s": busy["ea.mating"],
        "engine.compile.calls": calls["engine.compile"],
        "engine.compile.busy_s": busy["engine.compile"],
        "engine.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "parallel.dispatch.calls": calls["parallel.dispatch"],
        "parallel.dispatch.rows": rows["parallel.dispatch"],
        "parallel.dispatch.wait_s": busy["parallel.dispatch"],
        "parallel.worker.busy_s": worker_busy,
        "parallel.fallbacks": snapshot.counter_total("engine.parallel.fallbacks"),
        "scheduler.window.calls": calls["scheduler.window"],
        "scheduler.window.self_s": self_s["scheduler.window"],
        "scheduler.reoptimize.calls": calls["scheduler.reoptimize"],
        "scheduler.reoptimize.busy_s": busy["scheduler.reoptimize"],
        "hybrid.start_s": busy["hybrid.start"],
        "hybrid.finish_s": busy["hybrid.finish"],
        "workloads.generate_s": busy["workloads.generate"],
    }
