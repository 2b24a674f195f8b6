"""Compare two sets of benchmark results.

Run from the repository root::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (copies of
``perfbench/results/*.json``).  For every workload, mode and metric the
script prints the median over seeds of each side and the change, and
marks an end-to-end metric that got worse by more than its bound.  It
refuses (exit code 2) to compare result sets whose environment blocks
differ: core count, kernel backend and library versions all move the
numbers.  Exit code 1 means some metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import catalog


def refuse(message: str) -> None:
    sys.stderr.write(f"compare: {message}\n")
    raise SystemExit(2)


def load(directory: Path) -> tuple[list[dict], dict]:
    """Every result in ``directory`` and the environment block they share."""
    results = [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace[01].json"))]
    if not results:
        refuse(f"no result files in {directory}")
    blocks = {json.dumps(r["environment"], sort_keys=True) for r in results}
    if len(blocks) != 1:
        refuse(f"{directory} mixes environments: {sorted(blocks)}")
    return results, results[0]["environment"]


def medians(results: list[dict]) -> dict[tuple, float]:
    values: dict[tuple, list[float]] = defaultdict(list)
    for r in results:
        for name, entry in r["metrics"].items():
            values[(r["workload"], r["trace"], name)].append(entry["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, base_env = load(Path(argv[0]))
    new, new_env = load(Path(argv[1]))
    if base_env != new_env:
        refuse(f"environments differ:\n  {base_env}\n  {new_env}")
    before, after = medians(base), medians(new)
    worse = False
    for key in sorted(before.keys() & after.keys()):
        workload, trace, name = key
        old, now = before[key], after[key]
        change = (now - old) / old if old else 0.0
        spec = catalog.END_TO_END.get(name) if trace == 0 else None
        flag = ""
        if spec is not None:
            regressed = change > spec["bound"] if spec["better"] == "lower" else -change > spec["bound"]
            flag = "  WORSE THAN BOUND" if regressed else ""
            worse |= regressed
        print(f"{workload:22s} trace={trace} {name:30s} {old:12.6g} -> {now:12.6g} ({change:+.1%}){flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
