"""Compare benchmark results of two commits.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``result-*.json`` files that ``run.py`` wrote to
``perfbench/out/`` on one commit.  For every workload and metric it prints
the median and quartiles of each side.  Runs of the same workload and seed
must have been made on identical inputs; when their input hashes differ
the comparison is reported as invalid and the exit code is 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> dict:
    runs = {}
    for path in sorted(Path(directory).glob("result-*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not doc.get("smoke"):
            runs[(doc["workload"], doc["trace"], doc["environment"]["seed"])] = doc
    return runs


def summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    invalid = [
        key for key in base.keys() & change.keys() if base[key]["input_hash"] != change[key]["input_hash"]
    ]
    for workload, trace, seed in sorted(invalid):
        print(f"INVALID: {workload} trace={trace} seed={seed}: input hashes differ")
    groups = sorted({key[:2] for key in base.keys() | change.keys()})
    for workload, trace in groups:
        print(f"# {workload} trace={trace}")
        sides = [[d for k, d in runs.items() if k[:2] == (workload, trace)] for runs in (base, change)]
        names = sorted({m for docs in sides for d in docs for m in d["metrics"]})
        for name in names:
            cells = []
            for docs in sides:
                vals = [d["metrics"][name]["value"] for d in docs if name in d["metrics"]]
                cells.append(summary(vals) if vals else "-")
            print(f"  {name:34s} base {cells[0]:40s} change {cells[1]}")
        failed = [sum(d["failed"] for d in docs) for docs in sides]
        print(f"  {'failed items':34s} base {failed[0]:<40d} change {failed[1]}")
    return 1 if invalid else 0


if __name__ == "__main__":
    sys.exit(main())
