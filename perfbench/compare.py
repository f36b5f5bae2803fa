"""Compare benchmark results of two checkouts, seed by seed.

    python3 perfbench/compare.py PARENT/.bench_out CHANGE/.bench_out

Each directory holds the ``result-<workload>-seed<n>-trace0.json`` files
that ``run.py`` writes.  For every workload and end-to-end metric this
prints both sides' median and quartiles, the change of the median as a
share of the parent's, the parent's own quartile spread, the bound from
BENCHMARK.json, and how many same-seed pairs the change wins.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory: str) -> dict:
    """(workload, metric) -> {seed: value} from one side's result files."""
    out: dict = defaultdict(dict)
    for path in Path(directory).glob("result-*-trace0.json"):
        doc = json.loads(path.read_text())
        meta = doc["meta"]
        for name, cell in doc["metrics"].items():
            out[(meta["workload"], name)][meta["seed"]] = cell["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(parent_dir: str, change_dir: str) -> None:
    parent, change = load(parent_dir), load(change_dir)
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    print(f"{'workload':12s} {'metric':12s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'change':>8s} {'spread':>7s} {'bound':>6s} wins")
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        spec = metrics.get(name)
        if spec is None:
            continue
        a, b = parent[key], change[key]
        qa, qb = quartiles(sorted(a.values())), quartiles(sorted(b.values()))
        sign = 1.0 if spec["better"] == "lower" else -1.0
        delta = sign * (qb[1] - qa[1]) / qa[1]        # > 0 means worse
        seeds = a.keys() & b.keys()
        wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
        print(f"{workload:12s} {name:12s} "
              f"{qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} {qb[0]:10.4g} {qb[1]:10.4g} "
              f"{qb[2]:10.4g} {delta:+8.1%} {(qa[2] - qa[0]) / qa[1]:7.1%} "
              f"{spec['bound']:6.0%} {wins}/{len(seeds)}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
