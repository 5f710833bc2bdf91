"""Summarize repeated benchmark runs into one results file.

    python3 bench/summarize.py OUT.json LOG [LOG ...]

Each LOG is the standard output of one ``run_bench.py`` run.  For every
workload and metric, OUT.json gets the per-run values (each the median over
that run's passes), their median and quartiles as ``statistics.quantiles(n=4)``
gives them, the spread (q3 - q1) / median, and the run and pass counts, with
the machine the runs were made on.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run_bench import END_TO_END, PER_LAYER, summary


def _details(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line)["detail"] for line in fh if line.startswith('{"detail"')]


def summarize(paths: list[str]) -> dict:
    groups = defaultdict(list)
    machine = None
    for path in paths:
        for detail in _details(path):
            machine = machine or detail["machine"]
            groups[detail["workload"]].append(detail)
    workloads = {}
    for name, details in groups.items():
        entry = {"seconds": sorted({d["seconds"] for d in details})}
        for trace, section, units in ((0, "end_to_end", END_TO_END),
                                      (1, "per_layer", PER_LAYER)):
            runs = [d for d in details if d["trace"] == trace]
            if not runs:
                continue
            metrics = {}
            for key, unit in units.items():
                values = [statistics.median(d["samples"][key]) for d in runs
                          if d["samples"].get(key)]
                if not values:
                    continue
                s = summary(values)
                metrics[key] = {"unit": unit, **s,
                                "spread": (s["q3"] - s["q1"]) / s["median"]
                                if s["median"] else 0.0,
                                "runs": values}
            entry[section] = {"runs": len(runs), "seeds": [d["seed"] for d in runs],
                              "passes": sum(d["passes"] for d in runs),
                              "attempted": sum(d["attempted"] for d in runs),
                              "failed": sum(d["failed"] for d in runs),
                              "metrics": metrics}
        workloads[name] = entry
    return {"machine": machine, "workloads": workloads}


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    with open(sys.argv[1], "w") as fh:
        json.dump(summarize(sys.argv[2:]), fh, indent=1)
        fh.write("\n")
