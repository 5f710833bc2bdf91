"""Write the reference CSVs the correctness gate compares against.

    python3 bench/snapshot.py

Runs one untraced pass of every workload at seed 0 and keeps each
subcommand's CSV under ``bench/reference/<workload>/``.  Snapshot only a
commit whose outputs are known to be right: the gate then holds every later
commit to these series within the quadrature tolerance.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run_bench import REFERENCE, WORK, WORKLOADS, make_config, run_pass


def main() -> int:
    for name, workload in WORKLOADS.items():
        work = WORK / f"snapshot-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps(make_config(workload, 0)))
        result = run_pass(workload, config, work / "out", False, time.monotonic() + 600)
        target = REFERENCE / name
        target.mkdir(parents=True, exist_ok=True)
        for sub in workload.subcommands:
            verdict = json.loads((work / "out" / f"{sub}.json").read_text())
            if result["exit_codes"].get(sub) != 0 or verdict["pass"] is not True:
                sys.exit(f"{name}/{sub} did not pass; no reference written")
            shutil.copyfile(work / "out" / f"{sub}.csv", target / f"{sub}.csv")
        shutil.rmtree(work)
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
