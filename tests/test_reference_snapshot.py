"""Every CSV cell of the benchmark workloads against the committed snapshot.

``bench/reference/`` holds the CSVs of the two benchmark workloads: the 8
subcommands at n = 2 on 1 thread, and the 7 quadrature verdicts at n = 3 on
2 threads.  The bench gate allows each quadrature cell 2 ``rel_tol`` of drift;
here each run must exit 0 and every cell must match to 1e-12 relative, so a
change that moves a result by more than round-off fails Tier-1.  The oracle's
``rel_err`` is skipped, as in the gate: it is checked only through its verdict.
"""

import json
from pathlib import Path

import pytest

from nsprofile.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
VERDICTS = ("profile-error", "density-profile-error", "rate", "sandwich", "lemma31",
            "highfreq", "bounds")
WORKLOADS = {"verdicts-n2": ({}, 1, ("oracle-check",) + VERDICTS),
             "verdicts-n3-t2": ({"params": {"n": 3}}, 2, VERDICTS)}
CASES = [(workload, sub) for workload, (_, _, subs) in WORKLOADS.items() for sub in subs]
SKIPPED_COLUMNS = {"rel_err"}
REL = 1e-12


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in path.read_text().split("\n") if ln]
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


@pytest.mark.parametrize("workload,sub", CASES, ids=[f"{w}-{s}" for w, s in CASES])
def test_csv_cells_match_bench_reference(tmp_path, workload, sub):
    config, threads, _ = WORKLOADS[workload]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([sub, "--config", str(path), "--out", str(out), "--threads", str(threads)]) == 0

    header, rows = _read_csv(out / f"{sub}.csv")
    ref_header, ref_rows = _read_csv(REFERENCE / workload / f"{sub}.csv")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for column, value, expected in zip(header, row, ref_row):
            if column not in SKIPPED_COLUMNS:
                assert abs(value - expected) <= REL * abs(expected), (i, column, value, expected)
