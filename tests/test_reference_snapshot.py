"""Every CSV cell and verdict JSON value of the benchmark workloads, and of
an off-axis velocity-moment case, against the committed snapshots.

``bench/reference/`` holds the CSVs of the two benchmark workloads: the 8
subcommands at n = 2 on 1 thread, and the 7 quadrature verdicts at n = 3 on
2 threads; ``tests/reference/`` holds the verdict JSONs of the same runs, and
both the CSVs and the JSONs of the 7 verdicts at n = 3 on 2 threads with the
velocity moment P0 = (0.03, 0.04, 0), the one case whose high-zone data
energy E_h(0) carries a |P0|^2 term.
The bench gate allows each quadrature cell 2 ``rel_tol`` of drift; here each
run must exit 0 and every cell must match to 1e-12 relative, so a change that
moves a result by more than round-off fails Tier-1.  A verdict JSON must have
the same keys, the same bools, ints and strings, and its numbers must match
to 1e-12 relative.  The oracle's ``rel_err`` and ``max_rel_err`` are skipped,
as in the gate: they are checked only through the verdict's ``pass``.
"""

import json
from pathlib import Path

import pytest

from nsprofile.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference"
JSON_REFERENCE = ROOT / "tests" / "reference"
VERDICTS = ("profile-error", "density-profile-error", "rate", "sandwich", "lemma31",
            "highfreq", "bounds")
WORKLOADS = {"verdicts-n2": ({}, 1, ("oracle-check",) + VERDICTS),
             "verdicts-n3-t2": ({"params": {"n": 3}}, 2, VERDICTS),
             "verdicts-n3-offaxis": ({"params": {"n": 3},
                                      "data": {"amplitude_v": [0.03, 0.04, 0.0]}}, 2, VERDICTS)}
CSV_REFERENCE = {"verdicts-n2": REFERENCE, "verdicts-n3-t2": REFERENCE,
                 "verdicts-n3-offaxis": JSON_REFERENCE}
CASES = [(workload, sub) for workload, (_, _, subs) in WORKLOADS.items() for sub in subs]
IDS = [f"{w}-{s}" for w, s in CASES]
SKIPPED_COLUMNS = {"rel_err"}
SKIPPED_METRICS = {"max_rel_err"}
REL = 1e-12


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    """The output directory of one run per case, shared by both tests."""
    done = {}

    def run(workload: str, sub: str) -> Path:
        if (workload, sub) not in done:
            config, threads, _ = WORKLOADS[workload]
            tmp = tmp_path_factory.mktemp(f"{workload}-{sub}")
            path = tmp / "cfg.json"
            path.write_text(json.dumps(config))
            out = tmp / "out"
            code = main([sub, "--config", str(path), "--out", str(out),
                         "--threads", str(threads)])
            assert code == 0
            done[workload, sub] = out
        return done[workload, sub]

    return run


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in path.read_text().split("\n") if ln]
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


@pytest.mark.parametrize("workload,sub", CASES, ids=IDS)
def test_csv_cells_match_bench_reference(run_output, workload, sub):
    out = run_output(workload, sub)
    header, rows = _read_csv(out / f"{sub}.csv")
    ref_header, ref_rows = _read_csv(CSV_REFERENCE[workload] / workload / f"{sub}.csv")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for column, value, expected in zip(header, row, ref_row):
            if column not in SKIPPED_COLUMNS:
                assert abs(value - expected) <= REL * abs(expected), (i, column, value, expected)


def _assert_same(value, expected, where: str) -> None:
    assert type(value) is type(expected), (where, value, expected)
    if isinstance(expected, dict):
        assert value.keys() == expected.keys(), (where, sorted(value), sorted(expected))
        for key in expected:
            if key not in SKIPPED_METRICS:
                _assert_same(value[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(value) == len(expected), (where, value, expected)
        for i, (v, e) in enumerate(zip(value, expected)):
            _assert_same(v, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert abs(value - expected) <= REL * abs(expected), (where, value, expected)
    else:  # bool, int, str, None: exact
        assert value == expected, (where, value, expected)


@pytest.mark.parametrize("workload,sub", CASES, ids=IDS)
def test_verdict_json_matches_reference(run_output, workload, sub):
    out = run_output(workload, sub)
    verdict = json.loads((out / f"{sub}.json").read_text())
    expected = json.loads((JSON_REFERENCE / workload / f"{sub}.json").read_text())
    _assert_same(verdict, expected, sub)
