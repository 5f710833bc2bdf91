"""Correctness gate for one benchmark pass.

A subcommand run counts as correct when it exits 0, its verdict JSON says
``"pass": true``, and every column of its CSV matches the reference snapshot
in ``reference/<workload>/`` within the tolerance that the quadrature
``rel_tol`` allows.

Tolerances: each zone norm and each 1-d oscillatory integral is accepted by
the program once its error estimate is within ``rel_tol`` of its value, so a
correct program and the reference may each be ``rel_tol`` from the truth; a
column computed directly from such a value may differ by ``2 * rel_tol``
relative.  Columns derived further scale that by their sensitivity (a square
root halves it; the high-frequency bound ``E0 exp(1 - t/T0)`` amplifies the
error of ``T0`` by ``t/T0``).  Closed-form columns (``bound_*``) involve no
quadrature and must agree to round-off; time and radius grids must agree
exactly; the oracle's ``rel_err`` is gated only through its verdict.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXACT_COLUMNS = {"t", "r"}
VERDICT_ONLY_COLUMNS = {"rel_err"}
ROUNDOFF = 1e-12
_SQRT_COLUMNS = {"velocity_norm", "normalized"}


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    # parsed here, not with nsprofile.reporting, so the gate does not rely on
    # the code it checks
    lines = [ln for ln in Path(path).read_text().split("\n") if ln]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def column_tolerance(column: str, t: float, rel_tol: float,
                     komornik_t0: float | None) -> float:
    """Relative tolerance of one CSV cell (see the module docstring)."""
    if column in EXACT_COLUMNS:
        return 0.0
    if column.startswith("bound_"):
        return ROUNDOFF
    if column in _SQRT_COLUMNS:
        return rel_tol
    if column == "exp_bound":
        # E0 carries 2 rel_tol, T0 (a ratio of trapezoid sums) 4 rel_tol
        return 2 * rel_tol * (1 + 2 * t / komornik_t0)
    return 2 * rel_tol


def compare_csv(got: tuple[list[str], list[list[float]]],
                ref: tuple[list[str], list[list[float]]],
                rel_tol: float, komornik_t0: float | None = None) -> list[str]:
    """Problems found comparing a CSV (header, rows) to its reference; [] if none."""
    header, rows = got
    ref_header, ref_rows = ref
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != reference {len(ref_rows)}"]
    problems = []
    t_col = header.index("t") if "t" in header else None
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        t = ref_row[t_col] if t_col is not None else 0.0
        for column, value, expected in zip(header, row, ref_row):
            if column in VERDICT_ONLY_COLUMNS:
                continue
            tol = column_tolerance(column, t, rel_tol, komornik_t0)
            if not (math.isfinite(value) and abs(value - expected) <= tol * abs(expected)):
                problems.append(f"row {i} {column}: {value!r} vs reference {expected!r} "
                                f"(rel tol {tol:.3g})")
    return problems


def check_run(subcommand: str, exit_code: int | None, out_dir: Path, ref_dir: Path,
              rel_tol: float) -> list[str]:
    """Problems with one subcommand run of a pass; [] if it is correct."""
    if exit_code != 0:
        return [f"{subcommand}: exit code {exit_code}"]
    try:
        verdict = json.loads((out_dir / f"{subcommand}.json").read_text())
        got = read_csv(out_dir / f"{subcommand}.csv")
        ref = read_csv(ref_dir / f"{subcommand}.csv")
    except (OSError, ValueError) as exc:
        return [f"{subcommand}: unreadable output: {exc}"]
    if verdict.get("pass") is not True:
        return [f"{subcommand}: verdict pass is {verdict.get('pass')!r}"]
    t0 = verdict.get("metrics", {}).get("komornik_t0")
    return [f"{subcommand}: {p}" for p in compare_csv(got, ref, rel_tol, t0)]
