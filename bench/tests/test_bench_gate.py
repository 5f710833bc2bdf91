"""The correctness gate accepts series within tolerance and rejects the rest."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gate import compare_csv, read_csv  # noqa: E402

REFERENCE = Path(__file__).resolve().parents[1] / "reference"
REL_TOL = 1e-6


def _perturbed(table, row, column, factor):
    header, rows = table
    rows = [list(r) for r in rows]
    rows[row][header.index(column)] *= factor
    return header, rows


def test_reference_matches_itself():
    for path in sorted(REFERENCE.glob("*/*.csv")):
        table = read_csv(path)
        assert compare_csv(table, table, REL_TOL, komornik_t0=4.77) == [], path


def test_one_value_beyond_tolerance_is_rejected():
    ref = read_csv(REFERENCE / "verdicts-n2" / "profile-error.csv")
    bad = _perturbed(ref, 5, "remainder_norm_sq", 1 + 3 * REL_TOL)
    problems = compare_csv(bad, ref, REL_TOL)
    assert len(problems) == 1 and "row 5 remainder_norm_sq" in problems[0]


def test_value_within_tolerance_is_accepted():
    ref = read_csv(REFERENCE / "verdicts-n2" / "profile-error.csv")
    ok = _perturbed(ref, 5, "remainder_norm_sq", 1 + 1.5 * REL_TOL)
    assert compare_csv(ok, ref, REL_TOL) == []


def test_square_root_and_grid_columns_are_tighter():
    ref = read_csv(REFERENCE / "verdicts-n2" / "rate.csv")
    assert compare_csv(_perturbed(ref, 0, "velocity_norm", 1 + 1.5 * REL_TOL),
                       ref, REL_TOL)
    assert compare_csv(_perturbed(ref, 0, "t", 1 + 1e-15), ref, REL_TOL)


def test_oracle_rel_err_is_left_to_the_verdict():
    ref = read_csv(REFERENCE / "verdicts-n2" / "oracle-check.csv")
    assert compare_csv(_perturbed(ref, 3, "rel_err", 10.0), ref, REL_TOL) == []
    assert compare_csv(_perturbed(ref, 3, "r", 1 + 1e-15), ref, REL_TOL)
