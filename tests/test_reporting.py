import math
import random
import re

import pytest

from nsprofile.reporting import AxesSpec, emit_csv, emit_svg, read_csv


def test_emit_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv({"t": [1.0], "v": [0.5]}, str(path))
    assert path.read_bytes() == b"t,v\n1,0.5\n"


def test_emit_csv_rejects_column_mismatch(tmp_path):
    with pytest.raises(ValueError):
        emit_csv({"t": [1.0, 2.0], "v": [0.5]}, str(tmp_path / "x.csv"))


def test_emit_csv_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        emit_csv({"t": [math.inf]}, str(tmp_path / "x.csv"))


def test_csv_round_trip_bit_exact(tmp_path):
    rng = random.Random(123)
    columns = {"a": [], "b": [], "c": []}
    for _ in range(200):
        columns["a"].append(rng.uniform(-1e300, 1e300))
        columns["b"].append(rng.uniform(-1, 1) * 10 ** rng.randint(-300, 300))
        columns["c"].append(float(rng.randint(-10**15, 10**15)))
    path = tmp_path / "rt.csv"
    emit_csv(columns, str(path))
    back = read_csv(str(path))
    assert back == columns


def test_read_csv_empty_is_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,v\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_csv(str(path))


def test_read_csv_rejects_ragged_rows(tmp_path):
    # a longer row was silently cut to the header's width
    for text in ("t,v\n1,2\n3,4,5\n", "t,v\n1,2\n3\n"):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="fields"):
            read_csv(str(path))


def test_read_csv_rejects_repeated_column(tmp_path):
    # a dict of columns would keep only the last "v"
    path = tmp_path / "dup.csv"
    path.write_text("t,v,v\n1,2,3\n2,3,4\n")
    with pytest.raises(ValueError, match="'v'"):
        read_csv(str(path))


def _polyline_points(svg_text: str) -> list[list[tuple[float, float]]]:
    out = []
    for m in re.finditer(r'<polyline[^>]*points="([^"]+)"', svg_text):
        pts = [tuple(map(float, p.split(","))) for p in m.group(1).split()]
        out.append(pts)
    return out


def test_svg_power_law_collinear(tmp_path):
    xs = [10.0 ** k for k in range(6)]
    ys = [3.0 * x ** -1.5 for x in xs]
    path = tmp_path / "p.svg"
    emit_svg({"t": xs, "pl": ys}, ["pl"], AxesSpec(), str(path))
    pts = _polyline_points(path.read_text())[-1]
    (x0, y0), (x1, y1) = pts[0], pts[-1]
    for x, y in pts:
        # perpendicular distance to the chord through the endpoints
        num = abs((y1 - y0) * x - (x1 - x0) * y + x1 * y0 - y1 * x0)
        assert num / math.hypot(y1 - y0, x1 - x0) <= 0.5


def test_svg_rejects_nonpositive_on_log_axis(tmp_path):
    with pytest.raises(ValueError):
        emit_svg({"t": [1.0, 2.0], "z": [0.0, 1.0]}, ["z"], AxesSpec(), str(tmp_path / "z.svg"))


def test_svg_two_series_two_polylines_and_legend(tmp_path):
    columns = {"t": [1.0, 10.0, 100.0], "alpha": [1.0, 0.1, 0.01], "beta": [2.0, 0.2, 0.02]}
    path = tmp_path / "two.svg"
    emit_svg(columns, ["alpha", "beta"], AxesSpec(), str(path))
    text = path.read_text()
    assert len(_polyline_points(text)) == 2
    assert ">alpha</text>" in text and ">beta</text>" in text


def test_svg_guide_line_present(tmp_path):
    columns = {"t": [1.0, 10.0, 100.0], "v": [1.0, 0.4, 0.1]}
    path = tmp_path / "g.svg"
    emit_svg(columns, ["v"], AxesSpec(guide_slope=-0.5), str(path))
    assert "stroke-dasharray" in path.read_text()


def test_svg_deterministic(tmp_path):
    columns = {"t": [1.0, 2.0, 4.0], "v": [3.0, 1.5, 0.75]}
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(columns, ["v"], AxesSpec(title="same"), str(p1))
    emit_svg(columns, ["v"], AxesSpec(title="same"), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
