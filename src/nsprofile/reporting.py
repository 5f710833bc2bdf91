"""Deterministic CSV and SVG emission for verification runs.

CSV files are RFC-4180 style with a header row, '.' decimal separator, LF
line endings and 17 significant digits, so every finite double round-trips
bit-exactly.  SVG plots are generated directly (no plotting dependency):
log-log or semi-log axes, one polyline per y column, a legend, and an optional
reference-slope guide line.  Both emitters format numbers with fixed rules so
identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import record

# escapes XML element text; importing xml.sax.saxutils would load urllib and ssl
_XML = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def format_value(x: float) -> str:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"CSV values must be real numbers, got {x!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"CSV values must be finite, got {x!r}")
    return format(x, ".17g")


def emit_csv(columns: dict[str, Sequence[float]], path: str) -> None:
    """Write equal-length columns as CSV; the header is the dict's key order."""
    lengths = {len(col) for col in columns.values()}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"need equal-length, nonempty columns, got lengths {lengths}")
    lines = [",".join(columns)]
    lines.extend(",".join(map(format_value, row)) for row in zip(*columns.values()))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> dict[str, list[float]]:
    """Parse a CSV produced by :func:`emit_csv` back into float columns."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().split("\n") if ln != ""]
    if len(lines) < 2:
        raise ValueError("no data rows")
    names = lines[0].split(",")
    repeated = [name for name in names if names.count(name) > 1]
    if repeated:
        raise ValueError(f"header repeats column {repeated[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    for k, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise ValueError(f"data row {k} has {len(row)} fields, the header {len(names)}")
    return {name: [float(row[j]) for row in rows] for j, name in enumerate(names)}


@record
class AxesSpec:
    x_label: str = "t"
    y_label: str = "value"
    x_log: bool = True
    y_log: bool = True
    title: str = ""
    guide_slope: float | None = None  # reference power law through the first point


_W, _H = 720, 540
_ML, _MR, _MT, _MB = 70, 30, 40, 50


def _axis_transform(values, log: bool, name: str):
    vals = [float(v) for v in values]
    if log:
        if any(v <= 0 for v in vals):
            raise ValueError(f"nonpositive value on log {name} axis")
        vals = [math.log10(v) for v in vals]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad, (math.log10 if log else float)


def _ticks(lo: float, hi: float, log: bool) -> list[tuple[float, str]]:
    if log:
        return [(e, f"1e{int(e)}") for e in range(math.ceil(lo), math.floor(hi) + 1)]
    step = 10 ** math.floor(math.log10(max(hi - lo, 1e-12)))
    if (hi - lo) / step > 6:
        step *= 2
    first = math.ceil(lo / step)
    return [(k * step, f"{k * step:g}") for k in range(first, math.floor(hi / step) + 1)]


def emit_svg(columns: dict[str, Sequence[float]], ys: list[str], axes: AxesSpec,
             path: str) -> None:
    """Standalone SVG line plot of the ``ys`` columns against the column named
    by ``axes.x_label``, with legend and optional slope guide."""
    if not ys:
        raise ValueError("need at least one y column")
    xs = columns[axes.x_label]
    xlo, xhi, fx = _axis_transform(xs, axes.x_log, "x")
    ylo, yhi, fy = _axis_transform([v for y in ys for v in columns[y]], axes.y_log, "y")

    def px(x: float) -> float:
        return _ML + (fx(x) - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (fy(y) - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if axes.title:
        parts.append(f'<text x="{_W / 2:.2f}" y="24" text-anchor="middle" font-size="15" '
                     f'font-family="sans-serif">{axes.title.translate(_XML)}</text>')
    for tick, label in _ticks(xlo, xhi, axes.x_log):
        x = _ML + (tick - xlo) / (xhi - xlo) * (_W - _ML - _MR)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" '
                     'stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{label}</text>')
    for tick, label in _ticks(ylo, yhi, axes.y_log):
        y = _H - _MB - (tick - ylo) / (yhi - ylo) * (_H - _MT - _MB)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{label}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 10}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif">{axes.x_label.translate(_XML)}</text>')
    parts.append(f'<text x="18" y="{(_MT + _H - _MB) / 2:.2f}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif" '
                 f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.2f})">'
                 f'{axes.y_label.translate(_XML)}</text>')

    if axes.guide_slope is not None:
        if not (axes.x_log and axes.y_log):
            raise ValueError("slope guide needs log-log axes")
        x0, x1 = xs[0], xs[-1]
        y0 = columns[ys[0]][0]
        y1 = y0 * (x1 / x0) ** axes.guide_slope
        parts.append(f'<polyline fill="none" stroke="#999" stroke-dasharray="6 4" '
                     f'stroke-width="1.2" points="{px(x0):.2f},{py(y0):.2f} '
                     f'{px(x1):.2f},{py(y1):.2f}"/>')

    for i, label in enumerate(ys):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, columns[label]))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
                     f'points="{pts}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" x2="{_W - _MR - 105}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 100}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label.translate(_XML)}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
