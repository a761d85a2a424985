"""Deterministic CSV and SVG emission for experiment tables.

SVG plots are hand-assembled (axes, ticks, one polyline per series) so the
output bytes depend only on the data; query plots overlay the reference
error line ``pi / (2 (N - 1))``.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields

from .driver import hl_reference

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H, _MARGIN = 640, 440, 64


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """UTF-8 CSV, '.' decimals, header row, newline-terminated."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def rows_to_csv(path: str, rows) -> None:
    """CSV from a homogeneous list of dataclass rows."""
    header = [f.name for f in fields(rows[0])] if rows else []
    write_csv(path, header, [[getattr(r, name) for name in header] for r in rows])


def _ticks(lo: float, hi: float, log: bool):
    if log:
        first = math.floor(math.log10(lo))
        last = math.ceil(math.log10(hi))
        return [10.0 ** e for e in range(first, last + 1)]
    span = hi - lo or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    start = math.floor(lo / step)
    return [start * step + i * step for i in range(int(span / step) + 2)]


class _Axes:
    def __init__(self, xs, ys, logx, logy):
        self.logx, self.logy = logx, logy
        fx = math.log10 if logx else float
        fy = math.log10 if logy else float
        self.x0, self.x1 = fx(min(xs)), fx(max(xs))
        self.y0, self.y1 = fy(min(ys)), fy(max(ys))
        if self.x1 == self.x0:
            self.x1 += 1.0
        if self.y1 == self.y0:
            self.y1 += 1.0

    def px(self, x):
        v = math.log10(x) if self.logx else x
        return _MARGIN + (v - self.x0) / (self.x1 - self.x0) * (_W - 2 * _MARGIN)

    def py(self, y):
        v = math.log10(y) if self.logy else y
        return _H - _MARGIN - (v - self.y0) / (self.y1 - self.y0) * (_H - 2 * _MARGIN)


def _plottable(xs, ys, logx: bool, logy: bool) -> tuple[list, list]:
    pts = [(x, y) for x, y in zip(xs, ys) if (x > 0 or not logx) and (y > 0 or not logy)]
    return [x for x, _ in pts], [y for _, y in pts]


def render_svg(path: str, series, xlabel: str, ylabel: str,
               logx: bool = True, logy: bool = True,
               hl_line: bool = False) -> None:
    """Write one polyline per ``(label, xs, ys)`` series.

    With ``hl_line`` the reference curve ``pi/(2(N-1))`` spans the x-range.
    Points that a log axis cannot show (zero or negative) are left off the
    plot; the CSV keeps them.
    """
    series = [(label, *_plottable(xs, ys, logx, logy)) for label, xs, ys in series]
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if hl_line and xs_all:
        ys_all += [hl_reference(max(int(x), 2)) for x in (min(xs_all), max(xs_all))]
    if not xs_all:
        xs_all, ys_all = [1.0, 10.0], [1.0, 10.0]
    ax = _Axes(xs_all, ys_all, logx, logy)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
    ]
    for tx in _ticks(min(xs_all), max(xs_all), logx):
        if min(xs_all) <= tx <= max(xs_all):
            parts.append(f'<line x1="{ax.px(tx):.2f}" y1="{_H - _MARGIN}" '
                         f'x2="{ax.px(tx):.2f}" y2="{_H - _MARGIN + 6}" stroke="black"/>')
            parts.append(f'<text x="{ax.px(tx):.2f}" y="{_H - _MARGIN + 20}" '
                         f'font-size="11" text-anchor="middle">{tx:.6g}</text>')
    for ty in _ticks(min(ys_all), max(ys_all), logy):
        if min(ys_all) <= ty <= max(ys_all):
            parts.append(f'<line x1="{_MARGIN - 6}" y1="{ax.py(ty):.2f}" '
                         f'x2="{_MARGIN}" y2="{ax.py(ty):.2f}" stroke="black"/>')
            parts.append(f'<text x="{_MARGIN - 9}" y="{ax.py(ty):.2f}" font-size="11" '
                         f'text-anchor="end" dominant-baseline="middle">{ty:.6g}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 16}" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_H / 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_H / 2})">{ylabel}</text>')
    if hl_line and xs_all:
        pts = []
        lo, hi = min(xs_all), max(xs_all)
        for i in range(33):
            x = lo * (hi / lo) ** (i / 32.0) if logx else lo + (hi - lo) * i / 32.0
            if x > 1:
                pts.append(f"{ax.px(x):.2f},{ax.py(hl_reference(int(max(x, 2)))):.2f}")
        parts.append('<polyline fill="none" stroke="#888888" stroke-dasharray="6 4" '
                     f'points="{" ".join(pts)}"/>')
        parts.append(f'<text x="{_W - _MARGIN - 4}" y="{_MARGIN + 14}" font-size="11" '
                     f'text-anchor="end" fill="#888888">reference pi/(2(N-1))</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{ax.px(x):.2f},{ax.py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{ax.px(x):.2f}" cy="{ax.py(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN + 8}" y="{_MARGIN + 16 + 14 * i}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def render(rows, kind: str, output_dir: str) -> list[str]:
    """Emit ``<kind>.csv`` and ``<kind>.svg`` for an experiment table."""
    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, f"{kind}.csv")
    svg_path = os.path.join(output_dir, f"{kind}.svg")
    rows_to_csv(csv_path, rows)
    if kind in ("rmse_vs_queries", "rmse_vs_depth"):
        xf = (lambda r: r.n_queries) if kind == "rmse_vs_queries" else (lambda r: r.oracle_depth)
        series = {}
        for r in rows:
            series.setdefault((r.a, r.strategy), []).append((xf(r), r.rmse))
        packed = [(f"a={a:.6g} {strat}", [p[0] for p in pts], [p[1] for p in pts])
                  for (a, strat), pts in sorted(series.items())]
        render_svg(svg_path, packed, xlabel="oracle queries N" if kind == "rmse_vs_queries"
                   else "oracle depth", ylabel="RMSE",
                   hl_line=(kind == "rmse_vs_queries"))
    elif kind == "bias_sweep":
        ks = [r.k for r in rows]
        render_svg(svg_path, [("max |bias|, X parity", ks, [r.beta_plus for r in rows]),
                              ("max |bias|, rotated parity", ks, [r.beta_i for r in rows])],
                   xlabel="step k", ylabel="probability bias", logx=False, logy=True)
    elif kind == "tl_curve":
        render_svg(svg_path, [("minimal query length", [r.t for r in rows],
                               [float(r.l_min) for r in rows])],
                   xlabel="strength T", ylabel="query length L", logx=False, logy=False)
    else:
        render_svg(svg_path, [], xlabel="", ylabel="")
    return [csv_path, svg_path]
