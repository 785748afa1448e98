"""The trace CSV, written and read, and static SVG rendering of risk traces.

This is a CLI concern only: the math modules never import it.  Two CSV
shapes are read: the trace schema that ``write_trace_csv`` writes (one
series per clip, probability vs. time) and a wide layout whose first column
is the time axis and every remaining column is one model variant.
"""

from __future__ import annotations

import csv
import math
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .errors import ValidationError, replace_on_success
from .numerics import sigmoid

TRACE_HEADER = ["clip_id", "snippet_index", "t_start_s", "logit", "prob", "attention"]

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 24, 28, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# a legend's text: the escapes of html.escape(s, quote=False), and U+FFFD for
# each character that no XML 1.0 document may hold
_LEGEND_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", **{
    chr(c): "\ufffd" for c in (*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF)}})

Series = Dict[str, Tuple[List[float], List[float]]]


def _csv_cell(text: str) -> str:
    """``text`` as one field of a row that ``csv.writer`` writes: quoted, its
    quotes doubled, when it holds a delimiter, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace_csv(path, chunks: Iterable) -> int:
    """Write ``TRACE_HEADER`` and one row per snippet of ``forward_chunks``'
    ``(bags, stack)`` chunks to ``path``; returns the number of clips."""
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(TRACE_HEADER)
        for bags, fw in chunks:
            n += len(bags)
            rows = zip([c for bag in bags for c in [_csv_cell(bag.clip_id)] * bag.size],
                       [i for bag in bags for i in range(bag.size)],
                       np.concatenate([bag.start_times for bag in bags]).tolist(),
                       fw.logits.tolist(), sigmoid(fw.logits).tolist(), fw.attn.tolist())
            # csv.writer's bytes at half its cost: str() of a float is its repr
            fh.writelines([f"{c},{i},{t!r},{z!r},{p!r},{a!r}\r\n"
                           for c, i, t, z, p, a in rows])
    return n


def _utf8_lines(lines, path) -> Iterator[str]:
    for lineno, line in enumerate(lines, start=1):
        try:
            yield line.decode()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: line {lineno} is not UTF-8: {exc.reason} "
                                  f"at byte {exc.start} of the line") from None


def parse_trace_csv(path) -> Series:
    """Read either CSV shape into {series label: (times, values)}.

    The file is UTF-8, every time and value is a finite number and a wide
    header names each series once; an error names the file and the line
    (a file line, not a CSV record: a quoted cell may span lines).
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)  # as newline="" text splits
    reader = csv.reader(_utf8_lines(lines, path))
    try:
        header, header_line = next(reader, None), reader.line_num
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise ValidationError(f"{path}: empty trace CSV")
    if not rows:
        raise ValidationError(f"{path}: trace CSV has a header but no data rows")

    trace = header == TRACE_HEADER
    if not trace and len(header) < 2:
        raise ValidationError(f"{path}: need a time column plus one series")
    series: Series = {} if trace else {name: ([], []) for name in header[1:]}
    if not trace and len(series) < len(header) - 1:
        repeated = next(n for n in header[1:] if header[1:].count(n) > 1)
        raise ValidationError(
            f"{path}: series {repeated!r} repeated in the header at line {header_line}")
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValidationError(f"{path}: malformed row at line {lineno}")
        try:  # (series, time, value) points: one per trace row, one per column
            points = ([(row[0], float(row[2]), float(row[4]))] if trace else
                      [(name, float(row[0]), float(v))
                       for name, v in zip(header[1:], row[1:])])
        except ValueError:
            raise ValidationError(
                f"{path}: non-numeric value at line {lineno}") from None
        for name, t, value in points:
            if not (math.isfinite(t) and math.isfinite(value)):
                raise ValidationError(f"{path}: non-finite value at line {lineno}")
            xs, ys = series.setdefault(name, ([], []))
            xs.append(t)
            ys.append(value)
    return series


def _scale(lo: float, hi: float) -> Tuple[float, float]:
    if hi == lo:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_series_svg(series: Series) -> str:
    """Self-contained SVG: one polyline plus circle markers per series
    (``parse_trace_csv`` gives at least one point)."""
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys]
    x0, x1 = _scale(min(all_x), max(all_x))
    y0, y1 = _scale(min(all_y), max(all_y))
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y1 - y) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" '
        f'x2="{_WIDTH - _MARGIN_R}" y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<text x="{_MARGIN_L}" y="{_HEIGHT - 12}" font-size="12">{x0:.3g}</text>',
        f'<text x="{_WIDTH - _MARGIN_R - 30}" y="{_HEIGHT - 12}" '
        f'font-size="12">{x1:.3g}</text>',
        f'<text x="6" y="{_HEIGHT - _MARGIN_B}" font-size="12">{y0:.3g}</text>',
        f'<text x="6" y="{_MARGIN_T + 10}" font-size="12">{y1:.3g}</text>',
        f'<text x="{_WIDTH // 2 - 20}" y="{_HEIGHT - 8}" font-size="12">time (s)</text>',
    ]
    for si, (name, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[si % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle class="marker" cx="{px(x):.2f}" '
                         f'cy="{py(y):.2f}" r="3" fill="{color}"/>')
        parts.append(f'<text class="legend" x="{_WIDTH - _MARGIN_R - 150}" '
                     f'y="{_MARGIN_T + 16 * (si + 1)}" font-size="12" '
                     f'fill="{color}">{name.translate(_LEGEND_TEXT)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_trace_plot(csv_path, out_path) -> int:
    """Validate and plot a trace CSV; returns the number of series.

    The image replaces ``out_path`` only once it is whole, so a bad input
    never leaves a partial image behind.  The input CSV is read only.
    """
    series = parse_trace_csv(csv_path)
    svg = render_series_svg(series)
    with replace_on_success(out_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return len(series)
