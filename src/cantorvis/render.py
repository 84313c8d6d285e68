"""Static SVG emission for interval sets (horizontal bar charts)."""

from __future__ import annotations

from typing import Sequence

from .exact import IntervalSet, format_rational

_BAR_FILL = "#2b6cb0"
_AXIS = "#444444"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_interval_sets(rows: Sequence[tuple[str, IntervalSet]], *, width: int = 900,
                      row_height: int = 36, margin: int = 70,
                      title: str = "") -> str:
    """Render labeled interval sets as one bar row each; degenerate parts get
    a minimum visible width. Output is deterministic for identical input."""
    hulls = [s.hull() for _, s in rows if not s.is_empty]
    height = 2 * margin + row_height * max(1, len(rows))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">']
    if title:
        out.append(f'<text x="{margin}" y="24" font-size="15" '
                   f'font-family="monospace">{_escape(title)}</text>')
    if not hulls:
        out.append(f'<text x="{margin}" y="{margin}" font-size="13" '
                   f'font-family="monospace">(empty)</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"
    lo = min(h.lo for h in hulls)
    hi = max(h.hi for h in hulls)
    span = hi - lo if hi > lo else 1

    def x_of(v) -> float:
        return margin + float((v - lo) / span) * (width - 2 * margin)

    axis_y = height - margin // 2
    out.append(f'<line x1="{margin}" y1="{axis_y}" x2="{width - margin}" '
               f'y2="{axis_y}" stroke="{_AXIS}" stroke-width="1"/>')
    for v in (lo, hi):
        out.append(f'<text x="{x_of(v):.2f}" y="{axis_y + 16}" font-size="11" '
                   f'font-family="monospace" text-anchor="middle">'
                   f'{format_rational(v)}</text>')
    for idx, (label, s) in enumerate(rows):
        y = margin + idx * row_height
        out.append(f'<text x="8" y="{y + 14}" font-size="12" '
                   f'font-family="monospace">{_escape(label)}</text>')
        for part in s.parts:
            x0 = x_of(part.lo)
            w = max(x_of(part.hi) - x0, 1.0)
            out.append(f'<rect x="{x0:.2f}" y="{y}" width="{w:.2f}" '
                       f'height="{row_height - 16}" fill="{_BAR_FILL}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
