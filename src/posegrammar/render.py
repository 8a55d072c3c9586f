"""Deterministic SVG rendering of parse graphs."""

from __future__ import annotations

import math
from html import escape

from .errors import ValidationError
from .grammar import AOGrammar, ParseGraph


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(pg: ParseGraph, grammar: AOGrammar) -> str:
    """Render sticks, keypoints, and an attribute legend as an SVG string.

    Output is a pure function of the inputs: fixed element order, fixed
    float formatting, no timestamps.  A parse with no states is refused,
    and so is one whose padded extent on an axis leaves the float range.
    """
    if not pg.states:
        raise ValidationError("parse graph has no states to render")
    terminals = set(grammar.terminal_ids)
    xs = [st.x for st in pg.states.values()]
    ys = [st.y for st in pg.states.values()]
    pad = 40.0
    x0, y0 = min(xs) - pad, min(ys) - pad
    width, height = max(xs) + pad - x0, max(ys) + pad + 16.0 * (len(pg.attribute_assignment) + 2) - y0
    for axis, span, values in (("x", width, xs), ("y", height, ys)):
        if not math.isfinite(span):
            raise ValidationError(
                f"parse graph spans {min(values)!r} to {max(values)!r} in {axis}, "
                "too wide to render: its padded extent leaves the float range"
            )

    lines = []
    for parent, child in grammar.dg_edges:
        if parent not in pg.states or child not in pg.states:
            continue
        a, b = pg.states[parent], pg.states[child]
        lines.append(
            f'<line class="stick" x1="{_fmt(a.x)}" y1="{_fmt(a.y)}" '
            f'x2="{_fmt(b.x)}" y2="{_fmt(b.y)}" stroke="#2266cc" stroke-width="3"/>'
        )

    markers = []
    for part in grammar.part_ids:
        st = pg.states.get(part)
        if st is None:
            continue
        if part in terminals:
            markers.append(
                f'<circle class="keypoint" cx="{_fmt(st.x)}" cy="{_fmt(st.y)}" r="3.5" '
                f'fill="#cc3322"><title>{escape(part, quote=False)}</title></circle>'
            )
        else:
            markers.append(
                f'<circle class="center" cx="{_fmt(st.x)}" cy="{_fmt(st.y)}" r="5" '
                f'fill="none" stroke="#888888" stroke-width="1.5">'
                f"<title>{escape(part, quote=False)}</title></circle>"
            )

    legend = [
        f'<text class="legend" x="{_fmt(x0 + 6)}" y="{_fmt(max(ys) + 18)}" '
        f'font-family="monospace" font-size="12">score {pg.total_score:.4f}</text>'
    ]
    for i, (attr, value) in enumerate(sorted(pg.attribute_assignment.items())):
        legend.append(
            f'<text class="legend" x="{_fmt(x0 + 6)}" y="{_fmt(max(ys) + 34 + 16 * i)}" '
            f'font-family="monospace" font-size="12">{escape(attr, quote=False)}: {escape(value, quote=False)}</text>'
        )

    body = "\n".join(["<g>"] + lines + markers + legend + ["</g>"])
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}">\n'
        f"{body}\n</svg>\n"
    )


def save_svg(pg: ParseGraph, grammar: AOGrammar, path: str) -> None:
    """Write :func:`render_svg`'s text to ``path``, rendered before the file
    is opened, so a refused parse leaves no file behind."""
    text = render_svg(pg, grammar)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
