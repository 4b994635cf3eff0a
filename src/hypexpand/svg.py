"""Minimal deterministic SVG writer for disk figures.

The viewport is the fixed viewBox "-1.05 -1.05 2.1 2.1" with a single y-flip
so that mathematical coordinates render upright; the mapping is affine only.
Float formatting is pinned so identical scenes produce identical bytes.
"""

from __future__ import annotations

HEADER = ('<?xml version="1.0" encoding="UTF-8"?>\n'
          '<svg xmlns="http://www.w3.org/2000/svg" '
          'viewBox="-1.05 -1.05 2.1 2.1" width="640" height="640">\n'
          '<g transform="scale(1,-1)">\n')
FOOTER = "</g>\n</svg>\n"


def _fmt(v):
    return f"{v:.10g}"


class SvgCanvas:
    def __init__(self):
        self.elements = []

    def circle(self, cx, cy, radius, stroke="#888888", width=0.004):
        self.elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
            f'fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def polyline(self, points, stroke="#000000", width=0.006, dash=None):
        # points is an (n, 2) array: one '%.10g' template per point writes what _fmt writes
        coords = " ".join(["%.10g,%.10g"] * len(points)) % tuple(points.ravel().tolist())
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"{dash_attr}/>')

    def dot(self, x, y, radius, fill="#000000"):
        self.elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{fill}"/>')

    def render(self) -> str:
        return HEADER + "\n".join(self.elements) + "\n" + FOOTER
