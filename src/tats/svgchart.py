"""Minimal standalone SVG line charts, no plotting dependency."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_WIDTH, _HEIGHT = 760, 440  # of every chart, in pixels


def _escape(text: str) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _axis(values: list[float]) -> tuple[float, float]:
    """The ends of an axis over values. A single value v spans v to v + 1,
    or v to 0 where v + 1 rounds back to v (|v| >= 2**53)."""
    lo, hi = min(values), max(values)
    if hi != lo:
        return lo, hi
    return (lo, lo + 1.0) if lo + 1.0 != lo else (min(lo, 0.0), max(lo, 0.0))


def line_chart(
    title: str,
    series: list[tuple[str, list[float], list[float]]],
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render labeled (x, y) polylines into an SVG document string."""
    if not series:
        raise ConfigError("a chart needs at least one series")
    for label, xs, ys in series:
        if len(xs) != len(ys) or not xs:
            raise ConfigError(f"series '{label}' must have matching non-empty x and y")
    margin_left, margin_right, margin_top, margin_bottom = 64, 20, 44, 52
    plot_w = _WIDTH - margin_left - margin_right
    plot_h = _HEIGHT - margin_top - margin_bottom
    x_lo, x_hi = _axis([v for _, xs, _ in series for v in xs])
    y_lo, y_hi = _axis([v for _, _, ys in series for v in ys])

    def sx(v: float) -> float:
        return margin_left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return margin_top + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>',
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444"/>',
    ]
    for i in range(5):
        xv, yv = x_lo + i / 4 * (x_hi - x_lo), y_lo + i / 4 * (y_hi - y_lo)
        px, py = sx(xv), sy(yv)
        parts += [
            f'<line x1="{px:.1f}" y1="{margin_top + plot_h}" x2="{px:.1f}" '
            f'y2="{margin_top + plot_h + 5}" stroke="#444"/>',
            f'<text x="{px:.1f}" y="{margin_top + plot_h + 18}" text-anchor="middle">{xv:.6g}</text>',
            f'<line x1="{margin_left - 5}" y1="{py:.1f}" x2="{margin_left}" y2="{py:.1f}" stroke="#444"/>',
            f'<text x="{margin_left - 8}" y="{py + 4:.1f}" text-anchor="end">{yv:.6g}</text>',
        ]
    if x_label:
        parts.append(
            f'<text x="{margin_left + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
            f'text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        cy = margin_top + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.1f})">{_escape(y_label)}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        # sx and sy on arrays round each operation once, as they do on floats
        xy = np.empty((len(xs), 2))
        with np.errstate(all="ignore"):
            xy[:, 0], xy[:, 1] = sx(np.array(xs, dtype=float)), sy(np.array(ys, dtype=float))
        points = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy.ravel().tolist())
        lx, ly = margin_left + plot_w - 150, margin_top + 16 + 16 * idx
        parts += [
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>',
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>',
            f'<text x="{lx + 28}" y="{ly}">{_escape(label)}</text>',
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
