import math
import re

import numpy as np
import pytest

from tats import ConfigError
from tats.svgchart import line_chart


def test_chart_contains_polylines_and_labels():
    svg = line_chart(
        "forecast vs actual",
        [("actual", [0, 1, 2], [5.0, 6.0, 5.5]), ("model", [0, 1, 2], [5.2, 5.9, 5.6])],
        x_label="step",
        y_label="value",
    )
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "forecast vs actual" in svg
    assert "actual" in svg and "model" in svg
    assert "step" in svg and "value" in svg


def test_chart_escapes_markup():
    svg = line_chart("a < b & c", [("s<1>", [0, 1], [0.0, 1.0])])
    assert "a &lt; b &amp; c" in svg
    assert "s&lt;1&gt;" in svg


def test_chart_handles_constant_series():
    svg = line_chart("flat", [("s", [0, 1, 2], [3.0, 3.0, 3.0])])
    assert "<polyline" in svg
    assert "NaN" not in svg


def test_chart_rejects_bad_input():
    with pytest.raises(ConfigError):
        line_chart("empty", [])
    with pytest.raises(ConfigError):
        line_chart("ragged", [("s", [0, 1], [1.0])])
    with pytest.raises(ConfigError):
        line_chart("hollow", [("s", [], [])])


@pytest.mark.parametrize("x", [1e20, 1e300, -1.7e308, 1.7976931348623157e308])
def test_chart_widens_a_huge_single_value(x):
    # x + 1.0 rounds back to x here, so the axis spans x to 0 instead
    svg = line_chart("one alpha", [("s", [x], [2.0]), ("t", [x, x], [1.0, 3.0])])
    assert "nan" not in svg.lower() and "inf" not in svg.lower()
    points = [float(v) for p in re.findall(r'points="([^"]*)"', svg) for v in re.split("[ ,]", p)]
    assert all(math.isfinite(v) for v in points)


def test_chart_keeps_the_unit_width_where_it_shows():
    # below 2**53 a single x spans x to x + 1, with the point on the left edge
    svg = line_chart("flat", [("s", [3.0, 3.0], [5.0, 6.0])])
    assert [f">{v}</text>" in svg for v in ("3", "3.25", "3.5", "3.75", "4")] == [True] * 5
    for x in (-(2.0**53) + 1, 2.0**53 - 1):
        svg = line_chart("flat", [("s", [x, x], [5.0, 6.0])])
        assert '<polyline points="64.00,388.00 64.00,44.00"' in svg


# line_chart against the per-point f-string rendering it replaced: whole documents, byte for byte


def _reference_axis(values):
    lo, hi = min(values), max(values)
    if hi != lo:
        return lo, hi
    return (lo, lo + 1.0) if lo + 1.0 != lo else (min(lo, 0.0), max(lo, 0.0))


def _reference_line_chart(title, series, x_label="", y_label="", width=760, height=440):
    """line_chart as it rendered one point at a time, kept as the oracle of its bytes."""
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

    def esc(text):
        return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")

    margin_left, margin_top = 64, 44
    plot_w, plot_h = width - margin_left - 20, height - margin_top - 52
    x_lo, x_hi = _reference_axis([v for _, xs, _ in series for v in xs])
    y_lo, y_hi = _reference_axis([v for _, _, ys in series for v in ys])

    def sx(v):
        return margin_left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return margin_top + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{esc(title)}</text>',
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444"/>',
    ]
    for i in range(5):
        frac = i / 4
        xv, yv = x_lo + frac * (x_hi - x_lo), y_lo + frac * (y_hi - y_lo)
        px, py = sx(xv), sy(yv)
        parts += [
            f'<line x1="{px:.1f}" y1="{margin_top + plot_h}" x2="{px:.1f}" '
            f'y2="{margin_top + plot_h + 5}" stroke="#444"/>',
            f'<text x="{px:.1f}" y="{margin_top + plot_h + 18}" text-anchor="middle">{xv:.6g}</text>',
            f'<line x1="{margin_left - 5}" y1="{py:.1f}" x2="{margin_left}" y2="{py:.1f}" stroke="#444"/>',
            f'<text x="{margin_left - 8}" y="{py + 4:.1f}" text-anchor="end">{yv:.6g}</text>',
        ]
    if x_label:
        parts.append(f'<text x="{margin_left + plot_w / 2:.1f}" y="{height - 12}" '
                     f'text-anchor="middle">{esc(x_label)}</text>')
    if y_label:
        cy = margin_top + plot_h / 2
        parts.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {cy:.1f})">{esc(y_label)}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        lx, ly = margin_left + plot_w - 150, margin_top + 16 + 16 * idx
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}">{esc(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _parity_cases():
    rng = np.random.default_rng(2024)
    walk = np.cumsum(rng.standard_normal((3, 400)), axis=1) + 1300.0
    t = np.arange(900.0, 1300.0)
    scales = rng.standard_normal(60) * 10.0 ** rng.integers(-300, 301, 60)
    return {
        # three numpy series read as numpy scalars, and as Python floats
        "walk-numpy": [(name, list(t), list(ys)) for name, ys in zip(("actual", "base", "adjusted"), walk)],
        "walk-floats": [(name, t.tolist(), ys.tolist()) for name, ys in zip(("actual", "base", "adjusted"), walk)],
        "signed-zeros": [("s", [-0.0, 0.0, 1.0, 2.0], [0.0, -0.0, -1.0, 1.0]),
                         ("t", [0.0, -0.0], [-0.0, -0.0])],
        "all-negative-zero": [("s", [-0.0, -0.0], [-0.0, -0.0])],
        "huge-and-tiny": [("s", list(range(6)), [1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.0]),
                          ("t", list(range(60)), scales.tolist())],
        "tiny-only": [("s", [1e-300, 2e-300, 3e-300], [-5e-324, 1e-310, 2.5e-308])],
        "overflowing-span": [("s", [-1.7e308, 1.7e308, 0.0], [1.7e308, -1.7e308, 1.0])],
        "int-x": [("s", list(range(-20, 31)), walk[0, :51].tolist()), ("t", [3, 7], [1300, 1301])],
        "single-point": [("s", [7.0], [-3.5])],
        "single-huge-point": [("s", [2.0**60], [-(2.0**60)])],
        "unequal-lengths": [("adjusted", [0.01, 0.1, 0.5, 1.0, 5.0, 20.0], walk[1, :6].tolist()),
                            ("base", [0.01, 20.0], [walk[2, 0]] * 2),
                            ("third", [1.0], [walk[0, 9]])],
    }


@pytest.mark.parametrize("case", list(_parity_cases()))
def test_chart_matches_per_point_rendering(case):
    series = _parity_cases()[case]
    for labels in ({}, {"x_label": "t", "y_label": "gold <oz>"}):
        assert line_chart(f"case {case}", series, **labels) == _reference_line_chart(f"case {case}", series, **labels)
