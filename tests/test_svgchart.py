import math
import re

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
