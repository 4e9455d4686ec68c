import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

import wordperim as wp
from wordperim import svgplot


def cy_values(svg):
    return [float(v) for v in re.findall(r'cy="([-\d.]+)"', svg)]


def test_pmf_plot_uniform():
    svg = svgplot.plot_gap_pmf(wp.Model.uniform(6))
    assert svg.count("<circle") == 6  # u = 0 .. k-1
    assert svg.count("<polyline") >= 1
    ys = cy_values(svg)
    # f(1) = 10/36 is the maximum; f is decreasing from u=1 on (higher y pixel = smaller value)
    assert ys[1] == min(ys)
    assert ys[1] < ys[2] < ys[3] < ys[4] < ys[5]


def test_pmf_plot_geometric_equal_first_cells():
    # f(0) = f(1) = 1/3 at p = 1/2
    svg = svgplot.plot_gap_pmf(wp.Model.geometric(Fraction(1, 2)))
    ys = cy_values(svg)
    assert abs(ys[0] - ys[1]) < 0.01


def test_pmf_plot_range_is_tight_cutoff():
    assert svgplot.plot_gap_pmf(wp.Model.uniform(11)).count("<circle") == 11  # u = 0 .. k-1
    # geometric: u = 0 .. U with U the first u where q**u < 1e-15, capped at 60
    for p, last in ((Fraction(1, 10), 60), (Fraction(1, 2), 50), (Fraction(9, 10), 16)):
        m = wp.Model.geometric(p)
        assert svgplot.plot_gap_pmf(m).count("<circle") == last + 1
        if last < 60:
            assert m.q**last < Fraction(1, 10**15) <= m.q ** (last - 1)
        else:
            assert m.q**59 >= Fraction(1, 10**15)


def test_pmf_plot_refuses_a_uniform_k_above_its_points_cap(monkeypatch):
    assert svgplot.PMF_MAX_POINTS == 10**4
    monkeypatch.setattr(svgplot, "gap_pmf", lambda *args: pytest.fail("built"))
    with pytest.raises(ValueError) as exc:
        svgplot.plot_gap_pmf(wp.Model.uniform(10**8))
    assert str(exc.value) == "gap pmf plot refuses uniform[1,100000000]: 100000000 points, above 10000"


# sha256 of plot_gap_pmf: the plot bytes go into run manifests, so they must not drift
PMF_GOLDEN = {
    "uniform[1,6]": "4e302c202e1f56483425d2f732544b9e11e292dc2d271e8eb4ca2b668f806d22",
    "geometric(1/10)": "2102b02c44df7ff59c7170a19a6722e43076cc49f9c7de5bca2d583e1ffd8334",
    "geometric(1/2)": "becf09f92f6e75a4445c71a2f892d9436df1d27087b139abac231faee46523ff",
    "geometric(9/10)": "af793d902478bf05e60a355ac735a287ffe3ed8b16057c3b2e6d716be74daa1c",
}


@pytest.mark.parametrize(
    "model",
    [wp.Model.uniform(6), *(wp.Model.geometric(p) for p in ("1/10", "1/2", "9/10"))],
    ids=lambda model: model.describe(),
)
def test_pmf_plot_bytes_golden(model):
    svg = svgplot.plot_gap_pmf(model).encode("utf-8")
    assert hashlib.sha256(svg).hexdigest() == PMF_GOLDEN[model.describe()]


def test_trajectory_plot_has_drift_line():
    rng = wp.trajectory_rng(1, 0)
    letters = wp.sample_letters(wp.Model.uniform(6), rng, 101)
    path = np.concatenate([[0], np.cumsum(np.abs(np.diff(letters)))])
    svg = svgplot.plot_trajectory(path, 35 / 18)
    assert svg.count("<polyline") == 2  # the path and the drift jM


def test_normalized_path_plot():
    t = np.linspace(0, 1, 51)
    w = np.sin(6 * t) * 0.5
    svg = svgplot.plot_normalized_path(t, w)
    assert svg.count("<polyline") >= 1
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_histogram_and_cumulative_plots():
    delta = Fraction(1, 2)
    rng = np.random.default_rng(4)
    hist = wp.build_histogram(rng.normal(size=2000), delta)
    masses = wp.gaussian_cell_masses(delta)
    svg = svgplot.plot_histogram(hist.center, hist.freq, masses)
    assert svg.count("<circle") == hist.cells
    assert svg.count("<polyline") == 1
    svg = svgplot.plot_cumulative(hist.right, hist.freq)
    assert svg.count("<circle") == hist.cells
    assert svg.count("<polyline") == 1


def test_plots_are_deterministic():
    a = svgplot.plot_gap_pmf(wp.Model.geometric(Fraction(1, 3)))
    b = svgplot.plot_gap_pmf(wp.Model.geometric(Fraction(1, 3)))
    assert a == b
