import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordperim as wp
from wordperim import empirics

HALF = Fraction(1, 2)


def simpson_gauss_mass(lo: float, hi: float, steps: int = 4000) -> float:
    """Independent quadrature of the standard normal density over [lo, hi]."""
    x = np.linspace(lo, hi, 2 * steps + 1)
    f = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    h = (hi - lo) / (2 * steps)
    return float(h / 3.0 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum()))


def inverse_phi(u: float) -> float:
    """Bisection inverse of the normal CDF (test-side oracle)."""
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if empirics.normal_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_delta_validation():
    with pytest.raises(ValueError):
        wp.build_histogram([0.0], Fraction(5, 7))  # 6/delta not integral
    with pytest.raises(ValueError):
        wp.build_histogram([0.0], 0)
    with pytest.raises(ValueError):
        wp.build_histogram([], HALF)
    for delta, cells in ((HALF, 15), (1, 9), (Fraction(3, 2), 7)):
        assert wp.build_histogram([0.0], delta).cells == cells
        assert wp.gaussian_cell_masses(delta).size == cells


def test_single_central_sample():
    hist = wp.build_histogram([0.0], HALF)
    assert hist.cells == 15
    assert hist.counts[7] == 1
    assert hist.counts.sum() == 1
    assert hist.center[7] == 0.0


def test_clamping_into_boundary_cells():
    hist = wp.build_histogram([-10.0, 10.0, 0.0], HALF)
    assert hist.counts[0] == 1
    assert hist.counts[14] == 1
    # the constructed cover ends at +-(3 + 3*delta/2) = +-3.75 for delta=1/2
    assert hist.left[0] == -3.75
    assert hist.right[14] == 3.75


def test_grid_geometry():
    hist = wp.build_histogram([0.0], HALF)
    assert np.allclose(hist.right[:-1], hist.left[1:])  # contiguous, no overlap
    assert np.allclose(hist.center, hist.left + 0.25)
    # centers span [-3 - delta, 3 + delta]
    assert hist.center[0] == -3.5
    assert hist.center[-1] == 3.5


def test_half_open_edges():
    # a sample exactly on an interior edge belongs to the right-hand cell
    hist = wp.build_histogram([-3.25], HALF)
    assert hist.counts[1] == 1
    # the far right edge stays in the last cell (closed)
    hist = wp.build_histogram([3.75], HALF)
    assert hist.counts[14] == 1


def test_counts_conserved():
    rng = np.random.default_rng(5)
    z = rng.normal(size=4321)
    hist = wp.build_histogram(z, HALF)
    assert int(hist.counts.sum()) == 4321
    assert math.isclose(float(hist.freq.sum()), 1.0, rel_tol=0, abs_tol=1e-12)


def test_gaussian_cell_mass_central_value():
    # central cell [-1/4, 1/4]: matches an independent quadrature and the
    # frozen value 2*Phi(0.25) - 1
    got = wp.gaussian_cell_masses(HALF)[7]
    assert abs(got - simpson_gauss_mass(-0.25, 0.25)) < 1e-10
    assert abs(got - 0.19741265136584758) < 1e-12


def test_phi_reference_value():
    assert abs(empirics.normal_cdf(1.0) - 0.841344746) < 5e-10


def test_cell_masses_sum_to_one():
    for delta in (HALF, 1, Fraction(3, 2)):
        masses = wp.gaussian_cell_masses(delta)
        assert abs(masses.sum() - 1.0) < 1e-12


def test_cell_mass_symmetry():
    masses = wp.gaussian_cell_masses(HALF)
    assert np.allclose(masses, masses[::-1], atol=1e-14)


def test_cell_mass_quadrature_agreement():
    hist = wp.build_histogram([0.0], HALF)
    for i in range(hist.cells):
        lo = -8.5 if i == 0 else float(hist.left[i])
        hi = 8.5 if i == hist.cells - 1 else float(hist.right[i])
        assert abs(hist.gauss_mass[i] - simpson_gauss_mass(lo, hi)) < 1e-8


@pytest.mark.parametrize("delta", [HALF, Fraction(1, 3), 1, Fraction(3, 2), Fraction(1, 10)])
def test_cell_masses_equal_per_cell_reference(delta):
    # each mass is Phi(right[i]) - Phi(left[i]) from that cell's own edges, even
    # where right[i] is not the same float as left[i + 1]; the tails are 0 and 1
    hist = wp.build_histogram([0.0], delta)
    last = hist.cells - 1
    reference = [
        (1.0 if i == last else empirics.normal_cdf(hist.right[i]))
        - (0.0 if i == 0 else empirics.normal_cdf(hist.left[i]))
        for i in range(hist.cells)
    ]
    assert hist.gauss_mass.tolist() == reference
    assert wp.gaussian_cell_masses(delta).tolist() == reference


def test_max_cell_abs_error_is_the_largest_cell_deviation():
    rng = np.random.default_rng(11)
    z = rng.normal(size=3000)
    hist = wp.build_histogram(z, HALF)
    assert hist.max_cell_abs_error == max(abs(f - g) for f, g in zip(hist.freq, hist.gauss_mass))
    assert wp.goodness_of_fit(z, HALF) == (wp.ks_statistic(z), hist.max_cell_abs_error)


def test_gaussian_sample_frequencies_within_binomial_band():
    n = 100000
    rng = np.random.default_rng(12345)
    z = rng.normal(size=n)
    hist = wp.build_histogram(z, HALF)
    masses = hist.gauss_mass
    for i in range(hist.cells):
        se = math.sqrt(masses[i] * (1 - masses[i]) / n)
        assert abs(hist.freq[i] - masses[i]) <= 5 * se, f"cell {i}"


def test_ks_perfect_fit_quantiles():
    n = 1000
    z = [inverse_phi((i - 0.5) / n) for i in range(1, n + 1)]
    # each sample sits at the midpoint of its empirical step: KS <= 1/(2n) + rounding
    assert wp.ks_statistic(z) <= 1 / (2 * n) + 1e-9


def test_ks_point_mass():
    assert abs(wp.ks_statistic([0.0] * 10) - 0.5) < 1e-15


def test_ks_invariant_under_permutation():
    rng = np.random.default_rng(0)
    z = rng.normal(size=500)
    shuffled = z.copy()
    rng.shuffle(shuffled)
    assert wp.ks_statistic(z) == wp.ks_statistic(shuffled)


def reference_ks_statistic(sample) -> float:
    """KS distance with Phi evaluated at every sorted sample point, ties included."""
    z = np.sort(np.asarray(sample, dtype=np.float64))
    n = z.size
    cdf = np.array([empirics.normal_cdf(v) for v in z])
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-8, max_value=8, allow_nan=False), min_size=1, max_size=300),
    st.integers(min_value=0, max_value=3),
)
def test_ks_equals_per_sample_reference(values, copies):
    # copies > 0 repeats the first half of the values, ties like a lattice sum's
    sample = values + values[: len(values) // 2] * copies
    assert wp.ks_statistic(sample) == reference_ks_statistic(sample)


def test_ks_equals_per_sample_reference_on_lattice_endpoints(k6_endpoints):
    z = k6_endpoints.z
    assert np.unique(z).size < 1000  # about 270 distinct values in 1e5 samples
    assert wp.ks_statistic(z) == reference_ks_statistic(z)


def test_goodness_of_fit_report():
    rng = np.random.default_rng(777)
    z = rng.normal(size=50000)
    rep = wp.goodness_of_fit(z, HALF)
    assert 0 <= rep.ks_statistic <= 1
    assert 0 <= rep.max_cell_abs_error <= 1
    assert rep.ks_statistic < 0.02
    assert rep.max_cell_abs_error < 0.02


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_every_sample_lands_in_exactly_one_cell(z):
    hist = wp.build_histogram(z, HALF)
    assert int(hist.counts.sum()) == len(z)
    cum = np.cumsum(hist.freq)
    assert np.all(np.diff(cum) >= -1e-15)
    assert math.isclose(float(cum[-1]), 1.0, rel_tol=0, abs_tol=1e-12)


def test_histogram_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    hist = wp.build_histogram(rng.normal(size=1000), HALF)
    path = tmp_path / "hist.csv"
    empirics.write_histogram_csv(hist, path)
    data = empirics.read_histogram_csv(path)
    assert np.array_equal(data["count"], hist.counts)
    assert np.array_equal(data["freq"], hist.freq)
    assert np.array_equal(data["gauss_mass"], wp.gaussian_cell_masses(HALF))
    with pytest.raises(ValueError):
        empirics.read_histogram_csv(__file__)


def test_gof_json(tmp_path):
    rep = empirics.GofReport(ks_statistic=0.01, max_cell_abs_error=0.002)
    path = tmp_path / "gof.json"
    empirics.write_gof_json(rep, path)
    doc = json.loads(path.read_text())
    assert doc == {"ks_statistic": 0.01, "max_cell_abs_error": 0.002}
