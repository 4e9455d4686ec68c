"""
The Gaussian fit of normalized endpoints
========================================

Normalized endpoints z = (Q(m) - mM)/(sigma sqrt(m)) are binned on the fixed
cell grid of width delta = 1/2 covering roughly [-3.75, 3.75]; the cell
frequencies are compared with exact Gaussian cell masses, and the raw sample
with the normal CDF via the Kolmogorov-Smirnov distance.
"""

from fractions import Fraction
from pathlib import Path

import wordperim as wp
from wordperim import svgplot

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = wp.SimulationConfig(model=wp.Model.uniform(6), m=500, trajectories=20000, seed=9)
ensemble = wp.simulate(config)

delta = Fraction(1, 2)
hist = wp.build_histogram(ensemble.z, delta)
masses = hist.gauss_mass  # standard normal mass of each cell
report = wp.goodness_of_fit(ensemble.z, delta)

print(f"{hist.cells} cells of width {delta}, N = {hist.n}")
print(f"  {'center':>7} {'freq':>9} {'gauss':>9}")
for i in range(hist.cells):
    print(f"  {hist.center[i]:>7.2f} {hist.freq[i]:>9.5f} {masses[i]:>9.5f}")
print(f"\nKS statistic        = {report.ks_statistic:.5f}")
print(f"max cell deviation  = {report.max_cell_abs_error:.5f}")

hist_svg = OUT / "histogram_vs_gauss.svg"
hist_svg.write_text(svgplot.plot_histogram(hist.center, hist.freq, masses))
cum_svg = OUT / "cumulative_vs_phi.svg"
cum_svg.write_text(svgplot.plot_cumulative(hist.right, hist.freq))
pmf_svg = OUT / "gap_pmf_k6.svg"
pmf_svg.write_text(svgplot.plot_gap_pmf(wp.Model.uniform(6)))
print(f"\nwrote {hist_svg}, {cum_svg}, {pmf_svg}")

# Frequencies always add to one: every sample lands in exactly one cell.
assert int(hist.counts.sum()) == hist.n
