"""Deterministic, dependency-free SVG emission for the standard plots.

Byte-identical output for identical inputs is a hard requirement (run
manifests hash these files), so everything is written with fixed float
formatting and no environment-dependent metadata.
"""

from __future__ import annotations

import numpy as np

from .empirics import normal_cdf
from .models import Model, gap_pmf

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 24, 44  # margins


class _Frame:
    """Maps data coordinates into the fixed plot rectangle."""

    def __init__(self, xmin, xmax, ymin, ymax):
        if xmax <= xmin:
            xmax = xmin + 1.0
        if ymax <= ymin:
            ymax = ymin + 1.0
        self.xmin, self.xmax, self.ymin, self.ymax = xmin, xmax, ymin, ymax

    def x(self, v: float) -> float:
        return _ML + (v - self.xmin) / (self.xmax - self.xmin) * (_W - _ML - _MR)

    def y(self, v: float) -> float:
        return _H - _MB - (v - self.ymin) / (self.ymax - self.ymin) * (_H - _MT - _MB)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _polyline(frame: _Frame, xs, ys, color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(frame.x(float(a)))},{_fmt(frame.y(float(b)))}" for a, b in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'


def _circles(frame: _Frame, xs, ys, color: str, r: float = 3.0) -> str:
    return "".join(
        f'<circle cx="{_fmt(frame.x(float(a)))}" cy="{_fmt(frame.y(float(b)))}" r="{r}" '
        f'fill="none" stroke="{color}" stroke-width="1.2"/>'
        for a, b in zip(xs, ys)
    )


def _document(frame: _Frame, body: list[str], title: str, xlabel: str, ylabel: str) -> str:
    def tick(v: float) -> str:
        return f"{v:.4g}"

    axis = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
        f'<text x="{_W / 2:.0f}" y="16" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">{title}</text>',
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {_H / 2:.0f})">{ylabel}</text>',
        f'<text x="{_ML}" y="{_H - _MB + 16}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="10">{tick(frame.xmin)}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{tick(frame.xmax)}</text>',
        f'<text x="{_ML - 6}" y="{_H - _MB + 4}" text-anchor="end" font-family="sans-serif" '
        f'font-size="10">{tick(frame.ymin)}</text>',
        f'<text x="{_ML - 6}" y="{_MT + 4}" text-anchor="end" font-family="sans-serif" '
        f'font-size="10">{tick(frame.ymax)}</text>',
    ]
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            *axis,
            *body,
            "</svg>",
        ]
    ) + "\n"


def plot_gap_pmf(model: Model) -> str:
    """Gap distribution f(u): markers on the exact masses, connected by a line."""
    if model.kind == "uniform":
        us = list(range(0, model.k))
    else:  # up to the first u with q**u < 1e-15, at most 60
        last = next((u for u in range(1, 61) if model.q**u * 10**15 < 1), 60)
        us = list(range(0, last + 1))
    fs = [float(gap_pmf(model, u)) for u in us]
    frame = _Frame(min(us), max(us) if len(us) > 1 else 1.0, 0.0, max(fs) * 1.1)
    body = [
        _polyline(frame, us, fs, "#1f77b4"),
        _circles(frame, us, fs, "#1f77b4"),
    ]
    return _document(frame, body, f"gap pmf f(u), {model.describe()}", "u", "f(u)")


def plot_trajectory(path_row: np.ndarray, mean_gap: float) -> str:
    """One gap-sum trajectory Q(j) with the drift line j*M."""
    j = np.arange(path_row.size)
    drift = j * mean_gap
    top = max(float(path_row.max()), float(drift.max()))
    frame = _Frame(0.0, float(j[-1]), 0.0, top * 1.05 if top > 0 else 1.0)
    body = [
        _polyline(frame, j, path_row, "#1f77b4"),
        _polyline(frame, j, drift, "#d62728"),
    ]
    return _document(frame, body, "trajectory Q(j) and drift jM", "j", "Q(j)")


def plot_normalized_path(t: np.ndarray, w: np.ndarray) -> str:
    """A normalized trajectory W(t), the pre-limit Brownian path."""
    lo, hi = float(np.min(w)), float(np.max(w))
    pad = 0.1 * max(hi - lo, 1e-9)
    frame = _Frame(0.0, 1.0, lo - pad, hi + pad)
    body = [_polyline(frame, t, w, "#1f77b4", 1.0)]
    if lo < 0 < hi:
        body.append(_polyline(frame, [0.0, 1.0], [0.0, 0.0], "#aaaaaa", 0.8))
    return _document(frame, body, "normalized trajectory W(t)", "t", "W(t)")


def plot_histogram(center: np.ndarray, freq: np.ndarray, gauss_mass: np.ndarray) -> str:
    """Cell frequencies (circles) against Gaussian cell masses (line)."""
    top = max(float(freq.max()), float(gauss_mass.max()))
    frame = _Frame(float(center[0]), float(center[-1]), 0.0, top * 1.1)
    body = [
        _polyline(frame, center, gauss_mass, "#d62728"),
        _circles(frame, center, freq, "#1f77b4"),
    ]
    return _document(frame, body, "histogram vs Gaussian cell mass", "z", "frequency")


def plot_cumulative(right: np.ndarray, freq: np.ndarray) -> str:
    """Cumulative frequencies at cell right edges (circles) against the normal CDF."""
    cum = np.cumsum(freq)
    xs = np.linspace(float(right[0]) - 1.0, float(right[-1]) + 1.0, 201)
    phi = [normal_cdf(x) for x in xs]
    frame = _Frame(float(xs[0]), float(xs[-1]), 0.0, 1.05)
    body = [
        _polyline(frame, xs, phi, "#d62728"),
        _circles(frame, right, cum, "#1f77b4"),
    ]
    return _document(frame, body, "cumulative histogram vs normal CDF", "z", "F(z)")
