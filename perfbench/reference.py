"""Reference computations made apart from unkloc.

Nothing here imports the program.  The field is evaluated by a direct cosine
sum over the paper's coefficient tables, coefficients by an ordinal-grid DFT
whose angles are reduced in integers, the bandwidth detector by a plain scan,
and the grid gap by an exactly rounded sum.  The benchmark compares these
with the program's outputs on a sample of cells.
"""

from __future__ import annotations

import math

import numpy as np

# Coefficients a[k] for k >= 0 of the paper's two benchmark fields;
# a[-k] = conj(a[k]), so both fields are real.
PAPER_TABLES = {
    "paper1": {0: 0.2445 + 0j, 1: -0.0357 + 0.0478j, 2: 0.0978 + 0.0729j, 3: -0.1796 - 0.0756j},
    "paper2": {0: 0.1 + 0j, 1: -0.1 + 0j, 12: 0.1 + 0j},
}

# A comparison whose inputs sit closer than this to a threshold or band edge
# may legitimately round either way, so the detector is not compared there.
CLEARANCE = 1e-9


def bandwidth(table: dict) -> int:
    return max(table)


def coefficient(table: dict, k: int) -> complex:
    value = complex(table.get(abs(k), 0j))
    return value if k >= 0 else value.conjugate()


def field_values(table: dict, x: np.ndarray) -> np.ndarray:
    """g(x) = a0 + 2 sum_k (Re a_k cos 2 pi k x - Im a_k sin 2 pi k x)."""
    g = np.full(x.shape, complex(table[0]).real)
    for k, a in table.items():
        if k > 0:
            angle = 2.0 * math.pi * k * x
            g += 2.0 * (a.real * np.cos(angle) - a.imag * np.sin(angle))
    return g


def ordinal_dft(y: np.ndarray, k: int) -> complex:
    """(1/M) sum_i y_i exp(-2 pi j k i / M), angles taken as (k i mod M) / M."""
    m = y.size
    reduced = (k * np.arange(1, m + 1, dtype=np.int64)) % m
    angle = (2.0 * math.pi / m) * reduced
    return complex(math.fsum(y * np.cos(angle)), -math.fsum(y * np.sin(angle))) / m


def distortion(table: dict, coeffs: dict[int, complex]) -> float:
    """sum over k of |coeffs[k] - a[k]|^2, harmonics absent on one side read as 0."""
    ks = set(coeffs) | {k for j in table for k in (j, -j)}
    return math.fsum(abs(coeffs.get(k, 0j) - coefficient(table, k)) ** 2 for k in ks)


def plain_scan(y: np.ndarray, delta: float, sigma2: float, n: int, b_max: int):
    """Threshold-and-stop bandwidth scan written out directly.

    Returns (status, detected_b, kept, clearance): kept maps each harmonic
    whose estimate strictly exceeds delta - n^(-1/3) to that estimate, and
    clearance is the smallest distance of any compared quantity to its
    threshold or band edge.
    """
    m = y.size
    energy = math.fsum(y * y) / m - sigma2
    threshold = delta - n ** (-1.0 / 3.0)
    band = 0.5 * delta**2
    total = 0.0
    kept: dict[int, complex] = {}
    clearance = math.inf
    for scan_b in range(b_max + 1):
        value = ordinal_dft(y, scan_b)
        pair = [(0, value)] if scan_b == 0 else [(scan_b, value), (-scan_b, value.conjugate())]
        for k, c in pair:
            clearance = min(clearance, abs(abs(c) - threshold))
            if abs(c) > threshold:
                kept[k] = c
                total += abs(c) ** 2
        residual = total - energy
        clearance = min(clearance, abs(abs(residual) - band))
        if abs(residual) <= band:
            return "Stopped", scan_b, kept, clearance
    return "CapReached", None, kept, clearance


def grid_gap(locations: np.ndarray) -> float:
    """(1/M) sum_i (S_i - i/M)^2 with an exactly rounded sum."""
    m = locations.size
    gap = locations - np.arange(1, m + 1) / m
    return math.fsum(gap * gap) / m


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(mean) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(v) for _, v in points]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = sum((x - xbar) ** 2 for x in xs)
    return sxy / sxx
