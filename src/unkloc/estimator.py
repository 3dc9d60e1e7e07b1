"""Location-oblivious Fourier coefficient estimation.

The estimator sees only the readings and their ordinal position: coefficient
k is the average of y_i exp(-j 2 pi k i / M) over i = 1..M, as if the
samples sat on the uniform grid i/M.  Readings are real, as the field is.
Every projection comes from one kernel: ``_phases`` steps the phase vector
exp(-j 2 pi k i / M) by repeated multiplication (no FFT) and ``_project``
takes its two real sums with numpy's pairwise reduction, so results stay
bit-identical across BLAS threading settings (replay determinism).  Only
k >= 0 is projected: A[-k] is the conjugate of A[k].
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

import numpy as np

from .field import BandlimitedField


def _check_readings(readings) -> np.ndarray:
    y = np.asarray(readings)
    if y.ndim != 1 or y.size == 0 or np.iscomplexobj(y):
        raise ValueError("readings must be a non-empty, real 1-d vector")
    return y


def _phases(m: int) -> Iterator[np.ndarray]:
    """exp(-j 2 pi k i / m) over i = 1..m for k = 0, 1, 2, ..., each the last
    times the base vector.  The base is built only once k = 1 is requested,
    so a k = 0 consumer never pays for the m complex exponentials."""
    w = np.ones(m, dtype=complex)
    yield w
    base = np.exp((-2j * np.pi / m) * np.arange(1, m + 1))
    while True:
        w = w * base
        yield w


def _project(y: np.ndarray, w: np.ndarray) -> complex:
    """A[k] from the phase vector w of harmonic k, as two real sums.  The
    readings are real, so A[-k] is its conjugate."""
    return complex(float(np.sum(y * w.real)), float(np.sum(y * w.imag))) / y.size


def harmonics(y: np.ndarray) -> Iterator[complex]:
    """A[0], A[1], A[2], ... from a non-empty, real 1-d vector."""
    return (_project(y, w) for w in _phases(y.size))


def estimate_coefficient(readings, k: int) -> complex:
    """Ordinal-grid estimate of coefficient k from the readings alone;
    only harmonic |k| is projected."""
    y = _check_readings(readings)
    k = int(k)
    a = _project(y, next(islice(_phases(y.size), abs(k), None)))
    return a if k >= 0 else a.conjugate()


def estimate_field(readings, b: int) -> BandlimitedField:
    """Estimated field over harmonics -b..b: A[0..b] projected, and their
    conjugates mirrored onto -b..-1."""
    y = _check_readings(readings)
    if b < 0:
        raise ValueError("bandwidth must be non-negative")
    a = list(islice(harmonics(y), b + 1))
    return BandlimitedField(b=b, coeffs=[*(c.conjugate() for c in a[:0:-1]), *a])


def riemann_coefficient(field: BandlimitedField, m: int, k: int) -> complex:
    """m-point ordinal-grid approximation of coefficient k from exact field
    values g(i/m); equals a[k] whenever m >= 2b+1 (no aliasing)."""
    if m < 1:
        raise ValueError("grid size must be positive")
    return estimate_coefficient(field.evaluate(np.arange(1, m + 1) / m), k)


def energy_estimate(readings, sigma2: float) -> float:
    """Mean squared reading minus the known noise variance.

    Unbiased for the field energy; small traces can push it negative and
    the value is reported as-is (the detection stopping band tolerates it).
    """
    y = _check_readings(readings)
    if sigma2 < 0:
        raise ValueError("noise variance must be non-negative")
    return float(np.mean(y**2) - sigma2)
