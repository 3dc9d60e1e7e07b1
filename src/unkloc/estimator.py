"""Location-oblivious Fourier coefficient estimation.

The estimator sees only the readings and their ordinal position: coefficient
k is the average of y_i exp(-j 2 pi k i / M) over i = 1..M, as if the
samples sat on the uniform grid i/M.  Every projection in the package comes
from one kernel, ``harmonic_pairs``.  No FFT: phase vectors are built by
repeated multiplication of the base vector exp(-j 2 pi i / M), and sums use
numpy's pairwise reduction so results stay bit-identical across BLAS
threading settings (replay determinism).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

import numpy as np

from .field import BandlimitedField


def _check_readings(readings) -> np.ndarray:
    y = np.asarray(readings)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("readings must be a non-empty 1-d vector")
    return y


def harmonic_pairs(y: np.ndarray) -> Iterator[tuple[complex, complex]]:
    """Yield (A[k], A[-k]) for k = 0, 1, 2, ... from a non-empty 1-d vector.

    For real readings both values come from one pair of real sums, so
    A[-k] == conj(A[k]) holds bit for bit; at k = 0 the two entries are the
    same harmonic and consumers take the first.  Complex readings need not
    be conjugate-symmetric and get two complex sums.  The phase base is
    built only when k = 1 is requested, so a k = 0 consumer never pays for
    the M complex exponentials.
    """
    m = y.size
    real = np.isrealobj(y)
    w = np.ones(m, dtype=complex)
    base = None
    while True:
        if real:
            re = float(np.sum(y * w.real))
            im = float(np.sum(y * w.imag))
            yield complex(re, im) / m, complex(re, -im) / m
        else:
            yield complex(np.sum(y * w)) / m, complex(np.sum(y * np.conj(w))) / m
        if base is None:
            base = np.exp((-2j * np.pi / m) * np.arange(1, m + 1))
        w = w * base


def estimate_coefficient(readings, k: int) -> complex:
    """Ordinal-grid estimate of coefficient k from the readings alone."""
    y = _check_readings(readings)
    k = int(k)
    plus, minus = next(islice(harmonic_pairs(y), abs(k), None))
    return plus if k >= 0 else minus


def estimate_field(readings, b: int) -> BandlimitedField:
    """Estimated field over harmonics -b..b.

    No symmetrization step: for real readings the estimator is already
    conjugate-symmetric, exactly.
    """
    y = _check_readings(readings)
    if b < 0:
        raise ValueError("bandwidth must be non-negative")
    plus, minus = zip(*islice(harmonic_pairs(y), b + 1))
    return BandlimitedField(b=b, coeffs=[*minus[:0:-1], *plus])


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
    return float(np.mean(np.abs(y) ** 2) - sigma2)
