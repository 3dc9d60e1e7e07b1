"""Location-oblivious Fourier coefficient estimation.

The estimator sees only the readings and their ordinal position: coefficient
k is the average of y_i exp(-j 2 pi k i / M) over i = 1..M, as if the
samples sat on the uniform grid i/M.  Readings are real, as the field is.
Every projection comes from one kernel, ``_leaf_sums``.  np.sum adds an
M-point vector along a tree of halvings; on one leaf of that tree, at most
``field.BLOCK`` points (the package's one block size), the kernel builds
the base phase exp(-j 2 pi i / M) with ``field.phase`` (cos and sin
written into one complex vector, the bits of np.exp), steps it to
exp(-j 2 pi k i / M) by repeated multiplication (no FFT) and takes its two
real sums.  Adding the leaf sums up the same tree gives the bits of np.sum
over all M points, so results stay bit-identical across BLAS threading
settings (replay determinism), and every temporary is leaf-sized.  Only
k >= 0 is projected: A[-k] is the conjugate of A[k].
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from itertools import islice

import numpy as np

from .errors import whole
from .field import BLOCK, BandlimitedField, phase


def _check_readings(readings) -> np.ndarray:
    y = np.asarray(readings)
    if y.ndim != 1 or y.size == 0 or y.dtype.kind not in "biuf":
        raise ValueError("readings must be a non-empty, real 1-d vector")
    return y


def _as_float(y: np.ndarray) -> np.ndarray:
    """y in the type a float64 product gives it: integer readings are not
    squared or summed in their own type, where they would wrap."""
    return y.astype(np.promote_types(y.dtype, np.float64), copy=False)


def _half(n: int) -> int:
    """Where np.sum's pairwise reduction cuts an n-point piece: at the
    middle, rounded down to a multiple of its 8-way unrolled blocks."""
    return n // 2 - (n // 2) % 8


def _pairwise(part: Callable[[int, int], np.ndarray], lo: int, n: int) -> np.ndarray:
    """part(start, length) of each leaf of [lo, lo + n), in order, added up
    np.sum's tree: when part is np.sum over the leaf, this is np.sum over all."""
    if n <= BLOCK:
        return part(lo, n)
    half = _half(n)
    return _pairwise(part, lo, half) + _pairwise(part, lo + half, n - half)


def _leaf_sums(y: np.ndarray, lo: int, n: int) -> Iterator[np.ndarray]:
    """[sum y_i Re w_i, sum y_i Im w_i] over the leaf i = lo+1..lo+n, for
    k = 0, 1, 2, ..., where w_i = exp(-j 2 pi k i / M).  w is 1 at k = 0 and
    the base vector at k = 1, and each later w is the last times the base.
    The base is built only once k = 1 is requested, so a k = 0 consumer
    never pays for the exponentials."""
    leaf = _as_float(y[lo : lo + n])  # as if multiplied by a float64 phase
    add = np.add.reduce  # np.sum's own reduction, without its Python wrapper
    yield np.array([add(leaf), add(leaf * 0.0)])
    base = w = phase((-2.0 * np.pi / y.size) * np.arange(lo + 1, lo + n + 1))
    while True:
        yield np.array([add(leaf * w.real), add(leaf * w.imag)])
        w = w * base


def _average(sums: np.ndarray, m: int) -> complex:
    """A[k] from its two sums over all m readings."""
    return complex(float(sums[0]), float(sums[1])) / m


def harmonics(y: np.ndarray) -> Iterator[complex]:
    """A[0], A[1], A[2], ... from a non-empty, real 1-d vector.  Each A[k]
    steps every leaf one harmonic on, so no harmonic is projected before it
    is asked for."""
    m = y.size
    leaf_sums = functools.cache(lambda lo, n: _leaf_sums(y, lo, n))  # one per leaf, made on first use
    while True:
        yield _average(_pairwise(lambda lo, n: next(leaf_sums(lo, n)), 0, m), m)


def estimate_field(readings, b: int) -> BandlimitedField:
    """Estimated field over harmonics -b..b: A[0..b] projected, and
    mirrored onto -b..-1 by ``BandlimitedField.from_half``.  Each leaf gives
    all b+1 of its sum pairs before the next leaf starts."""
    y = _check_readings(readings)
    b = whole("bandwidth b", b, 0)
    m = y.size
    sums = _pairwise(lambda lo, n: np.array(list(islice(_leaf_sums(y, lo, n), b + 1))), 0, m)
    return BandlimitedField.from_half(_average(pair, m) for pair in sums)


def energy_estimate(readings, sigma2: float) -> float:
    """Mean squared reading minus the known noise variance.

    Unbiased for the field energy; small traces can push it negative and
    the value is reported as-is (the detection stopping band tolerates it).
    """
    y = _as_float(_check_readings(readings))
    if not sigma2 >= 0:  # a NaN too, as BandwidthConfig refuses it
        raise ValueError("noise variance must be non-negative")
    return float(np.mean(y**2) - sigma2)
