"""Periodic bandlimited fields on [0, 1).

A field is g(x) = sum_{k=-b..b} a[k] exp(j 2 pi k x), stored as the dense
coefficient vector a[-b..b].  The coefficients must be conjugate-symmetric,
a[-k] == conj(a[k]) exactly, so every field is real-valued.  BLOCK is the
package's one block size: ``evaluate`` runs on blocks of that many points,
and the projection in ``estimator`` on leaves of at most that many.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, number, whole

# Points of the uniform grid on which dynamic_range probes sup |g|.  They
# resolve the 2b + 1 harmonics of a field up to b = 4095, the bound a random
# field's b is held to.  The probe reads |g| at its points only: between
# them a random field scaled to a peak of 1 on the probe reached 1.00008 at
# b = 64 and 1.049 at b = 4000 (seeds 0-2, on a 2**17-point grid).
DENSE_GRID = 8192


def phase(theta: np.ndarray) -> np.ndarray:
    """exp(j theta) for a real array theta, written as cos theta and sin theta
    straight into the two parts of one complex vector.  These are the bits
    of np.exp at +0 + j theta, as libm's exp, cos and sin round alike there.
    The one place the package builds a unit phase."""
    w = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=w.real)
    np.sin(theta, out=w.imag)
    return w


# Points per block of ``evaluate`` and most points per leaf of the
# projection (``estimator._pairwise``): the package's one block size.  A
# block's complex temporaries (128 KiB each) come back from the allocator's
# cache, where full-length ones would fault in fresh pages for every
# harmonic.  np.sum halves a piece until it holds at most 128 points, so
# any leaf of 128 or more points cuts the same tree.
BLOCK = 8192


@dataclass(frozen=True)
class BandlimitedField:
    """Coefficient vector ``coeffs`` ordered k = -b..b, finite and
    conjugate-symmetric; ``from_dict`` also needs a finite energy."""

    b: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", whole("bandwidth b", self.b, 0))
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size != 2 * self.b + 1:
            raise ValueError(
                f"need {2 * self.b + 1} coefficients for bandwidth {self.b}, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if not np.all(np.isfinite(c)):  # first, as a NaN also breaks the symmetry below
            raise ValueError(f"field coefficients must be finite, got {c[~np.isfinite(c)][:3]}")
        if not np.array_equal(c[::-1], np.conj(c)):
            raise ValueError("field coefficients must be conjugate-symmetric, a[-k] == conj(a[k])")

    @classmethod
    def from_half(cls, half) -> "BandlimitedField":
        """The real field whose coefficients for k = 0..b are half, with b =
        len(half) - 1: k = -b..-1 read their conjugates, and a zero reads +0j
        there (its conjugate would be -0j).  The one conjugate mirror."""
        half = list(half)
        mirror = [c.conjugate() if c else 0j for c in half[:0:-1]]
        return cls(b=len(half) - 1, coeffs=mirror + half)

    def coefficient(self, k: int) -> complex:
        """a[k], with harmonics outside -b..b read as zero."""
        if abs(k) > self.b:
            return 0j
        return complex(self.coeffs[self.b + k])

    def evaluate(self, x):
        """Real field value(s) at x (period 1); scalar input gives scalar output.

        g(x) = a[0] + sum_{k=1..b} 2 Re(a[k] e^k) with e = exp(j 2 pi x).
        a[-k] e^-k is the exact conjugate of a[k] e^k, so this is bit for bit
        the real part of the full sum over -b..b.  It runs on BLOCK-point
        blocks of the flattened x; every step is elementwise, so a value has
        the same bits in any block, and a scalar the same bits as in an array.
        """
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        a0 = self.coeffs[self.b].real
        # A zero a[k] adds +-0.0, which moves no value but -0.0.  A value is
        # -0.0 only while a[0] and every term so far are, so zero harmonics
        # are skipped unless a[0] is -0.0; e^k still steps through each k.
        add_zeros = a0 == 0.0 and np.signbit(a0)
        out = np.full(flat.size, a0)
        for lo in range(0, flat.size, BLOCK):
            e1 = phase((2.0 * np.pi) * flat[lo : lo + BLOCK])
            val = out[lo : lo + BLOCK]
            ek = np.ones_like(e1)
            for c in self.coeffs[self.b + 1 :]:
                ek = ek * e1  # a fresh product: written into ek, a 1-point block rounds differently
                if c or add_zeros:
                    val += 2.0 * (c * ek).real
        return out[0] if x.ndim == 0 else out.reshape(x.shape)

    def dynamic_range(self) -> float:
        """sup |g(x)| probed on the DENSE_GRID-point uniform grid."""
        x = np.arange(DENSE_GRID) / DENSE_GRID
        return float(np.max(np.abs(self.evaluate(x))))

    def energy(self) -> float:
        """Integral of |g|^2 over one period = sum |a[k]|^2."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    # serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BandlimitedField":
        try:
            b = data["b"]
            coeffs = np.array([complex(number("field coefficient", re), number("field coefficient", im))
                               for re, im in data["coeffs"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"field record must carry 'b' and 'coeffs' as [re, im] pairs: {exc}")
        field = cls(b=b, coeffs=coeffs)
        with np.errstate(over="ignore"):  # a sum of squares that overflows is what this refuses
            if not np.isfinite(field.energy()):
                raise ValueError("the energy sum |a[k]|**2 of the field coefficients must be finite")
        return field

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "BandlimitedField":
        return cls.from_dict(json.loads(Path(path).read_text()))


def distortion(truth: BandlimitedField, estimate: BandlimitedField) -> float:
    """Sum of squared coefficient errors over the union of harmonic ranges;
    harmonics absent from either field count as zero."""
    width = max(estimate.b, truth.b)
    a = np.zeros(2 * width + 1, dtype=complex)
    a[width - truth.b : width + truth.b + 1] = truth.coeffs
    ahat = np.zeros(2 * width + 1, dtype=complex)
    ahat[width - estimate.b : width + estimate.b + 1] = estimate.coeffs
    with np.errstate(over="ignore", invalid="ignore"):  # huge coefficients score inf
        return float(np.sum(np.abs(ahat - a) ** 2))


def random_bandwidth(b) -> int:
    """b as the bandwidth of a random field: a whole number >= 0 whose 2b + 1
    harmonics the DENSE_GRID-point probe resolves, as the field's scale
    rests on that probe.  A ConfigError names any other b."""
    b = whole("bandwidth b", b, 0)
    if 2 * b + 1 > DENSE_GRID:
        raise ConfigError(f"a random field's bandwidth b must be at most {(DENSE_GRID - 1) // 2}, so that its "
                          f"2b + 1 harmonics resolve on the {DENSE_GRID}-point sup-norm probe; got b = {b}")
    return b


def random_field(b: int, seed: int) -> BandlimitedField:
    """Conjugate-symmetric field with Uniform[-1,1] coefficient draws.

    a[0] is real; Re/Im of a[1..b] are i.i.d. Uniform[-1,1]; a[-k] mirrors
    conj(a[k]).  All coefficients are then scaled by 1/max(1, peak), where
    peak is the largest |g| at the DENSE_GRID probe points, so |g| <= 1 at
    those points; between them |g| may exceed 1 a little (see DENSE_GRID).
    b is held to random_bandwidth's bound.
    """
    b = random_bandwidth(b)
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    half = [rng.uniform(-1.0, 1.0)]  # a[0], then (Re, Im) of each a[k]
    half += [complex(*rng.uniform(-1.0, 1.0, size=2)) for _ in range(b)]
    field = BandlimitedField.from_half(half)
    peak = field.dynamic_range()
    if peak > 1.0:
        field = BandlimitedField(b=b, coeffs=field.coeffs / peak)
    return field


# Built-in benchmark coefficient sets for k >= 0 (mirrored by conjugation).
# Selector names match the CLI tokens.
REFERENCE_COEFFS = {
    "paper1": {0: 0.2445 + 0j, 1: -0.0357 + 0.0478j, 2: 0.0978 + 0.0729j, 3: -0.1796 - 0.0756j},
    "paper2": {0: 0.1 + 0j, 1: -0.1 + 0j, 12: 0.1 + 0j},
}


def reference_field(name: str) -> BandlimitedField:
    """One of the built-in benchmark fields ('paper1', 'paper2')."""
    try:
        table = REFERENCE_COEFFS[name]
    except KeyError:
        raise ValueError(f"unknown reference field {name!r}; choose from {sorted(REFERENCE_COEFFS)}")
    return BandlimitedField.from_half([table.get(k, 0j) for k in range(max(table) + 1)])
