"""Bandwidth detection for fields of unknown harmonic extent.

Scan B = 0, 1, 2, ...: estimate coefficient B (coefficient -B is its
conjugate), zero it out unless its magnitude strictly exceeds
delta - n^(-1/3), and stop at the first B where the accumulated kept
energy lands within +-delta^2/2 of the energy estimate computed from the
readings.  Both terms follow from delta and n; neither is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, whole
from .estimator import _check_readings, energy_estimate, harmonics


@dataclass(frozen=True)
class BandwidthConfig:
    delta: float
    sigma2: float
    n: int
    b_max: int = 64

    def __post_init__(self) -> None:
        if not (isinstance(self.delta, (int, float)) and self.delta > 0):
            raise ConfigError(f"delta must be a positive number, got {self.delta!r}")
        if not self.sigma2 >= 0:
            raise ConfigError("sigma2 must be non-negative")
        try:  # the stop band and the bound on n in validate_runnable's message
            0.5 * self.delta**2 + (1.0 / self.delta) ** 3
        except OverflowError:
            raise ConfigError(f"delta = {self.delta!r} overflows delta**2 or (1/delta)**3")
        object.__setattr__(self, "n", whole("n", self.n, 1))
        object.__setattr__(self, "b_max", whole("b_max", self.b_max, 0))

    @property
    def threshold(self) -> float:
        return self.delta - self.n ** (-1.0 / 3.0)

    @property
    def band(self) -> float:
        return 0.5 * self.delta**2

    def validate_runnable(self) -> None:
        if self.threshold <= 0:
            raise ConfigError(
                f"threshold delta - n**(-1/3) = {self.threshold:.6g} is not positive; "
                f"need n > (1/delta)**3 = {(1.0 / self.delta) ** 3:.6g}"
            )


def threshold_coefficient(value: complex, config: BandwidthConfig) -> complex:
    """Keep the value only when |value| strictly exceeds the threshold;
    ties are zeroed."""
    value = complex(value)
    return value if abs(value) > config.threshold else 0j


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of one detection run.

    kept_coeffs covers k = -B..B for the final B reached (the stopping B,
    or b_max when the cap was hit); stop_residual is the signed gap
    sum |kept|^2 - E_g at that point.
    """

    status: str  # "Stopped" | "CapReached"
    detected_b: int | None
    kept_coeffs: np.ndarray
    energy_est: float
    stop_residual: float

    def __post_init__(self) -> None:
        c = np.array(self.kept_coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "kept_coeffs", c)

    @property
    def b_scanned(self) -> int:
        return int(self.kept_coeffs.size // 2)

    def kept(self, k: int) -> complex:
        """Thresholded coefficient at k (zero outside the scanned range)."""
        half = self.b_scanned
        if abs(k) > half:
            return 0j
        return complex(self.kept_coeffs[half + k])

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "detected_b": self.detected_b,
            "energy_estimate": self.energy_est,
            "stop_residual": self.stop_residual,
            "kept_coeffs": [[float(c.real), float(c.imag)] for c in self.kept_coeffs],
        }


def detect_bandwidth(readings, config: BandwidthConfig) -> DetectionOutcome:
    """Run the scan on one vector of readings."""
    config.validate_runnable()
    y = _check_readings(readings)
    e_g = energy_estimate(y, config.sigma2)
    band = config.band

    kept: list[complex] = []  # k = 0..B; k = -B..-1 are their conjugates
    total = 0.0
    status, detected_b = "CapReached", None
    # zip pulls from the range first, so no harmonic past b_max is projected
    for scan_b, a in zip(range(config.b_max + 1), harmonics(y)):
        c = threshold_coefficient(a, config)
        kept.append(c)
        # |A[-B]| == |A[B]|: harmonics B and -B add the same energy
        total += abs(c) ** 2 if scan_b == 0 else 2.0 * abs(c) ** 2
        if -band <= total - e_g <= band:
            status, detected_b = "Stopped", scan_b
            break
    return DetectionOutcome(
        status=status,
        detected_b=detected_b,
        # a zeroed entry stays 0j: its conjugate would be -0j
        kept_coeffs=[c.conjugate() if c else 0j for c in kept[:0:-1]] + kept,
        energy_est=e_g,
        stop_residual=total - e_g,
    )
