"""Bandwidth detection for fields of unknown harmonic extent.

Scan B = 0, 1, 2, ...: estimate coefficient B (coefficient -B is its
conjugate), zero it out unless its magnitude strictly exceeds
delta - n^(-1/3), and stop at the first B where the accumulated kept
energy lands within +-delta^2/2 of the energy estimate computed from the
readings.  Both terms follow from delta and n; neither is a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, density, number, whole
from .estimator import _check_readings, energy_estimate, harmonics
from .field import BandlimitedField


@dataclass(frozen=True)
class BandwidthConfig:
    delta: float
    sigma2: float
    n: int
    b_max: int = 64

    def __post_init__(self) -> None:
        # an int compares exactly with inf, so a huge one reaches the overflow check
        if not 0 < number("delta", self.delta) < math.inf:
            raise ConfigError(f"delta must be a finite positive number, got {self.delta!r}")
        if not self.sigma2 >= 0:
            raise ConfigError("sigma2 must be non-negative")
        try:  # the stop band and the bound on n in validate_runnable's message
            0.5 * self.delta**2 + (1.0 / self.delta) ** 3
        except OverflowError:
            raise ConfigError(f"delta = {self.delta!r} overflows delta**2 or (1/delta)**3")
        object.__setattr__(self, "n", density(self.n))
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

    kept is the thresholded estimate over k = -B..B for the final B reached:
    the stopping B, or the cap min(b_max, (M - 1) // 2) on M readings, past
    which a harmonic aliases one already scanned; stop_residual is the
    signed gap sum |kept|^2 - E_g at that point.
    """

    detected_b: int | None  # None when the cap was hit
    kept: BandlimitedField
    energy_est: float
    stop_residual: float

    @property
    def status(self) -> str:
        return "CapReached" if self.detected_b is None else "Stopped"

    @property
    def b_scanned(self) -> int:
        return self.kept.b

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "detected_b": self.detected_b,
            "energy_estimate": self.energy_est,
            "stop_residual": self.stop_residual,
            "kept_coeffs": self.kept.to_dict()["coeffs"],
        }


def detect_bandwidth(readings, config: BandwidthConfig) -> DetectionOutcome:
    """Run the scan on one vector of readings."""
    config.validate_runnable()
    y = _check_readings(readings)
    e_g = energy_estimate(y, config.sigma2)
    band = config.band

    kept: list[complex] = []  # k = 0..B
    total = 0.0
    detected_b = None
    # zip pulls from the range first, so no harmonic past the cap is projected
    for scan_b, a in zip(range(min(config.b_max, (y.size - 1) // 2) + 1), harmonics(y)):
        c = threshold_coefficient(a, config)
        kept.append(c)
        # |A[-B]| == |A[B]|: harmonics B and -B add the same energy
        total += abs(c) ** 2 if scan_b == 0 else 2.0 * abs(c) ** 2
        if -band <= total - e_g <= band:
            detected_b = scan_b
            break
    return DetectionOutcome(detected_b=detected_b, kept=BandlimitedField.from_half(kept),
                            energy_est=e_g, stop_residual=total - e_g)
