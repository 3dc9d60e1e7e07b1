"""Bandwidth detection for fields of unknown harmonic extent.

Scan B = 0, 1, 2, ...: estimate coefficients +-B, zero out any whose
magnitude does not strictly exceed delta - n^(-1/3), and stop at the first
B where the accumulated kept energy lands within +-delta^2/2 of the energy
estimate computed from the readings.  Both terms follow from delta and n;
neither is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .estimator import _check_readings, energy_estimate, harmonic_pairs


@dataclass(frozen=True)
class BandwidthConfig:
    delta: float
    sigma2: float
    n: int
    b_max: int = 64

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ConfigError("delta must be positive")
        if not self.sigma2 >= 0:
            raise ConfigError("sigma2 must be non-negative")
        if int(self.n) != self.n or self.n < 1:
            raise ConfigError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))
        if int(self.b_max) != self.b_max or self.b_max < 0:
            raise ConfigError("b_max must be a non-negative integer")
        object.__setattr__(self, "b_max", int(self.b_max))

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

    kept_pos: list[complex] = []  # k = 0..B
    kept_neg: list[complex] = []  # k = -0..-B; -0 repeats k = 0 and is dropped
    total = 0.0
    status, detected_b = "CapReached", None
    # zip pulls from the range first, so no harmonic past b_max is projected
    for scan_b, (plus, minus) in zip(range(config.b_max + 1), harmonic_pairs(y)):
        kp = threshold_coefficient(plus, config)
        kn = threshold_coefficient(minus, config)
        kept_pos.append(kp)
        kept_neg.append(kn)
        total += abs(kp) ** 2 if scan_b == 0 else abs(kp) ** 2 + abs(kn) ** 2
        if -band <= total - e_g <= band:
            status, detected_b = "Stopped", scan_b
            break
    return DetectionOutcome(
        status=status,
        detected_b=detected_b,
        kept_coeffs=kept_neg[:0:-1] + kept_pos,
        energy_est=e_g,
        stop_residual=total - e_g,
    )
