"""Estimation of periodic bandlimited fields from noise-corrupted samples
taken at unknown locations generated by a renewal process."""

from .bandwidth import BandwidthConfig, DetectionOutcome, detect_bandwidth
from .errors import ConfigError
from .estimator import (
    energy_estimate,
    estimate_coefficient,
    estimate_field,
    riemann_coefficient,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    FieldSource,
    RenewalFamily,
    SlopeFit,
    fit_loglog_slope,
    run,
)
from .field import BandlimitedField, distortion, random_field, reference_field
from .noise import NoiseSpec
from .sampling import (
    RenewalSpec,
    SampleTrace,
    acquire,
    generate_trace,
    grid_deviation,
    spawn_rngs,
    trial_seed,
)

__version__ = "0.1.0"

__all__ = [
    "BandlimitedField",
    "BandwidthConfig",
    "ConfigError",
    "DetectionOutcome",
    "ExperimentConfig",
    "ExperimentResult",
    "FieldSource",
    "NoiseSpec",
    "RenewalFamily",
    "RenewalSpec",
    "SampleTrace",
    "SlopeFit",
    "acquire",
    "detect_bandwidth",
    "distortion",
    "energy_estimate",
    "estimate_coefficient",
    "estimate_field",
    "fit_loglog_slope",
    "generate_trace",
    "grid_deviation",
    "random_field",
    "reference_field",
    "riemann_coefficient",
    "run",
    "spawn_rngs",
    "trial_seed",
]
