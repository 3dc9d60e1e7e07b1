"""Zero-mean measurement-noise families with analytically known moments.

Every family reports (variance, fourth moment, variance of the square);
the estimator needs the variance for the energy offset and the analysis
tests need the higher moments for standard-error budgets.  Each family is
declared once, as one row of ``_LAWS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, number, refuse_unread

DEFAULT_GAUSSIAN_CUT = 6.0

# Bounds on redrawing rejected variates in one call.  A law that accepts a
# draw with probability p redraws about size/p variates over ln(size)/p
# rounds, so the bounds refuse only laws with p below about 1e-3 (or below
# size/1e7), and they keep a law that never accepts from looping forever.
REDRAW_CAP = 10**7  # variates
REDRAW_ROUNDS = 10**4


def redraw(draw: Callable[[int], np.ndarray], size: int,
           rejected: Callable[[np.ndarray], np.ndarray], spec) -> np.ndarray:
    """draw(size), with the rejected entries redrawn in place, in index
    order, until none is left.  Shared by every law that rejects variates
    (noise and spacings alike); spec names the law in the error."""
    v = draw(size)
    mask = rejected(v)
    left = int(np.count_nonzero(mask))
    rounds = redrawn = 0
    while left:
        if rounds == REDRAW_ROUNDS or redrawn > REDRAW_CAP:
            raise ConfigError(f"{spec} still rejected {left} draws after redrawing {redrawn} in {rounds} rounds")
        v[mask] = draw(left)
        mask = rejected(v)
        redrawn += left
        rounds += 1
        left = int(np.count_nonzero(mask))
    return v


def _cut(params: tuple[float, ...]) -> float:
    """The gaussian cut c, in multiples of sigma."""
    return params[1] if len(params) == 2 else DEFAULT_GAUSSIAN_CUT


def _gaussian(spec: "NoiseSpec", rng: np.random.Generator, size: int) -> np.ndarray:
    sigma = spec.params[0]
    bound = _cut(spec.params) * sigma
    return redraw(lambda k: rng.normal(0.0, sigma, size=k), size, lambda v: np.abs(v) > bound, spec)


def _gaussian_moments(params: tuple[float, ...]) -> tuple[float, float]:
    """Var and E[W^4] of N(0, sigma^2) cut at +-c sigma.  From c = 1.5 up
    they are sigma^2 (1 - 2t) and sigma^4 (3 - 6t - 2c^2 t), with t = c phi(c) / Z,
    phi the standard normal density and Z = erf(c / sqrt 2) the mass kept;
    t is 0 once phi(c) underflows, where both are the untruncated moments.
    Below c = 1.5 those forms lose digits to cancellation, so the moments
    are sigma^2 c^2 S_1 / S_0 and sigma^4 c^4 S_2 / S_0, where
    S_p = sum_{j<24} (-c^2/2)^j / (j! (2j + 2p + 1)) is the power series of
    the integral of u^2p exp(-c^2 u^2 / 2) over u in [0, 1]."""
    sigma, c = params[0], _cut(params)
    if c < 1.5:
        s = [sum((-0.5 * c * c) ** j / (math.factorial(j) * (2 * j + 2 * p + 1)) for j in range(24))
             for p in range(3)]
        return sigma**2 * (c * c * s[1] / s[0]), sigma**4 * (c**4 * s[2] / s[0])
    t = c * math.exp(-0.5 * c * c) / (math.sqrt(2.0 * math.pi) * math.erf(c / math.sqrt(2.0)))
    return sigma**2 * (1.0 - 2.0 * t), sigma**4 * (3.0 - 6.0 * t - 2.0 * c * (c * t))


class _Law(NamedTuple):
    takes: str  # the parameters, for error messages
    counts: tuple[int, ...]  # allowed numbers of parameters
    variance: Callable[[tuple[float, ...]], float]
    fourth_moment: Callable[[tuple[float, ...]], float]
    draw: Callable[["NoiseSpec", np.random.Generator, int], np.ndarray]


_LAWS = {
    # W ~ Uniform[-a, a]
    "uniform": _Law("one half-width a >= 0", (1,), lambda p: p[0] ** 2 / 3.0, lambda p: p[0] ** 4 / 5.0,
                    lambda s, rng, size: rng.uniform(-s.params[0], s.params[0], size=size)),
    # Gaussian with sigma, redrawn outside +-cut*sigma.  The moments are the
    # truncated law's: at the default cut of 6, sigma^2 (1 - 7.3e-8) and
    # sigma^4 (3 - 2.8e-6)
    "gaussian": _Law("sigma >= 0 and an optional cut multiple > 0", (1, 2),
                     lambda p: _gaussian_moments(p)[0], lambda p: _gaussian_moments(p)[1], _gaussian),
    # W = +-scale with equal probability; W^2 is deterministic
    "rademacher": _Law("one scale >= 0", (1,), lambda p: p[0] ** 2, lambda p: p[0] ** 4,
                       lambda s, rng, size: (2.0 * rng.integers(0, 2, size=size) - 1.0) * s.params[0]),
    "zero": _Law("no parameters", (0,), lambda p: 0.0, lambda p: 0.0, lambda s, rng, size: np.zeros(size)),
}

FAMILIES = tuple(_LAWS)


@dataclass(frozen=True)
class NoiseSpec:
    """family plus positional parameters, matching the config-file format
    {"family": str, "params": [..]}.  The first parameter is a scale and
    may be 0; a second one (the gaussian cut) must be positive."""

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(number("noise parameter", p)) for p in self.params))
        law = _LAWS.get(self.family)
        if law is None:
            raise ConfigError(f"unknown noise family {self.family!r}; choose from {FAMILIES}")
        if not all(math.isfinite(p) for p in self.params):
            raise ConfigError(f"noise parameters must be finite, got {self.params}")
        if (len(self.params) not in law.counts or any(p < 0 for p in self.params[:1])
                or any(p <= 0 for p in self.params[1:])):
            raise ConfigError(f"{self.family} noise takes {law.takes}, got {self.params}")
        try:
            bounded = math.isfinite(self.var_of_square)
        except OverflowError:
            bounded = False
        if not bounded:
            raise ConfigError(f"{self.family} noise parameters {self.params} overflow its moments")

    @classmethod
    def uniform_sym(cls, half_width: float) -> "NoiseSpec":
        """W ~ Uniform[-a, a]."""
        return cls("uniform", (half_width,))

    @property
    def variance(self) -> float:
        return _LAWS[self.family].variance(self.params)

    @property
    def fourth_moment(self) -> float:
        return _LAWS[self.family].fourth_moment(self.params)

    @property
    def var_of_square(self) -> float:
        return self.fourth_moment - self.variance**2

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size independent noise draws."""
        return _LAWS[self.family].draw(self, rng, size)

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseSpec":
        params = data.get("params", [])  # a list: a string or a mapping would be read item by item
        if "family" not in data or not isinstance(params, list):
            raise ConfigError(f"noise record needs a 'family' and a list of 'params', got {data}")
        spec = cls(str(data["family"]), tuple(params))
        refuse_unread(data, f"{spec.family} noise", ("family", "params"))
        return spec
