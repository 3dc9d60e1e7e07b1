"""Renewal-process sample traces on (0, 1].

Locations are partial sums S_i of i.i.d. spacings X with E[X] = 1/n and
support inside (0, lam/n]; generation stops at the last S_M <= 1 (the
spacing that would cross 1 is drawn and discarded).  Per-trial randomness
comes from Philox, a counter-based 64-bit generator, keyed by a hash of
(experiment seed, n, trial index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .field import BandlimitedField
from .noise import NoiseSpec

FAMILIES = ("uniform", "triangular", "scaled_beta", "degenerate")

_MASK64 = (1 << 64) - 1

# Hard cap on spacing draws per trace; hitting it is reported as a fault
# rather than looping forever on a degenerate configuration.
ITERATION_CAP = 10**9


def trial_seed(experiment_seed: int, n: int, trial: int) -> int:
    """Stable 64-bit seed for one (n, trial) cell of an experiment."""
    ss = np.random.SeedSequence(entropy=(experiment_seed & _MASK64, int(n), int(trial)))
    return int(ss.generate_state(1, np.uint64)[0])


def spawn_rngs(seed: int, streams: int = 2) -> tuple[np.random.Generator, ...]:
    """Independent Philox streams derived from one trial seed.

    Stream 0 drives the spacing draws, stream 1 the noise draws, so the
    two are independent by construction.
    """
    children = np.random.SeedSequence(seed & _MASK64).spawn(streams)
    return tuple(np.random.Generator(np.random.Philox(c)) for c in children)


@dataclass(frozen=True)
class RenewalSpec:
    """Spacing law: n X has mean 1 and support inside (0, lam].

    lam is not a parameter: the mean-1 constraint pins it to 2 for uniform
    and triangular, (alpha+beta)/alpha for scaled_beta and 1 for degenerate.
    alpha and beta shape scaled_beta only.
    """

    n: int
    family: str
    alpha: float = 2.0
    beta: float = 2.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ConfigError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown renewal family {self.family!r}; choose from {FAMILIES}")
        if self.family == "scaled_beta" and not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ConfigError("scaled_beta needs finite alpha > 0 and beta > 0")

    @property
    def lam(self) -> float:
        if self.family == "scaled_beta":
            return (self.alpha + self.beta) / self.alpha
        return 1.0 if self.family == "degenerate" else 2.0

    @property
    def max_spacing(self) -> float:
        return self.lam / self.n

    @classmethod
    def uniform(cls, n: int) -> "RenewalSpec":
        """n X ~ Uniform(0, 2]."""
        return cls(n, "uniform")

    @classmethod
    def triangular(cls, n: int) -> "RenewalSpec":
        """n X symmetric triangular on (0, 2], mean 1."""
        return cls(n, "triangular")

    @classmethod
    def scaled_beta(cls, n: int, alpha: float, beta: float) -> "RenewalSpec":
        """n X = lam * Beta(alpha, beta) with lam = (alpha+beta)/alpha."""
        return cls(n, "scaled_beta", alpha, beta)

    @classmethod
    def degenerate(cls, n: int) -> "RenewalSpec":
        """X = 1/n exactly (testing only; lam = 1 sits outside lam > 1)."""
        return cls(n, "degenerate")


def _draw_block(spec: RenewalSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    if spec.family == "degenerate":
        return np.full(size, 1.0 / spec.n)
    if spec.family == "uniform":
        # 1 - U[0,1) lands in (0, 1], keeping the support strictly positive
        return (1.0 - rng.random(size)) * spec.max_spacing
    if spec.family == "triangular":
        v = rng.triangular(0.0, 1.0, 2.0, size=size)
        mask = v <= 0.0
        while mask.any():
            v[mask] = rng.triangular(0.0, 1.0, 2.0, size=int(mask.sum()))
            mask = v <= 0.0
        return v / spec.n
    v = rng.beta(spec.alpha, spec.beta, size=size)
    mask = v <= 0.0
    while mask.any():
        v[mask] = rng.beta(spec.alpha, spec.beta, size=int(mask.sum()))
        mask = v <= 0.0
    return v * spec.max_spacing


@dataclass(frozen=True)
class SampleTrace:
    """Ordered locations S_1 < ... < S_M in (0, 1] plus optional readings.

    overshoot is 1 - S_M.  The stopping rule S_M <= 1 < S_M + X_{M+1} is
    checked during generation; the crossing spacing itself is discarded.
    """

    spec: RenewalSpec
    locations: np.ndarray
    overshoot: float
    readings: np.ndarray | None = None

    def __post_init__(self) -> None:
        locs = np.asarray(self.locations, dtype=float)
        locs.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        if locs.size:
            if locs[0] <= 0.0 or locs[-1] > 1.0:
                raise ValueError("locations must lie in (0, 1]")
            if locs.size > 1 and not np.all(np.diff(locs) > 0.0):
                raise ValueError("locations must be strictly increasing")
        # tiny slack: the crossing test rounds, so overshoot may poke one
        # ulp past the spacing bound
        if not (-1e-12 <= self.overshoot <= self.spec.max_spacing + 1e-12):
            raise ValueError("overshoot must lie in [0, lam/n)")
        if (self.m + 1) * self.spec.lam < self.spec.n - 1e-9:
            raise ValueError("trace is too short for the spacing bound (M + 1 >= n/lam)")
        if self.readings is not None:
            r = np.asarray(self.readings)
            if r.shape != locs.shape:
                raise ValueError("readings must align with locations")
            r.setflags(write=False)
            object.__setattr__(self, "readings", r)

    @property
    def m(self) -> int:
        return int(self.locations.size)


def _strictly_increasing(locations: np.ndarray) -> np.ndarray:
    """Nudge exact float ties (possible when a spacing underflows the gap
    to its running sum) up by one ulp; the fast path is a no-op."""
    if locations.size < 2 or bool(np.all(np.diff(locations) > 0.0)):
        return locations
    out = locations.copy()
    for i in range(1, out.size):
        if out[i] <= out[i - 1]:
            out[i] = np.nextafter(out[i - 1], np.inf)
    if out[-1] > 1.0:
        raise RuntimeError("tie-break nudge crossed the unit boundary")
    return out


def generate_trace(spec: RenewalSpec, rng: np.random.Generator) -> SampleTrace:
    """Accumulate spacings until the partial sum would exceed 1."""
    if spec.family == "degenerate":
        # Exact arithmetic gives S_i = i/n and M = n; summing rounded 1/n
        # spacings in floats would drift past 1 and drop the final point.
        m = spec.n
        return SampleTrace(spec=spec, locations=np.arange(1, m + 1) / m, overshoot=0.0)
    pieces: list[np.ndarray] = []
    total = 0.0
    drawn = 0
    block = max(64, int(spec.n + 6.0 * math.sqrt(spec.n) + 16))
    while True:
        x = _draw_block(spec, rng, block)
        partial = total + np.cumsum(x)
        crossed = np.nonzero(partial > 1.0)[0]
        if crossed.size:
            cut = int(crossed[0])
            pieces.append(partial[:cut])
            # stopping rule: last kept sum <= 1, and adding x[cut] crosses 1
            if not ((cut == 0 or partial[cut - 1] <= 1.0) and partial[cut] > 1.0):
                raise RuntimeError("trace generation broke the stopping rule S_M <= 1 < S_M + X_{M+1}")
            break
        pieces.append(partial)
        total = float(partial[-1])
        drawn += block
        if drawn > ITERATION_CAP:
            raise RuntimeError("trace generation exceeded the iteration cap without reaching 1")
    locations = _strictly_increasing(np.concatenate(pieces))
    last = float(locations[-1]) if locations.size else 0.0
    return SampleTrace(spec=spec, locations=locations, overshoot=1.0 - last)


def grid_deviation(trace: SampleTrace) -> float:
    """(1/M) sum_i (S_i - i/M)^2, the squared gap to the ordinal grid."""
    m = trace.m
    if m == 0:
        raise ValueError("grid deviation is undefined for an empty trace")
    return float(np.mean((trace.locations - np.arange(1, m + 1) / m) ** 2))


def acquire(trace: SampleTrace, field: BandlimitedField, noise: NoiseSpec,
            rng: np.random.Generator) -> SampleTrace:
    """Attach readings y_i = g(S_i) + W_i using the given noise stream."""
    values = field.evaluate(trace.locations)
    return replace(trace, readings=values + noise.draw(rng, size=trace.m))
