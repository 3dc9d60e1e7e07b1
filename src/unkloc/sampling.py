"""Renewal-process sample traces on (0, 1].

Locations are partial sums S_i of i.i.d. spacings X with E[X] = 1/n and
support inside (0, lam/n]; generation stops at the last S_M <= 1 (the
spacing that would cross 1 is drawn and discarded).  Per-trial randomness
comes from Philox, a counter-based 64-bit generator.  One transcription of
numpy's SeedSequence hash makes both the seed of an (experiment seed, n,
trial) cell and the key of each of its streams, and every stream is keyed
one way: a generator is re-keyed to its key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, density, number, refuse_unread
from .field import BandlimitedField
from .noise import NoiseSpec, redraw

_MASK64 = (1 << 64) - 1

# Hard cap on spacing draws per trace; hitting it is reported as a fault
# rather than looping forever on a degenerate configuration.
ITERATION_CAP = 10**9


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), transcribed so
# that the same lines run on Python ints (one cell) and on uint64 arrays (a
# sweep worker's cells at one n).  It works on 32-bit words: every product
# and difference is masked to its low 32 bits, a product of two words fits
# in a uint64, and a wrapped uint64 difference keeps the right low 32 bits.
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int):
    """hashmix: value hashed by the running hash constant, and the constant
    that the next call takes.  It returns a new value rather than updating
    its argument, which may be a pool word."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _pool(entropy: list) -> list:
    """SeedSequence.mix_entropy: the pool of 4 words that the entropy words hash to."""
    pool, const = [], _INIT_A
    for i in range(_POOL):  # 0 past the last entropy word
        word, const = _hashmix(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL):  # mix every pool word into the other three
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for value in entropy[_POOL:]:  # then every word past the pool into all four
        for dst in range(_POOL):
            word, const = _hashmix(value, const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    return pool


def _state64(pool: list, count: int) -> list:
    """SeedSequence.generate_state(count, np.uint64) of the pool: 32-bit word
    j hashes pool word j mod 4, and words 2j and 2j + 1 make 64-bit word j."""
    words, const = [], _INIT_B
    for j in range(2 * count):
        word, const = _hashmix(pool[j % _POOL], const, _MULT_B)
        words.append(word)
    return [low | high << 32 for low, high in zip(words[::2], words[1::2])]


def _split(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits an int >= 0 into (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def trial_seed(experiment_seed: int, n: int, trial):
    """Stable 64-bit seed of the (n, trial) cell of an experiment: the
    SeedSequence hash of the entropy (experiment_seed mod 2**64, n, trial),
    whose words are the little-endian 32-bit words SeedSequence splits each
    int into (0 is one word).

    With an int trial it hashes one cell and returns an int.  With an
    integer array of trials in [0, 2**32), one word each, it hashes the
    cells of every trial at this n at once and returns a uint64 array."""
    n, array = int(n), isinstance(trial, np.ndarray)
    if array:  # one word per trial; checked on Python ints, as numpy's checks page in more code than the hash
        fits = trial.dtype.kind in "iu" and all(0 <= t <= _MASK32 for t in trial.tolist())
    else:
        trial = int(trial)
        fits = trial >= 0
    if n < 0 or not fits:  # as SeedSequence refuses them; the split holds for ints >= 0 only
        raise ValueError(f"a cell needs n >= 0 and trial >= 0, and an array of trials integers below 2**32; "
                         f"got n={n}, trial={trial}")
    words = [trial.astype(np.uint64)] if array else _split(trial)
    return _state64(_pool(_split(int(experiment_seed) & _MASK64) + _split(n) + words), 1)[0]


def stream_keys(seed, count: int = 2) -> list[tuple]:
    """The Philox keys of the first count streams of a trial seed (an int,
    or a numpy array of seeds): each a (low, high) pair of 64-bit words.
    Stream i is child i of SeedSequence(seed mod 2**64).spawn(...), whose
    entropy words are [s_lo, s_hi, 0, 0, i]: the spawn key's padding, which
    also holds for s < 2**32.  Its key is generate_state(2, np.uint64) of
    their pool, as Philox takes it."""
    seed = seed.astype(np.uint64) if isinstance(seed, np.ndarray) else int(seed) & _MASK64
    return [tuple(_state64(_pool([seed & _MASK32, seed >> 32, 0, 0, i]), 2)) for i in range(count)]


def rekey(generator: np.random.Generator, key) -> np.random.Generator:
    """generator with its Philox set to the key (low, high) at counter 0 and
    an empty buffer, so that it draws what a Philox built with that key
    draws: Philox is counter-based, so a stream is just its key."""
    generator.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                                     "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


def spawn_rngs(seed: int, count: int = 2) -> tuple[np.random.Generator, ...]:
    """The first count independent Philox streams of one trial seed: the
    first drives the spacing draws, the second the noise draws.  Each is a
    generator re-keyed to its key from stream_keys."""
    return tuple(rekey(np.random.Generator(np.random.Philox(0)), key) for key in stream_keys(seed, count))


def _beta_lam(alpha: float, beta: float) -> float:
    """n X = lam * Beta(alpha, beta) has mean 1 at lam = (alpha+beta)/alpha."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf and (alpha + beta) / alpha < math.inf):
        raise ConfigError(f"scaled_beta needs finite alpha > 0, beta > 0 and lam, got {alpha!r}, {beta!r}")
    return (alpha + beta) / alpha


def _uniform(spec: RenewalSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """(1 - U) * lam/n, formed in the array of the U[0, 1) draws.  1 - U
    lands in (0, 1], keeping the support strictly positive."""
    x = rng.random(size)
    np.subtract(1.0, x, out=x)
    x *= spec.max_spacing
    return x


class _Law(NamedTuple):
    lam: Callable[[float, float], float]  # support bound of n X, from (alpha, beta); refuses a bad shape
    draw: Callable[[RenewalSpec, np.random.Generator, int], np.ndarray]  # size spacings X


_LAWS = {
    "uniform": _Law(lambda a, b: 2.0, _uniform),
    # n X symmetric triangular on (0, 2], mean 1
    "triangular": _Law(lambda a, b: 2.0, lambda spec, rng, size: redraw(
        lambda k: rng.triangular(0.0, 1.0, 2.0, size=k), size, lambda v: v <= 0.0, spec) / spec.n),
    "scaled_beta": _Law(_beta_lam, lambda spec, rng, size: redraw(
        lambda k: rng.beta(spec.law.alpha, spec.law.beta, size=k), size, lambda v: v <= 0.0, spec) * spec.max_spacing),
    # X = 1/n exactly (testing only; lam = 1 sits outside lam > 1)
    "degenerate": _Law(lambda a, b: 1.0, lambda spec, rng, size: np.full(size, 1.0 / spec.n)),
}

FAMILIES = tuple(_LAWS)


@dataclass(frozen=True)
class RenewalLaw:
    """The spacing law of n X, at every density n: mean 1, support inside
    (0, lam].  lam is not a parameter: the mean-1 constraint pins it, through
    the family's row of ``_LAWS``.  alpha and beta shape scaled_beta only."""

    family: str
    alpha: float = 2.0
    beta: float = 2.0
    lam: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.family not in _LAWS:
            raise ConfigError(f"unknown renewal family {self.family!r}; choose from {FAMILIES}")
        object.__setattr__(self, "lam", _LAWS[self.family].lam(number("alpha", self.alpha), number("beta", self.beta)))

    def at(self, n: int) -> "RenewalSpec":
        """This law at sample density n."""
        return RenewalSpec(n, self)

    def _fewest(self, n) -> int:
        """The fewest samples a trace at density n can hold: the smallest M
        with (M + 1) lam >= n, as M + 1 spacings of at most lam/n reach past
        1 (with a tiny slack, as the sums round)."""
        return math.ceil((n - 1e-9) / self.lam) - 1

    @classmethod
    def from_dict(cls, data: dict) -> "RenewalLaw":
        """A missing or null alpha/beta takes the default; other families take no shape."""
        family = data.get("family")
        if family is None:
            raise ConfigError("renewal record needs a 'family' entry")
        shape = {key: data[key] for key in ("alpha", "beta") if data.get(key) is not None}
        law = cls(str(family), **shape)
        refuse_unread(data, f"{law.family} renewal law",
                      ("family", "alpha", "beta") if law.family == "scaled_beta" else ("family",))
        return law


@dataclass(frozen=True)
class RenewalSpec:
    """A renewal law at sample density n: the spacings X have mean 1/n and
    support inside (0, lam/n]."""

    n: int
    law: RenewalLaw

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", density(self.n))

    @property
    def max_spacing(self) -> float:
        return self.law.lam / self.n

    @classmethod
    def uniform(cls, n: int) -> "RenewalSpec":
        """n X ~ Uniform(0, 2]."""
        return cls(n, RenewalLaw("uniform"))


def _draw_block(spec: RenewalSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    return _LAWS[spec.law.family].draw(spec, rng, size)


@dataclass(frozen=True)
class SampleTrace:
    """Ordered locations S_1 < ... < S_M in (0, 1] plus optional readings.

    The stopping rule S_M <= 1 < S_M + X_{M+1} is checked during
    generation; the crossing spacing itself is discarded.
    """

    spec: RenewalSpec
    locations: np.ndarray
    readings: np.ndarray | None = None

    def __post_init__(self) -> None:
        locs = np.asarray(self.locations, dtype=float)
        locs.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        if locs.size:
            if locs[0] <= 0.0 or locs[-1] > 1.0:
                raise ValueError("locations must lie in (0, 1]")
            if not (locs[1:] > locs[:-1]).all():
                raise ValueError("locations must be strictly increasing")
        # S_M lies within one spacing of 1; tiny slack, as the crossing test
        # rounds, so the overshoot may poke one ulp past the spacing bound
        if self.overshoot > self.spec.max_spacing + 1e-12:
            raise ValueError("overshoot 1 - S_M must lie in [0, lam/n)")
        if self.m < self.spec.law._fewest(self.spec.n):
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

    @property
    def overshoot(self) -> float:
        """1 - S_M, or 1 for a trace with no sample."""
        return 1.0 - float(self.locations[-1]) if self.locations.size else 1.0


def _strictly_increasing(locations: np.ndarray) -> np.ndarray:
    """Nudge exact float ties (possible when a spacing underflows the gap
    to its running sum) up by one ulp; the fast path is a no-op."""
    if (locations[1:] > locations[:-1]).all():
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
    if spec.law.family == "degenerate":
        # Exact arithmetic gives S_i = i/n and M = n; summing rounded 1/n
        # spacings in floats would drift past 1 and drop the final point.
        return SampleTrace(spec=spec, locations=np.arange(1, spec.n + 1) / spec.n)
    pieces: list[np.ndarray] = []
    total = 0.0
    drawn = 0
    block = max(64, int(spec.n + 6.0 * math.sqrt(spec.n) + 16))
    while True:
        x = _draw_block(spec, rng, block)
        partial = np.cumsum(x, out=x)
        if drawn:  # a later block goes on from the running total
            partial += total
        # the sums never decrease, so the first one past 1 is found by bisection
        cut = int(partial.searchsorted(1.0, side="right"))
        if cut < partial.size:
            pieces.append(partial[:cut])
            # stopping rule: last kept sum <= 1, and adding x[cut] crosses 1;
            # it also guards the order that the bisection assumes
            if not ((cut == 0 or partial[cut - 1] <= 1.0) and partial[cut] > 1.0):
                raise RuntimeError("trace generation broke the stopping rule S_M <= 1 < S_M + X_{M+1}")
            break
        pieces.append(partial)
        total = float(partial[-1])
        drawn += block
        if drawn > ITERATION_CAP:
            raise RuntimeError("trace generation exceeded the iteration cap without reaching 1")
    # the first block nearly always crosses 1, and then there is nothing to join
    locations = _strictly_increasing(pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
    return SampleTrace(spec=spec, locations=locations)


def grid_deviation(trace: SampleTrace) -> float:
    """(1/M) sum_i (S_i - i/M)^2, the squared gap to the ordinal grid."""
    m = trace.m
    if m == 0:
        raise ValueError("grid deviation is undefined for an empty trace")
    gap = trace.locations - np.arange(1, m + 1) / m
    gap *= gap
    return float(np.add.reduce(gap) / m)  # np.mean's own sum and division


def acquire(trace: SampleTrace, field: BandlimitedField, noise: NoiseSpec,
            rng: np.random.Generator) -> SampleTrace:
    """Attach readings y_i = g(S_i) + W_i using the given noise stream."""
    readings = field.evaluate(trace.locations)
    readings += noise.draw(rng, size=trace.m)
    return replace(trace, readings=readings)
