"""Renewal-process sample traces on (0, 1].

Locations are partial sums S_i of i.i.d. spacings X with E[X] = 1/n and
support inside (0, lam/n]; generation stops at the last S_M <= 1 (the
spacing that would cross 1 is drawn and discarded).  Per-trial randomness
comes from Philox, a counter-based 64-bit generator, keyed by a hash of
(experiment seed, n, trial index).
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), written once so
# that the same lines run on Python ints (one cell) and on uint64 arrays (a
# sweep worker's share of cells).  It works on 32-bit words: every product and difference is
# masked to its low 32 bits, a product of two words fits in a uint64, and a
# wrapped uint64 difference keeps the right low 32 bits.  hashmix(v) is
# ((v ^ a) * b mod 2**32) ^ its top half, where the constants (a, b) of its
# k-th call are links k and k + 1 of a chain INIT * MULT**k that does not
# depend on the data, so each step below carries its own; mix(x, y) is
# ((L * x - R * y) mod 2**32) ^ its top half.  Both are written out in the
# loops, as a call each would cost more than their arithmetic on one cell,
# and the loops take the mask and multipliers as default arguments, which
# Python reads as fast as locals.
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _chain(init: int, mult: int, links: int) -> list[int]:
    out = [init]
    for _ in range(links - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


_HASH_A = _chain(_INIT_A, _MULT_A, 16 + 4 * 2 + 1)  # a pool and two words past it


def _steps(pairs, k: int) -> tuple:
    """The (src, dst) pairs of mix_entropy from hashmix call k on, each
    with the constants (a, b) of its call."""
    chain = _HASH_A if k + len(pairs) < len(_HASH_A) else _chain(_INIT_A, _MULT_A, k + len(pairs) + 1)
    return tuple((src, dst, chain[k + j], chain[k + j + 1]) for j, (src, dst) in enumerate(pairs))


# mix_entropy: hashmix each entropy word into its pool word, mix each pool
# word into the other three, then mix each word past the pool into all four
_FIRST = tuple(_HASH_A[:_POOL + 1])  # the links of hashmix calls 0 to 3
_CROSS = _steps([(src, dst) for src in range(_POOL) for dst in range(_POOL) if src != dst], _POOL)
_PAST = _POOL + len(_CROSS)  # the hashmix call of the first word past the pool
_SPAWN = _steps([(_POOL, dst) for dst in range(_POOL)], _PAST)  # one spawn key word
# generate_state: 32-bit word j hashes pool word j mod 4 by the chain
# INIT_B * MULT_B**j, and words 2j and 2j + 1 make 64-bit word j
_HASH_B = _chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)
_STATE = tuple((2 * j % _POOL, _HASH_B[2 * j], _HASH_B[2 * j + 1], _HASH_B[2 * j + 1], _HASH_B[2 * j + 2])
               for j in range(_POOL))


def _stir(words: list, steps, mask: int = _MASK32, left: int = _MIX_L, right: int = _MIX_R) -> list:
    """words[dst] = mix(words[dst], hashmix(words[src])) for each step, in place."""
    for src, dst, a, b in steps:
        value = (words[src] ^ a) * b & mask
        value = (left * words[dst] - right * (value ^ value >> 16)) & mask
        words[dst] = value ^ value >> 16
    return words


def _pool(words: list, mask: int = _MASK32) -> list:
    """SeedSequence.mix_entropy: the pool of 4 words that the entropy words hash to."""
    a0, a1, a2, a3, a4 = _FIRST
    w0, w1, w2, w3 = (words + [0] * _POOL)[:_POOL]  # 0 past the last word
    p0, p1, p2, p3 = (w0 ^ a0) * a1 & mask, (w1 ^ a1) * a2 & mask, (w2 ^ a2) * a3 & mask, (w3 ^ a3) * a4 & mask
    pool = _stir([p0 ^ p0 >> 16, p1 ^ p1 >> 16, p2 ^ p2 >> 16, p3 ^ p3 >> 16], _CROSS)
    if len(words) <= _POOL:
        return pool
    past = [(src, dst) for src in range(_POOL, len(words)) for dst in range(_POOL)]
    return _stir(pool + words[_POOL:], _steps(past, _PAST))[:_POOL]


def _state64(pool: list, count: int) -> list:
    """SeedSequence.generate_state(count, np.uint64) of the pool."""
    out = []
    for i, a, b, c, d in _STATE[:count]:
        low = (pool[i] ^ a) * b & _MASK32
        high = (pool[i + 1] ^ c) * d & _MASK32
        out.append(low ^ low >> 16 | (high ^ high >> 16) << 32)
    return out


def _split(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits an int >= 0 into (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _cell_array(name: str, value) -> np.ndarray:
    """One entry of the cells of an array call, as uint64: the seed taken
    mod 2**64, and n and trial refused if negative, as SeedSequence refuses
    them.  An entry must hold integers below 2**64; an int past that, or a
    float, is refused rather than rounded."""
    if not isinstance(value, np.ndarray):
        value = np.asarray(int(value) & _MASK64 if name == "experiment_seed" else int(value))
    if value.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers below 2**64 in an array of cells, got dtype {value.dtype}")
    if name != "experiment_seed" and (value < 0).any():
        raise ValueError(f"a cell needs n >= 0 and trial >= 0, got a negative {name}")
    return value.astype(np.uint64)  # wraps a negative seed mod 2**64


def trial_seed(experiment_seed, n, trial):
    """Stable 64-bit seed of the (n, trial) cell of an experiment: the
    SeedSequence hash of the entropy (experiment_seed mod 2**64, n, trial),
    whose words are the little-endian 32-bit words SeedSequence splits each
    int into (0 is one word).

    With ints it hashes one cell and returns an int.  With numpy arrays
    (ints broadcast against them) it hashes every cell at once and returns a
    uint64 array; an entry of 2**32 or more takes a second word, so the
    cells are hashed in groups of one word layout."""
    if not (isinstance(experiment_seed, np.ndarray) or isinstance(n, np.ndarray) or isinstance(trial, np.ndarray)):
        n, trial = int(n), int(trial)
        if n < 0 or trial < 0:  # as SeedSequence does; the split holds for ints >= 0 only
            raise ValueError(f"a cell needs n >= 0 and trial >= 0, got n={n}, trial={trial}")
        experiment_seed = int(experiment_seed) & _MASK64
        words = ([experiment_seed, n, trial] if experiment_seed | n | trial <= _MASK32
                 else _split(experiment_seed) + _split(n) + _split(trial))
        return _state64(_pool(words), 1)[0]
    cell = np.broadcast_arrays(*(_cell_array(name, value) for name, value in
                                 (("experiment_seed", experiment_seed), ("n", n), ("trial", trial))))
    layout = (cell[0] > _MASK32) + 2 * (cell[1] > _MASK32) + 4 * (cell[2] > _MASK32)  # bit i: entry i takes two words
    seeds = np.empty(layout.shape, dtype=np.uint64)
    for code in range(8):
        chosen = layout == code
        if chosen.any():
            words = []
            for i, entry in enumerate(cell):
                entry = entry[chosen]
                words += [entry & _MASK32, entry >> 32] if code >> i & 1 else [entry]
            seeds[chosen] = _state64(_pool(words), 1)[0]
    return seeds


def _stream_pools(seed, count: int) -> list[list]:
    """The pools of the first count streams of a trial seed (an int, or a
    numpy array of seeds).  Stream i is child i of SeedSequence(seed mod
    2**64).spawn(...), whose entropy words are [s_lo, s_hi, 0, 0, i]: the
    spawn key's padding, which also holds for s < 2**32.  The streams share
    the pool of the first four words, and mix their own word into it."""
    seed = seed.astype(np.uint64) if isinstance(seed, np.ndarray) else int(seed) & _MASK64
    pool = _pool([seed & _MASK32, seed >> 32, 0, 0])
    return [_stir(pool + [i], _SPAWN)[:_POOL] for i in range(count)]


def stream_keys(seed, count: int = 2) -> list[tuple]:
    """The Philox keys of the first count streams of a trial seed (an int,
    or a numpy array of seeds): each a (low, high) pair of 64-bit words,
    generate_state(2, np.uint64) of the stream's pool, as Philox takes it."""
    return [tuple(_state64(pool, 2)) for pool in _stream_pools(seed, count)]


class _HashedPool:
    """A stream's SeedSequence pool, hashed by the lines above, in the role
    of the seed sequence that Philox reads its key from.  It is registered as
    a numpy ISeedSequence on first use, which keeps numpy.random out of the
    import."""

    __slots__ = ("pool",)

    def __init__(self, pool: list[int]) -> None:
        self.pool = pool

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """SeedSequence.generate_state, for the 64-bit words that Philox asks for."""
        if np.dtype(dtype) != np.uint64 or n_words > _POOL:
            raise NotImplementedError("a hashed pool generates at most 4 uint64 words")
        return np.array(_state64(self.pool, n_words), dtype=np.uint64)


def rekey(generator: np.random.Generator, key) -> np.random.Generator:
    """generator with its Philox set to the key (low, high) at counter 0 and
    an empty buffer, so that it draws what a Philox built with that key
    draws: Philox is counter-based, so a stream is just its key."""
    generator.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                                     "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


def spawn_rngs(seed: int, count: int = 2) -> tuple[np.random.Generator, ...]:
    """The first count independent Philox streams of one trial seed: the
    first drives the spacing draws, the second the noise draws.  Stream i is
    child i of SeedSequence(seed mod 2**64).spawn(...), keyed as stream_keys
    says."""
    np.random.bit_generator.ISeedSequence.register(_HashedPool)
    return tuple(np.random.Generator(np.random.Philox(_HashedPool(pool))) for pool in _stream_pools(seed, count))


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
        if (self.m + 1) * self.spec.law.lam < self.spec.n - 1e-9:
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
