"""Renewal-process sample traces on (0, 1].

Locations are partial sums S_i of i.i.d. spacings X with E[X] = 1/n and
support inside (0, lam/n]; generation stops at the last S_M <= 1 (the
spacing that would cross 1 is drawn and discarded).  The degenerate law,
the equispaced baseline, draws the exact gaps of the grid i/n, which sum
back to S_i = i/n bit for bit.  generate_traces draws a chunk of cells'
traces, one from each cell's stream, into the rows of one float64 matrix
that its caller sizes: a sweep fits as many rows of RenewalSpec.width
spacings as a point budget holds (experiments.TRACE_POINTS).  It checks
the chunk with a few matrix calls, and grid_deviation scores a chunk with
one sum per row; generate_trace and a SampleTrace's grid_deviation are
the one-row cases.  Per-trial randomness comes from Philox, a
counter-based 64-bit generator.  One transcription of numpy's SeedSequence
hash makes both the seed of an (experiment seed, n, trial) cell and the
key of each of its streams, and every stream is keyed one way: a
generator is re-keyed to its key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

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
    if not (alpha + beta) / alpha < math.inf:
        raise ConfigError(f"scaled_beta needs a finite lam, got alpha={alpha!r}, beta={beta!r}")
    return (alpha + beta) / alpha


def _uniform(spec: RenewalSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """(1 - U) * lam/n, formed in out from the U[0, 1) draws.  1 - U lands in
    (0, 1], keeping the support strictly positive."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    out *= spec.max_spacing
    return out


def _degenerate(spec: RenewalSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """The gaps of the grid i/n, i <= out.size: two grid points past 0 lie within a factor 2, so
    each gap is exact (Sterbenz), and a sequential sum of the gaps gives back every i/n bit for bit."""
    grid = np.arange(out.size + 1) / spec.n
    return np.subtract(grid[1:], grid[:-1], out=out)


class _Law(NamedTuple):
    lam: Callable[[float, float], float]  # support bound of n X, from (alpha, beta); refuses an infinite one
    draw: Callable[[RenewalSpec, np.random.Generator, np.ndarray], np.ndarray]  # spacings X, drawn into out
    # a block drawn in parts draws what it draws whole; a law that redraws
    # rejected variates does so after each part's draws, so it may not
    parts: bool = False
    shape: tuple[str, ...] = ()  # the shape keys a renewal record of the family reads


_LAWS = {
    "uniform": _Law(lambda a, b: 2.0, _uniform, parts=True),
    # n X symmetric triangular on (0, 2], mean 1
    "triangular": _Law(lambda a, b: 2.0, lambda spec, rng, out: np.divide(redraw(
        lambda k: rng.triangular(0.0, 1.0, 2.0, size=k), out.size, lambda v: v <= 0.0, spec), spec.n, out=out)),
    "scaled_beta": _Law(_beta_lam, lambda spec, rng, out: np.multiply(redraw(
        lambda k: rng.beta(spec.law.alpha, spec.law.beta, size=k), out.size, lambda v: v <= 0.0, spec),
        spec.max_spacing, out=out), shape=("alpha", "beta")),
    # S_i = i/n exactly, drawn whole as a part restarts the grid (testing only; lam = 1 is outside lam > 1)
    "degenerate": _Law(lambda a, b: 1.0, _degenerate),
}

FAMILIES = tuple(_LAWS)


@dataclass(frozen=True)
class RenewalLaw:
    """The spacing law of n X, at every density n: mean 1, support inside
    (0, lam].  lam is not a parameter: the mean-1 constraint pins it, through
    the family's row of ``_LAWS``.  alpha and beta, finite and > 0 in every
    family, shape scaled_beta only."""

    family: str
    alpha: float = 2.0
    beta: float = 2.0
    lam: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.family not in _LAWS:
            raise ConfigError(f"unknown renewal family {self.family!r}; choose from {FAMILIES}")
        alpha, beta = number("alpha", self.alpha), number("beta", self.beta)
        if not (0 < alpha < math.inf and 0 < beta < math.inf):
            raise ConfigError(f"{self.family} needs finite alpha > 0 and beta > 0, got {alpha!r}, {beta!r}")
        object.__setattr__(self, "lam", _LAWS[self.family].lam(alpha, beta))

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
        """A missing or null alpha/beta takes the default; a family reads the shape its ``_LAWS`` row names."""
        family = data.get("family")
        if family is None:
            raise ConfigError("renewal record needs a 'family' entry")
        shape = {key: data[key] for key in ("alpha", "beta") if data.get(key) is not None}
        law = cls(str(family), **shape)
        refuse_unread(data, f"{law.family} renewal law", ("family", *_LAWS[law.family].shape))
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

    @property
    def block(self) -> int:
        """The spacings drawn at a time, n + 6 sqrt(n) + 16 and at least 64:
        enough that the first block almost always crosses 1."""
        return max(64, int(self.n + 6.0 * math.sqrt(self.n) + 16))

    @property
    def width(self) -> int:
        """The spacings a trace's first draw takes: the block, or, for a law
        whose block may be drawn in parts, its first n + 2 sqrt(n) + 16.
        Under the uniform law these cross 1 in all but about 1 trace in
        10^4 (M has a standard deviation of about sqrt(n/3)), and the rest
        of the block is drawn only for that trace."""
        if not _LAWS[self.law.family].parts:
            return self.block
        return int(self.n + 2.0 * math.sqrt(self.n) + 16)

    @classmethod
    def uniform(cls, n: int) -> "RenewalSpec":
        """n X ~ Uniform(0, 2]."""
        return cls(n, RenewalLaw("uniform"))


def _draw_block(spec: RenewalSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """out, filled with spacings X of the spec's law drawn from rng."""
    return _LAWS[spec.law.family].draw(spec, rng, out)


@dataclass(frozen=True)
class SampleTrace:
    """Ordered locations S_1 < ... < S_M in (0, 1] plus optional readings.

    The stopping rule S_M <= 1 < S_M + X_{M+1} is checked during
    generation; the crossing spacing itself is discarded.  Building one
    checks its locations (see _check) and seals copies of the caller's
    arrays.  generate_traces, which checks the traces it draws a chunk at a
    time, and acquire, whose trace is checked already, build theirs through
    _trace, unchecked, sealing the arrays they made with no copy.
    """

    spec: RenewalSpec
    locations: np.ndarray
    readings: np.ndarray | None = None

    def __post_init__(self) -> None:
        locs = np.array(self.locations, dtype=float)
        if len(_check(self.spec, locs.reshape(1, -1), np.array([locs.size]))):
            raise ValueError("locations must be strictly increasing")
        readings = None if self.readings is None else np.array(self.readings)
        if readings is not None and readings.shape != locs.shape:
            raise ValueError("readings must align with locations")
        _seal(self, self.spec, locs, readings)

    @property
    def m(self) -> int:
        return int(self.locations.size)


def _seal(trace: SampleTrace, spec: RenewalSpec, locations: np.ndarray, readings) -> SampleTrace:
    """trace holding spec, locations and readings, its arrays read-only."""
    locations.setflags(write=False)
    if readings is not None:
        readings.setflags(write=False)
    object.__setattr__(trace, "spec", spec)
    object.__setattr__(trace, "locations", locations)
    object.__setattr__(trace, "readings", readings)
    return trace


def _trace(spec: RenewalSpec, locations: np.ndarray, readings: np.ndarray | None = None) -> SampleTrace:
    """The SampleTrace of locations that have been checked where they were
    made, built without checking them again."""
    return _seal(object.__new__(SampleTrace), spec, locations, readings)


def _check(spec: RenewalSpec, points: np.ndarray, m: np.ndarray) -> np.ndarray | list:
    """Check the trace held by each row j of points, a matrix: its first m[j]
    entries, and then, where the row goes on, the sum that crossed 1.  A
    ValueError is raised unless the locations lie in (0, 1], end within one
    spacing of 1 and are at least the fewest a trace at the spec holds, and a
    RuntimeError unless the sum after them is past 1 (the stopping rule
    S_M <= 1 < S_M + X_{M+1}).  Returns the rows whose locations do not
    strictly increase: the one scan of a trace's order, which the caller
    acts on.  A row with m[j] = 0 holds no sample, and its S_0 is 0."""
    rows, width = points.shape
    at = np.arange(rows)
    last = np.where(m > 0, points[at, m - 1], 0.0) if width else np.zeros(rows)  # S_M, and S_0 = 0 for no sample
    if width:  # each bound on the least or the largest value, where a NaN fails it
        if not (points[:, 0].min() > 0.0 and last.max() <= 1.0):
            raise ValueError("locations must lie in (0, 1]")
        if not points[at, np.minimum(m, width - 1)][m < width].min(initial=np.inf) > 1.0:
            raise RuntimeError("trace generation broke the stopping rule S_M <= 1 < S_M + X_{M+1}")
    # S_M lies within one spacing of 1; tiny slack, as the crossing test
    # rounds, so the overshoot may poke one ulp past the spacing bound
    if 1.0 - last.min() > spec.max_spacing + 1e-12:
        raise ValueError("overshoot 1 - S_M must lie in [0, lam/n)")
    if m.min() < spec.law._fewest(spec.n):
        raise ValueError("trace is too short for the spacing bound (M + 1 >= n/lam)")
    # every place where a value does not rise above the one before it, read
    # along the rows in turn (one compare over the whole matrix), counts in
    # its row when both values are locations: not at the seam between two
    # rows, nor past the row's last location.  Most often the seams are all
    # there is.
    flat = points.ravel()
    falls = flat[1:] <= flat[:-1]
    seams = max(width, 1)  # an empty trace has no seam, and no fall
    if np.count_nonzero(falls) == np.count_nonzero(falls[seams - 1::seams]):
        return []
    row, col = np.divmod(np.flatnonzero(falls), seams)
    return np.unique(row[col < m[row] - 1])


def _nudge(locations: np.ndarray) -> None:
    """Nudge exact float ties (possible when a spacing underflows the gap to
    its running sum) up by one ulp, in place."""
    for i in range(1, locations.size):
        if locations[i] <= locations[i - 1]:
            locations[i] = np.nextafter(locations[i - 1], np.inf)
    if locations[-1] > 1.0:
        raise RuntimeError("tie-break nudge crossed the unit boundary")


class TraceRows(NamedTuple):
    """The traces of a chunk of cells at one spec, one a row of points.  Row
    j's locations are points[j, :m[j]], followed by the sum that crossed 1.
    A row whose trace went on past its first draw has m[j] = 0 and its
    locations in long[j]; a row whose law hit the redraw bound has m[j] = 0
    and its ConfigError in faults[j]."""

    spec: RenewalSpec
    points: np.ndarray
    m: np.ndarray
    long: dict[int, np.ndarray]
    faults: dict[int, ConfigError]

    def trace(self, j: int) -> SampleTrace:
        """Row j's trace, a view of its row; a faulted row raises its ConfigError."""
        if j in self.faults:
            raise self.faults[j]
        return _trace(self.spec, self.long[j] if j in self.long else self.points[j, :self.m[j]])


def _cumulate(spec: RenewalSpec, rng: np.random.Generator, row: np.ndarray) -> tuple[int, list]:
    """Draw row's spacings from rng and cumulate them in place.  While the
    last sum is at or below 1, draw on from rng: first the rest of the block
    that row holds the start of, cumulated on from that sum, then whole
    blocks, each cumulated and then moved on by the running total.  Returns
    the index of the first sum past 1 in the last part drawn, and every
    part, the first being row itself."""
    parts = [_draw_block(spec, rng, row).cumsum(out=row)]
    if row[-1] <= 1.0 and row.size < spec.block:
        rest = _draw_block(spec, rng, np.empty(spec.block - row.size))
        rest[0] += row[-1]  # the block's one sequential sum goes on
        parts.append(rest.cumsum(out=rest))
    drawn = 1
    while parts[-1][-1] <= 1.0:
        if drawn * spec.block > ITERATION_CAP:
            raise RuntimeError("trace generation exceeded the iteration cap without reaching 1")
        total = float(parts[-1][-1])
        block = _draw_block(spec, rng, np.empty(spec.block)).cumsum()
        block += total  # a later block goes on from the running total
        parts.append(block)
        drawn += 1
    # the sums never decrease, so the first one past 1 is found by bisection
    return int(parts[-1].searchsorted(1.0, "right")), parts


def generate_traces(spec: RenewalSpec, rngs: Iterable[np.random.Generator], out: np.ndarray) -> TraceRows:
    """The traces that the streams rngs draw at spec, one a row of out, a
    rows x spec.width float64 matrix, with rngs giving one stream per row.

    Row j takes spec.width spacings from its stream (a block, or the start
    of one) and cumulates them in place.  Its trace is cut at the last sum
    <= 1 (the spacing that would cross 1 is drawn and discarded); a row that
    ends at or below 1 draws on from the same stream (see _cumulate) before
    the next row's stream is drawn from, and its trace moves to
    TraceRows.long.  A row whose law hits the redraw bound keeps its
    ConfigError in TraceRows.faults, and the other rows go on.  Every other
    row, an empty trace too, is then checked at once (see _check), and a
    tie takes a one-ulp nudge up."""
    rows = len(out)
    m = np.zeros(rows, dtype=np.intp)
    long, faults = {}, {}
    for j, rng in zip(range(rows), rngs):
        try:
            cut, parts = _cumulate(spec, rng, out[j])
        except ConfigError as exc:
            faults[j] = exc
            out[j] = 0.0  # the scores of a chunk read every row
            continue
        if len(parts) > 1:
            long[j] = np.concatenate((*parts[:-1], parts[-1][:cut + 1]))
        else:
            m[j] = cut
    drawn = np.delete(np.arange(rows), [*long, *faults])  # a long row is checked apart, a faulted one not at all
    points = out if drawn.size == rows else out[drawn]  # a chunk with neither is checked whole, uncopied
    tied = drawn[_check(spec, points, m[drawn])] if drawn.size else []
    for j in tied:
        _nudge(out[j, :m[j]])
    for j, sums in long.items():
        if len(_check(spec, sums[None], np.array([sums.size - 1]))):
            _nudge(sums[:-1])
        long[j] = sums[:-1]
    return TraceRows(spec, out, m, long, faults)


def generate_trace(spec: RenewalSpec, rng: np.random.Generator) -> SampleTrace:
    """Accumulate spacings until the partial sum would exceed 1: the one-row
    case of generate_traces."""
    return generate_traces(spec, (rng,), np.empty((1, spec.width))).trace(0)


# the rows whose gaps to the grid one temporary holds, so that it is a few
# rows long however many rows a chunk of traces has: numpy also buffers each
# broadcast or strided operand of a pass, up to 8192 elements, and a sweep at
# n = 20 is held to 64 B a cell (its 512-row chunks in one pass took 81 B)
_GAP_ROWS = 8


def _gaps(points: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(1/M) sum_i (S_i - i/M)^2 over the first M = m[j] entries of each row
    j of points, or NaN where m[j] = 0.  The gaps are squared _GAP_ROWS rows
    at a time, each row's are summed by one np.add.reduce over that row
    alone, and each sum is divided by its M: np.mean's own sum and division."""
    sums, sizes = np.empty(m.size), m.tolist()
    most = max(sizes, default=0)
    # i and M as doubles, as int / int divides them; a row with m[j] = 0 divides by 1 and is never summed
    ordinals, counts = np.arange(1.0, most + 1), np.maximum(m, 1).astype(float)[:, None]
    for lo in range(0, m.size, _GAP_ROWS):
        gap = ordinals / counts[lo:lo + _GAP_ROWS]  # i/M
        np.subtract(points[lo:lo + _GAP_ROWS, :most], gap, out=gap)
        gap *= gap
        sums[lo:lo + len(gap)] = [np.add.reduce(row[:size]) for row, size in zip(gap, sizes[lo:lo + _GAP_ROWS])]
    return np.divide(sums, m, out=np.full(m.size, np.nan), where=m > 0)


def grid_deviation(trace: SampleTrace | TraceRows) -> float | np.ndarray:
    """(1/M) sum_i (S_i - i/M)^2, the squared gap to the ordinal grid: a
    float for one trace, and for a chunk of traces an array of one per
    row, NaN for a faulted row."""
    if isinstance(trace, SampleTrace):
        if trace.m == 0:
            raise ValueError("grid deviation is undefined for an empty trace")
        return float(_gaps(trace.locations[None], np.array([trace.m]))[0])
    scores = _gaps(trace.points, trace.m)
    for j, locations in trace.long.items():
        scores[j] = _gaps(locations[None], np.array([locations.size]))[0]
    return scores


def acquire(trace: SampleTrace, field: BandlimitedField, noise: NoiseSpec,
            rng: np.random.Generator) -> SampleTrace:
    """Attach readings y_i = g(S_i) + W_i using the given noise stream."""
    readings = field.evaluate(trace.locations)
    readings += noise.draw(rng, size=trace.m)
    return _trace(trace.spec, trace.locations, readings)
