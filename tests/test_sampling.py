"""Renewal traces: spacing laws, stopping rule, degenerate grid, seeds."""

import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unkloc import sampling
from unkloc.errors import ConfigError
from unkloc.field import BandlimitedField, reference_field
from unkloc.noise import NoiseSpec
from unkloc.sampling import (
    RenewalLaw,
    RenewalSpec,
    SampleTrace,
    _draw_block,
    acquire,
    generate_trace,
    grid_deviation,
    rekey,
    spawn_rngs,
    stream_keys,
    trial_seed,
)

FAMILY_SPECS = [
    RenewalSpec.uniform(200),
    RenewalLaw("triangular").at(200),
    RenewalLaw("scaled_beta", 2.0, 2.0).at(200),
    RenewalLaw("scaled_beta", 1.0, 3.0).at(200),
]


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


# spec validation -------------------------------------------------------------


def test_uniform_lambda_is_pinned():
    assert RenewalSpec.uniform(10).law.lam == 2.0
    assert RenewalLaw("triangular").lam == 2.0


def test_scaled_beta_lambda_follows_shape():
    assert RenewalLaw("scaled_beta", 1.0, 3.0).lam == pytest.approx(4.0, abs=1e-12)
    assert RenewalLaw("scaled_beta").lam == 2.0
    # a bad shape is refused by the law itself, before any n, whether or
    # not its family reads the shape
    for family in sampling.FAMILIES:
        for alpha, beta in ((0.0, 2.0), (2.0, -1.0), (float("inf"), 2.0), (2.0, float("nan")), (-3.0, float("nan"))):
            with pytest.raises(ConfigError):
                RenewalLaw(family, alpha, beta)
    with pytest.raises(ConfigError):  # a shape in range whose lam overflows
        RenewalLaw("scaled_beta", 1e-310, 2.0)


def test_degenerate_lambda_is_one():
    assert RenewalLaw("degenerate").lam == 1.0


def test_bad_family_and_n():
    with pytest.raises(ConfigError, match="unknown renewal family"):
        RenewalLaw("poisson")
    with pytest.raises(ConfigError):
        RenewalLaw("uniform").at(0)
    with pytest.raises(ConfigError, match="largest float"):  # lam/n runs in floats
        RenewalLaw("uniform").at(10**400)


@pytest.mark.parametrize("key", ["alpha", "beta"])
@pytest.mark.parametrize("value", [True, "3", None, [2.0]])
def test_a_shape_that_is_not_a_number_is_refused(key, value):
    # a boolean would pass the range check as a shape of 1
    with pytest.raises(ConfigError, match=f"{key} must be a number"):
        RenewalLaw("scaled_beta", **{key: value})


def test_max_spacing():
    assert RenewalSpec.uniform(100).max_spacing == pytest.approx(0.02)
    assert RenewalLaw("degenerate").at(100).max_spacing == pytest.approx(0.01)


# spacing distributions -------------------------------------------------------


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_spacing_support_and_mean(spec):
    draws = _draw_block(spec, _rng(17), np.empty(10**6))
    assert np.all(draws > 0.0)
    assert np.all(draws <= spec.max_spacing)
    # E[X] = 1/n, sd of the mean is bounded by max_spacing / sqrt(N)
    se = spec.max_spacing / np.sqrt(draws.size)
    assert abs(np.mean(draws) - 1.0 / spec.n) < 4 * se


def test_degenerate_spacing_is_exact():
    # the spacings are the gaps of the grid i/n: a gap may sit an ulp or two
    # off 1/n, but their sequential sums are every i/n bit for bit
    for n in (3, 7, 10, 100, 1000, 10007):
        spec, rng = RenewalLaw("degenerate").at(n), _rng(n)
        draws = _draw_block(spec, rng, np.empty(spec.block))
        assert np.array_equal(np.cumsum(draws), np.arange(1, spec.block + 1) / n), n
        assert rng.random() == _rng(n).random(), n  # the stream is untouched


def test_scalar_spacing_matches_support():
    spec = RenewalLaw("triangular").at(50)
    for _ in range(100):
        x = _draw_block(spec, _rng(_), np.empty(1))[0]
        assert 0.0 < x <= spec.max_spacing


# trace generation ------------------------------------------------------------


def test_degenerate_trace_is_the_exact_grid():
    trace = generate_trace(RenewalLaw("degenerate").at(100), _rng(0))
    assert trace.m == 100
    assert np.array_equal(trace.locations, np.arange(1, 101) / 100)
    assert trace.locations[-1] == 1.0
    assert grid_deviation(trace) == 0.0


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_trace_invariants(spec):
    for seed in range(20):
        trace = generate_trace(spec, _rng(seed))
        s = trace.locations
        assert s[0] > 0.0
        assert s[-1] <= 1.0
        assert np.all(np.diff(s) > 0.0)
        assert 0.0 <= 1.0 - s[-1] <= spec.max_spacing
        # adding one more spacing must cross 1
        assert s[-1] + (1.0 - s[-1]) <= 1.0
        assert trace.m + 1 >= spec.n / spec.law.lam - 1e-9


def test_trace_count_concentrates_near_n():
    # E[M+1] sits in (n, n + lam] by the stopping identity; check the sample mean
    spec = RenewalSpec.uniform(1000)
    counts = np.empty(10**4)
    for i in range(counts.size):
        counts[i] = generate_trace(spec, _rng(i)).m + 1
    se = np.std(counts, ddof=1) / np.sqrt(counts.size)
    assert 1000 - 3 * se < np.mean(counts) < 1000 + spec.law.lam + 3 * se


def test_trace_is_deterministic_per_rng_state():
    spec = RenewalLaw("scaled_beta", 2.0, 2.0).at(300)
    a = generate_trace(spec, _rng(9))
    b = generate_trace(spec, _rng(9))
    assert np.array_equal(a.locations, b.locations)


def test_trace_generation_stops_at_the_redraw_bound():
    # Beta(1e-300, 2) underflows to 0 on (almost) every draw, so no spacing is
    # ever accepted; the bound turns the endless redraw into a ConfigError
    spec = RenewalLaw("scaled_beta", 1e-300).at(100)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="redrawing"):
        generate_trace(spec, _rng(3))
    assert time.perf_counter() - start < 5.0  # about 0.2 s on 2 cores


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["uniform", "triangular"]))
def test_trace_invariants_property(n, seed, family):
    spec = RenewalLaw(family).at(n)
    trace = generate_trace(spec, _rng(seed))
    s = trace.locations
    assert 0.0 < s[0] and s[-1] <= 1.0
    assert np.all(np.diff(s) > 0.0)
    assert 0.0 <= 1.0 - s[-1] <= spec.max_spacing


# trace container -------------------------------------------------------------


def test_trace_rejects_disordered_locations():
    spec = RenewalSpec.uniform(4)
    with pytest.raises(ValueError):
        SampleTrace(spec=spec, locations=np.array([0.5, 0.4, 0.9]))


def test_trace_rejects_out_of_range_locations():
    spec = RenewalSpec.uniform(4)
    with pytest.raises(ValueError):
        SampleTrace(spec=spec, locations=np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        SampleTrace(spec=spec, locations=np.array([0.5, 1.2]))


def test_trace_rejects_short_trace_for_n():
    # a single sample cannot cover n=10 when spacings are capped at lam/n
    spec = RenewalSpec.uniform(10)
    with pytest.raises(ValueError):
        SampleTrace(spec=spec, locations=np.array([0.9]))


def test_trace_refuses_an_overshoot_past_one_spacing():
    spec = RenewalLaw("uniform").at(3)
    with pytest.raises(TypeError):  # the overshoot is no field a caller can contradict
        SampleTrace(spec=spec, locations=np.array([0.9]), overshoot=0.05)
    # S_M = 0.3 lies more than lam/n = 2/3 below 1, so one more spacing could not cross it
    with pytest.raises(ValueError, match="overshoot"):
        SampleTrace(spec=spec, locations=np.array([0.2, 0.3]))


def test_trace_refuses_readings_that_do_not_align_with_its_locations():
    with pytest.raises(ValueError, match="readings must align with locations"):
        SampleTrace(spec=RenewalSpec.uniform(4), locations=np.array([0.5, 0.9]), readings=np.array([1.0]))


def test_hand_built_trace_seals_copies_of_the_callers_arrays():
    locs, readings = np.array([0.5, 0.9]), np.array([1.0, 2.0])
    trace = SampleTrace(spec=RenewalSpec.uniform(4), locations=locs, readings=readings)
    locs[0], readings[0] = 0.1, 3.0  # the caller's arrays stay writable, and the trace keeps its values
    assert trace.locations.tolist() == [0.5, 0.9] and trace.readings.tolist() == [1.0, 2.0]
    for array in (trace.locations, trace.readings):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # a generated trace seals a view of its row of the chunk's matrix, uncopied
    spec = RenewalSpec.uniform(100)
    out = np.empty((2, spec.width))
    generated = sampling.generate_traces(spec, (_rng(0), _rng(1)), out).trace(1)
    assert np.shares_memory(generated.locations, out[1]) and not generated.locations.flags.writeable


def test_grid_deviation_refuses_an_empty_trace():
    trace = SampleTrace(spec=RenewalSpec.uniform(1), locations=np.array([]))
    with pytest.raises(ValueError, match="grid deviation is undefined for an empty trace"):
        grid_deviation(trace)


def test_grid_deviation_single_sample():
    spec = RenewalSpec.uniform(4)
    trace = SampleTrace(spec=spec, locations=np.array([0.9]))
    # M = 1: (0.9 - 1/1)^2 = 0.01
    assert grid_deviation(trace) == pytest.approx(0.01, abs=1e-15)


def test_scoring_a_chunk_holds_one_row_of_gaps():
    # 30 uniform rows at n = 1e3: one row-long buffer and the ordinals take
    # about 20 KiB, while a pass over several rows with a broadcast or
    # strided operand makes numpy buffer up to 64 KiB of each operand
    spec = RenewalSpec.uniform(1000)
    traces = sampling.generate_traces(spec, (_rng(seed) for seed in range(30)), np.empty((30, spec.width)))
    grid_deviation(traces)  # first calls
    tracemalloc.start()
    try:
        scores = grid_deviation(traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (30,) and not np.isnan(scores).any()
    assert peak <= 64 * 2**10, f"{peak / 2**10:.1f} KiB"


# acquisition -----------------------------------------------------------------


def test_acquire_zero_noise_reads_the_field_exactly():
    field = reference_field("paper1")
    trace = generate_trace(RenewalSpec.uniform(500), _rng(2))
    read = acquire(trace, field, NoiseSpec("zero"), _rng(3))
    assert np.array_equal(read.readings, field.evaluate(trace.locations))
    assert read.m == trace.m


def test_acquire_appends_noise_of_matching_length():
    field = reference_field("paper2")
    trace = generate_trace(RenewalLaw("triangular").at(400), _rng(4))
    read = acquire(trace, field, NoiseSpec.uniform_sym(0.5), _rng(5))
    resid = read.readings - field.evaluate(trace.locations)
    assert resid.shape == (trace.m,)
    assert np.all(np.abs(resid) <= 0.5)


# seed derivation -------------------------------------------------------------


def test_trial_seed_is_stable():
    # frozen: derived from the (seed, n, trial) entropy tuple; any change here
    # silently breaks replay of archived runs
    assert trial_seed(123, 1000, 7) == 16700849989234652268


def test_trial_seed_separates_cells():
    seen = {trial_seed(5, n, t) for n in (10, 100, 1000) for t in range(50)}
    assert len(seen) == 150


def test_spawned_streams_are_independent():
    # trace functional vs noise functional across trials: correlation ~ 1/sqrt(T)
    spec = RenewalSpec.uniform(100)
    noise = NoiseSpec.uniform_sym(1.0)
    t = 10**4
    a = np.empty(t)
    b = np.empty(t)
    for i in range(t):
        trace_rng, noise_rng = spawn_rngs(trial_seed(0, 100, i))
        a[i] = 1.0 - generate_trace(spec, trace_rng).locations[-1]
        b[i] = noise.draw(noise_rng, size=1)[0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


MASK64 = (1 << 64) - 1


def _spawned(seed, count):
    """The streams as SeedSequence.spawn makes them: the reference that
    spawn_rngs builds directly."""
    children = np.random.SeedSequence(seed & MASK64).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63, 2**64 - 1, -1])
def test_streams_are_the_children_that_spawn_makes(seed):
    for ours, reference in ((spawn_rngs(seed, 1), _spawned(seed, 1)), (spawn_rngs(seed), _spawned(seed, 2))):
        assert len(ours) == len(reference)
        for rng, ref in zip(ours, reference):
            assert np.array_equal(rng.random(16), ref.random(16))
            assert np.array_equal(rng.beta(0.05, 2.0, 16), ref.beta(0.05, 2.0, 16))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-2**63, 2**64 - 1), n=st.integers(1, 2**53), trial=st.integers(0, 2**40))
@example(seed=2**32 - 1, n=2**32 - 1, trial=2**32 - 1)
@example(seed=2**32, n=2**32, trial=2**32)
@example(seed=-1, n=1, trial=0)
@example(seed=0, n=2**53, trial=2**40)
def test_trial_seed_is_the_seed_sequence_hash_of_the_cell(seed, n, trial):
    # the words trial_seed hands SeedSequence are the ones it would make itself
    ss = np.random.SeedSequence(entropy=(seed & MASK64, n, trial))
    assert trial_seed(seed, n, trial) == int(ss.generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("n, trial", [(-1, 0), (1000, -1), (-(2**40), -3)])
def test_trial_seed_refuses_a_negative_cell(n, trial):
    with pytest.raises(ValueError, match="n >= 0 and trial >= 0"):
        trial_seed(5, n, trial)


def _reference_seed(seed, n, trial):
    return int(np.random.SeedSequence(entropy=(seed & MASK64, n, trial)).generate_state(1, np.uint64)[0])


# a sweep worker hashes its cells one n at a time: an int master and n, and
# an array of trials of one word each; a master or an n of 2**32 or more
# splits into two words
_WORD = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(master=st.one_of(_WORD, st.integers(-2**63, -1)), n=_WORD,
       trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40))
@example(master=-1, n=2**32, trials=[0, 2**32 - 1])
@example(master=2**32 - 1, n=2**32 - 1, trials=[2**32 - 1, 0])
def test_an_array_of_cells_hashes_as_seed_sequence_does(master, n, trials):
    seeds = trial_seed(master, n, np.array(trials, dtype=np.int64))
    assert seeds.dtype == np.uint64 and seeds.shape == (len(trials),)
    for t, seed in zip(trials, seeds.tolist()):
        assert seed == _reference_seed(master, n, t) == trial_seed(master, n, t)


@pytest.mark.parametrize("master", [0, 7, 2**32, 2**70 + 5, -(2**40)])
def test_an_int_broadcasts_against_the_arrays_of_a_cell(master):
    # as a sweep worker calls it: one master and one n, an array of trials
    trials = np.array([0, 1, 3, 2**32 - 1], dtype=np.int64)
    for n in (100, 2**33):
        assert trial_seed(master, n, trials).tolist() == [_reference_seed(master, n, t) for t in trials.tolist()]


@pytest.mark.parametrize("n, trial, match", [
    (-1, np.array([0]), "n >= 0 and trial >= 0"),
    (5, np.array([-3]), "n >= 0 and trial >= 0"),
    (5, np.array([1.0]), "integers below 2"),  # a float would round the cell
    (5, np.array([0, 2**32]), "integers below 2"),  # one word per trial
])
def test_an_array_cell_that_seed_sequence_would_not_hash_is_refused(n, trial, match):
    with pytest.raises(ValueError, match=match):
        trial_seed(5, n, trial)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**80 + 3])
def test_stream_keys_are_the_keys_of_the_spawned_children(seed):
    want = [tuple(np.random.SeedSequence(seed & MASK64, spawn_key=(i,)).generate_state(2, np.uint64).tolist())
            for i in range(3)]
    assert [tuple(map(int, key)) for key in stream_keys(seed, 3)] == want
    # the array path hashes the same keys, cell by cell
    seeds = np.array([seed & MASK64, 5], dtype=np.uint64)
    keys = stream_keys(seeds, 3)
    assert [(int(low[0]), int(high[0])) for low, high in keys] == want


def _families():
    flat = BandlimitedField(0, [0.0])
    for renewal in PINNED_RENEWALS.values():
        for family, params in PINNED_NOISES:
            yield RenewalLaw(*renewal).at(300), flat, NoiseSpec(family, params)


@pytest.mark.parametrize("seed", [3, 2**40 + 9])
def test_a_rekeyed_generator_draws_what_a_fresh_child_draws(seed):
    # an odd count of integers below 2**32 leaves half of a 64-bit draw
    # buffered (has_uint32), and a normal draw advances the Philox buffer, so
    # the re-key must clear both
    used = [np.random.Generator(np.random.Philox(key=99)) for _ in range(2)]
    for rng in used:
        rng.integers(0, 2, size=3)
        rng.standard_normal(5)
        assert rng.bit_generator.state["has_uint32"] == 1
    for spec, flat, noise in _families():
        fresh = [np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,)))) for i in range(2)]
        rekeyed = [rekey(rng, key) for rng, key in zip(used, stream_keys(seed, 2))]
        traces = [acquire(generate_trace(spec, rngs[0]), flat, noise, rngs[1]) for rngs in (fresh, rekeyed)]
        assert traces[0].locations.tobytes() == traces[1].locations.tobytes()
        assert traces[0].readings.tobytes() == traces[1].readings.tobytes()
        # the streams go on alike past the trace, in 32-bit and 64-bit draws,
        # and leave half a draw buffered for the next family's re-key
        for a, b in zip(fresh, rekeyed):
            assert a.integers(0, 2, size=5).tolist() == b.integers(0, 2, size=5).tolist()
            assert a.random(3).tobytes() == b.random(3).tobytes()


def test_rekey_sets_the_whole_philox_state():
    rng = spawn_rngs(8, 1)[0]
    rng.integers(0, 2, size=7)
    state = rekey(rng, (5, 2**64 - 1)).bit_generator.state
    assert state["state"]["counter"].tolist() == [0, 0, 0, 0]
    assert state["state"]["key"].tolist() == [5, 2**64 - 1]
    assert state["buffer"].tolist() == [0, 0, 0, 0]
    assert (state["buffer_pos"], state["has_uint32"], state["uinteger"]) == (4, 0, 0)


def test_spawn_rngs_reproducible():
    r1, r2 = spawn_rngs(987654321)
    s1, s2 = spawn_rngs(987654321)
    assert np.array_equal(r1.random(10), s1.random(10))
    assert np.array_equal(r2.random(10), s2.random(10))
    # and the two streams differ from each other
    r1, r2 = spawn_rngs(987654321)
    assert not np.array_equal(r1.random(10), r2.random(10))


# pinned draws ----------------------------------------------------------------

# One seeded trace per (spacing law, noise law), read through the zero field so
# that the readings are the noise draws themselves.  The digest is the first 16
# hex digits of sha256(locations + readings); any change to a law's draws or
# their order changes it, and with it what every recorded seed replays to.
# (numpy does not promise its Generator streams across releases, so a numpy
# upgrade may also move these.)
PINNED_RENEWALS = {
    "uniform": ("uniform", 2.0, 2.0),
    "triangular": ("triangular", 2.0, 2.0),
    "scaled_beta": ("scaled_beta", 2.0, 2.0),
    "scaled_beta:0.005:2": ("scaled_beta", 0.005, 2.0),  # redraws about 2% of its Beta draws
    "degenerate": ("degenerate", 2.0, 2.0),
}
PINNED_NOISES = [("uniform", (0.5,)), ("gaussian", (0.5,)), ("gaussian", (1.0, 1.5)),
                 ("rademacher", (0.3,)), ("zero", ())]
PINNED_DIGESTS = {
    "uniform": ("3cb47082635a2a64", "6e75a4809b6cbdb7", "7dfc3d5beeca9863", "1d6b1d566a1300e4", "c8668bce2224338f"),
    "triangular": ("9cad8299d888c784", "024b19f7b3cd728d", "4833392a563b1103", "a27ba5322de6e552", "43d958b14a0ffa7b"),
    "scaled_beta": ("edfcb0f3566552c4", "c4087ef6ea6be57b", "14798594dfed38c5", "a63ec3a4c692344a", "e4f0bd228afef4a9"),
    "scaled_beta:0.005:2": ("20bc83ed64166c8c", "1e0abbd93711e622", "ea74fd4673ec81d7", "6327743f661b1498", "fa1ec9efe29c3fb8"),
    "degenerate": ("53357aea9de13450", "440d2f8c1e238e4b", "4448f95c6eb0d972", "69407c1ae7944e2a", "96798e86bc416e38"),
}


@pytest.mark.parametrize("renewal", PINNED_RENEWALS)
def test_seeded_draws_are_pinned(renewal):
    flat = BandlimitedField(0, [0.0])
    digests = []
    for family, params in PINNED_NOISES:
        rng_trace, rng_noise = spawn_rngs(trial_seed(11, 1000, 0))
        trace = generate_trace(RenewalLaw(*PINNED_RENEWALS[renewal]).at(1000), rng_trace)
        read = acquire(trace, flat, NoiseSpec(family, params), rng_noise)
        digest = hashlib.sha256(read.locations.tobytes() + read.readings.tobytes()).hexdigest()
        digests.append(digest[:16])
    assert tuple(digests) == PINNED_DIGESTS[renewal]


def test_a_trace_of_two_draw_blocks_is_pinned(monkeypatch):
    # Var(nX) is about 13 for scaled_beta(0.05, 2), so its first block of
    # n + 6 sqrt(n) + 16 spacings stays below 1 in about 1 trace of 20, and
    # the second block goes on from the first one's total; trial 10 is one
    blocks = []
    draw = sampling._draw_block
    monkeypatch.setattr(sampling, "_draw_block", lambda spec, rng, size: blocks.append(size) or draw(spec, rng, size))
    rng_trace, rng_noise = spawn_rngs(trial_seed(11, 1000, 10))
    trace = generate_trace(RenewalLaw("scaled_beta", 0.05).at(1000), rng_trace)
    read = acquire(trace, BandlimitedField(0, [0.0]), NoiseSpec("gaussian", (0.5,)), rng_noise)
    assert len(blocks) == 2 and read.m == 1339
    digest = hashlib.sha256(read.locations.tobytes() + read.readings.tobytes()).hexdigest()
    assert digest[:16] == "d6619f557e80a253"
