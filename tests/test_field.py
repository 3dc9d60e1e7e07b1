"""Field construction, evaluation, and the exact reference quantities.

Oracles used here: a plain-Python direct summation for point values and a
trapezoid quadrature for the energy integral.  Neither shares code with the
package paths it checks.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unkloc
from unkloc.errors import ConfigError
from unkloc.field import (
    DENSE_GRID,
    EVAL_BLOCK,
    BandlimitedField,
    distortion,
    random_field,
    reference_field,
)


def eval_oracle(field, x):
    """Direct summation with scalar cmath, independent of the vector path."""
    total = 0j
    for k in range(-field.b, field.b + 1):
        total += field.coefficient(k) * cmath.exp(2j * math.pi * k * x)
    return total


def quadrature_energy(field, intervals=2**16):
    """Trapezoid rule for the energy integral over one period."""
    x = np.linspace(0.0, 1.0, intervals + 1)
    g = np.abs(field.evaluate(x)) ** 2
    return float(np.trapezoid(g, x))


# reference coefficient sets --------------------------------------------------


def test_reference_field_one_matches_hand_values():
    f = reference_field("paper1")
    assert f.b == 3
    assert f.coefficient(0) == 0.2445
    assert f.coefficient(1) == -0.0357 + 0.0478j
    assert f.coefficient(-1) == -0.0357 - 0.0478j
    assert f.coefficient(3) == -0.1796 - 0.0756j
    assert f.coefficient(4) == 0j
    assert np.array_equal(f.coeffs[::-1], np.conj(f.coeffs))


def test_reference_field_two_is_sparse():
    f = reference_field("paper2")
    assert f.b == 12
    assert f.coefficient(12) == 0.1
    assert f.coefficient(-12) == 0.1
    assert f.coefficient(1) == -0.1
    assert all(f.coefficient(k) == 0 for k in (2, 5, 11))
    # 5 nonzero coefficients of squared magnitude 0.01 each
    assert f.energy() == pytest.approx(0.05, abs=1e-15)


def test_unknown_reference_name_raises():
    with pytest.raises(ValueError):
        reference_field("paper3")


# evaluation ------------------------------------------------------------------


def test_evaluate_at_zero_frozen_value():
    # hand sum: 0.2445 + 2*(-0.0357 + 0.0978 - 0.1796) = 0.0095
    f = reference_field("paper1")
    assert f.evaluate(0.0) == pytest.approx(0.0095, abs=1e-12)
    assert f.evaluate(0.0) == pytest.approx(eval_oracle(f, 0.0).real, abs=1e-12)


def test_evaluate_matches_oracle_on_grid():
    f = reference_field("paper1")
    for x in np.linspace(0.0, 1.0, 37):
        assert f.evaluate(float(x)) == pytest.approx(eval_oracle(f, float(x)).real, abs=1e-12)


def test_evaluate_constant_field():
    f = BandlimitedField(b=0, coeffs=np.array([0.7 + 0j]))
    x = np.linspace(0.0, 1.0, 11)
    assert np.all(f.evaluate(x) == 0.7)


def test_evaluate_scalar_in_scalar_out():
    f = reference_field("paper1")
    out = f.evaluate(0.25)
    assert np.isscalar(out) or out.ndim == 0
    assert isinstance(float(out), float)


@pytest.mark.parametrize("coeffs", [
    [0j, 0j, 1.0 + 0j],  # a[-1] = 0 is not conj(a[1]) = 1
    [0.5 + 0.5j, 0.1j, 0.5 + 0.5j],  # a[0] is not real, a[-1] is not conj(a[1])
    [0.5 - 0.5j, 0.1, np.nextafter(0.5, 1.0) + 0.5j],  # symmetric only to within one ulp
])
def test_constructor_refuses_coefficients_that_are_not_conjugate_symmetric(coeffs):
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        BandlimitedField(b=1, coeffs=coeffs)


@pytest.mark.parametrize("coeffs", [[np.nan, 0.0, 0.0], [1.0, 0.0, np.inf], [1.0, complex(0.0, np.nan), 1.0]])
def test_constructor_names_non_finite_coefficients_before_asymmetry(coeffs):
    with pytest.raises(ValueError, match="finite"):
        BandlimitedField(b=1, coeffs=coeffs)


def test_only_a_field_record_needs_a_finite_energy():
    # an estimate of a field near the energy limit may overflow its own
    # energy sum; only the record a field is read from is held to it
    big = [1e200, 0.0, 1e200]
    with np.errstate(over="ignore"):
        assert BandlimitedField(b=1, coeffs=big).energy() == math.inf
    with pytest.raises(ValueError, match="energy"):
        BandlimitedField.from_dict({"b": 1, "coeffs": [[c, 0.0] for c in big]})


def old_complex_sum(field, x):
    """The evaluation formula before fields were real by construction: the
    full complex sum a[k] e^k + a[-k] conj(e^k), then its real part."""
    x = np.asarray(x, dtype=float)
    e1 = np.exp(2j * np.pi * x)
    val = np.full(x.shape, field.coefficient(0), dtype=complex)
    ek = np.ones_like(e1)
    for k in range(1, field.b + 1):
        ek = ek * e1
        val += field.coeffs[field.b + k] * ek + field.coeffs[field.b - k] * np.conj(ek)
    assert np.all(val.imag == 0.0)  # for conjugate-symmetric coefficients the parts cancel exactly
    return val.real


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(0, 40), m=st.integers(0, 300),
       scale=st.sampled_from([1.0, 1e-300, 1e150]))
def test_evaluate_is_bit_identical_to_the_complex_sum(seed, b, m, scale):
    rng = np.random.Generator(np.random.Philox(key=seed))
    f = BandlimitedField(b=b, coeffs=random_field(b, seed).coeffs * scale)
    x = np.concatenate([rng.random(m), [0.0, 0.25, 0.5, -0.0]])
    got = f.evaluate(x)
    assert got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in old_complex_sum(f, x).tolist()]


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


# sizes around the block edges: empty, one point, one block short, exact and
# one over, and trailing 1-point blocks after two and three full ones
_BLOCK_EDGE_SIZES = [0, 1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 2 * EVAL_BLOCK + 1, 3 * EVAL_BLOCK + 1]


@pytest.mark.parametrize("b", [0, 3, 12, 40])
@pytest.mark.parametrize("size", _BLOCK_EDGE_SIZES)
def test_blocked_evaluate_keeps_the_bits_of_the_complex_sum(b, size):
    f = random_field(b, seed=size + b)
    x = np.random.default_rng(size).random(size)
    assert _hexes(f.evaluate(x)) == _hexes(old_complex_sum(f, x))


def _zeroed_random_field(b, seed):
    # random_field never draws a zero coefficient; zero about half of a[1..b]
    half = random_field(b, seed).coeffs[b:].tolist()
    keep = np.random.default_rng(seed).random(b) < 0.5
    return BandlimitedField.from_half(half[:1] + [c if k else 0j for c, k in zip(half[1:], keep)])


# fields with zero harmonics, which evaluate skips; with a[0] = -0.0 a zero
# term can still turn a value's -0.0 into +0.0, so none is skipped there
_SPARSE_FIELDS = {
    "paper2": lambda: reference_field("paper2"),
    "no_harmonics": lambda: BandlimitedField.from_half([0.3, 0j, 0j, 0j, 0j]),
    "zeroed_random": lambda: _zeroed_random_field(12, seed=5),
    "negative_zero_a0": lambda: BandlimitedField.from_half([-0.0, 0j, 0j, 0j]),
}


@pytest.mark.parametrize("name", sorted(_SPARSE_FIELDS))
@pytest.mark.parametrize("size", _BLOCK_EDGE_SIZES)
def test_evaluate_skips_zero_harmonics_bit_for_bit(name, size):
    f = _SPARSE_FIELDS[name]()
    x = np.concatenate([np.random.default_rng(size).random(size), [0.0, -0.0, 0.5, 1.0]])
    assert _hexes(f.evaluate(x)) == _hexes(old_complex_sum(f, x))


def test_blocked_evaluate_keeps_the_bits_of_2d_and_strided_input():
    f = random_field(12, seed=4)
    x = np.random.default_rng(4).random((3, EVAL_BLOCK + 5))
    grid = f.evaluate(x)
    assert grid.shape == x.shape
    assert _hexes(grid) == _hexes(old_complex_sum(f, x))
    strided = x[:, ::3]
    assert not strided.flags.contiguous
    assert _hexes(f.evaluate(strided)) == _hexes(old_complex_sum(f, strided))


def test_scalar_evaluates_to_the_bits_of_the_array_path():
    # numpy's scalar arithmetic rounds complex products differently from its
    # array loops, so a scalar or 0-d input must take the array path
    f = random_field(5, seed=9)
    x = np.concatenate([np.random.default_rng(9).random(300), [0.0, -0.0, 0.25, 0.5, 1.0]])
    want = _hexes(f.evaluate(x))
    assert _hexes([f.evaluate(float(v)) for v in x]) == want
    assert _hexes([f.evaluate(np.array(v)) for v in x]) == want
    assert _hexes([f.evaluate([v])[0] for v in x]) == want


def test_evaluate_peak_memory_stays_below_twice_its_output():
    # one full-length complex temporary alone is twice the output's bytes;
    # blocked, the extra is a few block-sized arrays
    f = reference_field("paper2")
    x = np.random.default_rng(1).random(100_000)
    tracemalloc.start()
    try:
        out = f.evaluate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(0, 8),
       x=st.floats(1.0, 2.0, exclude_max=True))
def test_evaluate_periodicity(seed, b, x):
    f = random_field(b, seed)
    assert f.evaluate(x) == pytest.approx(f.evaluate(x - 1.0), abs=1e-9)


def test_evaluate_returns_real_values():
    f = reference_field("paper1")
    x = np.arange(DENSE_GRID) / DENSE_GRID
    vals = f.evaluate(x)
    assert np.isrealobj(vals)


def test_constructor_refuses_non_finite_coefficients_under_optimize():
    # an infinite conjugate-symmetric pair would evaluate to inf and NaN; the
    # refusal must hold even under python -O, which strips asserts
    code = (
        "import numpy as np\n"
        "from unkloc.field import BandlimitedField\n"
        "try:\n"
        "    BandlimitedField(b=1, coeffs=[np.inf, 0.0, np.inf])\n"
        "except ValueError as exc:\n"
        "    print('raised', 'finite' in str(exc))\n"
    )
    src = str(Path(unkloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised True"


# energy ----------------------------------------------------------------------


def test_energy_zero_field():
    f = BandlimitedField(b=2, coeffs=np.zeros(5, dtype=complex))
    assert f.energy() == 0.0


def test_energy_reference_frozen_values():
    assert reference_field("paper1").energy() == pytest.approx(0.17260045, abs=1e-12)
    assert reference_field("paper2").energy() == pytest.approx(0.05, abs=1e-15)


def test_energy_matches_quadrature_reference():
    f = reference_field("paper1")
    assert abs(f.energy() - quadrature_energy(f)) < 1e-8


def test_energy_matches_quadrature_thousand_random_fields():
    for seed in range(1000):
        f = random_field(seed % 9, seed)
        assert abs(f.energy() - quadrature_energy(f, intervals=2**14)) < 1e-8
        # same fields double as the dynamic-range check
        assert f.dynamic_range() <= 1.0 + 1e-12


# distortion ------------------------------------------------------------------


def test_distortion_identical_is_zero():
    f = reference_field("paper1")
    assert distortion(f, f) == 0.0


def test_distortion_zero_field_vs_constant():
    zero = BandlimitedField(b=0, coeffs=np.zeros(1, dtype=complex))
    constant = BandlimitedField(b=0, coeffs=np.array([0.3 + 0j]))
    assert distortion(zero, constant) == pytest.approx(0.09, abs=1e-15)


def test_distortion_dropped_harmonic_frozen_value():
    # zeroing a[1] and a[-1] of paper1 costs 2 |a1|^2 = 0.00711866
    f = reference_field("paper1")
    coeffs = f.coeffs.copy()
    coeffs[f.b + 1] = 0
    coeffs[f.b - 1] = 0
    assert distortion(f, BandlimitedField(b=f.b, coeffs=coeffs)) == pytest.approx(0.00711866, abs=1e-12)


def test_distortion_union_of_ranges():
    # estimate is wider than the truth: extra harmonics count in full
    truth = BandlimitedField(b=0, coeffs=np.array([1.0 + 0j]))
    est = BandlimitedField(b=1, coeffs=np.array([-0.5j, 1.0, 0.5j]))  # k = -1, 0, 1
    assert distortion(truth, est) == pytest.approx(0.5, abs=1e-15)
    # truth wider than the estimate: missing harmonics count in full
    wide = reference_field("paper1")
    narrow = BandlimitedField(b=0, coeffs=np.array([wide.coefficient(0)]))
    assert distortion(wide, narrow) == pytest.approx(wide.energy() - abs(wide.coefficient(0)) ** 2, abs=1e-12)


# random fields ---------------------------------------------------------------


def test_random_field_deterministic():
    a = random_field(6, 123)
    b = random_field(6, 123)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_field(6, 124)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_field_is_conjugate_symmetric():
    f = random_field(7, 99)
    assert np.array_equal(f.coeffs[::-1], np.conj(f.coeffs))
    assert f.coefficient(0).imag == 0.0


@pytest.mark.parametrize("b", [-1, 2.5, True])
def test_random_field_refuses_a_bandwidth_that_is_no_whole_number(b):
    with pytest.raises(ConfigError, match="bandwidth b"):
        random_field(b, 5)


def test_from_half_mirrors_the_upper_half():
    f = BandlimitedField.from_half([0.5, 0.25 - 0.5j, 0j])
    assert f.b == 2
    assert f.coeffs.tolist() == [0j, 0.25 + 0.5j, 0.5 + 0j, 0.25 - 0.5j, 0j]
    # a zero mirrors as +0j, not as its conjugate -0j
    assert [c.imag.hex() for c in BandlimitedField.from_half([1.0, 0j]).coeffs] == [(0.0).hex()] * 3
    with pytest.raises(ConfigError, match="bandwidth b"):
        BandlimitedField.from_half([])


def test_random_field_degenerate_bandwidth():
    f = random_field(0, 5)
    assert f.b == 0
    assert f.coeffs.size == 1
    assert f.coefficient(0).imag == 0.0


# construction and serialization ---------------------------------------------


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BandlimitedField(b=2, coeffs=np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        BandlimitedField(b=-1, coeffs=np.zeros(1, dtype=complex))


def test_coefficients_are_frozen():
    f = reference_field("paper1")
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


def test_serialization_round_trip(tmp_path):
    f = reference_field("paper1")
    path = tmp_path / "field.json"
    f.save(path)
    loaded = BandlimitedField.load(path)
    assert loaded.b == f.b
    assert np.array_equal(loaded.coeffs, f.coeffs)
    data = json.loads(path.read_text())
    assert data["b"] == 3
    assert len(data["coeffs"]) == 7


def test_serialization_layout_is_minus_b_to_b(tmp_path):
    f = reference_field("paper2")
    path = tmp_path / "f.json"
    f.save(path)
    pairs = json.loads(path.read_text())["coeffs"]
    assert pairs[0] == [0.1, 0.0]  # k = -12
    assert pairs[-1] == [0.1, 0.0]  # k = +12
    assert pairs[12] == [0.1, 0.0]  # k = 0
