"""Field construction, evaluation, and the exact reference quantities.

Oracles used here: a plain-Python direct summation for point values, a
trapezoid quadrature for the energy integral, and central finite
differences for derivative bounds.  None of them share code with the
package paths they check.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unkloc
from unkloc.field import (
    DENSE_GRID,
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


def fd_grid_max_derivative(field, grid=DENSE_GRID):
    """Grid max of |g'| by central differences (periodic wrap)."""
    x = np.arange(grid) / grid
    g = field.evaluate(x)
    return float(np.max(np.abs((np.roll(g, -1) - np.roll(g, 1)) * (grid / 2.0))))


# reference coefficient sets --------------------------------------------------


def test_reference_field_one_matches_hand_values():
    f = reference_field("paper1")
    assert f.b == 3
    assert f.coefficient(0) == 0.2445
    assert f.coefficient(1) == -0.0357 + 0.0478j
    assert f.coefficient(-1) == -0.0357 - 0.0478j
    assert f.coefficient(3) == -0.1796 - 0.0756j
    assert f.coefficient(4) == 0j
    assert f.is_real


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


def test_evaluate_complex_for_asymmetric_field():
    f = BandlimitedField(b=1, coeffs=np.array([0j, 0j, 1.0 + 0j]))
    assert not f.is_real
    out = f.evaluate(np.array([0.3]))
    assert np.iscomplexobj(out)
    assert out[0] == pytest.approx(cmath.exp(2j * math.pi * 0.3), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(0, 8),
       x=st.floats(1.0, 2.0, exclude_max=True))
def test_evaluate_periodicity(seed, b, x):
    f = random_field(b, seed)
    assert f.evaluate(x) == pytest.approx(f.evaluate(x - 1.0), abs=1e-9)


def test_real_field_residual_imag_is_tiny():
    # the evaluate path checks |Im| < 1e-9 before dropping it; probe densely
    f = reference_field("paper1")
    x = np.arange(DENSE_GRID) / DENSE_GRID
    vals = f.evaluate(x)
    assert np.isrealobj(vals)


def test_real_field_residual_check_survives_optimize():
    # an infinite conjugate-symmetric pair leaves NaN in the imaginary part;
    # the check must raise even under python -O, which strips asserts
    code = (
        "import numpy as np\n"
        "from unkloc.field import BandlimitedField\n"
        "f = BandlimitedField(b=1, coeffs=[np.inf, 0.0, np.inf])\n"
        "try:\n"
        "    f.evaluate(np.array([0.1, 0.3]))\n"
        "except RuntimeError:\n"
        "    print('raised')\n"
    )
    src = str(Path(unkloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


# derivative bound ------------------------------------------------------------


def test_derivative_bound_zero_bandwidth():
    f = BandlimitedField(b=0, coeffs=np.array([0.9 + 0j]))
    assert f.derivative_bound() == 0.0


def test_derivative_bound_pure_tone():
    # g = cos(2 pi x): sup|g| = 1, bound = 2 pi, and sup|g'| = 2 pi exactly
    f = BandlimitedField(b=1, coeffs=np.array([0.5, 0.0, 0.5], dtype=complex))
    assert f.derivative_bound() == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert fd_grid_max_derivative(f) <= f.derivative_bound() + 1e-6


@pytest.mark.parametrize("name", ["paper1", "paper2"])
def test_derivative_bound_dominates_fd_grid(name):
    f = reference_field(name)
    assert fd_grid_max_derivative(f) <= f.derivative_bound() + 1e-6


def test_derivative_bound_random_fields():
    for seed in range(30):
        f = random_field(5, seed)
        assert fd_grid_max_derivative(f) <= f.derivative_bound() + 1e-6


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
    assert distortion(zero, np.array([0.3 + 0j])) == pytest.approx(0.09, abs=1e-15)


def test_distortion_dropped_harmonic_frozen_value():
    # zeroing a[1] and a[-1] of paper1 costs 2 |a1|^2 = 0.00711866
    f = reference_field("paper1")
    coeffs = f.coeffs.copy()
    coeffs[f.b + 1] = 0
    coeffs[f.b - 1] = 0
    assert distortion(f, coeffs) == pytest.approx(0.00711866, abs=1e-12)


def test_distortion_union_of_ranges():
    # estimate is wider than the truth: extra harmonics count in full
    truth = BandlimitedField(b=0, coeffs=np.array([1.0 + 0j]))
    est = np.array([0.5j, 1.0, 0.0], dtype=complex)  # k = -1, 0, 1
    assert distortion(truth, est) == pytest.approx(0.25, abs=1e-15)
    # truth wider than the estimate: missing harmonics count in full
    wide = reference_field("paper1")
    assert distortion(wide, np.array([wide.coefficient(0)])) == pytest.approx(
        wide.energy() - abs(wide.coefficient(0)) ** 2, abs=1e-12
    )


def test_distortion_rejects_even_length():
    f = reference_field("paper1")
    with pytest.raises(ValueError):
        distortion(f, np.zeros(4, dtype=complex))


# random fields ---------------------------------------------------------------


def test_random_field_deterministic():
    a = random_field(6, 123)
    b = random_field(6, 123)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_field(6, 124)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_field_is_conjugate_symmetric():
    f = random_field(7, 99)
    assert f.is_real
    assert f.coefficient(0).imag == 0.0


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
