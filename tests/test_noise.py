"""Noise families: declared moments vs sample moments, support, config."""

import numpy as np
import pytest

from unkloc.noise import DEFAULT_GAUSSIAN_CUT, NoiseSpec


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


# declared moments ------------------------------------------------------------


def test_uniform_moments_closed_form():
    spec = NoiseSpec.uniform_sym(1.0)
    var, fourth, var_sq = spec.variance, spec.fourth_moment, spec.var_of_square
    assert var == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert fourth == pytest.approx(1.0 / 5.0, abs=1e-15)
    # var(W^2) = E[W^4] - var^2 = 1/5 - 1/9 = 4/45
    assert var_sq == pytest.approx(4.0 / 45.0, abs=1e-15)


def test_uniform_moments_scale():
    spec = NoiseSpec.uniform_sym(0.5)
    assert spec.variance == pytest.approx(0.25 / 3.0, abs=1e-15)
    assert spec.fourth_moment == pytest.approx(0.5**4 / 5.0, abs=1e-15)


def test_rademacher_moments():
    spec = NoiseSpec.rademacher(0.5)
    assert spec.variance == 0.25
    assert spec.fourth_moment == 0.0625
    assert spec.var_of_square == 0.0  # W^2 is constant


def test_gaussian_moments():
    spec = NoiseSpec.gaussian_truncated(0.5)
    assert spec.variance == 0.25
    assert spec.fourth_moment == pytest.approx(3 * 0.25**2, abs=1e-12)
    assert spec.var_of_square == pytest.approx(2 * 0.25**2, abs=1e-12)


def test_zero_noise_moments():
    spec = NoiseSpec.zero()
    assert (spec.variance, spec.fourth_moment, spec.var_of_square) == (0.0, 0.0, 0.0)


# sample moments --------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec.uniform_sym(1.0),
        NoiseSpec.uniform_sym(0.3),
        NoiseSpec.rademacher(0.7),
        NoiseSpec.gaussian_truncated(0.5),
    ],
)
def test_sample_moments_match_declared(spec):
    n = 10**6
    w = spec.draw(_rng(42), size=n)
    assert w.shape == (n,)
    # mean is 0 with sd sqrt(var/n); 4 sigma slack keeps this deterministic test honest
    assert abs(np.mean(w)) < 4 * np.sqrt(spec.variance / n) + 1e-12
    var_se = np.sqrt(max(spec.var_of_square, 1e-30) / n)
    assert abs(np.mean(w**2) - spec.variance) < 4 * var_se + 1e-9


def test_zero_noise_draws_zeros():
    w = NoiseSpec.zero().draw(_rng(1), size=100)
    assert np.all(w == 0.0)


# support ---------------------------------------------------------------------


def test_uniform_support():
    w = NoiseSpec.uniform_sym(0.25).draw(_rng(3), size=10**5)
    assert np.all(np.abs(w) <= 0.25)


def test_rademacher_support_is_two_point():
    w = NoiseSpec.rademacher(0.7).draw(_rng(4), size=10**5)
    assert set(np.unique(w)) == {-0.7, 0.7}
    # both signs roughly balanced
    assert abs(np.mean(w > 0) - 0.5) < 0.02


def test_gaussian_truncation_is_hard():
    spec = NoiseSpec.gaussian_truncated(0.5)
    w = spec.draw(_rng(5), size=10**6)
    assert np.all(np.abs(w) <= DEFAULT_GAUSSIAN_CUT * 0.5)


def test_gaussian_custom_cut():
    spec = NoiseSpec.gaussian_truncated(1.0, cut=2.0)
    w = spec.draw(_rng(6), size=10**5)
    assert np.all(np.abs(w) <= 2.0)
    # a 2 sigma cut actually bites: the tail should be visibly re-drawn
    assert np.max(np.abs(w)) > 1.9


def test_draws_are_deterministic_per_seed():
    spec = NoiseSpec.gaussian_truncated(0.5)
    a = spec.draw(_rng(11), size=1000)
    b = spec.draw(_rng(11), size=1000)
    assert np.array_equal(a, b)


# config ----------------------------------------------------------------------


def test_invalid_family_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(family="laplace", params=(1.0,))


def test_zero_scale_degenerates_to_silence():
    # width 0 is allowed and behaves like the zero family
    spec = NoiseSpec.uniform_sym(0.0)
    assert spec.variance == 0.0
    assert np.all(spec.draw(_rng(9), size=50) == 0.0)


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        NoiseSpec.uniform_sym(-0.5)
    with pytest.raises(ValueError):
        NoiseSpec.rademacher(-1.0)
    with pytest.raises(ValueError):
        NoiseSpec.gaussian_truncated(1.0, cut=0.0)


def test_non_finite_params_rejected():
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec.uniform_sym(float("inf"))
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec.gaussian_truncated(float("nan"))


def test_spec_round_trip():
    for spec in (
        NoiseSpec.uniform_sym(0.4),
        NoiseSpec.gaussian_truncated(0.2, cut=4.0),
        NoiseSpec.rademacher(1.0),
        NoiseSpec.zero(),
    ):
        again = NoiseSpec.from_dict(spec.to_dict())
        assert again == spec
