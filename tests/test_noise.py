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
    spec = NoiseSpec("rademacher", (0.5,))
    assert spec.variance == 0.25
    assert spec.fourth_moment == 0.0625
    assert spec.var_of_square == 0.0  # W^2 is constant


def test_gaussian_moments():
    # the draws outside +-cut*sigma are redrawn, so the law and its moments
    # are the truncated normal's; near the default cut they are close to
    # the untruncated 0.25, 3 * 0.25**2 and 2 * 0.25**2
    truncnorm = pytest.importorskip("scipy.stats").truncnorm
    for params in [(0.5,), (0.5, 4.0), (0.5, 1.5), (1.0, 1.5)]:
        spec = NoiseSpec("gaussian", params)
        cut = params[1] if len(params) == 2 else DEFAULT_GAUSSIAN_CUT
        law = truncnorm(-cut, cut, scale=params[0])
        assert spec.variance == pytest.approx(law.var(), rel=1e-14, abs=0.0)
        assert spec.fourth_moment == pytest.approx(law.moment(4), rel=1e-14, abs=0.0)
        assert spec.var_of_square == pytest.approx(law.moment(4) - law.var() ** 2, rel=1e-13, abs=0.0)
    assert NoiseSpec("gaussian", (0.5,)).variance == pytest.approx(0.25, rel=1e-7)
    assert NoiseSpec("gaussian", (1.0, 1.5)).variance == 0.5515244157615512


def test_gaussian_moments_at_small_cuts():
    # at small cuts the closed forms cancel; the series keeps every digit
    c = 1e-3
    spec = NoiseSpec("gaussian", (1.0, c))
    assert spec.variance == pytest.approx(c**2 / 3 - 2 * c**4 / 45, rel=1e-12, abs=0.0)
    assert spec.fourth_moment == pytest.approx(c**4 / 5 * (1 - 4 * c**2 / 21), rel=1e-12, abs=0.0)
    for c in (1e-300, 1e-8):
        spec = NoiseSpec("gaussian", (1.0, c))
        assert spec.variance >= 0.0 and spec.fourth_moment >= 0.0


# Var and E[W^4] of the unit normal cut at +-c, from 50-digit mpmath
# quadrature of u^2 and u^4 against exp(-u^2 / 2) over [0, c]
_MPMATH_GAUSSIAN_MOMENTS = {
    1.0: (0.2911250947727932111910105, 0.1645003790911728447640420),
    1.1: (0.3422589304793280563552842, 0.2309100973179709887336334),
    1.2: (0.3946352158997969442579096, 0.3121803585950984970257509),
}


@pytest.mark.parametrize("c", sorted(_MPMATH_GAUSSIAN_MOMENTS))
def test_gaussian_moments_just_above_a_cut_of_one(c):
    # the closed forms are off by 2.4e-15 to 4.0e-15 in E[W^4] here
    var, fourth = _MPMATH_GAUSSIAN_MOMENTS[c]
    spec = NoiseSpec("gaussian", (1.0, c))
    assert spec.variance == pytest.approx(var, rel=1e-15, abs=0.0)
    assert spec.fourth_moment == pytest.approx(fourth, rel=1e-15, abs=0.0)


def test_zero_noise_moments():
    spec = NoiseSpec("zero")
    assert (spec.variance, spec.fourth_moment, spec.var_of_square) == (0.0, 0.0, 0.0)


# sample moments --------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec.uniform_sym(1.0),
        NoiseSpec.uniform_sym(0.3),
        NoiseSpec("rademacher", (0.7,)),
        NoiseSpec("gaussian", (0.5,)),
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
    w = NoiseSpec("zero").draw(_rng(1), size=100)
    assert np.all(w == 0.0)


# support ---------------------------------------------------------------------


def test_uniform_support():
    w = NoiseSpec.uniform_sym(0.25).draw(_rng(3), size=10**5)
    assert np.all(np.abs(w) <= 0.25)


def test_rademacher_support_is_two_point():
    w = NoiseSpec("rademacher", (0.7,)).draw(_rng(4), size=10**5)
    assert set(np.unique(w)) == {-0.7, 0.7}
    # both signs roughly balanced
    assert abs(np.mean(w > 0) - 0.5) < 0.02


def test_gaussian_truncation_is_hard():
    spec = NoiseSpec("gaussian", (0.5,))
    w = spec.draw(_rng(5), size=10**6)
    assert np.all(np.abs(w) <= DEFAULT_GAUSSIAN_CUT * 0.5)


def test_gaussian_custom_cut():
    spec = NoiseSpec("gaussian", (1.0, 2.0))
    w = spec.draw(_rng(6), size=10**5)
    assert np.all(np.abs(w) <= 2.0)
    # a 2 sigma cut actually bites: the tail should be visibly re-drawn
    assert np.max(np.abs(w)) > 1.9


def test_draws_are_deterministic_per_seed():
    spec = NoiseSpec("gaussian", (0.5,))
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
        NoiseSpec("rademacher", (-1.0,))
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", (1.0, 0.0))


def test_non_finite_params_rejected():
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec.uniform_sym(float("inf"))
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec("gaussian", (float("nan"),))
    # finite, but the moments overflow
    with pytest.raises(ValueError, match="overflow"):
        NoiseSpec.uniform_sym(1e200)
    with pytest.raises(ValueError, match="overflow"):
        NoiseSpec("gaussian", (1e77,))  # 3 * sigma**4 is inf


def test_spec_round_trip():
    # a record parses to the spec it describes
    for record, spec in (
        ({"family": "uniform", "params": [0.4]}, NoiseSpec.uniform_sym(0.4)),
        ({"family": "gaussian", "params": [0.2, 4.0]}, NoiseSpec("gaussian", (0.2, 4.0))),
        ({"family": "rademacher", "params": [1.0]}, NoiseSpec("rademacher", (1.0,))),
        ({"family": "zero"}, NoiseSpec("zero")),
    ):
        assert NoiseSpec.from_dict(record) == spec
