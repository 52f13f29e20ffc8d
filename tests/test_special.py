"""The runtime's erf and expit against scipy.special, the accuracy oracle."""
import numpy as np
from scipy import special as oracle

from gftnn.special import erf, expit

ERF_MAX_ULP = 3             # measured 3 on 2.2 M points; scipy's own error reaches 2.7
EXPIT_MAX_REL = 4.5e-16     # measured 4.4e-16 on [-40, 40]


def ulp_error(got, want):
    """|got - want| in units of the spacing at want (subnormal spacing
    below the normal range)."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def erf_grid():
    """A dense grid on [-8, 8], random points, and both signs of the tiny
    and subnormal range."""
    tiny = np.geomspace(5e-324, 1e-3, 20_001)
    rng = np.random.default_rng(0)
    return np.concatenate([np.linspace(-8.0, 8.0, 400_001),
                           rng.uniform(-6.5, 6.5, 200_000), tiny, -tiny])


def test_erf_within_pinned_ulps_of_scipy():
    x = erf_grid()
    err = ulp_error(erf(x), oracle.erf(x))
    assert np.max(err) <= ERF_MAX_ULP
    assert np.mean(err) < 0.5


def test_erf_special_values():
    got = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert np.array_equal(np.signbit(got[:2]), [False, True])
    assert got[0] == 0.0 and got[1] == 0.0
    assert got[2] == 1.0 and got[3] == -1.0
    assert np.isnan(got[4])


def test_erf_subnormals_keep_precision():
    x = np.array([5e-324, 1e-320, 2.2e-308, 1e-300, 1e-200])
    for sign in (1.0, -1.0):
        got = erf(sign * x)
        assert np.all(np.sign(got) == sign)
        assert np.max(ulp_error(got, oracle.erf(sign * x))) <= 1


def test_erf_saturates_beyond_six():
    x = np.array([5.95, 6.0, 6.5, 27.0, 1e10, 1e300, np.finfo(float).max])
    assert np.array_equal(erf(x), np.ones(x.size))
    assert np.array_equal(erf(-x), -np.ones(x.size))
    assert np.array_equal(erf(x), oracle.erf(x))


def test_erf_keeps_shape_and_takes_scalars():
    x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    assert erf(x).shape == (2, 3, 4)
    assert np.array_equal(erf(x), erf(x.ravel()).reshape(2, 3, 4))
    assert np.array_equal(erf(x.T), erf(x).T)
    assert erf(0.5) == erf(np.array([0.5]))[0]
    assert np.ndim(erf(0.5)) == 0
    assert erf([1, -2]).dtype == np.float64


def test_expit_within_pinned_relative_error_of_scipy():
    x = np.concatenate([np.linspace(-40.0, 40.0, 800_001),
                        np.random.default_rng(2).uniform(-700.0, 700.0, 100_000)])
    want = oracle.expit(x)
    assert np.max(np.abs(expit(x) - want) / want) <= EXPIT_MAX_REL


def test_expit_tails_and_special_values():
    # exp never overflows: the suite turns an overflow warning into an error.
    x = np.array([-1e308, -800.0, -745.5, 800.0, 1e308, np.inf, -np.inf])
    assert np.array_equal(expit(x), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    # Where exp(x) < 2^-53, expit(x) rounds to exp(x) itself, down through
    # the subnormals; scipy flushes to 0 below about -709.78.
    deep = np.linspace(-745.0, -40.0, 10_001)
    assert np.array_equal(expit(deep), np.exp(deep))
    assert expit(0.0) == 0.5 and expit(-0.0) == 0.5
    assert np.isnan(expit(np.nan))
    assert expit(np.zeros((2, 3))).shape == (2, 3)
