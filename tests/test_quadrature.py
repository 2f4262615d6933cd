import numpy as np
import pytest

from qbmlab.operators import NumericalFailure
from qbmlab.quadrature import integrate, legendre_rule


@pytest.mark.parametrize("order", [8, 40, 50, 100])
def test_legendre_rule_is_cached_and_read_only(order):
    """Each order is leggauss's rule, bit for bit, computed once and shared
    read-only, so no caller can change another's nodes."""
    nodes, weights = legendre_rule(order)
    t, w = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(nodes, t) and np.array_equal(weights, w)
    again = legendre_rule(order)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_integrate_value_and_error_estimate():
    # smooth: both orders agree to round-off, and the value is exact
    val = integrate(np.exp, 0.0, 2.0, "exp", lambda v: 1e-14 * v)
    assert abs(val - np.expm1(2.0)) < 1e-15 * val
    # a square-root endpoint converges slowly: the estimate, 7.0e-7, shows
    # it, and bounds the returned value's actual error, 1.0e-7
    with pytest.raises(NumericalFailure, match=r"^sqrt did not converge: value=0\.666"):
        integrate(np.sqrt, 0.0, 1.0, "sqrt", lambda v: 1e-8)
    val = integrate(np.sqrt, 0.0, 1.0, "sqrt", lambda v: 7e-7)
    assert 1e-8 < abs(val - 2.0 / 3.0) <= 7e-7
    with pytest.raises(NumericalFailure):  # the estimate exceeds the actual error
        integrate(np.sqrt, 0.0, 1.0, "sqrt", lambda v: abs(v - 2.0 / 3.0))


def test_integrate_holds_the_estimate_to_the_callers_tolerance_of_the_value():
    """tol receives the value: the square root's estimate, 1.047e-6 of its
    value at any scale, passes a relative 1.05e-6 and fails 1.04e-6, and
    passes a tolerance with an absolute floor only at a value below it."""
    seen = []
    for scale in (1e-6, 1.0, 1e6):
        val = integrate(lambda x: scale * np.sqrt(x), 0.0, 1.0, "sqrt",
                        lambda v: seen.append(v) or 1.05e-6 * v)
        assert seen.pop() == val and seen == []
        with pytest.raises(NumericalFailure):
            integrate(lambda x: scale * np.sqrt(x), 0.0, 1.0, "sqrt", lambda v: 1.04e-6 * v)

    def floored(v):
        return 1e-6 * max(abs(v), 1.0)

    integrate(lambda x: 1e-6 * np.sqrt(x), 0.0, 1.0, "sqrt", floored)
    with pytest.raises(NumericalFailure):
        integrate(lambda x: 1e6 * np.sqrt(x), 0.0, 1.0, "sqrt", floored)


@pytest.mark.parametrize("f", [lambda x: np.full_like(x, np.nan),
                               lambda x: 1e300 * np.exp(x),
                               lambda x: 1.0 / (x - x),
                               lambda x: np.where(x > 0.5, np.inf, -np.inf)],
                         ids=["nan", "overflow", "divide", "inf-minus-inf"])
def test_integrate_refuses_a_value_or_estimate_that_is_not_finite(f):
    """An integrand that is NaN, overflows or divides by zero is evaluated
    under the one float policy, with no numpy warning (the suite turns any
    into an error), and its value or estimate fails the one check: a NaN
    estimate does not pass a tolerance, however large."""
    with pytest.raises(NumericalFailure, match=r"^caller: q=1 did not converge: value="):
        integrate(f, -1.0, 1e3, "caller: q=1", lambda v: np.inf)
