import numpy as np
import pytest

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
    val, err = integrate(np.exp, 0.0, 2.0)
    assert abs(val - np.expm1(2.0)) < 1e-15 * val
    assert err < 1e-14 * val
    # a square-root endpoint converges slowly: the estimate shows it and
    # bounds the returned value's actual error
    val, err = integrate(np.sqrt, 0.0, 1.0)
    assert err > 1e-8
    assert abs(val - 2.0 / 3.0) <= err
