"""Fixed Gauss-Legendre rules: the one quadrature of the library.

The energy sum rules, compute_dpp's radial integral and the collision
generator's momentum-transfer grid all read their nodes and weights here.
Computing a rule costs about a millisecond per order, so each order is
computed once, on first use, and shared as read-only arrays.
"""

from __future__ import annotations

import functools

import numpy as np

# integrate() returns the 2 * _ORDER-point value and checks it against the
# _ORDER-point one.  At 50 the coarse rule already meets both callers'
# thresholds, and the 100-point rule reproduces both integrands' closed
# forms (a unit Gaussian over +-14 widths, s^3 exp(-s^2) over [0, 12]) to
# 1.2e-15: leggauss's weights carry an error of a few 1e-15 that varies
# with the order, 6e-15 at 128.
_ORDER = 50


# bounded, because radial_grid's order is its caller's choice
@functools.lru_cache(maxsize=16)
def legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, one pair per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def integrate(f, lo: float, hi: float) -> tuple[float, float]:
    """(value, error estimate) of the integral of f over [lo, hi].

    f maps an array of abscissae to the integrand's values there.  The
    value is the 2n-point Gauss-Legendre rule's, and the error estimate is
    its distance from the n-point rule's.
    """
    (t_fine, w_fine), (t, w) = legendre_rule(2 * _ORDER), legendre_rule(_ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # one call of f for both rules halves its per-call overhead
    values = f(mid + half * np.concatenate((t_fine, t)))
    fine = half * float(w_fine @ values[:t_fine.size])
    coarse = half * float(w @ values[t_fine.size:])
    return fine, abs(fine - coarse)
