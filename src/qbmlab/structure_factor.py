"""Dynamic structure factor of the ideal gas, closed form.

The density-fluctuation spectrum of a classical ideal gas in thermal
equilibrium is Gaussian in the energy transfer E at fixed momentum transfer q,
peaked at the recoil energy q^2/2m.  Sign convention: E is the energy handed
to the gas, so detailed balance reads s(q,-E) = exp(-beta*E) * s(q,E).

Everything here is written in the recoil-centred variable
x = (E - E_r)/sigma, with E_r = q^2/2m and sigma = q/sqrt(beta m):
s_mb(q, E) = g(x)/sigma, with g(x) = exp(-x^2/2)/sqrt(2 pi) the one even
profile.  recoil_scale is the one place that decides the scale
(E_r, sigma): it computes both under the library's float policy and
refuses, once, a scale that is not a pair of finite normal floats, by a
NumericalFailure whose message starts with s_mb and gives q, beta and
gas_mass.  s_mb, the sum rules and `qbmlab dsf` all read it.

The sum rules integrate g itself over x in [-14, 14], so E is never
rounded onto E_r's float grid.  The zeroth moment checks the profile's
mass; the first moment is E_r times that mass plus sigma times g's odd
part, which is zero, so it checks that E_r sets the profile's centre.
quadrature.integrate decides both, and checks their convergence; s_mb
checks its values' finiteness once, where it computes them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .operators import NumericalFailure, check_finite, float_policy
from .quadrature import integrate

MAXWELL_BOLTZMANN = "maxwell_boltzmann"
BOSE = "bose"
FERMI = "fermi"
_STATISTICS = (MAXWELL_BOLTZMANN, BOSE, FERMI)


@dataclass(frozen=True)
class GasThermodynamics:
    """Equilibrium parameters of the background gas."""

    beta: float
    gas_mass: float
    fugacity: float = 1.0
    statistics: str = MAXWELL_BOLTZMANN

    def __post_init__(self):
        for name in ("beta", "gas_mass", "fugacity"):
            check_finite(name, getattr(self, name), "positive")
        if self.statistics not in _STATISTICS:
            raise ValueError(
                f"statistics must be one of {_STATISTICS}, got {self.statistics!r}")
        if self.statistics == BOSE and self.fugacity >= 1.0:
            raise ValueError("Bose gas requires fugacity < 1")


def _not_finite(q: float, gas: GasThermodynamics) -> NumericalFailure:
    return NumericalFailure(f"s_mb: the structure factor is not finite at q={q!r}, "
                            f"beta={gas.beta!r}, gas_mass={gas.gas_mass!r}")


def recoil_scale(q: float, gas: GasThermodynamics) -> tuple[float, float]:
    """(E_r, sigma) = (q^2/2m, q/sqrt(beta m)): the recoil energy and the
    thermal width of s_mb at momentum transfer q > 0.

    A q that is not positive and finite is a ValueError, and so is a gas
    that is not Maxwell-Boltzmann, whose closed form this is.  Either
    value not a finite normal float (q^2 underflows or overflows, say)
    raises NumericalFailure naming s_mb, q, beta and gas_mass.
    """
    check_finite("q", q, "positive")
    if gas.statistics != MAXWELL_BOLTZMANN:
        raise ValueError("closed form implemented for the Maxwell-Boltzmann gas only")
    # numpy's scalar arithmetic, the bits of Python's, but with no
    # OverflowError or ZeroDivisionError
    q_np = np.float64(q)
    with float_policy():
        recoil = float(q_np**2 / (2.0 * gas.gas_mass))
        width = float(q_np / np.sqrt(gas.beta * gas.gas_mass))
    if not all(sys.float_info.min <= v < math.inf for v in (recoil, width)):
        raise _not_finite(q, gas)
    return recoil, width


def _profile(x, width=1.0):
    """g(x)/width, with g(x) = exp(-x^2/2)/sqrt(2 pi) the even profile of
    s_mb in x = (E - E_r)/sigma: s_mb(q, E) = g(x)/sigma."""
    return np.exp(-0.5 * x**2) * (1.0 / (math.sqrt(2.0 * math.pi) * width))


def s_mb(q: float, energy, gas: GasThermodynamics):
    """Spectrum of density fluctuations at momentum transfer q > 0.

    Returns g((E - E_r)/sigma)/sigma, with (E_r, sigma) from recoil_scale,
    which is sqrt(beta*m/(2*pi*q^2)) * exp(-(beta*m/(2*q^2)) * (E - q^2/2m)^2).
    Unit zeroth moment; first moment equals the recoil energy q^2/2m.
    Accepts scalar or array energy.  A value that is not finite (a scale
    recoil_scale refuses, or a NaN energy) raises NumericalFailure.
    """
    recoil, width = recoil_scale(q, gas)
    with float_policy():
        out = _profile((np.asarray(energy, dtype=float) - recoil) / width, width)
    if not np.isfinite(out).all():
        raise _not_finite(q, gas)
    return out if out.ndim else float(out)


def brownian_weight(q, momentum, beta: float, mass: float):
    """Thermal weight exp(-(beta/4M) q p) of a kick q on a particle of mass M
    and momentum p, elementwise, with q and momentum broadcast together.

    It is the Brownian limit of the structure factor: as m/M -> 0 it equals
    sqrt(s_mb(q, E(p)) / s_mb(q, E(0))), with E(p) = -(q p/M + q^2/2M) the
    energy the kick hands to the gas.  At finite m/M the two differ by the
    recoil factor exp(-beta m (E(p)^2 - E(0)^2) / 4q^2), which tends to 1
    linearly in m/M.
    """
    return np.exp((-beta / (4.0 * mass)) * np.multiply(q, momentum))


def _energy_moment(name: str, q: float, gas: GasThermodynamics, power: int) -> float:
    """Integral of E^power s_mb(q, E) dE, for power 0 or 1, in x = (E - E_r)/sigma.

    With s_mb(q, E) = g(x)/sigma the zeroth moment is M0 = Int g dx and the
    first is E_r M0 + sigma Int x g dx, each over x in [-14, 14].  Kept
    numerical on purpose: it cross-checks the closed form rather than
    restating it.  recoil_scale checks q; integrate decides convergence,
    to an error estimate of at most 1e-8 max(|value|, 1).
    """
    recoil, width = recoil_scale(q, gas)

    def over_profile(f, what):
        return integrate(f, -14.0, 14.0,
                         f"{name}: the {what} of s_mb's profile at q={q!r}, "
                         f"beta={gas.beta!r}, gas_mass={gas.gas_mass!r}",
                         lambda v: 1e-8 * max(abs(v), 1.0))

    mass = over_profile(_profile, "mass")
    if power == 0:
        return mass
    # The rule's nodes mirror each other, so x g(x) sums as x times g's odd
    # part alone; for the even g that is zero at every node, where a sum in
    # node order would leave a residue that sigma/E_r = 2 sqrt(m/beta)/q
    # magnifies at small q.
    odd = over_profile(lambda x: 0.5 * x * (_profile(x) - _profile(-x)), "first moment")
    return recoil * mass + width * odd


def sum_rule_zero(q: float, gas: GasThermodynamics) -> float:
    """Zeroth energy moment of s_mb by Gauss-Legendre quadrature; equals 1."""
    return _energy_moment("sum_rule_zero", q, gas, 0)


def sum_rule_f(q: float, gas: GasThermodynamics) -> float:
    """First energy moment of s_mb by Gauss-Legendre quadrature; equals q^2/2m."""
    return _energy_moment("sum_rule_f", q, gas, 1)


def statistics_prefactor(gas: GasThermodynamics) -> float:
    """Fugacity factor of the scattering rate by statistics: z, z/(1-z), or
    z/(1+z).  No generator reads it."""
    z = gas.fugacity
    if gas.statistics == MAXWELL_BOLTZMANN:
        return z
    if gas.statistics == BOSE:
        return z / (1.0 - z)
    return z / (1.0 + z)
