"""Dynamic structure factor of the ideal gas, closed form.

The density-fluctuation spectrum of a classical ideal gas in thermal
equilibrium is Gaussian in the energy transfer E at fixed momentum transfer q,
peaked at the recoil energy q^2/2m.  Sign convention: E is the energy handed
to the gas, so detailed balance reads s(q,-E) = exp(-beta*E) * s(q,E).

s_mb is evaluated under the library's float policy and checked for
finiteness once, where it is computed; its energy moments are decided by
quadrature.integrate alone, which also checks their convergence.  Either
failure is a NumericalFailure whose message starts with the function's
name and gives q, beta and gas_mass.
"""

from __future__ import annotations

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


def s_mb(q: float, energy, gas: GasThermodynamics):
    """Spectrum of density fluctuations at momentum transfer q > 0.

    Returns sqrt(beta*m/(2*pi*q^2)) * exp(-(beta*m/(2*q^2)) * (E - q^2/2m)^2).
    Unit zeroth moment; first moment equals the recoil energy q^2/2m.
    Accepts scalar or array energy.  A value that is not finite (q^2
    underflows or overflows) raises NumericalFailure.
    """
    check_finite("q", q, "positive")
    if gas.statistics != MAXWELL_BOLTZMANN:
        raise ValueError("closed form implemented for the Maxwell-Boltzmann gas only")
    beta, m = gas.beta, gas.gas_mass
    # numpy's scalar arithmetic, the bits of Python's, but with no
    # OverflowError or ZeroDivisionError
    q_np = np.float64(q)
    with float_policy():
        recoil = q_np**2 / (2.0 * m)
        e = np.asarray(energy, dtype=float)
        out = np.sqrt(beta * m / (2.0 * np.pi * q_np**2)) * np.exp(
            -(beta * m / (2.0 * q_np**2)) * (e - recoil) ** 2)
    if not np.isfinite(out).all():
        raise NumericalFailure(f"s_mb: the structure factor is not finite at q={q!r}, "
                               f"beta={beta!r}, gas_mass={m!r}")
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
    """Integral of E^power s_mb(q, E) dE by Gauss-Legendre rules over +-14 widths.

    Kept numerical on purpose: it cross-checks the closed form rather than
    restating it.  s_mb checks q; integrate decides convergence, to an
    error estimate of at most 1e-8 max(|value|, 1).
    """
    with float_policy():
        recoil = np.float64(q) ** 2 / (2.0 * gas.gas_mass)
        width = q / np.sqrt(gas.beta * gas.gas_mass)
        lo, hi = recoil - 14.0 * width, recoil + 14.0 * width
    return integrate(lambda e: e**power * s_mb(q, e, gas), lo, hi,
                     f"{name}: the energy moment {power} of s_mb at q={q!r}, "
                     f"beta={gas.beta!r}, gas_mass={gas.gas_mass!r}",
                     lambda v: 1e-8 * max(abs(v), 1.0))


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
