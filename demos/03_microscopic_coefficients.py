"""Diffusion and friction coefficients from a microscopic scattering model.

The momentum diffusion coefficient is an integral of the scattering
amplitude against a thermal weight.  For a constant amplitude the integral
has a closed form, which pins the quadrature to machine precision; the
friction and position diffusion follow from fluctuation-dissipation
relations.  The resulting coefficient set always lands exactly on the
complete positivity boundary, with the dimensionless combination
chi = M * d_xx / (beta * hbar^2 * gamma) locked at 1/8.
"""

import numpy as np

from qbmlab import (
    GasThermodynamics,
    TMatrixModel,
    chi_of,
    compute_dpp,
    cp_margin,
    cutoff_momentum,
    dpp_constant_closed_form,
)


def report(tmat, gas, mass_test):
    coeffs = compute_dpp(tmat, gas, mass_test=mass_test)
    chi = chi_of(coeffs, gas, mass_test)
    print("  d_pp   = %.12e" % coeffs.d_pp)
    print("  gamma  = %.12e" % coeffs.gamma)
    print("  d_xx   = %.12e" % coeffs.d_xx)
    print("  cp margin (>= 0 means CP) = % .3e" % cp_margin(coeffs))
    print("  chi    = %.15f" % chi)
    return coeffs


print("constant scattering amplitude, three decades of temperature")
print("-" * 60)
for beta in (0.05, 5.0, 50.0):
    gas = GasThermodynamics(beta=beta, gas_mass=1.3)
    coeffs = report(TMatrixModel(kind="constant", t0=0.02), gas, 2.0)
    exact = dpp_constant_closed_form(0.02, gas)
    print("  closed form               = %.12e  (rel err %.1e)"
          % (exact, abs(coeffs.d_pp - exact) / exact))
    print()

print("gaussian amplitude: a soft momentum cutoff suppresses diffusion")
print("-" * 60)
gas = GasThermodynamics(beta=2.0, gas_mass=1.0)
print("thermal momentum scale:", cutoff_momentum(gas))
for sigma_q in (0.5, 2.0, 8.0):
    tmat = TMatrixModel(kind="gaussian", t0=0.02, sigma_q=sigma_q)
    d = compute_dpp(tmat, gas, mass_test=2.0).d_pp
    print("  sigma_q = %-4.1f  d_pp = %.6e" % (sigma_q, d))
print()
print("as sigma_q grows the gaussian kernel approaches the constant one,")
print("so d_pp climbs toward the closed-form ceiling:")
print("  ceiling =", dpp_constant_closed_form(0.02, gas))
