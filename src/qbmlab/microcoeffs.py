"""Transport coefficients: the one coefficient type and its microscopic source.

BilinearCoefficients (gamma, d_pp, d_xx, d_xp, mu, fugacity_z) is the
coefficient type of every generator and coefficient report.

The momentum-diffusion coefficient of the weak-coupling Brownian limit is a
radial quadrature of the squared scattering amplitude against the thermal
kernel of the gas:

    D_pp = (2/3) * (pi^2 m^2 / (beta hbar)) * Integral d^3q |t(q)|^2 q e^{-beta q^2 / 8m}

with the angular integral contributing 4*pi.  Position diffusion and friction
follow from D_pp by the fluctuation-dissipation-consistent relations

    D_xx = (beta hbar / 4M)^2 * D_pp,      gamma = (beta / 2M) * D_pp,

written once, in saturating_coefficients, for compute_dpp and the minimal
generator alike.  They saturate the complete-positivity bound
D_xx*D_pp - D_xp^2 >= (gamma hbar/2)^2 exactly, i.e.
chi = D_xx*M/(beta hbar^2 gamma) = 1/8.  cp_check and kossakowski_weights
decide that bound by one rule, with one round-off slack, and cp_margin,
cp_check, kossakowski_weights and every bilinear-family compile refuse a
set whose bound's terms overflow by one NumericalFailure, naming cp_margin.

The radial quadrature's convergence is decided by quadrature.integrate
alone, which evaluates the integrand under the library's float policy.
compute_dpp and dpp_constant_closed_form compute their results under the
same policy and check them once, before any of them reaches
BilinearCoefficients: compute_dpp's d_pp, gamma and d_xx and the closed
form must be normal floats (exact zeros for t0 = 0), so that chi is 1/8
wherever there is friction.  Each failure is a NumericalFailure whose
message starts with the function's name and gives t0, beta and gas_mass.
The policy is the module's only floating-point mechanism: |t(q)|^2, the
closed form and cp_margin's terms are computed in numpy scalars under it,
whose ** has Python's bits but overflows to inf rather than raising.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .operators import NumericalFailure, check_finite, float_policy
from .quadrature import integrate
from .structure_factor import BOSE, MAXWELL_BOLTZMANN, GasThermodynamics

# Relative round-off of a quantity that vanishes exactly on the CP boundary:
# cp_margin of a saturated coefficient set, computed from terms a few
# roundings deep, or the smaller Kossakowski weight as eigh computes it.
CP_ROUNDOFF = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class TMatrixModel:
    """Squared scattering amplitude |t(q)|^2 as a function of q >= 0.

    kind "constant": |t(q)|^2 = t0^2.
    kind "gaussian": |t(q)|^2 = t0^2 * exp(-q^2 / (2 sigma_q^2)).
    """

    kind: str
    t0: float
    sigma_q: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "gaussian"):
            raise ValueError(f"unknown t-matrix kind {self.kind!r}")
        check_finite("t0", self.t0)
        if self.kind == "gaussian":
            if self.sigma_q is None:
                raise ValueError("gaussian t-matrix requires sigma_q")
            check_finite("sigma_q", self.sigma_q, "positive")

    def squared(self, q):
        """|t(q)|^2; a t0 whose square overflows raises NumericalFailure."""
        q = np.asarray(q, dtype=float)
        if not np.all(q >= 0):  # NaN too
            raise ValueError("momentum transfer must be nonnegative")
        with float_policy():
            t0_squared = np.float64(self.t0) ** 2
            if self.kind == "constant":
                out = np.full_like(q, t0_squared)
            else:
                # sigma_q^2 is never formed: a q/sigma_q that overflows gives
                # exp(-inf) = 0, and q = 0 gives t0^2 at any sigma_q
                out = t0_squared * np.exp(-0.5 * (q / np.float64(self.sigma_q)) ** 2)
        if not math.isfinite(t0_squared):
            raise NumericalFailure(f"t0: the squared amplitude t0^2 is not finite "
                                   f"for t0 = {self.t0!r}")
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class BilinearCoefficients:
    """Coefficients of the bilinear generator; fugacity_z scales the dissipator."""

    gamma: float = 0.0
    d_pp: float = 0.0
    d_xx: float = 0.0
    d_xp: float = 0.0
    mu: float = 0.0
    fugacity_z: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "d_xp", "mu"):
            check_finite(name, getattr(self, name))
        for name in ("d_pp", "d_xx", "fugacity_z"):
            check_finite(name, getattr(self, name), "nonnegative")


def cutoff_momentum(gas: GasThermodynamics) -> float:
    """12 sqrt(8m/beta), where the gas's thermal kernel exp(-beta q^2/8m) has
    fallen to e^-144 of its peak: the end of compute_dpp's interval for the
    constant t-matrix.  Far beyond the collision generator's exponent cap
    for nearly every gas, so it is no default for that generator's q_max."""
    return 12.0 * np.sqrt(8.0 * gas.gas_mass / gas.beta)


def thermal_kernel(tmat: TMatrixModel, beta: float, gas_mass: float, q, weight=1.0):
    """weight * |t(q)|^2 * exp(-beta q^2 / 8m), the D_pp integrand; weight multiplies first."""
    return weight * tmat.squared(q) * np.exp(-beta / (8.0 * gas_mass) * q**2)


def dpp_prefactor(gas_mass: float, beta: float, hbar: float) -> float:
    """Constant in front of the D_pp integral: 8 pi^3 m^2 / (3 beta hbar)."""
    return (8.0 * np.pi**3 / 3.0) * gas_mass**2 / (beta * hbar)


def saturating_coefficients(d_pp: float, beta: float, mass: float,
                            hbar: float = 1.0) -> tuple[float, float]:
    """(gamma, d_xx) that put d_pp exactly on the CP boundary.

    gamma = beta d_pp / 2M and d_xx = (beta hbar / 4M)^2 d_pp; compute_dpp
    and minimal_coefficients both derive their sets here, so they agree bit
    for bit at the same d_pp, beta, M and hbar.
    """
    return beta * d_pp / (2.0 * mass), (beta * hbar / (4.0 * mass)) ** 2 * d_pp


def compute_dpp(tmat: TMatrixModel, gas: GasThermodynamics, mass_test: float,
                hbar: float = 1.0) -> BilinearCoefficients:
    """Momentum diffusion by radial quadrature, with derived d_xx, gamma, mu.

    The radial integrand is q^3 t0^2 exp(-a q^2), with a = beta/8m, plus
    1/(2 sigma_q^2) for the Gaussian t-matrix.  It is integrated over
    [0, 12/sqrt(a)], where it has the same shape for every parameter set, so
    a narrow t-matrix is resolved as well as a wide one; for the constant
    kind the interval ends at cutoff_momentum.  quadrature.integrate
    decides the integral, to an error estimate of at most 1e-10 of its
    value (any, for a zero value).  d_pp, gamma and d_xx are computed
    under the float policy; any of them not a finite normal float (for
    t0 != 0) raises NumericalFailure naming compute_dpp and its inputs,
    rather than reaching BilinearCoefficients' ValueError or a chi that
    underflow has moved off 1/8.

    gamma and d_xx come from saturating_coefficients, so the set sits on the
    CP boundary (chi = 1/8).  mu = gamma/2 is the anticommutator correction
    that the minimal generator carries when written with the thermal
    annihilator as its jump; it is reported, not an input for a bilinear
    spec, whose minimal form has no anticommutator term.  fugacity_z is 1
    because the quadrature gives d_pp per unit fugacity.
    """
    check_finite("mass_test", mass_test, "positive")
    check_finite("hbar", hbar, "positive")
    inputs = f"t0={tmat.t0!r}, beta={gas.beta!r}, gas_mass={gas.gas_mass!r}"
    if tmat.kind == "gaussian":
        inputs += f", sigma_q={tmat.sigma_q!r}"
    with float_policy():
        a = gas.beta / (8.0 * gas.gas_mass)
        if tmat.kind == "gaussian":
            a += 0.5 / np.float64(tmat.sigma_q) ** 2
        # 1e-10 relative; a zero integral, whose integrand underflowed at
        # every node of the fine rule, is exact
        val = integrate(lambda q: thermal_kernel(tmat, gas.beta, gas.gas_mass, q, q**3),
                        0.0, 12.0 / np.sqrt(a), f"compute_dpp: the radial integral at {inputs}",
                        lambda v: 1e-10 * abs(v) if v else math.inf)
        d_pp = dpp_prefactor(gas.gas_mass, gas.beta, hbar) * val
        gamma, d_xx = saturating_coefficients(d_pp, gas.beta, mass_test, hbar)
    values = tuple(map(float, (d_pp, gamma, d_xx)))
    # normal floats, or the exact zeros of t0 = 0: a value that underflows
    # keeps too few digits for chi = 1/8, or none
    if not (all(sys.float_info.min <= v < math.inf for v in values)
            or tmat.t0 == 0 and values == (0.0, 0.0, 0.0)):
        raise NumericalFailure(f"compute_dpp: d_pp, gamma and d_xx = {values} are not all "
                               f"finite normal floats at {inputs}, mass_test={mass_test!r}, "
                               f"hbar={hbar!r}")
    return BilinearCoefficients(gamma=gamma, d_pp=d_pp, d_xx=d_xx, mu=0.5 * gamma)


def dpp_constant_closed_form(t0: float, gas: GasThermodynamics, hbar: float = 1.0) -> float:
    """Closed form for a constant amplitude: (256 pi^3 / 3) m^4 t0^2 / (hbar beta^3).

    Computed under the float policy; by compute_dpp's rule, a value that is
    not a finite normal float (an exact zero for t0 = 0) raises
    NumericalFailure naming dpp_constant_closed_form, t0, beta and gas_mass."""
    with float_policy():
        value = float(256.0 * np.pi**3 / 3.0 * np.float64(gas.gas_mass) ** 4
                      * np.float64(t0) ** 2 / (hbar * np.float64(gas.beta) ** 3))
    if not (sys.float_info.min <= value < math.inf or t0 == 0 and value == 0.0):
        raise NumericalFailure(f"dpp_constant_closed_form: the closed form = {value!r} is not a "
                               f"finite normal float at t0={t0!r}, beta={gas.beta!r}, "
                               f"gas_mass={gas.gas_mass!r}")
    return value


def _cp_terms(c: BilinearCoefficients, hbar: float) -> tuple[float, float]:
    """(cp_margin, its largest term), from the terms d_xx*d_pp, d_xp^2 and
    (gamma*hbar/2)^2, computed in numpy scalars under the float policy; a
    term that is not finite raises NumericalFailure."""
    with float_policy():
        terms = tuple(map(float, (np.float64(c.d_xx) * c.d_pp, np.float64(c.d_xp) ** 2,
                                  (np.float64(c.gamma) * hbar / 2.0) ** 2)))
    if not all(map(math.isfinite, terms)):
        raise NumericalFailure(f"cp_margin: the CP bound's terms d_xx*d_pp, d_xp^2 "
                               f"and (gamma*hbar/2)^2 = {terms} are not all finite")
    det, xp2, bound = terms
    return det - xp2 - bound, max(terms)


def cp_margin(c: BilinearCoefficients, hbar: float = 1.0) -> float:
    """Signed slack of the complete-positivity bound; >= 0 iff satisfiable.
    A coefficient set whose terms overflow has none: NumericalFailure."""
    return _cp_terms(c, hbar)[0]


def cp_check(c: BilinearCoefficients, hbar: float = 1.0) -> tuple[bool, float]:
    """(satisfied, margin): the GKSL condition C >= 0 on the Kossakowski matrix.

    BilinearCoefficients keeps C's diagonal nonnegative, so C >= 0 is the
    determinant bound.  It counts as met when the margin is no more negative
    than CP_ROUNDOFF times its largest term, so a saturated set (chi = 1/8),
    whose computed margin is zero only up to round-off, is completely
    positive; kossakowski_weights keeps weights by the same rule.  The
    margin itself is returned unchanged.
    """
    margin, largest = _cp_terms(c, hbar)
    return bool(margin >= -CP_ROUNDOFF * largest), margin


def kossakowski_weights(c: BilinearCoefficients,
                        hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Surviving weights s_k and eigenvectors (columns) of the Kossakowski matrix.

    C is the bilinear generator's 2x2 matrix over (x, p), written out in
    liouvillians; tr C >= 0 and det C = 4 (z/hbar^2)^2 cp_margin.  A zero C
    leaves no weights.  The smaller weight follows cp_check's rule: an exact
    zero, dropped, when cp_check's slack calls the set saturated; otherwise
    it keeps the margin's sign, and where eigh cannot resolve it (within
    CP_ROUNDOFF of the larger weight) its value is det C / lambda_max.
    """
    z = c.fugacity_z
    kossakowski = (z / hbar**2) * np.array(
        [[2.0 * c.d_pp, -2.0 * c.d_xp - 1j * c.gamma * hbar],
         [-2.0 * c.d_xp + 1j * c.gamma * hbar, 2.0 * c.d_xx]])
    weights, vecs = np.linalg.eigh(kossakowski)
    top = weights[1]
    if not top > 0.0:
        return weights[:0], vecs[:, :0]
    margin, largest = _cp_terms(c, hbar)
    if abs(margin) <= CP_ROUNDOFF * largest:
        return weights[1:], vecs[:, 1:]
    if not abs(weights[0]) > CP_ROUNDOFF * top:
        weights[0] = 4.0 * (z / hbar**2) ** 2 * margin / top
    return weights, vecs


def chi_of(c: BilinearCoefficients, gas: GasThermodynamics, mass_test: float,
           hbar: float = 1.0) -> float:
    """Position-diffusion strength in units of beta*hbar^2*gamma/M; 1/8 saturates CP.

    d_xx/gamma comes first: both may be near the ends of the float range,
    where d_xx*M or beta*hbar^2*gamma would overflow or lose digits."""
    if c.gamma == 0:
        raise ValueError("chi undefined at zero friction")
    return c.d_xx / c.gamma * (mass_test / (gas.beta * hbar**2))


def friction_ratio(gas: GasThermodynamics) -> float:
    """Classical-to-quantum-statistics friction ratio: 1, 1-z, or 1+z."""
    if gas.statistics == MAXWELL_BOLTZMANN:
        return 1.0
    if gas.statistics == BOSE:
        return 1.0 - gas.fugacity
    return 1.0 + gas.fugacity
