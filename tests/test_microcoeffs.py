import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from qbmlab import (
    BOSE,
    FERMI,
    BilinearCoefficients,
    CollisionParameters,
    GasThermodynamics,
    HilbertConfig,
    NumericalFailure,
    TMatrixModel,
    chi_of,
    collision_dpp,
    compute_dpp,
    cp_check,
    cp_margin,
    cutoff_momentum,
    dpp_constant_closed_form,
    dpp_prefactor,
    friction_ratio,
    minimal_coefficients,
    radial_grid,
    s_mb,
    sum_rule_f,
    sum_rule_zero,
)
from qbmlab.microcoeffs import kossakowski_weights, thermal_kernel

scale = st.floats(min_value=0.1, max_value=10.0)


def test_tmatrix_validation():
    with pytest.raises(ValueError):
        TMatrixModel(kind="gaussian", t0=1.0)
    with pytest.raises(ValueError):
        TMatrixModel(kind="polynomial", t0=1.0)
    tm = TMatrixModel(kind="gaussian", t0=2.0, sigma_q=1.5)
    assert tm.squared(0.0) == 4.0
    assert tm.squared(1.5) < 4.0
    with pytest.raises(ValueError):
        tm.squared(-0.5)
    # a NaN momentum fails the sign check; the constant kind would return t0^2
    for model in (tm, TMatrixModel(kind="constant", t0=2.0)):
        for q in (np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="momentum transfer must be nonnegative"):
                model.squared(q)


def test_coefficient_set_validation():
    for bad in (dict(d_pp=-1.0, gamma=0.1), dict(d_pp=1.0, d_xx=-1.0, gamma=0.1),
                dict(d_pp=np.inf, gamma=0.1), dict(d_pp=1.0, fugacity_z=-0.5),
                dict(d_pp=1.0, fugacity_z=np.nan)):
        with pytest.raises(ValueError):
            BilinearCoefficients(**bad)
    c = BilinearCoefficients(d_pp=1.0, gamma=0.1)
    assert c.fugacity_z == 1.0


def test_closed_form_matches_quadrature():
    gas = GasThermodynamics(beta=0.5, gas_mass=1.3)
    tm = TMatrixModel(kind="constant", t0=0.02)
    coeffs = compute_dpp(tm, gas, mass_test=2.0)
    exact = dpp_constant_closed_form(0.02, gas)
    assert abs(coeffs.d_pp - exact) < 1e-9 * exact


@given(beta=st.floats(min_value=0.05, max_value=50.0), t0=scale,
       gas_mass=scale, mass_test=scale)
@settings(max_examples=25, deadline=None)
def test_closed_form_property(beta, t0, gas_mass, mass_test):
    gas = GasThermodynamics(beta=beta, gas_mass=gas_mass)
    tm = TMatrixModel(kind="constant", t0=t0)
    coeffs = compute_dpp(tm, gas, mass_test=mass_test)
    exact = dpp_constant_closed_form(t0, gas)
    assert abs(coeffs.d_pp - exact) < 1e-8 * exact


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _gaussian_draws(seed, n):
    """(beta, gas_mass, sigma_q, t0) log-uniform across decades."""
    rng = np.random.default_rng(seed)
    return [(_log_uniform(rng, 0.01, 100.0), _log_uniform(rng, 0.1, 10.0),
             _log_uniform(rng, 0.01, 100.0), _log_uniform(rng, 0.01, 10.0))
            for _ in range(n)]


def test_gaussian_dpp_closed_form_across_decades():
    """Gaussian t-matrix: the radial integral of q^3 t0^2 exp(-a q^2) is
    t0^2 / (2 a^2), a = beta/8m + 1/(2 sigma_q^2).  The first case is a
    narrow t-matrix against a wide thermal kernel, a peak near q = 0.035 on
    [0, cutoff_momentum] = [0, 480]."""
    worst = 0.0
    for beta, gas_mass, sigma_q, t0 in [(0.01, 2.0, 0.02, 1.0)] + _gaussian_draws(11, 200):
        gas = GasThermodynamics(beta=beta, gas_mass=gas_mass)
        d_pp = compute_dpp(TMatrixModel(kind="gaussian", t0=t0, sigma_q=sigma_q),
                           gas, mass_test=1.0).d_pp
        a = beta / (8.0 * gas_mass) + 0.5 / sigma_q**2
        exact = dpp_prefactor(gas_mass, beta, 1.0) * t0**2 / (2.0 * a**2)
        worst = max(worst, abs(d_pp - exact) / exact)
    assert worst < 1e-12


def _quad_dpp(tmat, gas):
    """D_pp by adaptive quadrature over [0, cutoff_momentum], as compute_dpp
    once computed it: the oracle where quad resolves the integrand."""
    val, err = scipy.integrate.quad(
        lambda q: thermal_kernel(tmat, gas.beta, gas.gas_mass, q, q**3),
        0.0, cutoff_momentum(gas), epsabs=0.0, epsrel=1e-12, limit=200)
    assert err <= 1e-10 * abs(val)
    return dpp_prefactor(gas.gas_mass, gas.beta, 1.0) * val


def test_dpp_matches_quad_oracle():
    """Both kinds agree with quad to 1e-12 wherever quad is correct: where the
    integrand's width 1/sqrt(a) is at least 1e-2 of the thermal kernel's,
    sqrt(8m/beta).  Below about 1e-3 quad misses the peak on
    [0, cutoff_momentum]."""
    compared = 0
    for beta, gas_mass, sigma_q, t0 in _gaussian_draws(12, 150):
        gas = GasThermodynamics(beta=beta, gas_mass=gas_mass)
        thermal = beta / (8.0 * gas_mass)
        tmats = [TMatrixModel(kind="constant", t0=t0)]
        if np.sqrt(thermal / (thermal + 0.5 / sigma_q**2)) >= 1e-2:
            tmats.append(TMatrixModel(kind="gaussian", t0=t0, sigma_q=sigma_q))
        for tmat in tmats:
            d_pp = compute_dpp(tmat, gas, mass_test=1.0).d_pp
            oracle = _quad_dpp(tmat, gas)
            assert abs(d_pp - oracle) < 1e-12 * oracle
            compared += 1
    assert compared > 250


@given(beta=st.floats(min_value=0.05, max_value=50.0), t0=scale,
       gas_mass=scale, mass_test=scale)
@settings(max_examples=25, deadline=None)
def test_cp_saturation_property(beta, t0, gas_mass, mass_test):
    """The microscopic coefficient set sits exactly on the CP boundary."""
    gas = GasThermodynamics(beta=beta, gas_mass=gas_mass)
    tm = TMatrixModel(kind="constant", t0=t0)
    coeffs = compute_dpp(tm, gas, mass_test=mass_test)
    bound = (0.5 * coeffs.gamma) ** 2
    assert abs(cp_margin(coeffs)) < 1e-12 * bound
    assert abs(chi_of(coeffs, gas, mass_test) - 0.125) < 1e-12
    ok, margin = cp_check(coeffs)
    assert ok
    assert margin == cp_margin(coeffs)


@given(beta=st.floats(min_value=0.05, max_value=50.0), t0=scale,
       gas_mass=scale, mass_test=scale, hbar=scale,
       kind=st.sampled_from(["constant", "gaussian"]))
@settings(max_examples=50, deadline=None)
def test_single_thermal_derivation(beta, t0, gas_mass, mass_test, hbar, kind):
    """compute_dpp and the minimal generator derive gamma, d_xx bit for bit alike."""
    gas = GasThermodynamics(beta=beta, gas_mass=gas_mass)
    tm = TMatrixModel(kind=kind, t0=t0, sigma_q=1.0)
    micro = compute_dpp(tm, gas, mass_test=mass_test, hbar=hbar)
    minimal = minimal_coefficients(HilbertConfig(dim=2, hbar=hbar, mass=mass_test),
                                   micro.d_pp, beta)
    assert micro.gamma.hex() == minimal.gamma.hex()
    assert micro.d_xx.hex() == minimal.d_xx.hex()


def test_quadratic_scaling_in_coupling():
    gas = GasThermodynamics(beta=2.0, gas_mass=1.0)
    small = compute_dpp(TMatrixModel(kind="constant", t0=0.01), gas, mass_test=1.0)
    large = compute_dpp(TMatrixModel(kind="constant", t0=0.02), gas, mass_test=1.0)
    assert abs(large.d_pp - 4.0 * small.d_pp) < 1e-12 * large.d_pp


def test_gaussian_kernel_reduces_dpp():
    gas = GasThermodynamics(beta=2.0, gas_mass=1.0)
    flat = compute_dpp(TMatrixModel(kind="constant", t0=0.05), gas, mass_test=1.0)
    damped = compute_dpp(TMatrixModel(kind="gaussian", t0=0.05, sigma_q=1.0),
                         gas, mass_test=1.0)
    assert 0.0 < damped.d_pp < flat.d_pp


def test_derived_friction_and_position_diffusion():
    gas = GasThermodynamics(beta=2.0, gas_mass=1.0)
    coeffs = compute_dpp(TMatrixModel(kind="constant", t0=0.05), gas, mass_test=3.0)
    assert abs(coeffs.gamma - gas.beta * coeffs.d_pp / 6.0) < 1e-15 * coeffs.gamma
    assert abs(coeffs.d_xx - (gas.beta / 12.0) ** 2 * coeffs.d_pp) < 1e-15 * coeffs.d_xx
    assert coeffs.mu == 0.5 * coeffs.gamma
    assert coeffs.d_xp == 0.0


def test_cutoff_momentum():
    gas = GasThermodynamics(beta=2.0, gas_mass=3.0)
    assert cutoff_momentum(gas) == 12.0 * np.sqrt(8.0 * 3.0 / 2.0)


def test_friction_only_set_violates_cp():
    # momentum diffusion without position diffusion cannot be Lindblad
    c = BilinearCoefficients(d_pp=1.3, gamma=0.4)
    ok, margin = cp_check(c)
    assert not ok
    assert margin == -(0.5 * 0.4) ** 2


def test_cp_check_slack_is_round_off_only():
    # d_xx * d_pp = 0.04 = (gamma/2)^2 exactly at d_xx = 0.04 / 1.3
    on = BilinearCoefficients(d_pp=1.3, d_xx=0.04 / 1.3, gamma=0.4)
    assert cp_check(on)[0]
    below = BilinearCoefficients(d_pp=1.3, d_xx=0.04 / 1.3 * (1.0 - 1e-12), gamma=0.4)
    ok, margin = cp_check(below)
    assert not ok and margin < 0.0


def test_cp_margin_refuses_terms_that_overflow():
    """compute_dpp at t0 = 1e100 gives finite numpy-float coefficients
    whose d_xx d_pp and (gamma/2)^2 overflow: cp_margin, cp_check and
    kossakowski_weights each raise the one NumericalFailure, naming
    cp_margin, and never return a NaN or infinite margin, nor warn under
    the suite's error::RuntimeWarning."""
    gas = GasThermodynamics(beta=1.0, gas_mass=1.0)
    coeffs = compute_dpp(TMatrixModel(kind="constant", t0=1e100), gas, mass_test=1.0)
    assert isinstance(coeffs.d_pp, np.floating) and np.isfinite(coeffs.d_pp)
    huge = BilinearCoefficients(gamma=1e200, d_pp=1.0, d_xx=1.0)
    for refuse in (cp_margin, cp_check, kossakowski_weights):
        for c in (coeffs, huge):
            with pytest.raises(NumericalFailure, match=r"^cp_margin: .* not all finite$"):
                refuse(c)


@pytest.mark.parametrize("sigma_q", [None, 1.0], ids=["constant", "gaussian"])
def test_a_t0_whose_square_overflows_is_a_numerical_failure(sigma_q):
    """|t0| above about 1.3e154 squares past the largest float: compute_dpp
    raises the one NumericalFailure, naming t0, with no OverflowError and
    no numpy warning."""
    kind = "constant" if sigma_q is None else "gaussian"
    gas = GasThermodynamics(beta=1.0, gas_mass=1.0)
    for t0 in (1e160, -1e160, 1e300):
        with pytest.raises(NumericalFailure, match=r"^t0: .* not finite for t0 = "):
            compute_dpp(TMatrixModel(kind=kind, t0=t0, sigma_q=sigma_q), gas, mass_test=1.0)


def test_cp_margin_keeps_the_bits_of_its_formula(rng):
    """The margin is d_xx d_pp - d_xp**2 - (gamma hbar/2)**2 bit for bit,
    for Python and numpy floats alike: each square is x**2, never x * x,
    which differs from it in the last bit for about one x in a thousand.
    A set with d_xp or gamma alone has the one square as its margin."""
    for row in rng.uniform(0.1, 10.0, size=(5000, 5)):
        for to in (float, np.float64):
            d_xx, d_pp, d_xp, gamma, hbar = map(to, row)
            c = BilinearCoefficients(gamma=gamma, d_pp=d_pp, d_xx=d_xx, d_xp=d_xp)
            expected = d_xx * d_pp - d_xp**2 - (gamma * hbar / 2.0) ** 2
            assert cp_margin(c, hbar).hex() == float(expected).hex()
            assert cp_margin(BilinearCoefficients(d_xp=d_xp)) == -(d_xp**2)
            assert cp_margin(BilinearCoefficients(gamma=gamma), hbar) == \
                -((gamma * hbar / 2.0) ** 2)


def test_chi_requires_friction():
    gas = GasThermodynamics(beta=2.0, gas_mass=1.0)
    c = BilinearCoefficients(d_pp=1.0, d_xx=0.1)
    with pytest.raises(ValueError):
        chi_of(c, gas, mass_test=1.0)


def test_statistics_scaling_of_friction():
    bose = GasThermodynamics(beta=1.0, gas_mass=1.0, fugacity=0.3, statistics=BOSE)
    fermi = GasThermodynamics(beta=1.0, gas_mass=1.0, fugacity=0.3, statistics=FERMI)
    assert friction_ratio(bose) == 0.7
    assert friction_ratio(fermi) == 1.3


@pytest.mark.parametrize("run, message", [
    (lambda: compute_dpp(TMatrixModel(kind="constant", t0=1e154),
                         GasThermodynamics(beta=1.0, gas_mass=1.0), 1.0),
     r"^compute_dpp: the radial integral at t0=1e\+154, beta=1\.0, gas_mass=1\.0 "
     r"did not converge: value=inf, error estimate=nan$"),
    (lambda: compute_dpp(TMatrixModel(kind="gaussian", t0=1e154, sigma_q=2.0),
                         GasThermodynamics(beta=1.0, gas_mass=1.0), 1.0),
     r"^compute_dpp: the radial integral at t0=1e\+154, beta=1\.0, gas_mass=1\.0, "
     r"sigma_q=2\.0 did not converge"),
    (lambda: compute_dpp(TMatrixModel(kind="constant", t0=1e148),
                         GasThermodynamics(beta=1e-3, gas_mass=1.0), 2.0),
     r"^compute_dpp: d_pp, gamma and d_xx = \(inf, inf, inf\) are not all finite at "
     r"t0=1e\+148, beta=0\.001, gas_mass=1\.0, mass_test=2\.0, hbar=1\.0$"),
    (lambda: dpp_constant_closed_form(-1e155, GasThermodynamics(beta=1.0, gas_mass=1.0)),
     r"^dpp_constant_closed_form: the closed form is not finite at t0=-1e\+155, "
     r"beta=1\.0, gas_mass=1\.0$"),
    (lambda: s_mb(1e-160, [0.0, 1.0], GasThermodynamics(beta=2.0, gas_mass=1.0)),
     r"^s_mb: the structure factor is not finite at q=1e-160, beta=2\.0, gas_mass=1\.0$"),
], ids=["compute_dpp-integral", "compute_dpp-gaussian", "compute_dpp-coefficients",
        "dpp_constant_closed_form", "s_mb"])
def test_a_gas_side_failure_names_its_function_and_inputs(run, message):
    """Each gas-side result that is not finite is one NumericalFailure, with
    no numpy warning, no OverflowError and no ValueError of
    BilinearCoefficients; its message starts with the function's name and
    gives the inputs that set the value."""
    with pytest.raises(NumericalFailure, match=message):
        run()


def _decades(lo, hi):
    return st.floats(min_value=np.log10(lo), max_value=np.log10(hi)).map(lambda e: 10.0**e)


@given(t0=_decades(1e-300, 1e300), beta=_decades(1e-6, 1e6),
       gas_mass=_decades(1e-6, 1e6), mass_test=_decades(1e-6, 1e6),
       q=_decades(1e-300, 1e300))
@settings(max_examples=200, deadline=None)
def test_every_gas_side_result_is_finite_or_a_numerical_failure(t0, beta, gas_mass,
                                                                mass_test, q):
    """Across 600 decades of t0 and q and 12 of beta and the masses, each
    gas-side entry point returns finite values or raises NumericalFailure,
    named for itself, for s_mb (which it evaluates) or for t0 (whose square
    overflows), and numpy never warns: every warning is an error here."""
    gas = GasThermodynamics(beta=beta, gas_mass=gas_mass)
    constant = TMatrixModel(kind="constant", t0=t0)
    q_max = cutoff_momentum(gas)
    nodes, weights = radial_grid(q_max, 8)
    collision = CollisionParameters(gas_mass=gas_mass, beta=beta, fugacity_z=1.0,
                                    tmatrix=constant, q_nodes=nodes, q_weights=weights,
                                    q_max=q_max)

    def coefficients(tmat):
        c = compute_dpp(tmat, gas, mass_test)
        return c.d_pp, c.gamma, c.d_xx, c.mu

    entry_points = {
        "compute_dpp": lambda: coefficients(constant),
        "compute_dpp-gaussian": lambda: coefficients(
            TMatrixModel(kind="gaussian", t0=t0, sigma_q=q)),
        "dpp_constant_closed_form": lambda: dpp_constant_closed_form(t0, gas),
        "collision_dpp": lambda: collision_dpp(collision, 1.0),
        "s_mb": lambda: s_mb(q, [-q, 0.0, 1.0, q], gas),
        "sum_rule_zero": lambda: sum_rule_zero(q, gas),
        "sum_rule_f": lambda: sum_rule_f(q, gas),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, run in entry_points.items():
            try:
                values = run()
            except NumericalFailure as exc:
                assert str(exc).split(":")[0] in (name.split("-")[0], "s_mb", "t0"), name
            else:
                assert np.isfinite(values).all(), name
