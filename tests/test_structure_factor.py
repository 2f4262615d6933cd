import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbmlab import (
    BOSE,
    FERMI,
    MAXWELL_BOLTZMANN,
    GasThermodynamics,
    brownian_weight,
    friction_ratio,
    s_mb,
    statistics_prefactor,
    sum_rule_f,
    sum_rule_zero,
)

GAS = GasThermodynamics(beta=1.0, gas_mass=1.0)

finite_pos = st.floats(min_value=0.05, max_value=20.0,
                       allow_nan=False, allow_infinity=False)


def test_gas_validation():
    with pytest.raises(ValueError):
        GasThermodynamics(beta=0.0, gas_mass=1.0)
    with pytest.raises(ValueError):
        GasThermodynamics(beta=1.0, gas_mass=-1.0)
    with pytest.raises(ValueError):
        GasThermodynamics(beta=1.0, gas_mass=1.0, fugacity=-0.1)
    with pytest.raises(ValueError):
        GasThermodynamics(beta=1.0, gas_mass=1.0, fugacity=1.0, statistics=BOSE)
    with pytest.raises(ValueError):
        GasThermodynamics(beta=1.0, gas_mass=1.0, statistics="anyonic")


def test_peak_value():
    # at the recoil energy the Gaussian exponent vanishes
    for q in (0.2, 1.0, 5.0):
        recoil = q**2 / 2.0
        assert abs(s_mb(q, recoil, GAS) - np.sqrt(1.0 / (2.0 * np.pi * q**2))) < 1e-14


def test_s_mb_rejects_bad_momentum():
    with pytest.raises(ValueError):
        s_mb(0.0, 1.0, GAS)
    with pytest.raises(ValueError):
        s_mb(-1.0, 1.0, GAS)


def test_detailed_balance_grid():
    # 20 x 20 in (q, E): energy-reversal asymmetry is the Boltzmann factor
    qs = np.logspace(-1.0, 1.0, 20)
    energies = np.linspace(-5.0, 5.0, 20)
    worst = 0.0
    for q in qs:
        forward = s_mb(q, energies, GAS)
        backward = s_mb(q, -energies, GAS)
        rel = np.abs(backward - np.exp(-GAS.beta * energies) * forward) \
            / np.maximum(np.abs(backward), 1e-300)
        worst = max(worst, rel.max())
    assert worst < 1e-12


def _gaussian_factor_is_normal(q, energy, gas):
    """Whether the Gaussian factor of s_mb(q, energy) is a normal float."""
    recoil = q**2 / (2.0 * gas.gas_mass)
    exponent = gas.beta * gas.gas_mass / (2.0 * q**2) * (energy - recoil) ** 2
    return np.exp(-exponent) >= np.finfo(float).tiny


@given(q=finite_pos, energy=st.floats(min_value=-20.0, max_value=20.0),
       beta=finite_pos, gas_mass=finite_pos)
# forward factor subnormal (exp(-721)), backward factor normal (exp(-593))
@example(q=5.0, energy=-16.0, beta=8.0, gas_mass=16.0)
@settings(max_examples=80, deadline=None)
def test_detailed_balance_property(q, energy, beta, gas_mass):
    gas = GasThermodynamics(beta=beta, gas_mass=gas_mass)
    forward = float(s_mb(q, energy, gas))
    backward = float(s_mb(q, -energy, gas))
    assert forward >= 0.0 and backward >= 0.0
    # A subnormal or zero factor keeps too few significant digits for a
    # relative comparison; the bound holds wherever both factors are normal.
    if not (_gaussian_factor_is_normal(q, energy, gas)
            and _gaussian_factor_is_normal(q, -energy, gas)):
        return
    target = np.exp(-beta * energy) * forward
    assert abs(backward - target) <= 1e-12 * max(abs(backward), abs(target), 1e-300)


def test_brownian_weight_is_limit_of_structure_factor():
    """exp(-(beta/4M) q p) is sqrt(s_mb(q, E(p)) / s_mb(q, E(0))) as m/M -> 0,
    with E(p) = -(q p/M + q^2/2M) the energy a kick q hands to the gas; the
    recoil factor between them tends to 1 linearly in m/M."""
    beta, mass = 2.0, 1.0
    momentum = np.linspace(-4.0, 4.0, 81)
    gaps = []
    for mass_ratio in (5e-3, 5e-4, 5e-5):
        gas = GasThermodynamics(beta=beta, gas_mass=mass_ratio * mass)
        gap = 0.0
        for q in (0.05, -0.05, 0.1, -0.1, 0.25, -0.25):
            energy = -(q * momentum + q**2 / 2.0) / mass
            limit = np.sqrt(s_mb(abs(q), energy, gas)
                            / s_mb(abs(q), -q**2 / (2.0 * mass), gas))
            weight = brownian_weight(q, momentum, beta, mass)
            gap = max(gap, (np.abs(weight - limit) / limit).max())
        gaps.append(gap)
    assert gaps[1] < 0.01
    assert 9.0 < gaps[0] / gaps[1] < 11.0
    assert 9.0 < gaps[1] / gaps[2] < 11.0


def test_sum_rules():
    for q in (0.2, 1.0, 5.0):
        assert abs(sum_rule_zero(q, GAS) - 1.0) < 1e-8
        assert abs(sum_rule_f(q, GAS) - q**2 / 2.0) < 1e-8 * (q**2 / 2.0)


def test_f_sum_across_two_decades():
    gas = GasThermodynamics(beta=0.7, gas_mass=2.3)
    for q in (0.1, 0.32, 1.0, 3.2, 10.0):
        recoil = q**2 / (2.0 * gas.gas_mass)
        assert abs(sum_rule_f(q, gas) - recoil) < 1e-8 * recoil


def test_statistics_prefactor_values():
    assert statistics_prefactor(GasThermodynamics(1.0, 1.0, 0.3)) == 0.3
    bose = GasThermodynamics(1.0, 1.0, 0.5, statistics=BOSE)
    assert abs(statistics_prefactor(bose) - 1.0) < 1e-15
    fermi = GasThermodynamics(1.0, 1.0, 1.0, statistics=FERMI)
    assert abs(statistics_prefactor(fermi) - 0.5) < 1e-15


@given(z=st.floats(min_value=1e-6, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_statistics_prefactor_ordering(z):
    mb = statistics_prefactor(GasThermodynamics(1.0, 1.0, z))
    bose = statistics_prefactor(GasThermodynamics(1.0, 1.0, z, statistics=BOSE))
    fermi = statistics_prefactor(GasThermodynamics(1.0, 1.0, z, statistics=FERMI))
    assert bose > mb > fermi


def test_statistics_prefactor_small_fugacity_limit():
    # quantum corrections enter at second order in the fugacity
    z = 1e-9
    for stat in (MAXWELL_BOLTZMANN, BOSE, FERMI):
        pref = statistics_prefactor(GasThermodynamics(1.0, 1.0, z, statistics=stat))
        assert abs(pref / z - 1.0) < 1e-8


def test_friction_ratio_values():
    z = 0.4
    assert friction_ratio(GasThermodynamics(1.0, 1.0, z)) == 1.0
    assert friction_ratio(GasThermodynamics(1.0, 1.0, z, statistics=BOSE)) == 1.0 - z
    assert friction_ratio(GasThermodynamics(1.0, 1.0, z, statistics=FERMI)) == 1.0 + z
