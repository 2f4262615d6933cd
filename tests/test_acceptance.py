"""End-to-end acceptance checks.

One test per advertised capability, each printing a single summary line with
the measured numbers next to the tolerance it was held to.  The physics runs
are shared through module-scoped fixtures so the hygiene check can audit the
same trajectories the physics criteria used.
"""

import numpy as np
import pytest

from conftest import random_density
from qbmlab import (
    BILINEAR,
    BOLTZMANN_COLLISION,
    BOSE,
    CALDEIRA_LEGGETT,
    DOUBLE_COMMUTATOR,
    FERMI,
    MAXWELL_BOLTZMANN,
    MINIMAL_QBM,
    RK45_ADAPTIVE,
    SINGLE_GENERATOR,
    BilinearCoefficients,
    CollisionParameters,
    GasThermodynamics,
    HilbertConfig,
    IntegratorConfig,
    LiouvillianSpec,
    TMatrixModel,
    build_liouvillian,
    chi_of,
    coherent_state,
    collision_dpp,
    compute_dpp,
    cp_margin,
    dpp_constant_closed_form,
    fp_solve,
    friction_ratio,
    gaussian_grid,
    positivity_breach_time,
    propagate,
    radial_grid,
    s_mb,
    squeezed_state,
    stability_bound,
    statistics_prefactor,
    sum_rule_f,
    sum_rule_zero,
    vacuum_state,
)
from qbmlab.fokker_planck import fp_step, grid_moments


@pytest.fixture(scope="module")
def cl_breach_record():
    cfg = HilbertConfig(dim=40)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, hamiltonian_kind="harmonic", omega_trap=1.0,
        beta=10.0, coeffs=BilinearCoefficients(gamma=0.5)))
    return propagate(squeezed_state(cfg, 1.0), liouv,
                     IntegratorConfig(t_final=1.0, dt=2e-3, monitor_stride=10))


@pytest.fixture(scope="module")
def minimal_positive_record():
    # matched friction: gamma = 0.5 needs d_pp = 2*M*gamma/beta = 0.1
    cfg = HilbertConfig(dim=40)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        kind=MINIMAL_QBM, hamiltonian_kind="harmonic", omega_trap=1.0,
        beta=10.0, coeffs=BilinearCoefficients(d_pp=0.1)))
    return propagate(squeezed_state(cfg, 1.0), liouv,
                     IntegratorConfig(t_final=20.0, dt=2e-3, monitor_stride=10))


@pytest.fixture(scope="module")
def equipartition_record():
    cfg = HilbertConfig(dim=40)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=1.0,
        coeffs=BilinearCoefficients(d_pp=2.0)))
    return propagate(vacuum_state(cfg), liouv,
                     IntegratorConfig(t_final=1.25, dt=2.5e-3, monitor_stride=10))


def test_criterion_1_cp_saturation():
    """Microscopic coefficients sit on the CP boundary with chi = 1/8."""
    rng = np.random.default_rng(42)
    worst_margin = 0.0
    worst_chi = 0.0
    for _ in range(5):
        beta = 10.0 ** rng.uniform(-1.3, 1.3)
        gas = GasThermodynamics(beta=beta, gas_mass=10.0 ** rng.uniform(-0.5, 0.5))
        tmat = TMatrixModel(kind="constant", t0=10.0 ** rng.uniform(-2.0, 0.0))
        mass_test = 10.0 ** rng.uniform(-0.5, 0.5)
        coeffs = compute_dpp(tmat, gas, mass_test=mass_test)
        bound = (0.5 * coeffs.gamma) ** 2
        worst_margin = max(worst_margin, abs(cp_margin(coeffs)) / bound)
        worst_chi = max(worst_chi, abs(chi_of(coeffs, gas, mass_test) - 0.125))
    assert worst_margin < 1e-12
    assert worst_chi < 1e-12
    print("criterion 1 PASS: |margin|/bound <= %.2e, |chi - 1/8| <= %.2e "
          "(tol 1e-12)" % (worst_margin, worst_chi))


def test_criterion_2_positivity_dichotomy(cl_breach_record,
                                          minimal_positive_record):
    """Friction-only generator loses positivity at a pinned time; the
    CP-safe twin at matched friction never does."""
    breach = positivity_breach_time(cl_breach_record, threshold=-1e-6)
    assert breach is not None
    assert abs(breach - 0.02) < 1e-12
    idx = int(np.searchsorted(cl_breach_record.times, breach))
    assert cl_breach_record.min_eig[idx] < -1e-6

    floor = minimal_positive_record.min_eig.min()
    assert minimal_positive_record.times[-1] == 20.0
    assert floor >= -1e-9
    print("criterion 2 PASS: breach at t=%.6g (pinned 0.02), "
          "matched-friction floor %.2e >= -1e-9 over [0, 20]" % (breach, floor))


def test_criterion_3_closed_form_across_decades():
    """Quadrature momentum diffusion matches the constant-amplitude closed
    form over three decades of temperature."""
    gas_mass, t0 = 1.3, 0.02
    worst = 0.0
    for beta in (0.05, 0.5, 5.0, 50.0):
        gas = GasThermodynamics(beta=beta, gas_mass=gas_mass)
        got = compute_dpp(TMatrixModel(kind="constant", t0=t0), gas,
                          mass_test=2.0).d_pp
        exact = dpp_constant_closed_form(t0, gas)
        worst = max(worst, abs(got - exact) / exact)
    assert worst < 1e-9
    print("criterion 3 PASS: worst relative error %.2e (tol 1e-9) "
          "for beta in [0.05, 50]" % worst)


def test_criterion_4_structure_factor_properties():
    """Detailed balance on a 20x20 grid and both sum rules."""
    gas = GasThermodynamics(beta=1.0, gas_mass=1.0)
    qs = np.logspace(-1.0, 1.0, 20)
    energies = np.linspace(-5.0, 5.0, 20)
    worst_db = 0.0
    for q in qs:
        forward = s_mb(q, energies, gas)
        backward = s_mb(q, -energies, gas)
        rel = np.abs(backward - np.exp(-energies) * forward) \
            / np.maximum(np.abs(backward), 1e-300)
        worst_db = max(worst_db, rel.max())
    assert worst_db < 1e-12

    worst_0 = worst_f = 0.0
    for q in (0.2, 1.0, 5.0):
        recoil = q**2 / 2.0
        worst_0 = max(worst_0, abs(sum_rule_zero(q, gas) - 1.0))
        worst_f = max(worst_f, abs(sum_rule_f(q, gas) - recoil) / recoil)
    assert worst_0 < 1e-8
    assert worst_f < 1e-8
    print("criterion 4 PASS: detailed balance %.2e (tol 1e-12), "
          "sum rules %.2e / %.2e (tol 1e-8)" % (worst_db, worst_0, worst_f))


def test_criterion_5_friction_statistics():
    """Friction rescaling is exact in the fugacity; the statistics prefactor
    is linear in the fugacity at leading order."""
    for z in (0.25, 0.3, 0.5, 0.75):
        bose = GasThermodynamics(1.0, 1.0, z, statistics=BOSE)
        fermi = GasThermodynamics(1.0, 1.0, z, statistics=FERMI)
        assert friction_ratio(bose) == 1.0 - z
        assert friction_ratio(fermi) == 1.0 + z

    z = 1e-6
    worst = 0.0
    for stat in (MAXWELL_BOLTZMANN, BOSE, FERMI):
        pref = statistics_prefactor(GasThermodynamics(1.0, 1.0, z, statistics=stat))
        worst = max(worst, abs(pref - z))
    assert worst < 1e-8
    print("criterion 5 PASS: friction ratios exact, "
          "|prefactor - z| <= %.2e at z=1e-6 (tol 1e-8)" % worst)


def test_criterion_6_equipartition_and_classical_match(equipartition_record,
                                                       tmp_path, monkeypatch,
                                                       capsys):
    """Momentum variance relaxes to M/beta at rate 4*z*gamma, and the matched
    classical solver tracks it pointwise."""
    record = equipartition_record
    target = 1.0  # M/beta
    final_err = abs(record.var_p[-1] - target) / target
    assert final_err < 0.02

    gap = target - record.var_p
    mask = record.times < 0.75
    slope = np.polyfit(record.times[mask], np.log(gap[mask]), 1)[0]
    assert abs(slope - (-4.0)) < 0.03 * 4.0

    from pathlib import Path
    from qbmlab import cli
    preset = Path(__file__).resolve().parents[1] / "presets" / "06_compare_matched.ini"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["compare", str(preset)]) == 0
    stdout = capsys.readouterr().out
    line = [l for l in stdout.splitlines() if l.startswith("max_rel_diff=")][0]
    max_rel = float(line.split("=")[1])
    assert max_rel < 0.02
    print("criterion 6 PASS: var_p error %.2e (tol 0.02), rate %.6g "
          "(target -4 within 3%%), classical match %.2e (tol 0.02)"
          % (final_err, slope, max_rel))


def test_criterion_7_generator_equivalences(rng):
    """Three structural identities between independently assembled generators."""
    cfg = HilbertConfig(dim=12)
    beta, gamma = 2.0, 0.3

    # (a) friction-only generator == general bilinear generator, bitwise
    cl = build_liouvillian(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, beta=beta, coeffs=BilinearCoefficients(gamma=gamma)))
    bil = build_liouvillian(cfg, LiouvillianSpec(
        kind=BILINEAR,
        coeffs=BilinearCoefficients(gamma=gamma, d_pp=2.0 * cfg.mass * gamma / beta)))
    states = [random_density(cfg.dim, rng) for _ in range(20)]
    assert all(np.array_equal(cl.apply(rho), bil.apply(rho)) for rho in states)

    # (b) double-commutator and single-generator assemblies agree
    base = dict(kind=MINIMAL_QBM, beta=beta,
                coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=0.8))
    double = build_liouvillian(cfg, LiouvillianSpec(assembly=DOUBLE_COMMUTATOR, **base))
    single = build_liouvillian(cfg, LiouvillianSpec(assembly=SINGLE_GENERATOR, **base))
    worst_ab = 0.0
    for rho in states:
        a, b = double.apply(rho), single.apply(rho)
        worst_ab = max(worst_ab, np.abs(a - b).max() / np.abs(a).max())
    assert worst_ab < 1e-10

    # (c) jump generator collapses onto the quadratic one as the momentum
    # transfer support shrinks
    tmat = TMatrixModel(kind="gaussian", t0=0.05, sigma_q=1.0)
    rho = states[0]
    discrepancies = []
    for q_max in (2.0, 1.0, 0.5):
        nodes, weights = radial_grid(q_max, 60)
        params = CollisionParameters(gas_mass=1.0, beta=beta, fugacity_z=0.8,
                                     tmatrix=tmat, q_nodes=nodes,
                                     q_weights=weights, q_max=q_max)
        col = build_liouvillian(cfg, LiouvillianSpec(
            kind=BOLTZMANN_COLLISION, collision=params))
        mini = build_liouvillian(cfg, LiouvillianSpec(
            kind=MINIMAL_QBM, beta=beta,
            coeffs=BilinearCoefficients(d_pp=collision_dpp(params, cfg.hbar),
                                        fugacity_z=0.8)))
        ref = mini.apply(rho)
        discrepancies.append(np.abs(col.apply(rho) - ref).max() / np.abs(ref).max())
    assert discrepancies[0] > discrepancies[1] > discrepancies[2]
    print("criterion 7 PASS: (a) bitwise, (b) assembly gap %.2e (tol 1e-10), "
          "(c) collision->minimal discrepancies %.3g > %.3g > %.3g"
          % (worst_ab, *discrepancies))


def test_criterion_8_numerical_hygiene(cl_breach_record,
                                       minimal_positive_record,
                                       equipartition_record):
    """Trace and Hermiticity drift on every physics run above, integrator
    convergence order, classical-solver convergence, mass conservation."""
    worst_trace = worst_herm = 0.0
    for record in (cl_breach_record, minimal_positive_record,
                   equipartition_record):
        worst_trace = max(worst_trace, np.abs(record.trace - 1.0).max())
        worst_herm = max(worst_herm, record.herm_drift.max())
    assert worst_trace < 1e-10
    assert worst_herm < 1e-10

    # fixed-step convergence: error must drop at least 3.2x per halving
    cfg = HilbertConfig(dim=16)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, hamiltonian_kind="harmonic", omega_trap=1.0,
        beta=2.0, coeffs=BilinearCoefficients(gamma=0.3)))
    rho0 = coherent_state(cfg, 1.2 + 0.3j)
    reference = propagate(rho0, liouv, IntegratorConfig(
        method=RK45_ADAPTIVE, t_final=2.0, dt_init=1e-3, rtol=1e-12, atol=1e-14,
        monitor_stride=10**9)).final_state
    errors = []
    for dt in (0.02, 0.01, 0.005):
        final = propagate(rho0, liouv, IntegratorConfig(
            t_final=2.0, dt=dt, monitor_stride=10**9)).final_state
        errors.append(np.abs(final - reference).max())
    rk4_ratios = (errors[0] / errors[1], errors[1] / errors[2])
    assert min(rk4_ratios) > 3.2

    # classical solver: transient moment errors must drop >= 3.5x per
    # grid doubling (the discrete stationary profile is exact by design,
    # so the transient is where resolution shows)
    fp_errors = []
    for n_cells in (100, 200):
        grid = gaussian_grid(-8.0, 8.0, n_cells, mean=1.2, var=0.5)
        dt = 1e-3 * (100.0 / n_cells) ** 2
        traj = fp_solve(grid, 1.0, 1.0, 0.5, dt, sample_stride=50)
        mean_exact = 1.2 * np.exp(-traj.times)
        var_exact = 1.0 - 0.5 * np.exp(-2.0 * traj.times)
        fp_errors.append(max(np.abs(traj.mean_v - mean_exact).max(),
                             np.abs(traj.var_v - var_exact).max()))
    fp_ratio = fp_errors[0] / fp_errors[1]
    assert fp_ratio > 3.5

    # mass conservation per explicit step
    grid = gaussian_grid(-8.0, 8.0, 150, mean=1.2, var=0.5)
    dt = 0.9 * stability_bound(grid, 1.0, 1.0)
    masses = [1.0]
    for _ in range(500):
        grid = fp_step(grid, 1.0, 1.0, dt)
        masses.append(grid_moments(grid)[0])
    mass_drift = np.abs(np.diff(np.array(masses))).max()
    assert mass_drift < 1e-14

    print("criterion 8 PASS: trace drift %.2e, herm drift %.2e (tol 1e-10); "
          "rk4 halving ratios %.3g/%.3g (tol 3.2); fp doubling ratio %.3g "
          "(tol 3.5); mass drift %.2e/step (tol 1e-14)"
          % (worst_trace, worst_herm, *rk4_ratios, fp_ratio, mass_drift))
