import numpy as np
import pytest

import qbmlab.propagation as propagation
from conftest import random_density
from qbmlab import (
    BILINEAR,
    CALDEIRA_LEGGETT,
    MINIMAL_QBM,
    RK4_FIXED,
    RK45_ADAPTIVE,
    BilinearCoefficients,
    DegenerateStationaryState,
    HilbertConfig,
    IntegratorConfig,
    Liouvillian,
    LiouvillianSpec,
    NumericalFailure,
    build_caldeira_leggett,
    build_liouvillian,
    coherent_state,
    min_eigenvalue,
    positivity_breach_time,
    propagate,
    squeezed_state,
    stationary_state,
    superoperator_matrix,
    thermal_state,
    vacuum_state,
)

CFG = HilbertConfig(dim=16)


def _damped_oscillator(cfg, gamma=0.3, beta=2.0):
    return build_caldeira_leggett(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, hamiltonian_kind="harmonic", omega_trap=1.0,
        beta=beta, coeffs=BilinearCoefficients(gamma=gamma)))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(t_final=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(monitor_stride=0)


def test_free_particle_ballistic_means():
    # pure Hamiltonian flow: <p> is exactly conserved, <x> drifts at <p>/M
    # up to truncation leakage, which needs a roomy basis at these times
    cfg = HilbertConfig(dim=40)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        kind=BILINEAR, coeffs=BilinearCoefficients(fugacity_z=0.0)))
    alpha = 1.0 + 0.5j
    rho0 = coherent_state(cfg, alpha)
    record = propagate(rho0, liouv, IntegratorConfig(t_final=1.0, dt=1e-3,
                                                     monitor_stride=100))
    x0 = np.sqrt(2.0) * alpha.real
    p0 = np.sqrt(2.0) * alpha.imag
    assert np.abs(record.mean_p - p0).max() < 1e-10
    assert np.abs(record.mean_x - (x0 + p0 * record.times)).max() < 1e-6


def test_monitor_sampling_grid():
    liouv = _damped_oscillator(CFG)
    record = propagate(vacuum_state(CFG), liouv,
                       IntegratorConfig(t_final=1.0, dt=1e-3, monitor_stride=100))
    # t = 0, every 100th accepted step, and the forced final sample
    assert record.times[0] == 0.0
    assert record.times[-1] == 1.0
    assert np.allclose(np.diff(record.times), 0.1, atol=1e-12)
    assert len(record.times) == 11
    assert record.accepted_steps == 1000
    assert record.rejected_steps == 0


def test_momentum_mean_decay_rate():
    """<p> decays at twice the fugacity-scaled friction rate."""
    cfg = HilbertConfig(dim=30)
    z, d_pp, beta = 0.7, 0.4, 2.0
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=beta,
        coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=z)))
    record = propagate(coherent_state(cfg, 0.8 + 0.9j), liouv,
                       IntegratorConfig(t_final=4.0, dt=2e-3, monitor_stride=100))
    gamma = beta * d_pp / (2.0 * cfg.mass)
    expected = record.mean_p[0] * np.exp(-2.0 * z * gamma * record.times)
    rel = np.abs(record.mean_p - expected) / np.abs(expected)
    assert rel.max() < 0.01


def test_trace_and_hermiticity_drift():
    liouv = _damped_oscillator(CFG)
    record = propagate(coherent_state(CFG, 1.2 + 0.3j), liouv,
                       IntegratorConfig(t_final=2.0, dt=2e-3, monitor_stride=50))
    assert np.abs(record.trace - 1.0).max() < 1e-12
    assert record.herm_drift.max() < 1e-12


def test_rk4_fourth_order_convergence():
    liouv = _damped_oscillator(CFG)
    rho0 = coherent_state(CFG, 1.2 + 0.3j)
    reference = propagate(rho0, liouv, IntegratorConfig(
        method=RK45_ADAPTIVE, t_final=2.0, dt_init=1e-3, rtol=1e-12, atol=1e-14,
        monitor_stride=10**9)).final_state
    errors = []
    for dt in (0.02, 0.01, 0.005):
        final = propagate(rho0, liouv, IntegratorConfig(
            t_final=2.0, dt=dt, monitor_stride=10**9)).final_state
        errors.append(np.abs(final - reference).max())
    assert errors[0] / errors[1] > 6.4
    assert errors[1] / errors[2] > 6.4


def test_adaptive_agrees_with_fixed_step():
    liouv = _damped_oscillator(CFG)
    rho0 = coherent_state(CFG, 1.0)
    fixed = propagate(rho0, liouv, IntegratorConfig(
        t_final=1.0, dt=5e-4, monitor_stride=10**9))
    adaptive = propagate(rho0, liouv, IntegratorConfig(
        method=RK45_ADAPTIVE, t_final=1.0, dt_init=1e-4, rtol=1e-10, atol=1e-12,
        monitor_stride=10**9))
    assert np.abs(fixed.final_state - adaptive.final_state).max() < 1e-8
    assert adaptive.accepted_steps > 0
    assert adaptive.times[-1] == 1.0


def test_adaptive_rejects_coarse_first_step():
    cfg = HilbertConfig(dim=12)
    liouv = _damped_oscillator(cfg)
    record = propagate(coherent_state(cfg, 1.0), liouv, IntegratorConfig(
        method=RK45_ADAPTIVE, t_final=1.0, dt_init=0.5, rtol=1e-8, atol=1e-10,
        monitor_stride=10))
    assert record.rejected_steps >= 1


def _dp_attempt_without_fsal(apply_fn, rho, k1, dt):
    """Reference trial step that evaluates all seven stages, ignoring k1."""
    k = [apply_fn(rho)]
    for i in range(1, 7):
        incr = sum(a * ki for a, ki in zip(propagation._DP_A[i], k))
        k.append(apply_fn(rho + dt * incr))
    rho5 = rho + dt * sum(b * ki for b, ki in zip(propagation._DP_B5, k) if b != 0.0)
    rho4 = rho + dt * sum(b * ki for b, ki in zip(propagation._DP_B4, k) if b != 0.0)
    return rho5, rho4, k[6]


@pytest.mark.parametrize("dt_init, rtol, atol", [
    (1e-3, 1e-12, 1e-14), (1e-4, 1e-10, 1e-12), (0.5, 1e-8, 1e-10)])
def test_adaptive_first_same_as_last(monkeypatch, dt_init, rtol, atol):
    """Reusing the last stage as the next first stage saves one generator
    call per attempt and leaves the trajectory bit for bit unchanged."""
    cfg = HilbertConfig(dim=12)
    liouv = _damped_oscillator(cfg)
    icfg = IntegratorConfig(method=RK45_ADAPTIVE, t_final=1.0, dt_init=dt_init,
                            rtol=rtol, atol=atol, monitor_stride=3)
    records, calls = [], []
    for attempt in (propagation._dp_attempt, _dp_attempt_without_fsal):
        monkeypatch.setattr(propagation, "_dp_attempt", attempt)
        count = [0]

        def counted(rho):
            count[0] += 1
            return liouv(rho)

        records.append(propagate(coherent_state(cfg, 1.0),
                                 Liouvillian(cfg, "counted", counted), icfg))
        calls.append(count[0])
    fsal, reference = records
    attempts = fsal.accepted_steps + fsal.rejected_steps
    assert (fsal.accepted_steps, fsal.rejected_steps) == \
        (reference.accepted_steps, reference.rejected_steps)
    # both runs evaluate the initial first stage once before the loop
    assert calls == [1 + 6 * attempts, 1 + 7 * attempts]
    for name in ("final_state", "times", "trace", "herm_drift", "min_eig",
                 "purity", "mean_x", "mean_p", "var_x", "var_p"):
        assert np.array_equal(getattr(fsal, name), getattr(reference, name)), name
    if dt_init == 0.5:
        assert fsal.rejected_steps >= 1


def test_positivity_breach_detection():
    cfg = HilbertConfig(dim=20)
    liouv = build_caldeira_leggett(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, hamiltonian_kind="harmonic", omega_trap=1.0,
        beta=10.0, coeffs=BilinearCoefficients(gamma=0.5)))
    record = propagate(squeezed_state(cfg, 1.0), liouv,
                       IntegratorConfig(t_final=1.0, dt=2e-3, monitor_stride=10))
    breach = positivity_breach_time(record, threshold=-1e-6)
    assert breach is not None
    assert abs(breach - 0.02) < 1e-12
    # the crossing is genuine, not a monitor artifact
    idx = int(np.searchsorted(record.times, breach))
    assert record.min_eig[idx] < -1e-6

    with pytest.raises(ValueError):
        positivity_breach_time(record, threshold=0.0)


def test_positivity_breach_none_for_healthy_run():
    # the CP-safe generator keeps a full-rank state strictly positive
    liouv = build_liouvillian(CFG, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=2.0,
        coeffs=BilinearCoefficients(d_pp=0.4, fugacity_z=0.7)))
    record = propagate(thermal_state(CFG, 0.3), liouv,
                       IntegratorConfig(t_final=1.0, dt=1e-3, monitor_stride=100))
    assert positivity_breach_time(record) is None
    assert record.min_eig.min() > 0.0


def test_unstable_generator_raises():
    cfg = HilbertConfig(dim=4)
    blowup = Liouvillian(cfg, "runaway", lambda rho: 1e80 * rho)
    with pytest.raises(NumericalFailure):
        propagate(vacuum_state(cfg), blowup,
                  IntegratorConfig(t_final=1.0, dt=0.5, monitor_stride=1))


def test_adaptive_step_underflow_raises():
    cfg = HilbertConfig(dim=4)
    nan_gen = Liouvillian(cfg, "invalid", lambda rho: np.full_like(rho, np.nan))
    with pytest.raises(NumericalFailure):
        propagate(vacuum_state(cfg), nan_gen, IntegratorConfig(
            method=RK45_ADAPTIVE, t_final=1.0, dt_init=1e-4, monitor_stride=1))


def test_initial_state_is_validated():
    liouv = _damped_oscillator(CFG)
    bad = np.eye(CFG.dim, dtype=complex)  # trace dim, not 1
    with pytest.raises(ValueError):
        propagate(bad, liouv, IntegratorConfig(t_final=1.0, dt=1e-3))


def test_stationary_state_of_damped_oscillator():
    cfg = HilbertConfig(dim=10)
    liouv = _damped_oscillator(cfg)
    rho_inf = stationary_state(superoperator_matrix(liouv))
    assert abs(np.trace(rho_inf).real - 1.0) < 1e-12
    assert np.abs(rho_inf - rho_inf.conj().T).max() < 1e-12
    assert min_eigenvalue(rho_inf) > -1e-12
    # long propagation lands on the same state
    record = propagate(thermal_state(cfg, 0.3), liouv,
                       IntegratorConfig(t_final=30.0, dt=0.01, monitor_stride=10**9))
    assert np.abs(rho_inf - record.final_state).max() < 1e-6


def test_stationary_state_degeneracy_detected():
    # closed harmonic evolution: every number-state population is conserved
    cfg = HilbertConfig(dim=6)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        kind=BILINEAR, hamiltonian_kind="harmonic", omega_trap=1.0,
        coeffs=BilinearCoefficients(fugacity_z=0.0)))
    with pytest.raises(DegenerateStationaryState):
        stationary_state(superoperator_matrix(liouv))


def test_stationary_state_requires_a_kernel():
    with pytest.raises(DegenerateStationaryState):
        stationary_state(np.eye(4, dtype=complex))


def test_stationary_state_rejects_traceless_kernel():
    # kernel vector |1><0| has zero trace: no density matrix to normalize
    l_matrix = np.diag([1.0, 0.0, 1.0, 1.0]).astype(complex)
    with pytest.raises(NumericalFailure):
        stationary_state(l_matrix)
