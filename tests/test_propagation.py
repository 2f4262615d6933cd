import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qbmlab.propagation as propagation
from conftest import random_density
from qbmlab import (
    BILINEAR,
    BOLTZMANN_COLLISION,
    CALDEIRA_LEGGETT,
    MINIMAL_QBM,
    RK4_FIXED,
    RK45_ADAPTIVE,
    BilinearCoefficients,
    CollisionParameters,
    DegenerateStationaryState,
    HilbertConfig,
    IntegratorConfig,
    Liouvillian,
    LiouvillianSpec,
    NumericalFailure,
    TMatrixModel,
    TrajectoryRecord,
    build_liouvillian,
    build_momentum,
    build_position,
    coherent_state,
    expectation,
    min_eigenvalue,
    positivity_breach_time,
    propagate,
    purity,
    radial_grid,
    squeezed_state,
    stationary_state,
    superoperator_matrix,
    thermal_state,
    vacuum_state,
    variance,
)

CFG = HilbertConfig(dim=16)


def _damped_oscillator(cfg, gamma=0.3, beta=2.0):
    return build_liouvillian(cfg, LiouvillianSpec(
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


class _ReferenceMonitors:
    """The monitor buffer the integrators filled before they shared one
    sampler: a row of (t, eight monitors) per sample."""

    def __init__(self, cfg):
        self.x = build_position(cfg)
        self.p = build_momentum(cfg)
        self.x2 = self.x @ self.x
        self.p2 = self.p @ self.p
        self.rows = []

    def sample(self, t, rho):
        with np.errstate(over="ignore", invalid="ignore"):
            self.rows.append((
                t, np.trace(rho).real, np.max(np.abs(rho - rho.conj().T)),
                min_eigenvalue(rho), purity(rho),
                expectation(rho, self.x).real, expectation(rho, self.p).real,
                variance(rho, self.x, self.x2), variance(rho, self.p, self.p2)))


def _reference_rk4(rho, apply_fn, icfg, mon):
    """Fixed-step loop with its own step list and sampling rule."""
    t = 0.0
    accepted = 0
    n_full = int(np.floor(icfg.t_final / icfg.dt + 1e-12))
    remainder = icfg.t_final - n_full * icfg.dt
    steps = [icfg.dt] * n_full
    if remainder > 1e-12 * icfg.dt:
        steps.append(remainder)
    for i, h in enumerate(steps):
        rho = propagation._rk4_step(apply_fn, rho, h)
        t = icfg.t_final if i == len(steps) - 1 else t + h
        propagation._check_finite(rho, t)
        accepted += 1
        if accepted % icfg.monitor_stride == 0:
            mon.sample(t, rho)
    if accepted % icfg.monitor_stride != 0:
        mon.sample(icfg.t_final, rho)
    return rho, accepted, 0


def _reference_rk45(rho, apply_fn, icfg, mon):
    """Adaptive loop that tracks whether the final state was sampled."""
    t = 0.0
    dt = min(icfg.dt_init, icfg.t_final)
    accepted = 0
    rejected = 0
    dt_floor = 1e-14 * icfg.t_final
    k1 = apply_fn(rho)
    while t < icfg.t_final * (1.0 - 1e-15):
        dt = min(dt, icfg.t_final - t)
        if dt < dt_floor:
            raise NumericalFailure("step size underflow")
        rho5, rho4, k7 = propagation._dp_attempt(apply_fn, rho, k1, dt)
        scale = icfg.atol + icfg.rtol * np.maximum(np.abs(rho), np.abs(rho5))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            err = np.sqrt(np.mean(np.abs((rho5 - rho4) / scale) ** 2))
        if not np.isfinite(err):
            rejected += 1
            sampled_final = False
            dt = dt * propagation._FACTOR_MIN
            continue
        if err <= 1.0:
            t += dt
            if t >= icfg.t_final * (1.0 - 1e-15):
                t = icfg.t_final
            rho, k1 = rho5, k7
            propagation._check_finite(rho, t)
            accepted += 1
            if accepted % icfg.monitor_stride == 0:
                mon.sample(t, rho)
            sampled_final = accepted % icfg.monitor_stride == 0
        else:
            rejected += 1
            sampled_final = False
        if err == 0.0:
            factor = propagation._FACTOR_MAX
        else:
            factor = min(propagation._FACTOR_MAX, max(
                propagation._FACTOR_MIN, propagation._SAFETY * err ** (-0.2)))
        dt = dt * factor
    if not sampled_final:
        mon.sample(icfg.t_final, rho)
    return rho, accepted, rejected


def _reference_propagate(rho0, liouv, icfg):
    rho = np.array(rho0, dtype=complex)
    mon = _ReferenceMonitors(liouv.cfg)
    mon.sample(0.0, rho)
    loop = _reference_rk4 if icfg.method == RK4_FIXED else _reference_rk45
    rho, accepted, rejected = loop(rho, liouv.apply, icfg, mon)
    cols = np.array(mon.rows, dtype=float).T
    return TrajectoryRecord(*cols, final_state=rho, accepted_steps=accepted,
                            rejected_steps=rejected)


@pytest.mark.parametrize("stride", [1, 3, 10**9])
@pytest.mark.parametrize("method", [RK4_FIXED, RK45_ADAPTIVE])
def test_shared_schedule_and_sampler_match_reference_loops(method, stride):
    """The integrators on fixed_steps and Sampler give every field of the
    record bit for bit as the loops with their own schedule and sampling."""
    cfg = HilbertConfig(dim=10)
    liouv = _damped_oscillator(cfg)
    # 16 steps of 0.03 and a remainder of 0.02; a first adaptive trial of
    # 0.5 is rejected
    icfg = IntegratorConfig(method=method, t_final=0.5, dt=0.03, dt_init=0.5,
                            monitor_stride=stride)
    rho0 = coherent_state(cfg, 0.8 + 0.3j)
    record = propagate(rho0, liouv, icfg)
    reference = _reference_propagate(rho0, liouv, icfg)
    for field in dataclasses.fields(TrajectoryRecord):
        assert np.array_equal(getattr(record, field.name),
                              getattr(reference, field.name)), field.name
    if method == RK4_FIXED:
        assert record.accepted_steps == 17
    else:
        assert record.rejected_steps >= 1
    assert record.times[-1] == 0.5


def test_positivity_breach_detection():
    cfg = HilbertConfig(dim=20)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
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


def test_initial_state_dimension_must_match_generator():
    liouv = _damped_oscillator(CFG)
    calls = [0]

    def counted(rho):
        calls[0] += 1
        return liouv(rho)

    small = vacuum_state(HilbertConfig(dim=CFG.dim - 2))
    with pytest.raises(ValueError, match=r"\(14, 14\).*dim 16"):
        propagate(small, Liouvillian(CFG, "counted", counted),
                  IntegratorConfig(t_final=1.0, dt=1e-3))
    assert calls == [0]


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


def test_stationary_state_requires_trace_preservation():
    # |0><0| spans the kernel, but rho_11 decays without feeding rho_00:
    # the trace row vec(I)^T L = (0, 0, 0, -1) does not vanish
    l_matrix = np.diag([0.0, -0.5, -0.5, -1.0]).astype(complex)
    with pytest.raises(DegenerateStationaryState, match="not trace-preserving"):
        stationary_state(l_matrix)


def test_stationary_state_rejects_traceless_kernel():
    # kernel vector |1><0| has zero trace: no density matrix to normalize
    l_matrix = np.diag([1.0, 0.0, 1.0, 1.0]).astype(complex)
    with pytest.raises(NumericalFailure):
        stationary_state(l_matrix)


def _svd_stationary_state(l_matrix, degeneracy_tol=1e-8, residual_tol=1e-8):
    """Reference solve: the right singular vector of the smallest singular
    value, after checking that exactly one lies below degeneracy_tol *
    sigma_max."""
    l_matrix = np.asarray(l_matrix, dtype=complex)
    n = l_matrix.shape[0]
    d = int(round(np.sqrt(n)))
    _, sigma, vh = np.linalg.svd(l_matrix)
    if sigma[0] == 0.0:
        raise DegenerateStationaryState("generator is identically zero")
    n_null = int(np.count_nonzero(sigma < degeneracy_tol * sigma[0]))
    if n_null != 1:
        raise DegenerateStationaryState(
            "%d singular values below %.1e * sigma_max" % (n_null, degeneracy_tol))
    rho = vh[-1].conj().reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-10:
        raise NumericalFailure("stationary candidate is traceless")
    rho = rho / tr
    residual = np.max(np.abs(l_matrix @ rho.flatten(order="F")))
    if residual > residual_tol:
        raise NumericalFailure("stationary residual %.3e" % residual)
    return rho


def _stationary_generator(kind, dim, beta, d_pp, fugacity_z, omega_trap, d_xp,
                          cp_margin, q_max):
    cfg = HilbertConfig(dim=dim)
    if kind == MINIMAL_QBM:
        return build_liouvillian(cfg, LiouvillianSpec(
            kind=MINIMAL_QBM, hamiltonian_kind="harmonic", omega_trap=omega_trap,
            beta=beta, coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=fugacity_z)))
    if kind == BILINEAR:
        # completely positive: d_xx d_pp - d_xp^2 - (gamma hbar/2)^2 = cp_margin
        gamma = beta * d_pp / (2.0 * cfg.mass)
        d_xx = (d_xp**2 + (gamma * cfg.hbar / 2.0) ** 2 + cp_margin) / d_pp
        return build_liouvillian(cfg, LiouvillianSpec(
            kind=BILINEAR, hamiltonian_kind="harmonic", omega_trap=omega_trap,
            coeffs=BilinearCoefficients(gamma=gamma, d_pp=d_pp, d_xx=d_xx,
                                        d_xp=d_xp, fugacity_z=fugacity_z)))
    if kind == CALDEIRA_LEGGETT:
        return build_liouvillian(cfg, LiouvillianSpec(
            kind=CALDEIRA_LEGGETT, hamiltonian_kind="harmonic", omega_trap=omega_trap,
            beta=beta, coeffs=BilinearCoefficients(gamma=beta * d_pp / (2.0 * cfg.mass),
                                                    fugacity_z=fugacity_z)))
    nodes, weights = radial_grid(q_max, 8)
    return build_liouvillian(cfg, LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, hamiltonian_kind="harmonic", omega_trap=omega_trap,
        collision=CollisionParameters(
            gas_mass=1.0, beta=beta, fugacity_z=fugacity_z,
            tmatrix=TMatrixModel(kind="gaussian", t0=0.3, sigma_q=1.0),
            q_nodes=nodes, q_weights=weights, q_max=q_max)))


@given(kind_dim=st.one_of(
           st.tuples(st.sampled_from([MINIMAL_QBM, BILINEAR, BOLTZMANN_COLLISION]),
                     st.integers(min_value=3, max_value=9)),
           # banded inputs, solved on stationary_state's banded path
           st.tuples(st.sampled_from([MINIMAL_QBM, BILINEAR, CALDEIRA_LEGGETT]),
                     st.integers(min_value=12, max_value=16))),
       beta=st.floats(min_value=0.5, max_value=2.5),
       d_pp=st.floats(min_value=0.1, max_value=1.0),
       fugacity_z=st.floats(min_value=0.3, max_value=1.0),
       omega_trap=st.floats(min_value=0.7, max_value=1.3),
       d_xp=st.floats(min_value=-0.3, max_value=0.3).filter(lambda v: v != 0.0),
       cp_margin=st.floats(min_value=0.0, max_value=0.5),
       q_max=st.floats(min_value=0.3, max_value=1.2))
@settings(max_examples=80, deadline=None)
def test_bordered_solve_matches_svd_reference(kind_dim, beta, d_pp, fugacity_z,
                                              omega_trap, d_xp, cp_margin, q_max):
    """The bordered LU solve returns the SVD reference's stationary state, for
    minimal, completely positive bilinear (d_xp != 0) and collision
    generators at small dims, and for banded minimal, bilinear and
    Caldeira-Leggett generators at dim 12-16."""
    kind, dim = kind_dim
    liouv = _stationary_generator(kind, dim, beta, d_pp, fugacity_z, omega_trap,
                                  d_xp, cp_margin, q_max)
    l_matrix = superoperator_matrix(liouv)
    reference = _svd_stationary_state(l_matrix)
    rho = stationary_state(l_matrix)
    assert np.abs(rho - reference).max() < 1e-10
    assert abs(np.trace(rho) - 1.0) < 1e-13
    assert np.abs(rho - rho.conj().T).max() == 0.0


def _closed(dim, hamiltonian_kind, omega_trap=None):
    return superoperator_matrix(build_liouvillian(HilbertConfig(dim=dim), LiouvillianSpec(
        kind=BILINEAR, hamiltonian_kind=hamiltonian_kind, omega_trap=omega_trap,
        coeffs=BilinearCoefficients(fugacity_z=0.0))))


def _nearly_closed(dim):
    return superoperator_matrix(build_liouvillian(HilbertConfig(dim=dim), LiouvillianSpec(
        kind=MINIMAL_QBM, hamiltonian_kind="harmonic", omega_trap=1.1, beta=2.0,
        coeffs=BilinearCoefficients(d_pp=0.3, fugacity_z=1e-12))))


@pytest.mark.parametrize("l_matrix", [
    # two conserved populations: the bordered matrix has a zero row
    np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex),
    # closed evolutions: an exactly zero pivot, then a tiny nonzero one
    _closed(6, "harmonic", 1.3),
    _closed(8, "free"),
    # nearly closed: a unique kernel in exact arithmetic, not at 1e-8
    _nearly_closed(8),
    # the same at a banded size: the banded path hands over, the dense raises
    _closed(12, "harmonic", 1.3),
    _nearly_closed(12),
], ids=["zero-row", "zero-pivot", "tiny-pivot", "nearly-closed", "closed-banded",
        "nearly-closed-banded"])
def test_singular_bordered_matrix_raises_without_warning(l_matrix):
    """Every singular or near-singular case raises DegenerateStationaryState,
    as the SVD reference does, and no LinAlgWarning or other warning escapes."""
    with pytest.raises(DegenerateStationaryState):
        _svd_stationary_state(l_matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateStationaryState):
            stationary_state(l_matrix)


@pytest.mark.parametrize("kind", [MINIMAL_QBM, BILINEAR, CALDEIRA_LEGGETT])
@pytest.mark.parametrize("dim", [12, 17, 25])
def test_bilinear_family_takes_the_banded_path(kind, dim):
    """The banded solve accepts every bilinear-family generator at dim 12-25,
    without handing over, and agrees with the dense trace-bordered solve."""
    l_matrix = superoperator_matrix(_stationary_generator(
        kind, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8, omega_trap=1.1, d_xp=0.1,
        cp_margin=0.1, q_max=None))
    rho = propagation._banded_stationary(l_matrix, np.abs(l_matrix))
    assert rho is not None
    assert np.abs(rho - propagation._dense_stationary(l_matrix)).max() < 1e-12


def test_band_comes_from_the_zero_pattern():
    """The column-loop superoperator has the normal form's zero pattern, so it
    takes the banded path too; a dense collision generator does not."""
    cfg = HilbertConfig(dim=14)
    liouv = _stationary_generator(MINIMAL_QBM, 14, beta=2.0, d_pp=0.3, fugacity_z=0.8,
                                  omega_trap=1.1, d_xp=None, cp_margin=None, q_max=None)
    probed = superoperator_matrix(Liouvillian(cfg, "probed", liouv.apply))
    assert np.array_equal(probed != 0, superoperator_matrix(liouv) != 0)
    assert propagation._banded_stationary(probed, np.abs(probed)) is not None
    collision = superoperator_matrix(_stationary_generator(
        BOLTZMANN_COLLISION, 12, beta=2.0, d_pp=None, fugacity_z=0.8, omega_trap=1.1,
        d_xp=None, cp_margin=None, q_max=0.5))
    assert propagation._banded_stationary(collision, np.abs(collision)) is None
    reference = _svd_stationary_state(collision)
    assert np.abs(stationary_state(collision) - reference).max() < 1e-10


def test_stationary_state_with_empty_ground_level():
    """A banded, trace-preserving generator whose unique stationary state
    |1><1| has rho_00 = 0: the e_0 border is singular, so the banded path
    hands over and the trace-bordered dense solve finds the state."""
    dim = 12

    def unit(a, b):
        m = np.zeros((dim, dim))
        m[a, b] = 1.0
        return m

    # |0> -> |1>, and |k> -> |k - 1> for k >= 2: every population ends in |1>
    jumps = [unit(1, 0)] + [unit(k - 1, k) for k in range(2, dim)]
    eye = np.eye(dim)
    l_matrix = sum(np.kron(j.conj(), j) - 0.5 * (np.kron(eye, j.T @ j) + np.kron(j.T @ j, eye))
                   for j in jumps).astype(complex)
    assert propagation._banded_stationary(l_matrix, np.abs(l_matrix)) is None
    rho = stationary_state(l_matrix)
    assert np.abs(rho - _svd_stationary_state(l_matrix)).max() < 1e-10
    assert np.abs(rho - unit(1, 1)).max() < 1e-10
