import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import qbmlab.propagation as propagation
from conftest import (BENCH_BOX, CallableGenerator, bench_collision_spec, random_density,
                      signed_collision_normal_form)
from qbmlab import (
    BILINEAR,
    BOLTZMANN_COLLISION,
    CALDEIRA_LEGGETT,
    MINIMAL_QBM,
    RK4_FIXED,
    RK45_ADAPTIVE,
    BilinearCoefficients,
    CollisionParameters,
    DOUBLE_COMMUTATOR,
    SINGLE_GENERATOR,
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
from qbmlab.liouvillians import sector_order

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
    # the sampling rule counts steps: a stride of 2.5 would sample every
    # fifth step, and a bool is no count
    for stride in (2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="monitor_stride"):
            IntegratorConfig(monitor_stride=stride)
    assert IntegratorConfig(monitor_stride=np.int64(3)).monitor_stride == 3


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


@pytest.mark.parametrize("method", [RK4_FIXED, RK45_ADAPTIVE])
def test_min_eigenvalue_is_looked_up_once_per_monitor_sample(monkeypatch, method):
    """The monitors call propagation's min_eigenvalue, looked up at call
    time, once per sample and nowhere else: a rebinding of that name sees
    every sample and changes no value."""
    cfg = HilbertConfig(dim=12)
    liouv = _damped_oscillator(cfg)
    icfg = IntegratorConfig(method=method, t_final=0.5, dt=1e-2, dt_init=1e-2,
                            monitor_stride=7)
    reference = propagate(coherent_state(cfg, 1.0), liouv, icfg)
    seen = []

    def counted(rho):
        seen.append(rho.shape)
        return min_eigenvalue(rho)

    monkeypatch.setattr(propagation, "min_eigenvalue", counted)
    record = propagate(coherent_state(cfg, 1.0), liouv, icfg)
    assert len(seen) == len(record.times) > 2
    assert np.array_equal(record.min_eig, reference.min_eig)


def test_monitors_are_built_once_per_basis():
    """A second propagate on the same basis reuses the monitors built for
    the first, and their arrays are read-only."""
    cfg = HilbertConfig(dim=11)
    liouv = _damped_oscillator(cfg)
    icfg = IntegratorConfig(t_final=0.05, dt=1e-2)
    propagate(vacuum_state(cfg), liouv, icfg)
    measure = propagation._monitors(cfg)
    before = propagation._monitors.cache_info()
    propagate(coherent_state(cfg, 0.5), liouv, icfg)
    after = propagation._monitors.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert propagation._monitors(HilbertConfig(dim=11)) is measure
    arrays = [cell.cell_contents for cell in measure.__closure__
              if isinstance(cell.cell_contents, np.ndarray)]
    assert len(arrays) == 2 and not any(a.flags.writeable for a in arrays)


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


def _parent_rk4_step(apply_fn, rho, dt):
    """The fixed step as plain array expressions: the oracle of the
    in-place arithmetic, which must give the same states bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = apply_fn(rho)
        k2 = apply_fn(rho + 0.5 * dt * k1)
        k3 = apply_fn(rho + 0.5 * dt * k2)
        k4 = apply_fn(rho + dt * k3)
        return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _parent_dp_attempt(apply_fn, rho, k1, dt):
    """The adaptive trial step as plain array expressions, with the last
    stage reused: the oracle of the in-place arithmetic."""
    k = [k1]
    for i in range(1, 6):
        incr = sum(a * ki for a, ki in zip(propagation._DP_A[i], k))
        k.append(apply_fn(rho + dt * incr))
    rho5 = rho + dt * sum(b * ki for b, ki in zip(propagation._DP_B5, k) if b != 0.0)
    k.append(apply_fn(rho5))
    rho4 = rho + dt * sum(b * ki for b, ki in zip(propagation._DP_B4, k) if b != 0.0)
    return rho5, rho4, k[6]


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
            return liouv.apply(rho)

        records.append(propagate(coherent_state(cfg, 1.0),
                                 CallableGenerator(cfg, counted), icfg))
        calls.append(count[0])
    fsal, reference = records
    attempts = fsal.accepted_steps + fsal.rejected_steps
    assert (fsal.accepted_steps, fsal.rejected_steps) == \
        (reference.accepted_steps, reference.rejected_steps)
    # both runs evaluate the initial first stage once before the loop, and
    # each record counts the calls its run made
    assert calls == [1 + 6 * attempts, 1 + 7 * attempts]
    assert [fsal.generator_calls, reference.generator_calls] == calls
    for name in ("final_state", "times", "trace", "herm_drift", "min_eig",
                 "purity", "mean_x", "mean_p", "var_x", "var_p"):
        assert np.array_equal(getattr(fsal, name), getattr(reference, name)), name
    if dt_init == 0.5:
        assert fsal.rejected_steps >= 1


class _ReferenceMonitors:
    """The monitor buffer the integrators filled before they shared one
    sampler, a row of (t, eight monitors) per sample, each monitor by its
    own full pass: the oracle of the band contraction, of the contracted
    purity and of numpy's eigensolver (scipy's evr driver here)."""

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
                scipy.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0],
                np.sum(rho.T * rho).real,
                expectation(rho, self.x).real, expectation(rho, self.p).real,
                variance(rho, self.x, self.x2), variance(rho, self.p, self.p2)))


class _MeasuredRows:
    """The same buffer filled by the production measure."""

    def __init__(self, cfg):
        self.measure = propagation._monitors(cfg)
        self.rows = []

    def sample(self, t, rho):
        self.rows.append((t, *self.measure(rho)))


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


def _reference_propagate(rho0, liouv, icfg, monitors):
    """The reference loops on a monitor buffer of class monitors, counting
    generator calls; the steps are propagation's _rk4_step and _dp_attempt
    at call time."""
    rho = np.array(rho0, dtype=complex)
    mon = monitors(liouv.cfg)
    mon.sample(0.0, rho)
    loop = _reference_rk4 if icfg.method == RK4_FIXED else _reference_rk45
    calls = [0]

    def counted(state):
        calls[0] += 1
        return liouv.apply(state)

    rho, accepted, rejected = loop(rho, counted, icfg, mon)
    cols = np.array(mon.rows, dtype=float).T
    return TrajectoryRecord(*cols, final_state=rho, accepted_steps=accepted,
                            rejected_steps=rejected, generator_calls=calls[0])


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
    reference = _reference_propagate(rho0, liouv, icfg, _MeasuredRows)
    for field in dataclasses.fields(TrajectoryRecord):
        assert np.array_equal(getattr(record, field.name),
                              getattr(reference, field.name)), field.name
    if method == RK4_FIXED:
        assert record.accepted_steps == 17
        assert record.generator_calls == 4 * 17
    else:
        assert record.rejected_steps >= 1
        assert record.generator_calls == \
            1 + 6 * (record.accepted_steps + record.rejected_steps)
    assert record.times[-1] == 0.5


def test_a_final_time_below_the_step_threshold_takes_one_step():
    """With no full step and a remainder at or below 1e-12 * dt, fixed_steps
    takes one step of t_final, and RK4 steps and samples it."""
    assert list(propagation.fixed_steps(2.5, 1.0)) == [
        (1.0, 1.0), (2.0, 1.0), (2.5, 0.5)]
    for t_final in (1e-20, 1e-12):
        assert list(propagation.fixed_steps(t_final, 1.0)) == [(t_final, t_final)]
    cfg = HilbertConfig(dim=10)
    liouv = _damped_oscillator(cfg)
    rho0 = coherent_state(cfg, 0.8 + 0.3j)
    record = propagate(rho0, liouv, IntegratorConfig(t_final=1e-20, dt=0.01))
    assert record.accepted_steps == 1
    assert record.generator_calls == 4
    assert record.times.tolist() == [0.0, 1e-20]
    assert np.array_equal(record.final_state, propagation._rk4_step(
        liouv.apply, np.array(rho0, dtype=complex), 1e-20))


_FAMILY = {
    "caldeira_leggett": dict(kind=CALDEIRA_LEGGETT, beta=10.0,
                             coeffs=BilinearCoefficients(gamma=0.5)),
    "bilinear": dict(kind=BILINEAR, coeffs=BilinearCoefficients(
        gamma=0.25, d_pp=0.3, d_xx=0.2, d_xp=-0.05, mu=0.1)),
    "minimal_double": dict(kind=MINIMAL_QBM, beta=8.0, assembly=DOUBLE_COMMUTATOR,
                           coeffs=BilinearCoefficients(d_pp=0.1, fugacity_z=0.8)),
    "minimal_single": dict(kind=MINIMAL_QBM, beta=8.0, assembly=SINGLE_GENERATOR,
                           coeffs=BilinearCoefficients(d_pp=0.1, fugacity_z=0.8)),
}


@pytest.mark.parametrize("dim", [24, 40])
@pytest.mark.parametrize("method", [RK4_FIXED, RK45_ADAPTIVE])
@pytest.mark.parametrize("variant", list(_FAMILY))
def test_in_place_steps_and_band_monitors_match_parent_arithmetic(
        monkeypatch, variant, method, dim):
    """On every bilinear-family generator, the in-place stage arithmetic
    gives the states of the plain array expressions bit for bit, and the
    band-contraction monitors and numpy's eigensolver agree with one full
    pass per monitor and scipy's driver to 1e-14 * max(|v|, 1).  From a
    squeezed state, Caldeira-Leggett breaches positivity and the monitors
    agree there too."""
    cfg = HilbertConfig(dim=dim)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        hamiltonian_kind="harmonic", omega_trap=1.1, **_FAMILY[variant]))
    rho0 = squeezed_state(cfg, 0.9)
    icfg = IntegratorConfig(method=method, t_final=0.3, dt=3e-3, dt_init=1e-3,
                            rtol=1e-9, atol=1e-11, monitor_stride=2)
    record = propagate(rho0, liouv, icfg)
    monkeypatch.setattr(propagation, "_rk4_step", _parent_rk4_step)
    monkeypatch.setattr(propagation, "_dp_attempt", _parent_dp_attempt)
    reference = _reference_propagate(rho0, liouv, icfg, _ReferenceMonitors)
    assert np.array_equal(record.final_state, reference.final_state)
    for name in ("times", "accepted_steps", "rejected_steps", "generator_calls"):
        assert np.array_equal(getattr(record, name), getattr(reference, name)), name
    for name in ("trace", "herm_drift", "min_eig", "purity", "mean_x", "mean_p",
                 "var_x", "var_p"):
        new, old = getattr(record, name), getattr(reference, name)
        assert np.all(np.abs(new - old) <= 1e-14 * np.maximum(np.abs(old), 1.0)), name
    if variant == "caldeira_leggett":
        assert reference.min_eig.min() < -1e-6


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
    blowup = CallableGenerator(cfg, lambda rho: 1e80 * rho)
    with pytest.raises(NumericalFailure):
        propagate(vacuum_state(cfg), blowup,
                  IntegratorConfig(t_final=1.0, dt=0.5, monitor_stride=1))


def test_adaptive_step_underflow_raises():
    cfg = HilbertConfig(dim=4)
    nan_gen = CallableGenerator(cfg, lambda rho: np.full_like(rho, np.nan))
    with pytest.raises(NumericalFailure):
        propagate(vacuum_state(cfg), nan_gen, IntegratorConfig(
            method=RK45_ADAPTIVE, t_final=1.0, dt_init=1e-4, monitor_stride=1))


@pytest.mark.parametrize("method, message", [
    (RK4_FIXED, "state became non-finite at t="),
    (RK45_ADAPTIVE, "step size underflow at t=")], ids=[RK4_FIXED, RK45_ADAPTIVE])
@pytest.mark.parametrize("generator", [
    lambda cfg: CallableGenerator(cfg, lambda rho: 1e80 * rho),
    lambda cfg: build_liouvillian(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, beta=1.0, coeffs=BilinearCoefficients(gamma=1e100)))],
    ids=["overflowing_apply", "caldeira_leggett"])
def test_a_diverging_run_raises_numerical_failure_and_no_warning(generator, method, message):
    """numpy never warns inside an integration, so under the suite's
    error::RuntimeWarning an overflowing run ends as a NumericalFailure:
    RK4's by its finiteness check, the adaptive scheme's by rejecting every
    attempt whose error norm is not finite until the step passes its floor."""
    cfg = HilbertConfig(dim=6)
    with pytest.raises(NumericalFailure, match=message):
        propagate(vacuum_state(cfg), generator(cfg), IntegratorConfig(
            method=method, t_final=1.0, dt=0.1, dt_init=0.1))


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
        return liouv.apply(rho)

    small = vacuum_state(HilbertConfig(dim=CFG.dim - 2))
    with pytest.raises(ValueError, match=r"\(14, 14\).*dim 16"):
        propagate(small, CallableGenerator(CFG, counted),
                  IntegratorConfig(t_final=1.0, dt=1e-3))
    assert calls == [0]


def test_array_like_initial_state():
    """A nested-list rho0 is validated and integrated as its array."""
    liouv = _damped_oscillator(CFG)
    rho0 = coherent_state(CFG, 0.5)
    icfg = IntegratorConfig(t_final=0.05, dt=1e-2)
    record = propagate(rho0.tolist(), liouv, icfg)
    reference = propagate(rho0, liouv, icfg)
    for field in dataclasses.fields(TrajectoryRecord):
        assert np.array_equal(getattr(record, field.name),
                              getattr(reference, field.name)), field.name


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


def test_stationary_state_input_guards():
    liouv = _damped_oscillator(HilbertConfig(dim=3))
    with pytest.raises(TypeError):
        stationary_state(liouv)
    with pytest.raises(ValueError):
        stationary_state(np.zeros((9, 8), dtype=complex))
    l_matrix = superoperator_matrix(liouv)
    l_matrix[2, 5] = np.nan
    with pytest.raises(NumericalFailure) as exc:
        stationary_state(l_matrix)
    assert not isinstance(exc.value, DegenerateStationaryState)
    with pytest.raises(DegenerateStationaryState, match="identically zero"):
        stationary_state(np.zeros((9, 9), dtype=complex))


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


def _whole_dense_stationary(l_matrix):
    """stationary_state's dense path as it was before the sector blocks: the
    whole trace-bordered matrix, copied, equilibrated, factored, tested and
    solved as one.  The oracle of the block solve."""
    n = l_matrix.shape[0]
    d = int(round(np.sqrt(n)))
    bordered = np.array(l_matrix, order="F")
    bordered[0] = 0.0
    bordered[0, np.arange(d) * (d + 1)] = 1.0
    geequb, getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(
        ("geequb", "getrf", "gecon", "getrs"), (bordered,))
    row_scale, col_scale, _, _, _, info = geequb(bordered)
    rcond = 0.0
    if info == 0:
        bordered *= row_scale[:, None]
        bordered *= col_scale
        anorm = np.abs(bordered).sum(axis=0).max()
        lu, piv, info = getrf(bordered, overwrite_a=True)
        if info == 0:
            rcond = gecon(lu, anorm, norm="1")[0]
    if rcond < propagation._DEGENERACY_TOL:
        raise DegenerateStationaryState(
            "bordered generator is singular at working precision: "
            "reciprocal condition number %.3e below %.1e, so the kernel is "
            "not one-dimensional or its element is traceless"
            % (rcond, propagation._DEGENERACY_TOL))
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = row_scale[0]
    rho = propagation._unit_trace(col_scale * getrs(lu, piv, rhs)[0])
    if rho is None:
        raise NumericalFailure("stationary candidate is traceless")
    return rho


def _parent_banded_stationary(l_matrix, magnitude):
    """Reference banded solve, the banded path as it was in natural
    (Fortran) order: the band, kl = ku = 2d for the bilinear family, is
    read from L's zero pattern by dense passes and filled by diagonal
    extraction.  The unit-trace state, or None when the band is too wide or
    the solve hands over."""
    n = l_matrix.shape[0]
    # row 0 becomes the border e_0^T: only the other rows set the band
    row_max = magnitude.max(axis=1)
    row_max[0] = 1.0
    if not row_max.all():  # a zero row
        return None
    nonzero = magnitude[1:] != 0.0
    rows = np.arange(1, n)
    kl = max(int((rows - nonzero.argmax(axis=1)).max()), 0)
    ku = max(int((n - 1 - nonzero[:, ::-1].argmax(axis=1) - rows).max()), 0)
    if 3 * kl * (kl + ku) > propagation._BAND_FLOP_SHARE * n * n:
        return None
    # LAPACK band storage: A[i, j] sits in row kl + ku + i - j of column j;
    # gbtrf takes the first kl rows for fill-in
    ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)
    band = ab[kl:]
    for off in range(-ku, kl + 1):  # off = i - j
        band[ku + off, max(-off, 0):n - max(off, 0)] = l_matrix.diagonal(-off)
    top = np.arange(ku + 1)
    band[ku - top, top] = 0.0  # row 0, entry (0, j) at band row ku - j
    band[ku, 0] = 1.0
    # [ku + off, j] = row_scale[j + off], zero outside the matrix
    row_scale = propagation._power_of_two_scale(row_max)
    band *= sliding_window_view(np.pad(row_scale, (ku, kl)), n)
    band_magnitude = np.abs(band)
    col_max = band_magnitude.max(axis=0)
    if not col_max.all():  # a zero column
        return None
    col_scale = propagation._power_of_two_scale(col_max)
    band *= col_scale
    anorm = (band_magnitude * col_scale).sum(axis=0).max()
    gbtrf, gbcon, gbtrs = scipy.linalg.get_lapack_funcs(
        ("gbtrf", "gbcon", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
    if info != 0:  # info > 0: an exactly zero pivot
        return None
    rcond, _ = gbcon(kl, ku, lu, piv, anorm, norm="1")
    if not rcond >= propagation._DEGENERACY_TOL:  # NaN too: only a sound solve answers
        return None
    rhs = np.zeros((n, 1), dtype=complex)
    rhs[0] = row_scale[0]
    return propagation._unit_trace(col_scale * gbtrs(lu, kl, ku, rhs, piv)[0][:, 0])


def _banded(l_matrix):
    """stationary_state's banded path on every nonzero entry of l_matrix,
    without the scan's early refusal of a wide last row."""
    rows, cols = np.nonzero(l_matrix)
    values = l_matrix[rows, cols]
    dim = int(round(np.sqrt(l_matrix.shape[0])))
    return propagation._banded_stationary(dim, rows, cols, values, np.abs(values))


def _checkerboard_band(l_matrix):
    """(kl, ku) of l_matrix below row 0, in stationary_state's checkerboard
    order of vec(rho): the entries with i + j even first."""
    dim = int(round(np.sqrt(l_matrix.shape[0])))
    j, i = np.divmod(np.arange(dim * dim), dim)
    position = np.argsort(np.argsort((i + j) % 2, kind="stable"))
    rows, cols = np.nonzero(l_matrix[1:])
    offset = position[rows + 1] - position[cols]
    return max(int(offset.max()), 0), max(int(-offset.min()), 0)


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
           # dense below dim 5, banded from dim 5 on but for collision
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
@pytest.mark.parametrize("dim", range(5, 26))
def test_bilinear_family_takes_the_banded_path(kind, dim):
    """The banded solve accepts every bilinear-family generator at dim 5-25,
    without handing over, and agrees with the parent's natural-order banded
    solve from dim 10 up; below dim 10 the parent's band, 2d wide, is too
    wide and the dense trace-bordered solve is the reference.  At dims 12,
    17 and 25 it also agrees with the dense solve."""
    l_matrix = superoperator_matrix(_stationary_generator(
        kind, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8, omega_trap=1.1, d_xp=0.1,
        cp_margin=0.1, q_max=None))
    rho = _banded(l_matrix)
    assert rho is not None
    parent = _parent_banded_stationary(l_matrix, np.abs(l_matrix))
    assert (parent is None) == (dim < 10)
    if parent is None:
        parent = _whole_dense_stationary(l_matrix)
    assert np.abs(rho - parent).max() < 1e-12
    if dim in (12, 17, 25):
        assert np.abs(rho - _whole_dense_stationary(l_matrix)).max() < 1e-12
        assert np.abs(rho - propagation._dense_stationary(l_matrix)).max() < 1e-12
    assert np.array_equal(stationary_state(l_matrix), rho)


@pytest.mark.parametrize("kind", [MINIMAL_QBM, BILINEAR, CALDEIRA_LEGGETT])
def test_smallest_banded_dim_is_5(kind):
    """With kl = ku = d the banded LU, 4 d^4 flops, is at most a quarter of
    the dense 2 d^6 / 3 from d^2 >= 24 on: dim 4 takes the dense path and
    dim 5 the banded one, as stationary_state's docstring says."""
    def l_matrix(dim):
        return superoperator_matrix(_stationary_generator(
            kind, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8, omega_trap=1.1, d_xp=0.1,
            cp_margin=0.1, q_max=None))
    assert _banded(l_matrix(4)) is None
    assert _banded(l_matrix(5)) is not None


_FAMILY_SPECS = {
    "minimal-double-commutator": lambda h, w: LiouvillianSpec(
        kind=MINIMAL_QBM, hamiltonian_kind=h, omega_trap=w, beta=2.0,
        coeffs=BilinearCoefficients(d_pp=0.3, fugacity_z=0.8)),
    "minimal-single-generator": lambda h, w: LiouvillianSpec(
        kind=MINIMAL_QBM, hamiltonian_kind=h, omega_trap=w, beta=2.0,
        coeffs=BilinearCoefficients(d_pp=0.3, fugacity_z=0.8), assembly=SINGLE_GENERATOR),
    "bilinear": lambda h, w: LiouvillianSpec(
        kind=BILINEAR, hamiltonian_kind=h, omega_trap=w,
        coeffs=BilinearCoefficients(gamma=0.2, d_pp=0.4, d_xx=0.3, d_xp=0.1, mu=0.05,
                                    fugacity_z=0.9)),
    "caldeira-leggett": lambda h, w: LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, hamiltonian_kind=h, omega_trap=w, beta=2.0,
        coeffs=BilinearCoefficients(gamma=0.3)),
}


@pytest.mark.parametrize("dim", [5, 12, 24])
@pytest.mark.parametrize("hamiltonian", [("harmonic", 1.1), ("free", None)])
@pytest.mark.parametrize("name", list(_FAMILY_SPECS))
def test_bilinear_family_band_is_half_wide_in_checkerboard_order(name, hamiltonian, dim):
    """Every library bilinear-family generator keeps the parity of i + j:
    in checkerboard order its band is kl = ku = d, against 2d in Fortran
    order."""
    l_matrix = superoperator_matrix(build_liouvillian(
        HilbertConfig(dim=dim), _FAMILY_SPECS[name](*hamiltonian)))
    assert _checkerboard_band(l_matrix) == (dim, dim)
    rows, cols = np.nonzero(l_matrix[1:])
    assert np.abs(rows + 1 - cols).max() == 2 * dim


def test_parity_mixing_generator_takes_the_dense_path():
    """A trace-preserving generator whose Hamiltonian gains a linear term
    f x couples i + j even to odd: it reads a wide band, takes the dense
    path, and matches the SVD reference."""
    dim = 12
    cfg = HilbertConfig(dim=dim)
    liouv = _stationary_generator(MINIMAL_QBM, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8,
                                  omega_trap=1.1, d_xp=None, cp_margin=None, q_max=None)
    x, eye = build_position(cfg), np.eye(dim)
    # -(i/hbar) [f x, rho] on Fortran-order vec(rho)
    l_matrix = superoperator_matrix(liouv) - (1j * 0.4 / cfg.hbar) * (
        np.kron(eye, x) - np.kron(x.T, eye))
    assert _checkerboard_band(l_matrix)[0] > dim
    assert _banded(l_matrix) is None
    assert propagation._nonzeros(l_matrix, dim) is None
    rho = stationary_state(l_matrix)
    assert np.abs(rho - _svd_stationary_state(l_matrix)).max() < 1e-10
    # the linear term displaces the state: a different one is found
    assert np.abs(rho - stationary_state(superoperator_matrix(liouv))).max() > 1e-3


def test_band_comes_from_the_zero_pattern():
    """The column-loop superoperator has the normal form's zero pattern, so it
    takes the banded path too; a dense collision generator does not."""
    cfg = HilbertConfig(dim=14)
    liouv = _stationary_generator(MINIMAL_QBM, 14, beta=2.0, d_pp=0.3, fugacity_z=0.8,
                                  omega_trap=1.1, d_xp=None, cp_margin=None, q_max=None)
    probed = superoperator_matrix(CallableGenerator(cfg, liouv.apply))
    assert np.array_equal(probed != 0, superoperator_matrix(liouv) != 0)
    assert _banded(probed) is not None
    collision = superoperator_matrix(_stationary_generator(
        BOLTZMANN_COLLISION, 12, beta=2.0, d_pp=None, fugacity_z=0.8, omega_trap=1.1,
        d_xp=None, cp_margin=None, q_max=0.5))
    assert _banded(collision) is None
    assert propagation._nonzeros(collision, 12) is None
    reference = _svd_stationary_state(collision)
    assert np.abs(stationary_state(collision) - reference).max() < 1e-10


def _nonfinite_cases():
    dim = 12
    n = dim * dim
    last = int(sector_order(dim)[0][-1])
    # far outside the band: in the last row of the checkerboard order, which
    # the scan reads first, and in rows it reads only in the full count
    for row, col in [(last, 0), (1, n - 1), (n - 1, 1)]:
        for bad in (np.nan, np.inf, -np.inf):
            yield pytest.param(dim, row, col, bad, id="%s-%d-%d" % (bad, row, col))


@pytest.mark.parametrize("dim, row, col, bad", _nonfinite_cases())
def test_nonfinite_entry_outside_the_band_raises_before_lapack(monkeypatch, dim, row,
                                                                col, bad):
    """One NaN or infinite entry, anywhere outside the band, is found by the
    scan and raises NumericalFailure before any LAPACK routine is fetched."""
    l_matrix = superoperator_matrix(_stationary_generator(
        MINIMAL_QBM, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8, omega_trap=1.1,
        d_xp=None, cp_margin=None, q_max=None))
    l_matrix[row, col] = bad

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK reached")

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", no_lapack)
    with pytest.raises(NumericalFailure, match="generator matrix has non-finite entries") as exc:
        stationary_state(l_matrix)
    assert not isinstance(exc.value, DegenerateStationaryState)


def test_negative_zero_entries_count_as_zero():
    """-0.0 entries outside the band, real or imaginary, leave the scan's
    triplets, and so the band and the state, as they were; an all-zero
    matrix at a banded size is still identically zero."""
    dim = 12
    n = dim * dim
    l_matrix = superoperator_matrix(_stationary_generator(
        MINIMAL_QBM, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8, omega_trap=1.1,
        d_xp=None, cp_margin=None, q_max=None))
    signed = l_matrix.copy()
    last = int(sector_order(dim)[0][-1])
    for row, col in [(last, 0), (1, n - 1), (n - 1, 1)]:
        signed[row, col] = complex(-0.0, -0.0)
    signed[2, n - 2] = complex(0.0, -0.0)
    assert np.signbit(signed[1, n - 1].real) and np.signbit(signed[2, n - 2].imag)
    clean, zeros = propagation._nonzeros(l_matrix, dim), propagation._nonzeros(signed, dim)
    assert zeros is not None
    for a, b in zip(clean, zeros):
        assert np.array_equal(a, b)
    assert np.array_equal(stationary_state(signed), stationary_state(l_matrix))
    with pytest.raises(DegenerateStationaryState, match="identically zero"):
        stationary_state(np.zeros((n, n), dtype=complex))
    with pytest.raises(DegenerateStationaryState, match="identically zero"):
        stationary_state(np.full((n, n), complex(-0.0, -0.0)))


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
    assert _banded(l_matrix) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = stationary_state(l_matrix)
    assert np.abs(rho - _svd_stationary_state(l_matrix)).max() < 1e-10
    assert np.abs(rho - unit(1, 1)).max() < 1e-10


def _is_odd_vec(dim):
    """Which entries of Fortran-order vec(rho) have i + j odd."""
    j, i = np.divmod(np.arange(dim * dim), dim)
    return (i + j) % 2 == 1


@given(dim=st.integers(min_value=5, max_value=24), **BENCH_BOX)
@settings(max_examples=25, deadline=None)
def test_collision_stationary_state_matches_the_whole_signed_solve(dim, **box):
    """Over the benchmark's parameter box at dims 5-24, the stationary state
    of the definite-parity compile, solved in sector blocks, is within
    1e-12 of the signed compile's solved whole (both oracles) and of its
    own matrix solved whole, and its odd entries are exactly zero."""
    cfg = HilbertConfig(dim=dim)
    spec = bench_collision_spec(cfg, **box)
    l_matrix = superoperator_matrix(build_liouvillian(cfg, spec))
    signed = superoperator_matrix(Liouvillian(
        cfg, BOLTZMANN_COLLISION, *signed_collision_normal_form(cfg, spec)))
    assert propagation._sector_blocks(l_matrix, dim)[0] is not None
    assert propagation._sector_blocks(signed, dim) == [None]
    rho = stationary_state(l_matrix)
    assert np.abs(rho - _whole_dense_stationary(signed)).max() < 1e-12
    assert np.abs(rho - _whole_dense_stationary(l_matrix)).max() < 1e-12
    assert not rho.ravel(order="F")[_is_odd_vec(dim)].any()


@pytest.mark.parametrize("dim", [5, 12, 14, 24])
def test_collision_stationary_state_matches_the_whole_signed_solve_at_the_cap(dim):
    """The same with the weight exponent just under its cap."""
    cfg = HilbertConfig(dim=dim)
    spec = bench_collision_spec(cfg, q_max=None, beta=2.25, gas_mass=1.25,
                                fugacity_z=0.75, t0=0.055, sigma_q=1.0,
                                omega_trap=1.05, at_cap=True)
    signed = superoperator_matrix(Liouvillian(
        cfg, BOLTZMANN_COLLISION, *signed_collision_normal_form(cfg, spec)))
    rho = stationary_state(superoperator_matrix(build_liouvillian(cfg, spec)))
    assert np.abs(rho - _whole_dense_stationary(signed)).max() < 1e-12


def _parity_mixing_matrix(dim):
    """A trace-preserving minimal generator plus -(i/hbar)[f x, rho]: the
    linear term couples i + j even to odd."""
    cfg = HilbertConfig(dim=dim)
    liouv = _stationary_generator(MINIMAL_QBM, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8,
                                  omega_trap=1.1, d_xp=None, cp_margin=None, q_max=None)
    x, eye = build_position(cfg), np.eye(dim)
    return superoperator_matrix(liouv) - (1j * 0.4 / cfg.hbar) * (
        np.kron(eye, x) - np.kron(x.T, eye))


@pytest.mark.parametrize("kind", [MINIMAL_QBM, BILINEAR, CALDEIRA_LEGGETT])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_dense_bilinear_blocks_match_the_whole_solve(kind, dim):
    """Below dim 5 the bilinear family takes the dense path, in two sector
    blocks, within 1e-12 of the whole solve, or with its verdict and
    message where it has no state (Caldeira-Leggett at dim 2); a
    parity-mixing matrix is one block, and its state is the whole solve's
    bit for bit."""
    l_matrix = superoperator_matrix(_stationary_generator(
        kind, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8, omega_trap=1.1, d_xp=0.1,
        cp_margin=0.1, q_max=None))
    assert len(propagation._sector_blocks(l_matrix, dim)) == 2
    try:
        reference = _whole_dense_stationary(l_matrix)
    except DegenerateStationaryState as exc:
        with pytest.raises(DegenerateStationaryState) as blocks:
            stationary_state(l_matrix)
        assert str(blocks.value) == str(exc)
    else:
        assert np.abs(stationary_state(l_matrix) - reference).max() < 1e-12
    mixing = _parity_mixing_matrix(dim)
    assert propagation._sector_blocks(mixing, dim) == [None]
    assert np.array_equal(stationary_state(mixing), _whole_dense_stationary(mixing))


def test_only_exact_zeros_split_the_dense_solve():
    """The blocks rest on exact zeros: -0.0 between the sectors keeps them,
    one coupling entry of 1e-300 makes the matrix one block."""
    dim = 12
    l_matrix = superoperator_matrix(_stationary_generator(
        BOLTZMANN_COLLISION, dim, beta=2.0, d_pp=None, fugacity_z=0.8, omega_trap=1.1,
        d_xp=None, cp_margin=None, q_max=0.5))
    odd = _is_odd_vec(dim)
    row, col = np.flatnonzero(odd)[3], np.flatnonzero(~odd)[5]
    for value, blocks in ((complex(-0.0, -0.0), 2), (complex(0.0, -0.0), 2),
                          (1e-300, 1), (1e-300j, 1)):
        for r, c in ((row, col), (col, row)):
            touched = l_matrix.copy()
            touched[r, c] = value
            assert len(propagation._sector_blocks(touched, dim)) == blocks
            assert np.abs(stationary_state(touched) - stationary_state(l_matrix)).max() \
                < 1e-12


def _odd_row_cases():
    def bilinear(dim):
        return superoperator_matrix(_stationary_generator(
            BILINEAR, dim, beta=2.0, d_pp=0.3, fugacity_z=0.8, omega_trap=1.1, d_xp=0.1,
            cp_margin=0.1, q_max=None))
    collision = superoperator_matrix(_stationary_generator(
        BOLTZMANN_COLLISION, 12, beta=2.0, d_pp=None, fugacity_z=0.8, omega_trap=1.1,
        d_xp=None, cp_margin=None, q_max=0.5))
    return [pytest.param(bilinear(12), id="bilinear-banded"),
            pytest.param(bilinear(4), id="bilinear-dense"),
            pytest.param(collision, id="collision")]


@pytest.mark.parametrize("l_matrix", _odd_row_cases())
def test_the_odd_block_is_tested(l_matrix):
    """A defect in the odd sector alone, which the solve never needs for
    the state, still decides the verdict as in the whole solve: an odd row
    zeroed, or made to within 1e-12 of another odd row, raises
    DegenerateStationaryState on both.  An odd row scaled by 1e-12 keeps
    the kernel, and the equilibration undoes the scale: both find the
    unscaled state."""
    dim = int(round(np.sqrt(l_matrix.shape[0])))
    order, _, n_even = sector_order(dim)
    a, b = order[n_even], order[n_even + 1]
    zeroed, dependent, scaled = (l_matrix.copy() for _ in range(3))
    zeroed[a] = 0.0
    dependent[a] = dependent[b] + 1e-12 * dependent[a]
    scaled[a] *= 1e-12
    for broken in (zeroed, dependent):
        with pytest.raises(DegenerateStationaryState) as whole:
            _whole_dense_stationary(broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateStationaryState) as blocks:
                stationary_state(broken)
        assert str(blocks.value).split(":")[0] == str(whole.value).split(":")[0]
    rho = stationary_state(l_matrix)
    assert np.abs(stationary_state(scaled) - rho).max() < 1e-12
    assert np.abs(_whole_dense_stationary(scaled) - rho).max() < 1e-12


@pytest.mark.parametrize("l_matrix", _odd_row_cases())
def test_block_scalings_are_the_whole_matrix_scalings(l_matrix):
    """geequb on each gathered sector block, the even one trace-bordered,
    gives the whole bordered matrix's row and column scalings at the
    block's rows and columns, bit for bit: no row or column of a
    block-diagonal matrix holds a nonzero outside its block."""
    dim = int(round(np.sqrt(l_matrix.shape[0])))
    diagonal = np.arange(dim) * (dim + 1)
    _, position, _ = sector_order(dim)
    whole = np.array(l_matrix, order="F")
    whole[0] = 0.0
    whole[0, diagonal] = 1.0
    geequb = scipy.linalg.get_lapack_funcs("geequb", (whole,))
    row_scale, col_scale = geequb(whole)[:2]
    blocks = propagation._sector_blocks(l_matrix, dim)
    assert len(blocks) == 2
    for first, index in zip((True, False), blocks):
        block = propagation._fortran_block(l_matrix, index)
        assert block.flags.f_contiguous
        assert np.array_equal(block, l_matrix[np.ix_(index, index)])
        if first:
            block[0] = 0.0
            block[0, position[diagonal]] = 1.0
        rows, cols = geequb(block)[:2]
        assert np.array_equal(rows, row_scale[index])
        assert np.array_equal(cols, col_scale[index])

