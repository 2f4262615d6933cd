import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbmlab import (
    FPGrid,
    FPTrajectory,
    fp_solve,
    fp_step,
    gaussian_grid,
    grid_moments,
    maxwell_grid,
    stability_bound,
)
from qbmlab.fokker_planck import _cc_delta


def test_grid_validation():
    ok = gaussian_grid(-6.0, 6.0, 100)
    assert abs(grid_moments(ok)[0] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        gaussian_grid(1.0, 6.0, 100)  # domain must straddle zero
    with pytest.raises(ValueError):
        gaussian_grid(-6.0, -1.0, 100)
    with pytest.raises(ValueError):
        gaussian_grid(-6.0, 6.0, 3)
    p = np.full(100, 1.0 / 12.0)
    p[3] = -1e-3
    with pytest.raises(ValueError):
        FPGrid(v_min=-6.0, v_max=6.0, n_cells=100, p_values=p)
    with pytest.raises(ValueError):
        FPGrid(v_min=-6.0, v_max=6.0, n_cells=100, p_values=np.ones(100))


def test_maxwell_grid_is_discrete_fixed_point():
    grid = maxwell_grid(-8.0, 8.0, 200, eta=1.0, d_v=1.0)
    dt = 0.9 * stability_bound(grid, 1.0, 1.0)
    stepped = fp_step(grid, 1.0, 1.0, dt)
    assert np.abs(stepped.p_values - grid.p_values).max() < 1e-12 * grid.p_values.max()


def test_maxwell_grid_requires_positive_coefficients():
    with pytest.raises(ValueError):
        maxwell_grid(-8.0, 8.0, 200, eta=0.0, d_v=1.0)
    with pytest.raises(ValueError):
        maxwell_grid(-8.0, 8.0, 200, eta=1.0, d_v=-1.0)


def test_step_validation():
    grid = gaussian_grid(-6.0, 6.0, 100)
    bound = stability_bound(grid, 1.0, 1.0)
    with pytest.raises(ValueError):
        fp_step(grid, 1.0, 1.0, 1.5 * bound)
    with pytest.raises(ValueError):
        fp_step(grid, -1.0, 1.0, 1e-4)
    with pytest.raises(ValueError):
        fp_step(grid, 1.0, -1.0, 1e-4)
    with pytest.raises(ValueError):
        fp_step(grid, 1.0, 1.0, 0.0)


def test_stability_bound_cases():
    grid = gaussian_grid(-6.0, 6.0, 100)
    assert np.isinf(stability_bound(grid, 0.0, 0.0))
    drift_only = stability_bound(grid, 2.0, 0.0)
    assert drift_only == pytest.approx(0.4 * grid.dv / (2.0 * 6.0))
    # a negative coefficient has no bound, not one that ignores its term
    for eta, d_v in ((-1.0, 1.0), (1.0, -1.0), (-1.0, 0.0)):
        with pytest.raises(ValueError):
            stability_bound(grid, eta, d_v)


def test_solve_validation():
    grid = gaussian_grid(-6.0, 6.0, 100)
    dt = 0.9 * stability_bound(grid, 1.0, 1.0)
    for t_final, stride in ((0.0, 1), (-1.0, 1), (1.0, 0)):
        with pytest.raises(ValueError):
            fp_solve(grid, 1.0, 1.0, t_final, dt, sample_stride=stride)
    # the sampling rule counts steps: a fractional stride would sample
    # every fifth step at 2.5, and a bool is no count
    for stride in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="sample_stride"):
            fp_solve(grid, 1.0, 1.0, 1.0, dt, sample_stride=stride)


def test_mass_conserved_every_step():
    grid = gaussian_grid(-8.0, 8.0, 150, mean=1.2, var=0.5)
    dt = 0.9 * stability_bound(grid, 1.0, 1.0)
    masses = []
    for _ in range(500):
        grid = fp_step(grid, 1.0, 1.0, dt)
        masses.append(grid_moments(grid)[0])
    drift = np.abs(np.diff(np.array([1.0] + masses)))
    assert drift.max() < 1e-14


def test_solution_stays_nonnegative():
    # advection-dominated relaxation from an off-center start
    grid = gaussian_grid(-8.0, 8.0, 200, mean=3.0, var=0.05)
    traj = fp_solve(grid, eta=2.0, d_v=0.01, t_final=1.5,
                    dt=0.9 * stability_bound(grid, 2.0, 0.01), sample_stride=100)
    assert traj.final_grid.p_values.min() >= -1e-15


def test_pure_diffusion_variance_growth():
    grid = gaussian_grid(-8.0, 8.0, 250, mean=0.0, var=0.25)
    dt = 0.9 * stability_bound(grid, 0.0, 0.5)
    traj = fp_solve(grid, eta=0.0, d_v=0.5, t_final=1.0, dt=dt, sample_stride=100)
    assert abs(traj.var_v[-1] - 1.25) < 0.005 * 1.25
    assert abs(traj.mean_v[-1]) < 1e-10


def test_pure_drift_contracts_mean():
    # zero diffusion falls back to donor-cell upwinding, first order in dv
    grid = gaussian_grid(-8.0, 8.0, 400, mean=2.0, var=0.25)
    dt = 0.9 * stability_bound(grid, 1.0, 0.0)
    traj = fp_solve(grid, eta=1.0, d_v=0.0, t_final=1.0, dt=dt, sample_stride=500)
    expected = 2.0 * np.exp(-traj.times)
    assert (np.abs(traj.mean_v - expected) / expected).max() < 0.03
    assert traj.final_grid.p_values.min() >= -1e-15


def test_stationary_variance():
    # relax from a narrow start: the invariant density has variance d_v/eta
    grid = gaussian_grid(-8.0, 8.0, 400, mean=0.0, var=0.5)
    dt = 0.9 * stability_bound(grid, 1.0, 1.0)
    traj = fp_solve(grid, eta=1.0, d_v=1.0, t_final=4.0, dt=dt, sample_stride=2000)
    assert abs(traj.var_v[-1] - 1.0) < 0.005


def test_mean_decay_and_variance_relaxation_rate():
    eta, d_v = 1.0, 1.0
    grid = gaussian_grid(-8.0, 8.0, 300, mean=1.2, var=0.5)
    dt = 0.9 * stability_bound(grid, eta, d_v)
    traj = fp_solve(grid, eta, d_v, t_final=2.0, dt=dt, sample_stride=200)
    mean_exact = 1.2 * np.exp(-eta * traj.times)
    assert (np.abs(traj.mean_v - mean_exact) / mean_exact).max() < 0.01
    # variance approaches d_v/eta at rate 2 eta
    dev = traj.var_v - d_v / eta
    mask = traj.times < 1.5
    slope = np.polyfit(traj.times[mask], np.log(np.abs(dev[mask])), 1)[0]
    assert abs(slope - (-2.0 * eta)) < 0.01 * 2.0 * eta


def test_transient_moments_converge_with_refinement():
    """Halving the cell size cuts transient moment errors by about four."""
    eta, d_v, t_final = 1.0, 1.0, 0.5
    errors = []
    for n_cells in (100, 200):
        grid = gaussian_grid(-8.0, 8.0, n_cells, mean=1.2, var=0.5)
        dt = 1e-3 * (100.0 / n_cells) ** 2  # lock the time error out of the way
        traj = fp_solve(grid, eta, d_v, t_final, dt, sample_stride=50)
        mean_exact = 1.2 * np.exp(-eta * traj.times)
        var_exact = d_v / eta + (0.5 - d_v / eta) * np.exp(-2.0 * eta * traj.times)
        errors.append((np.abs(traj.mean_v - mean_exact).max(),
                       np.abs(traj.var_v - var_exact).max()))
    assert errors[0][0] / errors[1][0] > 3.5
    assert errors[0][1] / errors[1][1] > 3.5


def _reference_fp_solve(grid, eta, d_v, t_final, dt, sample_stride):
    """fp_solve with its own step list and sampling loop."""
    n_full = int(np.floor(t_final / dt + 1e-12))
    steps = [dt] * n_full
    remainder = t_final - n_full * dt
    if remainder > 1e-12 * dt:
        steps.append(remainder)
    rows = [(0.0, *grid_moments(grid))]
    t = 0.0
    current = grid
    for i, h in enumerate(steps):
        current = fp_step(current, eta, d_v, h)
        t = t_final if i == len(steps) - 1 else t + h
        if (i + 1) % sample_stride == 0:
            rows.append((t, *grid_moments(current)))
    if len(steps) % sample_stride != 0:
        rows.append((t_final, *grid_moments(current)))
    cols = np.array(rows, dtype=float).T
    return FPTrajectory(times=cols[0], mass=cols[1], mean_v=cols[2],
                        var_v=cols[3], final_grid=current)


@pytest.mark.parametrize("stride", [1, 3, 10**9])
def test_shared_schedule_and_sampler_match_reference_loop(stride):
    """fp_solve on the propagator's fixed_steps and Sampler gives every
    field bit for bit as the loop with its own schedule and sampling."""
    grid = gaussian_grid(-6.0, 6.0, 60, mean=0.5, var=0.6)
    dt = 0.7 * stability_bound(grid, 1.0, 0.8)
    t_final = 40.5 * dt  # 40 full steps and a half step
    traj = fp_solve(grid, 1.0, 0.8, t_final, dt, sample_stride=stride)
    reference = _reference_fp_solve(grid, 1.0, 0.8, t_final, dt, stride)
    for name in ("times", "mass", "mean_v", "var_v"):
        assert np.array_equal(getattr(traj, name), getattr(reference, name)), name
    for name in ("v_min", "v_max", "n_cells", "p_values"):
        assert np.array_equal(getattr(traj.final_grid, name),
                              getattr(reference.final_grid, name)), name
    assert traj.times[-1] == t_final


def test_sampling_grid():
    grid = gaussian_grid(-6.0, 6.0, 100)
    traj = fp_solve(grid, 1.0, 1.0, t_final=0.1, dt=1e-3, sample_stride=20)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 0.1
    assert np.allclose(np.diff(traj.times), 0.02, atol=1e-12)


@given(w=st.floats(min_value=-60.0, max_value=60.0))
@settings(max_examples=100, deadline=None)
def test_flux_interpolation_weight(w):
    """The exponential-fitting weight is a proper interpolation weight and
    carries the up/down symmetry that makes the Maxwell profile stationary."""
    delta = float(_cc_delta(np.array([w]))[0])
    assert 0.0 < delta < 1.0
    mirrored = float(_cc_delta(np.array([-w]))[0])
    assert abs(delta + mirrored - 1.0) < 1e-12


def test_matches_quantum_momentum_variance():
    """The classical solver with matched drift and diffusion reproduces the
    quantum momentum-variance trajectory of the CP-safe generator."""
    from qbmlab import (
        BilinearCoefficients,
        HilbertConfig,
        IntegratorConfig,
        LiouvillianSpec,
        MINIMAL_QBM,
        build_liouvillian,
        propagate,
        vacuum_state,
    )

    beta, d_pp, z = 1.0, 2.0, 1.0
    cfg = HilbertConfig(dim=20)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=beta,
        coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=z)))
    record = propagate(vacuum_state(cfg), liouv, IntegratorConfig(
        t_final=1.0, dt=1.0 / 400, monitor_stride=20))

    gamma = beta * d_pp / (2.0 * cfg.mass)
    eta = 2.0 * z * gamma
    d_v = z * d_pp / cfg.mass**2
    var0 = cfg.hbar * cfg.omega_basis / (2.0 * cfg.mass)  # vacuum width
    v_max = 8.0 * np.sqrt(max(var0, d_v / eta))
    grid = gaussian_grid(-v_max, v_max, 200, mean=0.0, var=var0)
    sample_dt = record.times[1] - record.times[0]
    substeps = int(np.ceil(sample_dt / (0.9 * stability_bound(grid, eta, d_v))))
    traj = fp_solve(grid, eta, d_v, t_final=1.0, dt=sample_dt / substeps,
                    sample_stride=substeps)

    n = min(len(record.times), len(traj.times))
    var_p_classical = cfg.mass**2 * traj.var_v[:n]
    rel = np.abs(record.var_p[:n] - var_p_classical) \
        / np.maximum(np.abs(record.var_p[:n]), 1e-300)
    assert rel.max() < 0.02


def test_flux_weight_series_branch_is_accurate():
    # both branches around the switch agree with a higher-order reference
    for w in (5e-5, 9.99e-5, 1.01e-4, 2e-4, 1e-3, -1.01e-4, -9.99e-5):
        reference = 0.5 - w / 12.0 + w**3 / 720.0 - w**5 / 30240.0
        got = float(_cc_delta(np.array([w]))[0])
        assert abs(got - reference) < 1e-11
