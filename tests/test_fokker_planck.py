import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbmlab import (
    FPGrid,
    FPTrajectory,
    NumericalFailure,
    fp_solve,
    fp_step,
    gaussian_grid,
    grid_moments,
    maxwell_grid,
    stability_bound,
)
from qbmlab.fokker_planck import _cc_delta, _stencil


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
    # NaN fails the sign check itself, not the density's later finiteness check
    for eta, d_v, field in ((float("nan"), 1.0, "eta"), (1.0, float("nan"), "d_v")):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            maxwell_grid(-8.0, 8.0, 200, eta=eta, d_v=d_v)
    with pytest.raises(ValueError, match="var must be positive"):
        gaussian_grid(-8.0, 8.0, 200, var=float("nan"))


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


def _parent_stability_bound(grid, eta, d_v):
    if eta < 0.0 or d_v < 0.0:
        raise ValueError("eta and d_v must be nonnegative")
    dv = grid.dv
    bounds = []
    if d_v > 0.0:
        bounds.append(dv * dv / (2.0 * d_v))
    if eta > 0.0:
        bounds.append(dv / (eta * max(-grid.v_min, grid.v_max)))
    if not bounds:
        return np.inf
    return 0.4 * min(bounds)


def _parent_fp_step(grid, eta, d_v, dt):
    """fp_step as it was before its stencil was cached: the bound, the edge
    drift and the Chang-Cooper weights recomputed from the grid every step."""
    bound = _parent_stability_bound(grid, eta, d_v)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > bound:
        raise ValueError(
            "dt=%.6g violates the stability bound %.6g" % (dt, bound))
    p = grid.p_values
    dv = grid.dv
    v_e = grid.v_min + np.arange(1, grid.n_cells) * dv
    drift = eta * v_e
    if d_v > 0.0:
        delta = _cc_delta(drift * dv / d_v)
    else:
        delta = np.where(drift > 0.0, 0.0, np.where(drift < 0.0, 1.0, 0.5))
    p_edge = (1.0 - delta) * p[1:] + delta * p[:-1]
    flux = drift * p_edge
    if d_v > 0.0:
        flux = flux + d_v * (p[1:] - p[:-1]) / dv
    p_new = grid.p_values.copy()
    scale = dt / grid.dv
    p_new[:-1] += scale * flux
    p_new[1:] -= scale * flux
    return FPGrid(v_min=grid.v_min, v_max=grid.v_max,
                  n_cells=grid.n_cells, p_values=p_new)


def _parent_grid_moments(grid):
    """grid_moments with the centres recomputed from the grid every call."""
    v = grid.v_min + (np.arange(grid.n_cells) + 0.5) * grid.dv
    weights = grid.p_values * grid.dv
    mass = np.sum(weights)
    mean = np.sum(v * weights) / mass
    var = np.sum((v - mean) ** 2 * weights) / mass
    return mass, mean, var


def _reference_fp_solve(grid, eta, d_v, t_final, dt, sample_stride):
    """fp_solve with its own step list and sampling loop, over the parent's
    step and moments."""
    n_full = int(np.floor(t_final / dt + 1e-12))
    steps = [dt] * n_full
    remainder = t_final - n_full * dt
    if remainder > 1e-12 * dt:
        steps.append(remainder)
    rows = [(0.0, *_parent_grid_moments(grid))]
    t = 0.0
    current = grid
    for i, h in enumerate(steps):
        current = _parent_fp_step(current, eta, d_v, h)
        t = t_final if i == len(steps) - 1 else t + h
        if (i + 1) % sample_stride == 0:
            rows.append((t, *_parent_grid_moments(current)))
    if len(steps) % sample_stride != 0:
        rows.append((t_final, *_parent_grid_moments(current)))
    cols = np.array(rows, dtype=float).T
    return FPTrajectory(times=cols[0], mass=cols[1], mean_v=cols[2],
                        var_v=cols[3], final_grid=current, steps=len(steps))


def _assert_same_trajectory(traj, reference):
    for name in ("times", "mass", "mean_v", "var_v", "steps"):
        assert np.array_equal(getattr(traj, name), getattr(reference, name)), name
    for name in ("v_min", "v_max", "n_cells", "p_values"):
        assert np.array_equal(getattr(traj.final_grid, name),
                              getattr(reference.final_grid, name)), name


@pytest.mark.parametrize("n_full", [40, 600])
@pytest.mark.parametrize("n_cells", [40, 50, 60, 80, 200])
@pytest.mark.parametrize("stride", [1, 2, 3, 10**9])
def test_shared_schedule_and_sampler_match_reference_loop(stride, n_cells, n_full):
    """fp_solve on the propagator's fixed_steps and Sampler gives every
    field bit for bit as the loop with its own schedule and per-sample
    moments.  600 full steps and a half step take 602 samples at stride 1,
    three blocks of moments, and 302 at stride 2, two blocks that end on
    the off-stride final sample."""
    grid = gaussian_grid(-6.0, 6.0, n_cells, mean=0.5, var=0.6)
    dt = 0.7 * stability_bound(grid, 1.0, 0.8)
    t_final = (n_full + 0.5) * dt
    traj = fp_solve(grid, 1.0, 0.8, t_final, dt, sample_stride=stride)
    reference = _reference_fp_solve(grid, 1.0, 0.8, t_final, dt, stride)
    _assert_same_trajectory(traj, reference)
    assert traj.times[-1] == t_final
    assert traj.steps == n_full + 1


def test_sampled_densities_are_held_a_block_at_a_time():
    """A 20 000-step stride-1 run at 200 cells samples 32 MB of densities;
    reduced a block at a time, the run's peak stays under an eighth of it."""
    grid = gaussian_grid(-6.0, 6.0, 200, mean=0.5, var=0.6)
    dt = 0.9 * stability_bound(grid, 1.0, 0.8)
    tracemalloc.start()
    try:
        traj = fp_solve(grid, 1.0, 0.8, 20000 * dt, dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.steps == 20000 and traj.times.size == 20001
    assert peak < 20000 * 200 * 8 / 8


def test_a_final_time_below_the_step_threshold_takes_one_step():
    """t_final at or below 1e-12 * dt is one step of t_final, sampled."""
    grid = gaussian_grid(-6.0, 6.0, 60, mean=0.5, var=0.6)
    for t_final in (1e-20, 1e-14):
        traj = fp_solve(grid, 1.0, 0.8, t_final, 0.01)
        assert traj.steps == 1
        assert traj.times.tolist() == [0.0, t_final]
        stepped = _parent_fp_step(grid, 1.0, 0.8, t_final)
        assert np.array_equal(traj.final_grid.p_values, stepped.p_values)
        assert (traj.mass[-1], traj.mean_v[-1], traj.var_v[-1]) == \
            _parent_grid_moments(stepped)


# (v_min, v_max, n_cells, eta, d_v, dt); dt None is 0.7 of the bound
_ORACLE_CASES = {
    "drift_only": (-6.0, 6.0, 60, 1.3, 0.0, None),
    "diffusion_only": (-6.0, 6.0, 60, 0.0, 0.8, None),
    "zero_coefficients": (-6.0, 6.0, 60, 0.0, 0.0, 2e-3),
    "four_cells": (-3.0, 5.0, 4, 1.0, 0.8, None),
}


@pytest.mark.parametrize("stride", [1, 3, 10**9])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_cached_stencil_matches_parent_step(case, stride):
    """Each term alone, neither term, and the smallest grid, every one with
    a remainder step: the cached stencil steps bit for bit as the parent."""
    v_min, v_max, n_cells, eta, d_v, dt = _ORACLE_CASES[case]
    grid = gaussian_grid(v_min, v_max, n_cells, mean=0.5, var=0.6)
    if dt is None:
        dt = 0.7 * _parent_stability_bound(grid, eta, d_v)
    t_final = 40.5 * dt
    traj = fp_solve(grid, eta, d_v, t_final, dt, sample_stride=stride)
    _assert_same_trajectory(
        traj, _reference_fp_solve(grid, eta, d_v, t_final, dt, stride))
    assert traj.steps == 41


def test_interleaved_coefficients_and_grids_each_match_parent_step():
    """Stencils of other coefficients or another geometry, cached in
    between, never leak into a step."""
    one = gaussian_grid(-6.0, 6.0, 50, mean=0.5, var=0.6)
    other = gaussian_grid(-5.0, 7.0, 64, mean=-0.3, var=0.9)
    pairs = [(1.0, 0.8), (1.3, 0.0), (0.0, 1.2), (2.0, 0.3)]
    dt = 0.5 * min(_parent_stability_bound(grid, eta, d_v)
                   for grid in (one, other) for eta, d_v in pairs)
    for i in range(24):
        eta, d_v = pairs[i % len(pairs)]
        stepped = fp_step(one, eta, d_v, dt)
        expected = _parent_fp_step(one, eta, d_v, dt)
        assert np.array_equal(stepped.p_values, expected.p_values), i
        assert grid_moments(stepped) == _parent_grid_moments(expected), i
        # one pair on the second geometry, between the first's steps
        stepped_other = fp_step(other, 1.0, 0.8, dt)
        expected_other = _parent_fp_step(other, 1.0, 0.8, dt)
        assert np.array_equal(stepped_other.p_values, expected_other.p_values), i
        assert grid_moments(stepped_other) == _parent_grid_moments(expected_other), i
        one, other = stepped, stepped_other


def test_cached_arrays_are_read_only():
    grid = gaussian_grid(-6.0, 6.0, 50)
    stability_bound(grid, 1.0, 0.8)
    _, _, *arrays = _stencil(grid.v_min, grid.v_max, grid.n_cells, 1.0, 0.8)
    for array in (*arrays, grid.centers):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_non_finite_inputs_refused_before_the_stencil():
    """NaN fails every sign check, so the checks are written to refuse it:
    a NaN d_v would otherwise run pure advection, and a NaN eta fail later
    as a non-finite density."""
    grid = gaussian_grid(-6.0, 6.0, 100)
    before = _stencil.cache_info()
    nan, inf = float("nan"), float("inf")
    for eta, d_v in ((nan, 1.0), (1.0, nan), (nan, nan), (inf, 1.0), (1.0, inf)):
        with pytest.raises(ValueError, match="eta and d_v must be finite and nonnegative"):
            stability_bound(grid, eta, d_v)
        with pytest.raises(ValueError, match="eta and d_v must be finite and nonnegative"):
            fp_step(grid, eta, d_v, 1e-4)
        with pytest.raises(ValueError, match="eta and d_v must be finite and nonnegative"):
            fp_solve(grid, eta, d_v, 1.0, 1e-4)
    for dt in (nan, inf, -inf, 0.0, -1e-4):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            fp_step(grid, 1.0, 1.0, dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            fp_solve(grid, 1.0, 1.0, 1.0, dt)
    for t_final in (nan, inf, 0.0):
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            fp_solve(grid, 1.0, 1.0, t_final, 1e-4)
    assert _stencil.cache_info() == before


@pytest.mark.parametrize("mean, var", [(0.0, 1e-300), (1e3, 1.0), (1e200, 1.0), (0.0, 1e-308)],
                         ids=["narrow", "off-grid", "square-overflows", "quotient-overflows"])
def test_gaussian_grid_refuses_a_gaussian_that_underflows_everywhere(mean, var):
    """Zero at every cell centre, the Gaussian has no normalisation: it is
    refused by a ValueError naming mean and var before the division, and
    an exponent that overflows on the way warns of nothing."""
    message = f"the Gaussian of mean {mean!r} and var {var!r} underflows to zero at every"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)} cell centre$"):
        gaussian_grid(-6.0, 6.0, 40, mean=mean, var=var)


def _step_holding(p):
    """fp_step with both coefficients zero on a 100-cell grid on [-6, 6] made
    to hold p unchecked: the step adds a signed-zero flux to every finite
    entry, so its check sees p itself, and a non-finite entry makes its
    neighbours non-finite too.  Zero times an infinite entry is the step's
    own NaN, as under fp_solve's float policy; the caller's overflow rule
    is left as it stands, for the check's sum."""
    grid = FPGrid(v_min=-6.0, v_max=6.0, n_cells=100, p_values=np.full(100, 1.0 / 12.0))
    object.__setattr__(grid, "p_values", p)
    with np.errstate(invalid="ignore"):
        return fp_step(grid, 0.0, 0.0, 1.0)


_STEP = " after a step of dt=1.0 at eta=0.0, d_v=0.0, v_min=-6.0, v_max=6.0, n_cells=100"


def test_grid_refusals_name_their_check():
    """Each refusal of a grid built by a caller is a ValueError with its
    check's message; each density refusal is also fp_step's: the same
    message in a NumericalFailure that names the step and its inputs."""
    ok = dict(v_min=-6.0, v_max=6.0, n_cells=100, p_values=np.full(100, 1.0 / 12.0))
    negative = ok["p_values"].copy()
    negative[3] = -1e-3
    nonfinite = [ok["p_values"].copy() for _ in range(5)]
    for p, bad in zip(nonfinite, (np.nan, np.inf, -np.inf)):
        p[7] = bad
    # both infinities, and an inf with a negative entry: finiteness first
    nonfinite[3][[7, 9]] = np.inf, -np.inf
    nonfinite[4][[7, 9]] = np.inf, -1e-3
    # finite entries whose sum overflows, with and without a negative one
    overflow = np.full(100, 1e307)
    negative_overflow = overflow.copy()
    negative_overflow[3] = -1e-3

    def builds(changes, message):
        """(build, error type, the whole message): FPGrid's, and fp_step's
        for a density row."""
        yield lambda: FPGrid(**{**ok, **changes}), ValueError, message
        if changes.keys() == {"p_values"} and changes["p_values"].shape == (100,):
            yield (lambda: _step_holding(changes["p_values"]), NumericalFailure,
                   "fp_step: " + message + _STEP)

    for changes, message in (
            (dict(v_min=1.0), "v_min must be negative and finite, got 1.0"),
            (dict(v_max=0.0), "v_max must be positive and finite, got 0.0"),
            (dict(n_cells=3, p_values=np.full(3, 1.0 / 12.0)),
             "n_cells must be an integer >= 4, got 3"),
            (dict(p_values=np.full(99, 1.0 / 12.0)), "p_values must have shape (n_cells,)"),
            *((dict(p_values=p), "p_values must be finite") for p in nonfinite),
            (dict(p_values=negative), "p_values must be nonnegative (min -1.000e-03)"),
            (dict(p_values=negative_overflow),
             "p_values must be nonnegative (min -1.000e-03)"),
            (dict(p_values=np.ones(100)), "density must integrate to 1, got 12"),
            (dict(p_values=overflow), "density must integrate to 1, got inf")):
        # pytest raises every RuntimeWarning: no refusal may surface as the
        # overflowing sum's warning
        for build, error, whole in builds(changes, message):
            with pytest.raises(error, match=f"^{re.escape(whole)}$"):
                build()
    # the overflow refusals when numpy raises on overflow, and when its
    # warning is ignored
    for p, message in ((overflow, "density must integrate to 1, got inf"),
                       (negative_overflow, "p_values must be nonnegative (min -1.000e-03)")):
        for build, error, whole in builds(dict(p_values=p), message):
            with pytest.raises(error, match=f"^{re.escape(whole)}$"), \
                    np.errstate(over="raise"):
                build()
            with pytest.raises(error, match=f"^{re.escape(whole)}$"), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                build()


def test_a_step_keeps_the_input_geometry():
    """fp_step's grid has the input's v_min, v_max, n_cells and dv, and
    shares its cached centres."""
    grid = gaussian_grid(-5.0, 7.0, 64, mean=-0.3, var=0.9)
    stepped = fp_step(grid, 1.0, 0.8, 0.5 * stability_bound(grid, 1.0, 0.8))
    assert type(stepped) is FPGrid and stepped is not grid
    for name in ("v_min", "v_max", "n_cells", "dv"):
        assert getattr(stepped, name) == getattr(grid, name), name
    assert stepped.centers is grid.centers
    assert stepped.p_values.shape == (64,) and stepped.p_values is not grid.p_values


def test_fp_solve_calls_the_module_step_once_per_step(monkeypatch):
    """fp_solve looks fp_step up in its module on every step, so a wrapper
    there counts each step with the grid it steps."""
    import qbmlab.fokker_planck as fokker_planck

    seen = []
    step = fokker_planck.fp_step

    def counting(grid, *args):
        seen.append((grid.v_min, grid.v_max, grid.n_cells))
        return step(grid, *args)

    monkeypatch.setattr(fokker_planck, "fp_step", counting)
    grid = gaussian_grid(-6.0, 6.0, 60, mean=0.5, var=0.6)
    dt = 0.9 * stability_bound(grid, 1.0, 0.8)
    traj = fp_solve(grid, 1.0, 0.8, 40.5 * dt, dt, sample_stride=3)
    assert traj.steps == 41
    assert seen == [(-6.0, 6.0, 60)] * traj.steps


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


def _ramp_grid(v_max, n_cells):
    """The density rising linearly across [-v_max, v_max], normalised."""
    weights = np.arange(1.0, n_cells + 1.0)
    return FPGrid(v_min=-v_max, v_max=v_max, n_cells=n_cells,
                  p_values=weights / (weights.sum() * (2.0 * v_max / n_cells)))


# (eta, d_v, v_max, n_cells): the drift eta*v overflows; the bound's 2 d_v
# does; eta*v_max does; dv^2 does, with no drift and with a drift whose own
# term, 1e299, is 1e101 times the diffusion term's true 1.2e198; dv^2
# underflows
_UNSTABLE_STENCILS = {
    "drift-overflows": (1e300, 1.0, 1e10, 8),
    "diffusion-overflows": (1.0, 1e308, 8.0, 8),
    "drift-bound-overflows": (1e308, 1.0, 8.0, 8),
    "bound-infinite": (0.0, 1e-300, 1e200, 8),
    "diffusion-bound-infinite": (1e-300, 1e200, 1e200, 8),
    "bound-underflows": (0.0, 1e300, 1e-160, 8),
}


@pytest.mark.parametrize("eta, d_v, v_max, n_cells", list(_UNSTABLE_STENCILS.values()),
                         ids=list(_UNSTABLE_STENCILS))
def test_a_stencil_that_is_not_finite_is_a_numerical_failure(eta, d_v, v_max, n_cells):
    """A bound that is zero, a term of it that is infinite, or a drift or
    weight that is not finite, is one NumericalFailure naming
    stability_bound and its inputs as plain floats, from stability_bound,
    fp_step and fp_solve alike, with no numpy warning (an error here)."""
    grid = _ramp_grid(v_max, n_cells)
    message = (f"stability_bound: the stencil is not finite at eta={eta!r}, d_v={d_v!r}, "
               f"v_min={-v_max!r}, v_max={v_max!r}, n_cells={n_cells}")
    for run in (lambda: stability_bound(grid, np.float64(eta), d_v),
                lambda: fp_step(grid, eta, d_v, 1e-300),
                lambda: fp_solve(grid, eta, d_v, 1.0, 1e-300)):
        with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
            run()


_COEFFICIENT = st.one_of(st.just(0.0), st.floats(min_value=-300.0, max_value=300.0)
                         .map(lambda e: 10.0**e))


@given(eta=_COEFFICIENT, d_v=_COEFFICIENT, k=st.integers(min_value=-400, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_every_stencil_steps_or_is_a_numerical_failure(eta, d_v, k):
    """Across 600 decades of eta and d_v, zero included, and 1400 octaves
    of the domain [-2^k, 2^k]: stability_bound returns a positive float or
    raises NumericalFailure, and three fp_solve steps at dt = bound return
    a trajectory or raise fp_step's NumericalFailure on the density, never
    warn and never raise a bare Python exception or a ValueError."""
    grid = _ramp_grid(2.0**k, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            bound = stability_bound(grid, eta, d_v)
        except NumericalFailure as exc:
            assert str(exc).startswith("stability_bound: "), exc
            return
        assert isinstance(bound, float) and bound > 0.0
        # with both coefficients zero any dt is stable; three steps of a
        # bound above a third of the largest float would overflow t_final
        dt = bound if bound < np.inf else 1.0
        t_final = 3.0 * dt if dt <= sys.float_info.max / 3.0 else dt
        try:
            traj = fp_solve(grid, eta, d_v, t_final, dt)
        except NumericalFailure as exc:
            assert str(exc).startswith("fp_step: "), exc
            return
    assert traj.final_grid.p_values.min() >= -1e-15


def test_flux_weight_series_branch_is_accurate():
    # both branches around the switch agree with a higher-order reference
    for w in (5e-5, 9.99e-5, 1.01e-4, 2e-4, 1e-3, -1.01e-4, -9.99e-5,
              0.0999, 0.1001, -0.0999, -0.1001):
        reference = 0.5 - w / 12.0 + w**3 / 720.0 - w**5 / 30240.0
        got = float(_cc_delta(np.array([w]))[0])
        assert abs(got - reference) < 1e-11


def test_flux_weight_symmetry_holds_to_1e_14():
    """delta(w) + delta(-w) = 1 to 1e-14 on both sides of the series switch:
    at w = 1.2592499011750515e-4, where the direct form, 1/w - 1/expm1(w)
    with both terms near 1e4, once left 1.8e-12, and on a log grid of w
    over [1e-8, 60]."""
    w = 1.2592499011750515e-4
    assert abs(_cc_delta(np.array([w]))[0] + _cc_delta(np.array([-w]))[0] - 1.0) < 1e-14
    grid = np.logspace(-8.0, np.log10(60.0), 20001)
    assert np.abs(_cc_delta(grid) + _cc_delta(-grid) - 1.0).max() < 1e-14
