"""Classical velocity-space Fokker-Planck solver.

Finite-volume discretization of

    d p(v,t)/dt = d/dv [ eta * v * p ] + D_v * d^2 p / dv^2

on a symmetric-ish interval with zero-flux (reflecting) boundaries.  The
drift term uses Chang-Cooper edge weighting, which makes the sampled
Maxwell distribution an exact stationary state of the scheme and keeps
the update positivity-preserving under the stability bound enforced by
fp_step.  Time stepping is explicit Euler; the bound ties dt to dv**2,
so spatial and temporal errors refine together at second order in dv.

The discrete stationary state is the continuum Gaussian evaluated at
cell centers, so stationary moments carry no dv**2 error (only boundary
truncation, < 1e-8 relative for a domain of 6 standard deviations).
Convergence studies therefore measure transient moments against the
closed-form moment solutions, where the scheme has a genuine second
order error.

fp_solve steps and samples like the RK4 propagator (see propagation), so
the quantum and classical series of a comparison share one time grid.
"""

from dataclasses import dataclass

import numpy as np

from .propagation import Sampler, check_stride, fixed_steps

_CFL_FRACTION = 0.4


@dataclass(frozen=True, eq=False)
class FPGrid:
    """Cell-centered velocity grid carrying a probability density.

    p_values lives on the n_cells midpoints of a uniform partition of
    [v_min, v_max] and integrates to one (midpoint rule).
    """

    v_min: float
    v_max: float
    n_cells: int
    p_values: np.ndarray

    def __post_init__(self):
        if not self.v_min < 0.0 < self.v_max:
            raise ValueError("need v_min < 0 < v_max")
        if self.n_cells < 4:
            raise ValueError("n_cells must be at least 4")
        p = np.asarray(self.p_values, dtype=float)
        object.__setattr__(self, "p_values", p)
        if p.shape != (self.n_cells,):
            raise ValueError("p_values must have shape (n_cells,)")
        if not np.all(np.isfinite(p)):
            raise ValueError("p_values must be finite")
        if np.min(p) < -1e-15:
            raise ValueError("p_values must be nonnegative (min %.3e)"
                             % np.min(p))
        mass = np.sum(p) * self.dv
        if abs(mass - 1.0) > 1e-12:
            raise ValueError("density must integrate to 1, got %.16g" % mass)

    @property
    def dv(self):
        return (self.v_max - self.v_min) / self.n_cells

    @property
    def centers(self):
        return self.v_min + (np.arange(self.n_cells) + 0.5) * self.dv

    @property
    def interior_edges(self):
        return self.v_min + np.arange(1, self.n_cells) * self.dv


def gaussian_grid(v_min, v_max, n_cells, mean=0.0, var=1.0):
    """Normalized Gaussian initial condition sampled at cell centers."""
    if var <= 0.0:
        raise ValueError("var must be positive")
    dv = (v_max - v_min) / n_cells
    v = v_min + (np.arange(n_cells) + 0.5) * dv
    p = np.exp(-0.5 * (v - mean) ** 2 / var)
    p /= np.sum(p) * dv
    return FPGrid(v_min=v_min, v_max=v_max, n_cells=n_cells, p_values=p)


def maxwell_grid(v_min, v_max, n_cells, eta, d_v):
    """Stationary distribution of the drift-diffusion pair (eta, d_v)."""
    if eta <= 0.0 or d_v <= 0.0:
        raise ValueError("maxwell_grid needs eta > 0 and d_v > 0")
    return gaussian_grid(v_min, v_max, n_cells, mean=0.0, var=d_v / eta)


def grid_moments(grid):
    """(mass, mean, variance) of the density by midpoint quadrature."""
    v = grid.centers
    weights = grid.p_values * grid.dv
    mass = np.sum(weights)
    mean = np.sum(v * weights) / mass
    var = np.sum((v - mean) ** 2 * weights) / mass
    return mass, mean, var


def stability_bound(grid, eta, d_v):
    """Largest dt that fp_step accepts for this grid and coefficients, which
    must be nonnegative; inf when both are zero."""
    if eta < 0.0 or d_v < 0.0:
        raise ValueError("eta and d_v must be nonnegative")
    dv = grid.dv
    bounds = []
    if d_v > 0.0:
        bounds.append(dv * dv / (2.0 * d_v))
    if eta > 0.0:  # FPGrid holds v_min < 0 < v_max
        bounds.append(dv / (eta * max(-grid.v_min, grid.v_max)))
    if not bounds:
        return np.inf
    return _CFL_FRACTION * min(bounds)


def _cc_delta(w):
    # Chang-Cooper weight delta(w) = 1/w - 1/(e^w - 1), evaluated with a
    # series below |w| = 1e-4 where the direct form loses digits.
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-4
    ws = w[small]
    out[small] = 0.5 - ws / 12.0 + ws ** 3 / 720.0
    wb = w[~small]
    with np.errstate(over="ignore"):
        grow = np.expm1(wb)
    # above the overflow threshold 1/(e^w - 1) underflows to zero anyway
    inv = np.where(np.isfinite(grow), 1.0 / grow, 0.0)
    out[~small] = 1.0 / wb - inv
    return out


def _edge_fluxes(grid, eta, d_v):
    p = grid.p_values
    dv = grid.dv
    v_e = grid.interior_edges
    drift = eta * v_e
    if d_v > 0.0:
        delta = _cc_delta(drift * dv / d_v)
    else:
        # pure advection: upwind against the characteristic flow -eta*v
        delta = np.where(drift > 0.0, 0.0, np.where(drift < 0.0, 1.0, 0.5))
    p_edge = (1.0 - delta) * p[1:] + delta * p[:-1]
    flux = drift * p_edge
    if d_v > 0.0:
        flux = flux + d_v * (p[1:] - p[:-1]) / dv
    return flux


def fp_step(grid, eta, d_v, dt):
    """One explicit conservative update; returns a new grid.

    Rejects dt above the positivity-preserving stability bound, and, through
    stability_bound, negative coefficients.  Mass is conserved to roundoff
    because interior fluxes telescope and the boundary fluxes are
    identically zero.
    """
    bound = stability_bound(grid, eta, d_v)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > bound:
        raise ValueError(
            "dt=%.6g violates the stability bound %.6g" % (dt, bound))
    flux = _edge_fluxes(grid, eta, d_v)
    p_new = grid.p_values.copy()
    scale = dt / grid.dv
    p_new[:-1] += scale * flux
    p_new[1:] -= scale * flux
    return FPGrid(v_min=grid.v_min, v_max=grid.v_max,
                  n_cells=grid.n_cells, p_values=p_new)


@dataclass
class FPTrajectory:
    """Moment time series plus the final grid."""

    times: np.ndarray
    mass: np.ndarray
    mean_v: np.ndarray
    var_v: np.ndarray
    final_grid: FPGrid


def fp_solve(grid, eta, d_v, t_final, dt, sample_stride=1):
    """fp_step on propagation.fixed_steps to t_final, sampling mass, mean and
    variance by propagation's sampling rule with stride sample_stride."""
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    check_stride("sample_stride", sample_stride)
    sampler = Sampler(grid_moments, sample_stride, grid)
    current = grid
    for t, h in fixed_steps(t_final, dt):
        current = fp_step(current, eta, d_v, h)
        sampler.accept(t, current)
    times, mass, mean_v, var_v = sampler.columns(t_final, current)
    return FPTrajectory(times=times, mass=mass, mean_v=mean_v, var_v=var_v,
                        final_grid=current)
