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

fp_step is the one step.  Everything it reads that depends only on the
grid and the coefficients (eta, d_v) -- the stability bound, the edge
drift and the Chang-Cooper weights -- is its stencil, computed once per
grid and coefficients and shared read-only; the cell centres are
computed once per grid.  A step then does only the flux arithmetic and
builds the new grid, whose validation checks the geometry's three scalars,
reads the density's minimum and sum and scans it for non-finite entries
only when the sum is not finite.

fp_solve steps and samples like the RK4 propagator (see propagation), so
the quantum and classical series of a comparison share one time grid.  It
keeps each sampled density as it is and reduces them to moments
_MOMENT_BLOCK at a time, by grid_moments' arithmetic over the stacked
block's last axis, so a run holds at most _MOMENT_BLOCK densities besides
its moment series.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import check_finite, check_integer
from .propagation import Sampler, fixed_steps

_CFL_FRACTION = 0.4
# the most sampled densities fp_solve holds and reduces to moments at once
_MOMENT_BLOCK = 256


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
        _check_geometry(self.v_min, self.v_max, self.n_cells)
        p = np.asarray(self.p_values, dtype=float)
        object.__setattr__(self, "p_values", p)
        if p.shape != (self.n_cells,):
            raise ValueError("p_values must have shape (n_cells,)")
        # array methods: fp_step builds a grid every step, and numpy's
        # np.* wrappers cost more per call than the reductions themselves.
        # The minimum is NaN or -inf when such an entry exists, and the sum
        # is then skipped, so it never adds inf to -inf; an inf entry
        # otherwise makes the sum inf.  Only a non-finite sum has the
        # entries scanned: finite entries whose sum overflows pass on to
        # the mass check.  Their sum's overflow warning, raised as an error
        # under warnings-as-errors (or numpy's over="raise"), is that same
        # infinite sum; the try costs nothing when nothing is raised.
        p_min = p.min()
        try:
            total = p.sum() if p_min > -math.inf else math.nan
        except (RuntimeWarning, FloatingPointError):
            total = math.inf
        if not math.isfinite(total) and not np.isfinite(p).all():
            raise ValueError("p_values must be finite")
        if p_min < -1e-15:
            raise ValueError("p_values must be nonnegative (min %.3e)" % p_min)
        mass = total * self.dv
        if abs(mass - 1.0) > 1e-12:
            raise ValueError("density must integrate to 1, got %.16g" % mass)

    @property
    def dv(self):
        return (self.v_max - self.v_min) / self.n_cells

    @property
    def centers(self):
        """The cell midpoints, read-only, shared by every grid of this geometry."""
        return _centers(self.v_min, self.v_max, self.n_cells)


def _check_geometry(v_min, v_max, n_cells):
    """A grid's geometry: -inf < v_min < 0 < v_max < inf and an integer
    n_cells >= 4 (a bool is not one), else a ValueError naming the field."""
    check_finite("v_min", v_min, "negative")
    check_finite("v_max", v_max, "positive")
    check_integer("n_cells", n_cells, 4)


# Both caches are bounded: a run steps one grid with one coefficient pair,
# and a comparison or a test module touches a few.  Their arrays are shared
# between grids, so they are read-only.
@functools.lru_cache(maxsize=16)
def _centers(v_min, v_max, n_cells):
    v = v_min + (np.arange(n_cells) + 0.5) * ((v_max - v_min) / n_cells)
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=16)
def _stencil(v_min, v_max, n_cells, eta, d_v):
    """(bound, dv, drift, delta, 1 - delta) of fp_step for coefficients that
    _check_coefficients accepted: the stability bound, the cell width, eta*v
    at the interior edges, and the edges' Chang-Cooper weights."""
    dv = (v_max - v_min) / n_cells
    bounds = []
    if d_v > 0.0:
        bounds.append(dv * dv / (2.0 * d_v))
    if eta > 0.0:  # FPGrid holds v_min < 0 < v_max
        bounds.append(dv / (eta * max(-v_min, v_max)))
    bound = _CFL_FRACTION * min(bounds) if bounds else np.inf
    drift = eta * (v_min + np.arange(1, n_cells) * dv)
    if d_v > 0.0:
        delta = _cc_delta(drift * dv / d_v)
    else:
        # pure advection: upwind against the characteristic flow -eta*v
        delta = np.where(drift > 0.0, 0.0, np.where(drift < 0.0, 1.0, 0.5))
    keep = 1.0 - delta
    for array in (drift, delta, keep):
        array.flags.writeable = False
    return bound, dv, drift, delta, keep


def gaussian_grid(v_min, v_max, n_cells, mean=0.0, var=1.0):
    """Normalized Gaussian initial condition sampled at cell centers; one
    that underflows at every centre is refused, naming mean and var."""
    # FPGrid's rule, before the centres are computed from the geometry
    _check_geometry(v_min, v_max, n_cells)
    check_finite("mean", mean)
    check_finite("var", var, "positive")
    # an exponent that overflows is -inf, whose exp is the underflow below
    with np.errstate(over="ignore"):
        p = np.exp(-0.5 * (_centers(v_min, v_max, n_cells) - mean) ** 2 / var)
    norm = np.sum(p) * ((v_max - v_min) / n_cells)
    if not norm > 0.0:
        raise ValueError(f"the Gaussian of mean {mean} and var {var} underflows "
                         "to zero at every cell centre")
    p /= norm
    return FPGrid(v_min=v_min, v_max=v_max, n_cells=n_cells, p_values=p)


def maxwell_grid(v_min, v_max, n_cells, eta, d_v):
    """Stationary distribution of the drift-diffusion pair (eta, d_v)."""
    check_finite("eta", eta, "positive")
    check_finite("d_v", d_v, "positive")
    return gaussian_grid(v_min, v_max, n_cells, mean=0.0, var=d_v / eta)


def grid_moments(grid):
    """(mass, mean, variance) of the density by midpoint quadrature."""
    return _moments(grid.centers, grid.dv, grid.p_values)


def _moments(v, dv, p):
    """grid_moments of the densities along p's last axis, on centres v and
    cell width dv.  Each row of a C-contiguous stack is summed as the one
    density alone is, so its moments are the same bit for bit."""
    weights = p * dv
    mass = weights.sum(axis=-1)
    mean = (v * weights).sum(axis=-1) / mass
    var = ((v - mean[..., None]) ** 2 * weights).sum(axis=-1) / mass
    return mass, mean, var


def _check_coefficients(eta, d_v):
    # the chained comparisons refuse NaN as well as inf and negatives.  They
    # and fp_step's dt check are the scalar checks left outside
    # operators.check_finite: every step runs them, and three check_finite
    # calls cost 0.45 us more per step, about 2% of fp_solve at 60 cells
    # (in-process, 1 BLAS thread)
    if not (0.0 <= eta < np.inf and 0.0 <= d_v < np.inf):
        raise ValueError("eta and d_v must be finite and nonnegative")


def stability_bound(grid, eta, d_v):
    """Largest dt that fp_step accepts for this grid and coefficients, which
    must be finite and nonnegative; inf when both are zero."""
    _check_coefficients(eta, d_v)
    return _stencil(grid.v_min, grid.v_max, grid.n_cells, eta, d_v)[0]


def _cc_delta(w):
    # Chang-Cooper weight delta(w) = 1/w - 1/(e^w - 1).  The direct form
    # cancels two terms of size 1/|w|, so it keeps about eps/|w| absolute:
    # below |w| = 0.1 the series through w^7 is used instead, whose first
    # dropped term, w^9/47900160, is under 3e-17 there.
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 0.1
    ws = w[small]
    w2 = ws * ws
    out[small] = 0.5 - ws * (1.0 / 12.0 - w2 * (
        1.0 / 720.0 - w2 * (1.0 / 30240.0 - w2 / 1209600.0)))
    wb = w[~small]
    with np.errstate(over="ignore"):
        grow = np.expm1(wb)
    # above the overflow threshold 1/(e^w - 1) underflows to zero anyway
    inv = np.where(np.isfinite(grow), 1.0 / grow, 0.0)
    out[~small] = 1.0 / wb - inv
    return out


def fp_step(grid, eta, d_v, dt):
    """One explicit conservative update; returns a new grid.

    Rejects non-finite or negative coefficients, a dt that is not positive
    and finite, and a dt above the positivity-preserving stability bound.
    Mass is conserved to roundoff because interior fluxes telescope and
    the boundary fluxes are identically zero.
    """
    _check_coefficients(eta, d_v)
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    bound, dv, drift, delta, keep = _stencil(
        grid.v_min, grid.v_max, grid.n_cells, eta, d_v)
    if dt > bound:
        raise ValueError(
            "dt=%.6g violates the stability bound %.6g" % (dt, bound))
    p = grid.p_values
    flux = drift * (keep * p[1:] + delta * p[:-1])
    if d_v > 0.0:
        flux += d_v * (p[1:] - p[:-1]) / dv
    flux *= dt / dv
    p_new = p.copy()
    p_new[:-1] += flux
    p_new[1:] -= flux
    return FPGrid(v_min=grid.v_min, v_max=grid.v_max,
                  n_cells=grid.n_cells, p_values=p_new)


@dataclass
class FPTrajectory:
    """Moment time series, the final grid and the number of steps taken."""

    times: np.ndarray
    mass: np.ndarray
    mean_v: np.ndarray
    var_v: np.ndarray
    final_grid: FPGrid
    steps: int


def fp_solve(grid, eta, d_v, t_final, dt, sample_stride=1):
    """fp_step on propagation.fixed_steps to t_final, sampling mass, mean and
    variance by propagation's sampling rule with stride sample_stride; the
    moments are grid_moments' bit for bit."""
    check_finite("t_final", t_final, "positive")
    check_finite("dt", dt, "positive")
    check_integer("sample_stride", sample_stride, 1)
    sampler = Sampler(functools.partial(_moments, grid.centers, grid.dv),
                      sample_stride, grid.p_values, block=_MOMENT_BLOCK)
    current = grid
    for t, h in fixed_steps(t_final, dt):
        current = fp_step(current, eta, d_v, h)
        sampler.accept(t, current.p_values)
    times, mass, mean_v, var_v = sampler.columns(t_final, current.p_values)
    return FPTrajectory(times=times, mass=mass, mean_v=mean_v, var_v=var_v,
                        final_grid=current, steps=sampler.accepted)
