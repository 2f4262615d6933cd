"""Time propagation of density matrices with per-step health monitors.

Two integrators are provided: a fixed-step classical Runge-Kutta scheme
(order 4) and an adaptive Dormand-Prince 5(4) pair with PI-free step
control.  Neither integrator renormalizes the trace or projects onto the
positive cone: trace drift, hermiticity drift and negative eigenvalues
are diagnostics of the generator and must stay visible.

The sampling rule, kept by Sampler for both integrators and for
fokker_planck.fp_solve: a sample at t = 0, one after every stride-th
accepted step, and one at the final time if the last step was not sampled.
RK4 and fp_solve also share one step schedule, fixed_steps.  The monitors
are trace, hermiticity drift, minimum eigenvalue, purity, and the first and
second moments of position and momentum.

stationary_state solves L vec(rho) = 0 by a bordered LU solve, banded where
that is cheap and dense otherwise; its docstring states the path rules.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .operators import (
    build_momentum,
    build_position,
    expectation,
    min_eigenvalue,
    purity,
    validate_density_matrix,
    variance,
)

RK4_FIXED = "rk4_fixed"
RK45_ADAPTIVE = "rk45_adaptive"

# Dormand-Prince 5(4) coefficients.  b5 propagates, b4 is the embedded
# error estimator.  The system is autonomous, so the stage times c_i are not
# needed.  The last stage is evaluated at the b5 combination, so it is the
# first stage of the next step (first same as last): generator calls
# dominate a step, and reusing it saves one of seven.
_DP_A = [
    np.array([]),
    np.array([1.0 / 5.0]),
    np.array([3.0 / 40.0, 9.0 / 40.0]),
    np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
    np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
    np.array([9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
              -5103.0 / 18656.0]),
    np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
              11.0 / 84.0]),
]
_DP_B5 = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                   -2187.0 / 6784.0, 11.0 / 84.0, 0.0])
_DP_B4 = np.array([5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
                   -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0])

# tr L[rho] = vec(I)^T L vec(rho) sums d entries of a column of L, so a
# trace-preserving generator leaves round-off of order d * eps * max|L|
# there, about 2e-14 at the largest dim the superoperator guard allows
_TRACE_LEAK_TOL = 1e-10
# stationary_state's floor on rcond and its largest accepted residual
_DEGENERACY_TOL = 1e-8
_RESIDUAL_TOL = 1e-8
# stationary_state's size rule: the banded path is taken when the banded LU,
# about 2 n kl (kl + ku) flops, does at most this share of the dense LU's
# 2 n^3 / 3
_BAND_FLOP_SHARE = 0.25

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0


class NumericalFailure(RuntimeError):
    """Integration or linear algebra failed in a way that has no answer."""


class DegenerateStationaryState(NumericalFailure):
    """The generator has no unique stationary state at working precision."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration request.

    method: RK4_FIXED or RK45_ADAPTIVE.
    t_final: end time, > 0.
    dt: step for the fixed scheme, also the monitor time resolution there.
    dt_init: first trial step for the adaptive scheme.
    rtol, atol: elementwise error weights for the adaptive scheme.
    monitor_stride: the stride of the sampling rule (module docstring).
    """

    method: str = RK4_FIXED
    t_final: float = 1.0
    dt: float = 1e-3
    dt_init: float = 1e-4
    rtol: float = 1e-8
    atol: float = 1e-10
    monitor_stride: int = 1

    def __post_init__(self):
        if self.method not in (RK4_FIXED, RK45_ADAPTIVE):
            raise ValueError("unknown method %r" % (self.method,))
        if not (self.t_final > 0.0 and np.isfinite(self.t_final)):
            raise ValueError("t_final must be positive and finite")
        for name in ("dt", "dt_init", "rtol", "atol"):
            val = getattr(self, name)
            if not (val > 0.0 and np.isfinite(val)):
                raise ValueError("%s must be positive and finite" % name)
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")


@dataclass
class TrajectoryRecord:
    """Monitor time series plus the unmodified final state."""

    times: np.ndarray
    trace: np.ndarray
    herm_drift: np.ndarray
    min_eig: np.ndarray
    purity: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    final_state: np.ndarray
    accepted_steps: int
    rejected_steps: int


def fixed_steps(t_final, dt):
    """(t after the step, h): floor(t_final/dt + 1e-12) steps of dt, then the
    remainder if it exceeds 1e-12*dt; the last step ends exactly at t_final."""
    n_full = int(np.floor(t_final / dt + 1e-12))
    remainder = t_final - n_full * dt
    n_steps = n_full + (remainder > 1e-12 * dt)
    t = 0.0
    for i in range(1, n_steps + 1):
        h = dt if i <= n_full else remainder
        t = t_final if i == n_steps else t + h
        yield t, h


class Sampler:
    """Rows (t, *measure(state)) by the sampling rule; counts accepted steps."""

    def __init__(self, measure, stride, state):
        self.measure = measure
        self.stride = stride
        self.accepted = 0
        self.rows = [(0.0, *measure(state))]

    def accept(self, t, state):
        self.accepted += 1
        if self.accepted % self.stride == 0:
            self.rows.append((t, *self.measure(state)))

    def columns(self, t_final, state):
        """One array per column, time first, after any final sample."""
        if self.accepted % self.stride != 0:
            self.rows.append((t_final, *self.measure(state)))
        return np.array(self.rows, dtype=float).T


def _monitors(cfg):
    """The eight monitors of a state, in TrajectoryRecord's field order."""
    x, p = build_position(cfg), build_momentum(cfg)
    x2, p2 = x @ x, p @ p

    def measure(rho):
        # near-overflow states may push monitors to inf; record that honestly
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.trace(rho).real, np.max(np.abs(rho - rho.conj().T)),
                    min_eigenvalue(rho), purity(rho),
                    expectation(rho, x).real, expectation(rho, p).real,
                    variance(rho, x, x2), variance(rho, p, p2))

    return measure


def _check_finite(rho, t):
    if not np.all(np.isfinite(rho.real)) or not np.all(np.isfinite(rho.imag)):
        raise NumericalFailure("state became non-finite at t=%.6g" % t)


def _rk4_step(apply_fn, rho, dt):
    # overflow here is caught by the finiteness check after the step
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = apply_fn(rho)
        k2 = apply_fn(rho + 0.5 * dt * k1)
        k3 = apply_fn(rho + 0.5 * dt * k2)
        k4 = apply_fn(rho + dt * k3)
        return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _propagate_rk4(rho, apply_fn, icfg, sampler):
    for t, h in fixed_steps(icfg.t_final, icfg.dt):
        rho = _rk4_step(apply_fn, rho, h)
        _check_finite(rho, t)
        sampler.accept(t, rho)
    return rho, 0


def _dp_attempt(apply_fn, rho, k1, dt):
    """One trial step from rho with first stage k1 = apply_fn(rho).

    Returns (rho5, rho4, k7) where k7 = apply_fn(rho5) is the next first stage.
    """
    k = [k1]
    for i in range(1, 6):
        incr = sum(a * ki for a, ki in zip(_DP_A[i], k))
        k.append(apply_fn(rho + dt * incr))
    rho5 = rho + dt * sum(b * ki for b, ki in zip(_DP_B5, k) if b != 0.0)
    k.append(apply_fn(rho5))
    rho4 = rho + dt * sum(b * ki for b, ki in zip(_DP_B4, k) if b != 0.0)
    return rho5, rho4, k[6]


def _propagate_rk45(rho, apply_fn, icfg, sampler):
    t = 0.0
    dt = min(icfg.dt_init, icfg.t_final)
    rejected = 0
    dt_floor = 1e-14 * icfg.t_final
    # rejected attempts leave rho, and so its first stage, unchanged
    k1 = apply_fn(rho)
    while t < icfg.t_final * (1.0 - 1e-15):
        dt = min(dt, icfg.t_final - t)
        if dt < dt_floor:
            raise NumericalFailure(
                "step size underflow at t=%.6g (dt=%.3g)" % (t, dt))
        rho5, rho4, k7 = _dp_attempt(apply_fn, rho, k1, dt)
        scale = icfg.atol + icfg.rtol * np.maximum(np.abs(rho), np.abs(rho5))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            err = np.sqrt(np.mean(np.abs((rho5 - rho4) / scale) ** 2))
        if not np.isfinite(err):
            # divergent attempt: shrink hard and retry
            rejected += 1
            dt = dt * _FACTOR_MIN
            continue
        if err <= 1.0:
            t += dt
            if t >= icfg.t_final * (1.0 - 1e-15):
                t = icfg.t_final
            rho, k1 = rho5, k7
            _check_finite(rho, t)
            sampler.accept(t, rho)
        else:
            rejected += 1
        if err == 0.0:
            factor = _FACTOR_MAX
        else:
            factor = min(_FACTOR_MAX,
                         max(_FACTOR_MIN, _SAFETY * err ** (-0.2)))
        dt = dt * factor
    # the loop ends on an accepted step, so the sampler sees the last one
    return rho, rejected


def propagate(rho0, liouvillian, icfg):
    """Integrate d(rho)/dt = L[rho] from a validated initial state.

    Returns a TrajectoryRecord.  The final state is returned exactly as
    the integrator produced it; any trace or positivity defect is left
    for the caller to inspect.
    """
    dim = liouvillian.cfg.dim
    if np.shape(rho0) != (dim, dim):
        raise ValueError("initial state has shape %s, but the generator acts "
                         "on dim %d" % (np.shape(rho0), dim))
    validate_density_matrix(rho0)
    rho = np.array(rho0, dtype=complex)
    sampler = Sampler(_monitors(liouvillian.cfg), icfg.monitor_stride, rho)
    integrate = _propagate_rk4 if icfg.method == RK4_FIXED else _propagate_rk45
    rho, rejected = integrate(rho, liouvillian.apply, icfg, sampler)
    return TrajectoryRecord(*sampler.columns(icfg.t_final, rho), final_state=rho,
                            accepted_steps=sampler.accepted, rejected_steps=rejected)


def positivity_breach_time(record, threshold=-1e-10):
    """First sampled time where min_eig dips below threshold, else None."""
    if threshold >= 0.0:
        raise ValueError("threshold must be negative")
    idx = np.nonzero(record.min_eig < threshold)[0]
    if idx.size == 0:
        return None
    return float(record.times[idx[0]])


def stationary_state(l_matrix):
    """Unique trace-one Hermitian kernel element of a matrixified generator.

    l_matrix is L acting on Fortran-order vec(rho), as superoperator_matrix
    builds it.  The solve is a bordered LU ("direct" steady state): one row
    of L, the one that gives d(rho_00)/dt, is replaced by a border row and
    B vec(rho) = e_0 is LU-solved after exact power-of-two row and column
    equilibration.  For a trace-preserving L, vec(I)^T is a left null
    vector, so the replaced row is minus the sum of the other diagonal rows
    and no equation is lost.  The Hermitian part of the solution, divided
    by its trace, is the state.

    The trace-row check comes first: max|vec(I)^T L| must stay within
    1e-10 * max|L|.  A generator that fails it is not trace-preserving and
    has no trace-one state to find, and the solve raises
    DegenerateStationaryState, as it does for a zero L.

    Banded path.  The band kl, ku is read from the nonzero pattern of L
    below row 0.  When the banded LU, about 2 n kl (kl + ku) flops, does at
    most a quarter of the dense LU's 2 n^3 / 3, the border row is e_0^T
    (rho_00 = 1; the trace row would span the whole width and break the
    band), and LAPACK gbtrf, gbcon and gbtrs factor, test and solve B in
    band storage.  Every bilinear-family generator (x and p tridiagonal,
    kl = ku = 2d) takes it from dim 10 up; collision generators are dense
    and never do.  By Sherman-Morrison the e_0 bordering gives the trace
    bordering's state whenever both are nonsingular, but it is singular
    also when the state has rho_00 = 0.  So the banded path only hands
    over: at a zero row or column, an exactly zero pivot, a reciprocal
    1-norm condition number of the equilibrated B below 1e-8, or a
    traceless candidate, the dense path runs and its verdict stands.

    Dense path.  The border row is the trace functional vec(I)^T, and
    getrf and gecon factor and test B.  B is nonsingular exactly when the
    kernel of L is one-dimensional and its element has nonzero trace.  The
    reciprocal 1-norm condition number of the equilibrated B must reach
    1e-8; below it, or at an exactly zero pivot, the kernel counts as more
    than one-dimensional (or traceless) at working precision and
    DegenerateStationaryState is raised.  So 1e-8 bounds the conditioning
    of the e_0-bordered band on the banded path, and that of the
    trace-bordered matrix, the one that decides, on the dense path.

    NumericalFailure is raised for non-finite entries, a traceless
    candidate from the dense path, or a failed residual check
    max|L vec(rho)| < 1e-8 on the state of either path.
    """
    if hasattr(l_matrix, "apply"):
        raise TypeError("expected the matrixified generator; pass "
                        "superoperator_matrix(liouvillian), not the "
                        "generator itself")
    l_matrix = np.asarray(l_matrix, dtype=complex)
    n = l_matrix.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n or l_matrix.shape != (n, n):
        raise ValueError("expected a square matrix acting on vectorized states")
    magnitude = np.abs(l_matrix)
    scale = magnitude.max()
    if not np.isfinite(scale):
        raise NumericalFailure("generator matrix has non-finite entries")
    if scale == 0.0:
        raise DegenerateStationaryState("generator is identically zero")
    diagonal = np.arange(d) * (d + 1)  # positions of rho_ii in vec(rho)
    leak = np.abs(l_matrix[diagonal].sum(axis=0)).max()
    if leak > _TRACE_LEAK_TOL * scale:
        raise DegenerateStationaryState(
            "generator is not trace-preserving: max|vec(I)^T L| = %.3e "
            "exceeds %.1e * max|L|, so there is no trace-one kernel "
            "element to border for" % (leak, _TRACE_LEAK_TOL))
    rho = _banded_stationary(l_matrix, magnitude)
    if rho is None:
        rho = _dense_stationary(l_matrix)
    residual = np.max(np.abs(l_matrix @ rho.flatten(order="F")))
    if residual > _RESIDUAL_TOL:
        raise NumericalFailure(
            "stationary residual %.3e exceeds %.1e" % (residual, _RESIDUAL_TOL))
    return rho


def _unit_trace(vec):
    """The Hermitian part of vec as a matrix, scaled to unit trace; None if
    its trace is below 1e-10."""
    d = int(round(np.sqrt(vec.size)))
    rho = vec.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-10:
        return None
    return rho / tr


def _power_of_two_scale(maxima):
    """Exact powers of two that bring each positive maximum into [0.5, 1)."""
    return np.ldexp(1.0, -np.frexp(maxima)[1])


def _banded_stationary(l_matrix, magnitude):
    """stationary_state's banded path on L and |L|: the unit-trace state, or
    None when the band is too wide or the solve hands over."""
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
    if 3 * kl * (kl + ku) > _BAND_FLOP_SHARE * n * n:
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
    row_scale = _power_of_two_scale(row_max)
    band *= sliding_window_view(np.pad(row_scale, (ku, kl)), n)
    band_magnitude = np.abs(band)
    col_max = band_magnitude.max(axis=0)
    if not col_max.all():  # a zero column
        return None
    col_scale = _power_of_two_scale(col_max)
    band *= col_scale
    anorm = (band_magnitude * col_scale).sum(axis=0).max()
    gbtrf, gbcon, gbtrs = scipy.linalg.get_lapack_funcs(
        ("gbtrf", "gbcon", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
    if info != 0:  # info > 0: an exactly zero pivot
        return None
    rcond, _ = gbcon(kl, ku, lu, piv, anorm, norm="1")
    if not rcond >= _DEGENERACY_TOL:  # NaN too: only a sound solve answers
        return None
    rhs = np.zeros((n, 1), dtype=complex)
    rhs[0] = row_scale[0]
    return _unit_trace(col_scale * gbtrs(lu, kl, ku, rhs, piv)[0][:, 0])


def _dense_stationary(l_matrix):
    """stationary_state's dense path: the unit-trace state, or an error."""
    n = l_matrix.shape[0]
    d = int(round(np.sqrt(n)))
    bordered = np.array(l_matrix, order="F")
    bordered[0] = 0.0
    bordered[0, np.arange(d) * (d + 1)] = 1.0
    geequb, getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(
        ("geequb", "getrf", "gecon", "getrs"), (bordered,))
    # exact power-of-two row and column scalings bring the trace row and
    # slowly relaxing rows to the scale of the rest
    row_scale, col_scale, _, _, _, info = geequb(bordered)
    rcond = 0.0
    if info == 0:  # info > 0: an exactly zero row or column
        bordered *= row_scale[:, None]
        bordered *= col_scale
        anorm = np.abs(bordered).sum(axis=0).max()
        lu, piv, info = getrf(bordered, overwrite_a=True)
        if info == 0:  # info > 0: an exactly zero pivot
            rcond = gecon(lu, anorm, norm="1")[0]
    if rcond < _DEGENERACY_TOL:
        raise DegenerateStationaryState(
            "bordered generator is singular at working precision: "
            "reciprocal condition number %.3e below %.1e, so the kernel is "
            "not one-dimensional or its element is traceless"
            % (rcond, _DEGENERACY_TOL))
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = row_scale[0]
    rho = _unit_trace(col_scale * getrs(lu, piv, rhs)[0])
    if rho is None:
        raise NumericalFailure("stationary candidate is traceless")
    return rho
