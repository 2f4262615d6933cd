"""Time propagation of density matrices with per-step health monitors.

Two integrators are provided: a fixed-step classical Runge-Kutta scheme
(order 4) and an adaptive Dormand-Prince 5(4) pair with PI-free step
control.  Neither integrator renormalizes the trace or projects onto the
positive cone: trace drift, hermiticity drift and negative eigenvalues
are diagnostics of the generator and must stay visible.

One floating-point policy holds for a whole integration: propagate sets
numpy's error state once, around the first sample, the integrator and the
final record, to ignore overflow, invalid operations and division by zero,
so numpy never warns inside an integration.  Two checks alone classify
divergence, each by raising NumericalFailure: RK4 tests each new state for
finiteness, and the adaptive scheme rejects an attempt whose error norm is
not finite and shrinks its step until the step passes the floor of
1e-14 t_final.  A finite state near overflow may still drive a monitor to
inf, and the record keeps that value.

The sampling rule, kept by Sampler for both integrators and for
fokker_planck.fp_solve: a sample at t = 0, one after every stride-th
accepted step, and one at the final time if the last step was not sampled.
The integrators measure each sample as it is taken; fp_solve keeps its
sampled densities and reduces them in blocks.  RK4 and fp_solve also share
one step schedule, fixed_steps, which takes at least one step.  The
monitors are trace, hermiticity drift, minimum eigenvalue, purity, and the
first and second moments of position and momentum.

The five traces tr(rho A) for A in (I, x, p, x^2, p^2) come from one small
product.  In the number basis I is diagonal, x and p are tridiagonal with
a zero diagonal and x^2, p^2 are nonzero only on offsets 0 and +-2, so
tr(rho A) = sum_ij rho_ij A_ji reads rho only on offsets 0, +-1 and +-2:
the about 5d entries of rho there are gathered once and multiplied by the
stacked, transposed A at the same positions.  The variances are the second
moments minus the squared means.  Purity is one contraction of rho with
itself, and the minimum eigenvalue is operators.min_eigenvalue's.

What is integrated.  Every generator is integrated as one flat vector over
its live entries, in one layout for both integrators.  A Liouvillian (every
library generator) steps its sector order (liouvillians.sector_order: the
entries of row-major rho with i + j even, then the odd ones), each stage
one CSR mat-vec, Liouvillian.matvec.  The live-sector rule: the vector is
the even sector alone when L maps that sector into itself
(Liouvillian.closed_length: no entry of L couples an even entry to an odd
one, and every entry is finite) and every odd entry of rho0 is exactly
zero; otherwise it is all d^2 entries.  Every library generator with a
free or harmonic Hamiltonian keeps the parity of i + j: the bilinear family
by its odd jumps, the collision generator by its even and odd jump halves
(liouvillians).  So squeezed vacua, thermal and number states take the even
sector alone, about half the entries; coherent states take the whole
vector.  The even sector holds the diagonal, so it is always live.  Any
other object with cfg and apply, such as a proxy that forwards only apply,
steps all d^2 entries in row-major order, each stage one call of its apply
on a (d, d) view of the vector.

Why the bits are unchanged.  Each row of the sector-ordered CSR keeps its
entries in row-major order, so each entry of L[rho] is summed as the
row-major mat-vec sums it.  Off the even sector the full-state integration
only ever holds exact zeros: L's rows there read odd entries alone, and a
finite entry times zero is zero.  The stage arithmetic is elementwise, so
it gives every live entry the same bits in either layout.  The monitors,
the final state and the adaptive error norm, the one reduction over
entries, read the state scattered back into its row-major (d, d) layout
with zeros off the live entries, so every sample, every step size and
the final state are the full-state integration's bit for bit; the sample
at t = 0 reads rho0 itself.

Both integrators form each stage input and each combination of stages by
in-place ufuncs in arrays allocated once per step, one of which becomes
the new state, with the operations of the plain array expressions in
their order: the states are those of the expressions bit for bit, up to
the sign of a zero.  The adaptive error norm works in three real buffers
kept for the whole integration, and |rho| carries over from the accepted
attempt.  Nothing is written into an array the generator returned or into
an accepted state.  The monitors are built once per basis.

stationary_state solves L vec(rho) = 0 by a bordered LU solve, banded where
that is cheap and dense otherwise; its docstring states the path rules.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .liouvillians import Liouvillian, sector_order
from .operators import (
    NumericalFailure,
    build_momentum,
    build_position,
    check_finite,
    check_integer,
    float_policy,
    min_eigenvalue,
    purity,
    validate_density_matrix,
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
        for name in ("t_final", "dt", "dt_init", "rtol", "atol"):
            check_finite(name, getattr(self, name), "positive")
        check_integer("monitor_stride", self.monitor_stride, 1)


@dataclass
class TrajectoryRecord:
    """Monitor time series plus the unmodified final state and run counts.

    generator_calls counts every evaluation of the generator: 4 per RK4
    step, and 1 + 6 per adaptive attempt, accepted or rejected, after the
    first stage evaluated once before the first attempt.
    """

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
    generator_calls: int


def fixed_steps(t_final, dt):
    """(t after the step, h): floor(t_final/dt + 1e-12) steps of dt, then the
    remainder if it exceeds 1e-12*dt, or one step of t_final when that leaves
    no step at all; the last step ends exactly at t_final."""
    n_full = int(np.floor(t_final / dt + 1e-12))
    remainder = t_final - n_full * dt
    # with no full step the remainder is t_final itself
    n_steps = max(n_full + (remainder > 1e-12 * dt), 1)
    t = 0.0
    for i in range(1, n_steps + 1):
        h = dt if i <= n_full else remainder
        t = t_final if i == n_steps else t + h
        yield t, h


class Sampler:
    """Samples (t, *values) by the sampling rule; counts accepted steps.

    Without block, measure(state) gives one sample's values as the sample is
    taken.  With block, the sampled states are kept as they are and measure
    reduces a stack of them, one state per row, to one array per value,
    block states at a time: at most block states are held.
    """

    def __init__(self, measure, stride, state, block=None):
        self.measure = measure
        self.stride = stride
        self.block = block
        self.accepted = 0
        # the row (t, *values) of each sample, or with block the columns
        # (t, *values) of each reduced block and the (t, state) not yet reduced
        self.samples = []
        self.pending = []
        self._take(0.0, state)

    def _take(self, t, state):
        if self.block is None:
            self.samples.append((t, *self.measure(state)))
            return
        self.pending.append((t, state))
        if len(self.pending) == self.block:
            self._reduce()

    def _reduce(self):
        if self.pending:
            times, states = zip(*self.pending)
            self.samples.append(np.vstack([times, *self.measure(np.stack(states))]))
            self.pending = []

    def accept(self, t, state):
        self.accepted += 1
        if self.accepted % self.stride == 0:
            self._take(t, state)

    def columns(self, t_final, state):
        """One array per column, time first, after any final sample."""
        if self.accepted % self.stride != 0:
            self._take(t_final, state)
        if self.block is None:
            return np.array(self.samples, dtype=float).T
        self._reduce()
        return np.concatenate(self.samples, axis=1)


@functools.lru_cache(maxsize=16)
def _monitors(cfg):
    """The eight monitors of a state, in TrajectoryRecord's field order; the
    moments by one band contraction (module docstring).  Built once per
    basis; its arrays are read-only."""
    x, p = build_position(cfg), build_momentum(cfg)
    ops = np.stack([np.eye(cfg.dim), x, p, x @ x, p @ p])
    # rho_ij pairs with A_ji: the band is the transposed union pattern
    cols, rows = np.nonzero(np.any(ops != 0.0, axis=0))
    band = rows * cfg.dim + cols  # positions in row-major rho
    weights = ops[:, cols, rows]
    band.flags.writeable = False
    weights.flags.writeable = False

    def measure(rho):
        tr, mean_x, mean_p, x2, p2 = (weights @ rho.take(band)).real
        return (tr, np.max(np.abs(rho - rho.conj().T)),
                min_eigenvalue(rho), purity(rho), mean_x, mean_p,
                x2 - mean_x**2, p2 - mean_p**2)

    return measure


def _check_finite(rho, t):
    if not np.isfinite(rho).all():
        raise NumericalFailure("state became non-finite at t=%.6g" % t)


def _rk4_step(apply_fn, rho, dt):
    k1 = apply_fn(rho)
    stage = np.multiply(0.5 * dt, k1)
    k2 = apply_fn(np.add(rho, stage, out=stage))
    k3 = apply_fn(np.add(rho, np.multiply(0.5 * dt, k2, out=stage), out=stage))
    k4 = apply_fn(np.add(rho, np.multiply(dt, k3, out=stage), out=stage))
    # rho + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4); out is the new state
    out = np.multiply(2.0, k2)
    np.add(k1, out, out=out)
    np.add(out, np.multiply(2.0, k3, out=stage), out=out)
    np.add(out, k4, out=out)
    np.multiply(dt / 6.0, out, out=out)
    return np.add(rho, out, out=out)


def _propagate_rk4(rho, apply_fn, icfg, sampler):
    for t, h in fixed_steps(icfg.t_final, icfg.dt):
        rho = _rk4_step(apply_fn, rho, h)
        _check_finite(rho, t)
        sampler.accept(t, rho)
    return rho, 0


def _dp_attempt(apply_fn, rho, k1, dt):
    """One trial step from rho with first stage k1 = apply_fn(rho).

    Returns (rho5, rho4, k7) where k7 = apply_fn(rho5) is the next first
    stage.  rho4 is scratch the caller may overwrite.
    """
    stage, tmp = np.empty_like(rho), np.empty_like(rho)
    k = [k1]
    for i in range(1, 6):
        k.append(apply_fn(_dp_combine(stage, rho, dt, _DP_A[i], k, tmp)))
    rho5 = _dp_combine(np.empty_like(rho), rho, dt, _DP_B5, k, tmp)
    k.append(apply_fn(rho5))
    return rho5, _dp_combine(stage, rho, dt, _DP_B4, k, tmp), k[6]


def _dp_combine(out, rho, dt, coeffs, k, tmp):
    """out = rho + dt * sum(c * ki for c, ki in zip(coeffs, k) if c != 0),
    summed left to right as that expression sums, with each c * ki in tmp."""
    terms = [(c, ki) for c, ki in zip(coeffs, k) if c != 0.0]
    np.multiply(*terms[0], out=out)
    for c, ki in terms[1:]:
        np.add(out, np.multiply(c, ki, out=tmp), out=out)
    np.multiply(dt, out, out=out)
    return np.add(rho, out, out=out)


def _propagate_rk45(rho, apply_fn, icfg, sampler, spread):
    t = 0.0
    dt = min(icfg.dt_init, icfg.t_final)
    rejected = 0
    dt_floor = 1e-14 * icfg.t_final
    # rejected attempts leave rho, and so its first stage and |rho|, unchanged
    k1 = apply_fn(rho)
    abs_rho = np.abs(rho)
    abs_rho5, scale = np.empty_like(abs_rho), np.empty_like(abs_rho)
    while t < icfg.t_final * (1.0 - 1e-15):
        dt = min(dt, icfg.t_final - t)
        if dt < dt_floor:
            raise NumericalFailure(
                "step size underflow at t=%.6g (dt=%.3g)" % (t, dt))
        rho5, rho4, k7 = _dp_attempt(apply_fn, rho, k1, dt)
        # atol + rtol * max(|rho|, |rho5|), then the RMS of
        # |(rho5 - rho4) / scale|, formed in scale and rho4 and summed over
        # the row-major d x d layout
        np.maximum(abs_rho, np.abs(rho5, out=abs_rho5), out=scale)
        np.multiply(icfg.rtol, scale, out=scale)
        np.add(icfg.atol, scale, out=scale)
        np.subtract(rho5, rho4, out=rho4)
        np.divide(rho4, scale, out=rho4)
        np.square(np.abs(rho4, out=scale), out=scale)
        err = np.sqrt(np.mean(spread(scale)))
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
            abs_rho, abs_rho5 = abs_rho5, abs_rho
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
    for the caller to inspect.  Every generator is integrated as one flat
    vector over its live entries (module docstring).  A Liouvillian's is
    its sector-ordered vector, the leading closed block alone when rho0 is
    zero outside it.  Any other generator, an object with cfg and apply,
    steps all d^2 entries in row-major order, each stage one call of apply
    on a (d, d) view of the vector; apply must return a new array and keep
    no reference to its argument, whose buffer the integrator reuses for
    the next stage.  A diverging run raises NumericalFailure and never a
    numpy warning (module docstring).
    """
    dim = liouvillian.cfg.dim
    if np.shape(rho0) != (dim, dim):
        raise ValueError("initial state has shape %s, but the generator acts "
                         "on dim %d" % (np.shape(rho0), dim))
    validate_density_matrix(rho0)
    rho = np.array(rho0, dtype=complex)
    if isinstance(liouvillian, Liouvillian):
        order, _, _ = sector_order(dim)
        closed = liouvillian.closed_length
        if rho.take(order[closed:]).any():
            closed = order.size
        live, step_fn = order[:closed], liouvillian.matvec
    else:
        live = np.arange(dim * dim)

        def step_fn(s):
            return liouvillian.apply(s.reshape(dim, dim)).reshape(-1)

    state = rho.take(live)

    def spread(s):
        """The state vector s scattered into zeros in the row-major (d, d)
        layout."""
        full = np.zeros(dim * dim, dtype=s.dtype)
        full[live] = s
        return full.reshape(dim, dim)

    monitors = _monitors(liouvillian.cfg)
    calls = 0

    def apply_fn(s):
        nonlocal calls
        calls += 1
        return step_fn(s)

    # the one floating-point policy of an integration (module docstring)
    with float_policy():
        # the first sample reads rho0 itself, signed zeros and all
        sampler = Sampler(lambda s: monitors(s if s.ndim == 2 else spread(s)),
                          icfg.monitor_stride, rho)
        if icfg.method == RK4_FIXED:
            state, rejected = _propagate_rk4(state, apply_fn, icfg, sampler)
        else:
            state, rejected = _propagate_rk45(state, apply_fn, icfg, sampler, spread)
        return TrajectoryRecord(*sampler.columns(icfg.t_final, state),
                                final_state=spread(state), accepted_steps=sampler.accepted,
                                rejected_steps=rejected, generator_calls=calls)


def positivity_breach_time(record, threshold=-1e-10):
    """First sampled time where min_eig dips below threshold, which must be
    negative and finite, else None."""
    check_finite("threshold", threshold, "negative")
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

    L is read in one scan for the (row, column, value) triplets of its
    nonzero entries; a NaN or infinite entry counts as nonzero and -0.0 as
    zero.  max|L| and its finiteness, the band, the equilibration, the band
    storage and the banded path's residual come from the triplets.  The
    band only widens as rows are read, and one row shows a dense L's width:
    when the last row of the checkerboard order (below) alone makes the
    band too wide, L is not scanned, and max|L| and the residual are taken
    over all of L.  max|L| is checked first, for finiteness and for zero.
    Then the trace row: max|vec(I)^T L|, a sum of d rows of L, must stay
    within 1e-10 * max|L|.  A generator that fails it is not
    trace-preserving and has no trace-one state to find, and the solve
    raises DegenerateStationaryState, as it does for a zero L.

    Banded path.  vec(rho) is taken in checkerboard order: the entries with
    i + j even first, then those with i + j odd, each set in Fortran order,
    so rho_00 stays first.  It is liouvillians.sector_order's permutation,
    as i + j is symmetric.  Every bilinear-family generator keeps the parity
    of i + j (K moves i or j by 0 or +-2, a jump sandwich moves both by
    +-1), so in this order L is two diagonal blocks, and a move of j by 2
    is one of d places: the band read from the nonzero pattern below row 0
    is kl = ku = d, half the 2d of the Fortran order.  When the banded LU,
    about 2 n kl (kl + ku) flops, does at most a quarter of the dense LU's
    2 n^3 / 3, the border row is e_0^T (rho_00 = 1; the trace row would
    span the whole width and break the band), and LAPACK gbtrf, gbcon and
    gbtrs factor, test and solve the whole bordered B, both blocks at once,
    in band storage.  Every bilinear-family generator takes it from dim 5
    up; collision generators, whose dense jumps fill each sector, and any
    generator that mixes parities, read a wide band and never do.  By
    Sherman-Morrison the e_0 bordering gives the trace bordering's state
    whenever both are nonsingular, but it is singular also when the state
    has rho_00 = 0.  So the banded path only
    hands over: at a zero row or column, an exactly zero pivot, a
    reciprocal 1-norm condition number of the equilibrated B below 1e-8, or
    a traceless candidate, the dense path runs and its verdict stands.

    Dense path.  The border row is the trace functional vec(I)^T.  B is
    nonsingular exactly when the kernel of L is one-dimensional and its
    element has nonzero trace.  When no entry of L couples an i + j even
    entry to an odd one (exact zeros, -0.0 included; every library
    generator with a free or harmonic Hamiltonian), B is block-diagonal
    over the two sectors: the trace-bordered even block, which holds
    rho_00 and the diagonal, and the odd block, L's own.  Each block is
    gathered from L directly, equilibrated by geequb (a block's scalings
    are the whole matrix's, as its rows and columns hold no other
    nonzero), factored by getrf and tested by gecon; a matrix that
    couples the sectors is one block, all of B.  Both blocks are tested:
    the reciprocal 1-norm condition number of the equilibrated B,
    1 / (max_b ||B_b||_1 max_b ||B_b^-1||_1), must reach 1e-8; below it,
    or at an exactly zero row, column or pivot of any block, the kernel
    counts as more than one-dimensional (or traceless) at working precision
    and DegenerateStationaryState is raised.  The right-hand side lies in
    the first block, so getrs solves it alone; with two blocks, the odd
    entries of the state are zero.  So 1e-8 bounds the conditioning of the e_0-bordered
    band on the banded path, and that of the trace-bordered matrix, the
    one that decides, on the dense path.

    NumericalFailure is raised for non-finite entries, a traceless
    candidate from the dense path, or a failed residual check
    max|L vec(rho)| < 1e-8 on the state of either path.
    """
    if hasattr(l_matrix, "apply"):
        raise TypeError("expected the matrixified generator; pass "
                        "superoperator_matrix(liouvillian), not the "
                        "generator itself")
    l_matrix = np.ascontiguousarray(l_matrix, dtype=complex)
    n = l_matrix.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n or l_matrix.shape != (n, n):
        raise ValueError("expected a square matrix acting on vectorized states")
    triplets = _nonzeros(l_matrix, d)
    # the banded path reads L's nonzero entries, the dense path all of them
    values = l_matrix.ravel() if triplets is None else triplets[2]
    magnitude = np.abs(values)
    scale = magnitude.max(initial=0.0)
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
    rho = None if triplets is None else _banded_stationary(d, *triplets, magnitude)
    if rho is None:
        rho = _dense_stationary(l_matrix)
        product = l_matrix @ rho.flatten(order="F")
    else:
        rows, cols, _ = triplets
        terms = values * rho.flatten(order="F").take(cols)
        product = np.bincount(rows, terms.real, n) + 1j * np.bincount(rows, terms.imag, n)
    residual = np.abs(product).max()
    if residual > _RESIDUAL_TOL:
        raise NumericalFailure(
            "stationary residual %.3e exceeds %.1e" % (residual, _RESIDUAL_TOL))
    return rho


def _nonzero(a):
    """Mask of the entries of a C-contiguous complex array whose real or
    imaginary part is nonzero: NaN counts, -0.0 does not."""
    # the two float64 flags of each entry, read as one uint16
    return (a.view(np.float64) != 0.0).view(np.uint16) != 0


def _band_pays(kl, ku, n):
    """stationary_state's size rule for the banded path."""
    return 3 * kl * (kl + ku) <= _BAND_FLOP_SHARE * n * n


def _nonzeros(l_matrix, d):
    """(rows, cols, values) of the nonzero entries of L at dim d, in
    row-major order, from one scan; None, without the scan, when the last
    row of the checkerboard order alone makes the band too wide."""
    n = d * d
    order, position, _ = sector_order(d)
    # kl only grows as rows are read, and one row shows a dense L's width
    kl = n - 1 - position[_nonzero(l_matrix[order[-1]])].min(initial=n - 1)
    if not _band_pays(kl, 0, n):
        return None
    flat = np.flatnonzero(_nonzero(l_matrix))
    rows = flat // n
    return rows, flat - rows * n, l_matrix.ravel().take(flat)


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


def _banded_stationary(d, rows, cols, values, magnitude):
    """stationary_state's banded path on the nonzero triplets of L at dim d,
    in row-major order, and their magnitudes: the unit-trace state, or None
    when the band is too wide or the solve hands over."""
    n = d * d
    # row 0 becomes the border e_0^T: only the other rows set the band
    first = np.searchsorted(rows, 1)
    rows, cols, values, magnitude = (
        rows[first:], cols[first:], values[first:], magnitude[first:])
    order, position, _ = sector_order(d)
    band_cols = position.take(cols)
    offset = position.take(rows) - band_cols  # i - j in checkerboard order
    kl, ku = int(offset.max(initial=0)), -int(offset.min(initial=0))
    if not _band_pays(kl, ku, n):
        return None
    row_max = np.zeros(n)
    np.maximum.at(row_max, rows, magnitude)
    row_max[0] = 1.0
    if not row_max.all():  # a zero row
        return None
    row_scale = _power_of_two_scale(row_max)
    entry_scale = row_scale.take(rows)
    col_max = np.zeros(n)
    col_max[0] = row_scale[0]  # the border's entry (0, 0)
    np.maximum.at(col_max, cols, entry_scale * magnitude)
    if not col_max.all():  # a zero column
        return None
    col_scale = _power_of_two_scale(col_max)
    entry_scale *= col_scale.take(cols)  # powers of two: exact
    corner = row_scale[0] * col_scale[0]
    col_sums = np.bincount(cols, entry_scale * magnitude, n)
    col_sums[0] += corner
    # LAPACK band storage: A[i, j] sits in row kl + ku + i - j of column j;
    # gbtrf takes the first kl rows for fill-in
    ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)
    ab.ravel()[(kl + ku + offset) * n + band_cols] = entry_scale * values
    ab[kl + ku, 0] = corner
    gbtrf, gbcon, gbtrs = scipy.linalg.get_lapack_funcs(
        ("gbtrf", "gbcon", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
    if info != 0:  # info > 0: an exactly zero pivot
        return None
    rcond, _ = gbcon(kl, ku, lu, piv, col_sums.max(), norm="1")
    if not rcond >= _DEGENERACY_TOL:  # NaN too: only a sound solve answers
        return None
    rhs = np.zeros((n, 1), dtype=complex)
    rhs[0] = row_scale[0]
    vec = np.empty(n, dtype=complex)
    vec[order] = gbtrs(lu, kl, ku, rhs, piv)[0][:, 0]
    return _unit_trace(col_scale * vec)


def _sector_blocks(l_matrix, d):
    """The index sets of the dense path's blocks: the even and the odd
    sector (sector_order) when no entry of L couples them, with -0.0 as
    zero, else None, all of L as one block."""
    order, position, n_even = sector_order(d)
    odd = position >= n_even
    if (_nonzero(l_matrix) & (odd[:, None] != odd)).any():
        return [None]
    return [order[:n_even], order[n_even:]]


def _fortran_block(l_matrix, index):
    """The rows and columns index of L (all of L for None) as a new
    Fortran-ordered array, gathered from L without a permuted copy of it."""
    if index is None:
        return np.array(l_matrix, order="F")
    return np.asfortranarray(l_matrix.take(index, axis=0).take(index, axis=1))


def _dense_stationary(l_matrix):
    """stationary_state's dense path: the unit-trace state, or an error."""
    n = l_matrix.shape[0]
    d = int(round(np.sqrt(n)))
    _, position, _ = sector_order(d)
    diagonal = np.arange(d) * (d + 1)
    blocks = _sector_blocks(l_matrix, d)
    geequb, getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(
        ("geequb", "getrf", "gecon", "getrs"), (l_matrix,))
    # per block: ||B_b||_1 and rcond_b ||B_b||_1 = 1 / ||B_b^-1||_1
    norms, inverse_floors, factors = [], [], []
    for index in blocks:
        block = _fortran_block(l_matrix, index)
        if not factors:
            # the first block holds rho_00, at its position 0, and the
            # diagonal: its row 0 becomes the trace functional
            block[0] = 0.0
            block[0, diagonal if index is None else position[diagonal]] = 1.0
        # exact power-of-two row and column scalings bring the trace row and
        # slowly relaxing rows to the scale of the rest
        row_scale, col_scale, _, _, _, info = geequb(block)
        if info != 0:  # info > 0: an exactly zero row or column
            break
        block *= row_scale[:, None]
        block *= col_scale
        anorm = np.abs(block).sum(axis=0).max()
        lu, piv, info = getrf(block, overwrite_a=True)
        if info != 0:  # info > 0: an exactly zero pivot
            break
        norms.append(anorm)
        inverse_floors.append(gecon(lu, anorm, norm="1")[0] * anorm)
        factors.append((index, lu, piv, row_scale, col_scale))
    # 1 / (max_b ||B_b||_1 max_b ||B_b^-1||_1), the 1-norm rcond of B itself
    rcond = (min(inverse_floors) / max(norms)
             if len(factors) == len(blocks) else 0.0)
    if rcond < _DEGENERACY_TOL:
        raise DegenerateStationaryState(
            "bordered generator is singular at working precision: "
            "reciprocal condition number %.3e below %.1e, so the kernel is "
            "not one-dimensional or its element is traceless"
            % (rcond, _DEGENERACY_TOL))
    # the right-hand side e_0 lies in the first block: the others solve to 0
    index, lu, piv, row_scale, col_scale = factors[0]
    rhs = np.zeros(lu.shape[0], dtype=complex)
    rhs[0] = row_scale[0]
    vec = np.zeros(n, dtype=complex)
    vec[slice(None) if index is None else index] = col_scale * getrs(lu, piv, rhs)[0]
    rho = _unit_trace(vec)
    if rho is None:
        raise NumericalFailure("stationary candidate is traceless")
    return rho
