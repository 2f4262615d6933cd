"""Truncated number-basis operator algebra.

All operators are dense complex matrices in the lowest ``dim`` levels of a
harmonic-oscillator basis.  The basis frequency ``omega_basis`` is a numerical
device that sets the length scale sqrt(hbar/(mass*omega_basis)); physical
predictions must not depend on it (up to truncation error).  Every product in
this package is a product of truncated matrices, never an analytic matrix
element of a product, so trace identities (e.g. trace of a commutator = 0)
hold exactly at finite dimension.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NumericalFailure(ArithmeticError):
    """A computation that has no answer: arithmetic that overflows, a
    quadrature that does not converge, a diverging integration, a singular
    solve.  The command line exits 3 on any ArithmeticError."""


def float_policy():
    """The library's one floating-point policy: numpy's error state with
    over, invalid and divide ignored, so numpy never warns inside it.  Each
    computation run under it checks its own results' finiteness once."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def check_integer(name: str, value, low: int) -> None:
    """The one rule for an integer input: a Python or numpy integer (a bool
    is not one) of at least low, else a ValueError naming the field:
    "<name> must be an integer >= <low>, got <value!r>"."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


# check_finite's sign rules, each the comparison with zero a valid value passes
_SIGN_RULES = {"positive": operator.gt, "nonnegative": operator.ge,
               "negative": operator.lt}


def check_finite(name: str, value, sign: str | None = None) -> None:
    """The one rule for a scalar physical input: value is finite (a complex
    value too, when sign is None) and, when sign names a rule ("positive",
    "nonnegative" or "negative"), of that sign.  NaN and +-inf are refused
    whatever the sign, by a ValueError naming the field:
    "<name> must be [<sign> and ]finite, got <value>"."""
    if not (cmath.isfinite(value) and (sign is None or _SIGN_RULES[sign](value, 0))):
        rule = "finite" if sign is None else f"{sign} and finite"
        raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation size and physical constants of the test particle."""

    dim: int = 40
    hbar: float = 1.0
    mass: float = 1.0
    omega_basis: float = 1.0

    def __post_init__(self):
        check_integer("dim", self.dim, 2)
        for name in ("hbar", "mass", "omega_basis"):
            check_finite(name, getattr(self, name), "positive")

    @property
    def length_scale(self) -> float:
        return np.sqrt(self.hbar / (self.mass * self.omega_basis))

    @property
    def momentum_scale(self) -> float:
        return np.sqrt(self.hbar * self.mass * self.omega_basis)


def build_ladder(cfg: HilbertConfig) -> np.ndarray:
    """Lowering operator: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, cfg.dim, dtype=float)), 1).astype(complex)


def build_position(cfg: HilbertConfig) -> np.ndarray:
    """Position operator, Hermitian tridiagonal."""
    a = build_ladder(cfg)
    return cfg.length_scale / np.sqrt(2.0) * (a + a.conj().T)


def build_momentum(cfg: HilbertConfig) -> np.ndarray:
    """Momentum operator, Hermitian with imaginary tridiagonal entries."""
    a = build_ladder(cfg)
    return 1j * cfg.momentum_scale / np.sqrt(2.0) * (a.conj().T - a)


HAMILTONIAN_KINDS = ("free", "harmonic")


def build_hamiltonian(cfg: HilbertConfig, kind: str = "free",
                      omega_trap: float | None = None) -> np.ndarray:
    """Kinetic Hamiltonian p^2/2M, optionally plus a harmonic trap.

    kind is "free" or "harmonic"; the trap frequency defaults to the basis
    frequency.  Built from the truncated matrices, so the top level carries
    the usual truncation distortion.
    """
    p = build_momentum(cfg)
    h = (p @ p) / (2.0 * cfg.mass)
    if kind == "free":
        return h
    if kind == "harmonic":
        w = cfg.omega_basis if omega_trap is None else float(omega_trap)
        check_finite("omega_trap", w, "positive")
        x = build_position(cfg)
        return h + 0.5 * cfg.mass * w**2 * (x @ x)
    raise ValueError(f"unknown hamiltonian kind {kind!r}")


def build_annihilator(cfg: HilbertConfig, beta: float) -> np.ndarray:
    """Thermal-scale annihilation operator.

    a_th = (sqrt(2)/lam) * (x + (i/hbar)*(lam^2/4)*p) with lam = sqrt(hbar^2*beta/mass),
    the thermal de Broglie length of the test particle.  Satisfies
    [a_th, a_th^dagger] = 1 on the leading block for any beta; it coincides
    with the basis ladder operator only when lam = 2*sqrt(hbar/(mass*omega_basis)).
    """
    check_finite("beta", beta, "positive")
    lam = thermal_wavelength(cfg, beta)
    x = build_position(cfg)
    p = build_momentum(cfg)
    return np.sqrt(2.0) / lam * (x + 1j * lam**2 / (4.0 * cfg.hbar) * p)


def thermal_wavelength(cfg: HilbertConfig, beta: float) -> float:
    """sqrt(hbar^2*beta/mass), the test particle's thermal length scale."""
    return np.sqrt(cfg.hbar**2 * beta / cfg.mass)


def parity_operator(cfg: HilbertConfig) -> np.ndarray:
    """diag((-1)^n); conjugation flips the sign of x and p exactly."""
    return np.diag((-1.0) ** np.arange(cfg.dim)).astype(complex)


# ---------------------------------------------------------------------------
# states


def number_state(cfg: HilbertConfig, n: int) -> np.ndarray:
    """Density matrix |n><n|."""
    check_integer("level", n, 0)
    if n >= cfg.dim:
        raise ValueError(f"level {n} outside basis of size {cfg.dim}")
    rho = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def vacuum_state(cfg: HilbertConfig) -> np.ndarray:
    return number_state(cfg, 0)


def _displacement(a: np.ndarray, alpha: complex) -> np.ndarray:
    """exp(alpha a^dag - conj(alpha) a) of the truncated ladder operator a."""
    return scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)


def coherent_state(cfg: HilbertConfig, alpha: complex) -> np.ndarray:
    """Displaced vacuum as a pure density matrix, normalized after truncation."""
    check_finite("alpha", alpha)
    psi = _displacement(build_ladder(cfg), alpha)[:, 0]
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def squeezed_state(cfg: HilbertConfig, r: float, alpha: complex = 0.0) -> np.ndarray:
    """Squeezed (optionally displaced) vacuum as a pure density matrix.

    r > 0 shrinks the position variance by e^{-2r} and inflates the momentum
    variance by e^{+2r} relative to the basis vacuum.  Built by exponentiating
    the truncated quadratic generator, then renormalized.
    """
    check_finite("r", r)
    check_finite("alpha", alpha)
    a = build_ladder(cfg)
    s = scipy.linalg.expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
    psi = s[:, 0]
    if alpha != 0.0:
        psi = _displacement(a, alpha) @ psi
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def thermal_state(cfg: HilbertConfig, nbar: float) -> np.ndarray:
    """Geometric-population mixed state with mean occupation nbar, renormalized."""
    check_finite("nbar", nbar, "nonnegative")
    if nbar == 0.0:
        return vacuum_state(cfg)
    n = np.arange(cfg.dim)
    weights = np.exp(n * np.log(nbar / (1.0 + nbar)))
    weights /= weights.sum()
    return np.diag(weights).astype(complex)


_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_FLOOR = -1e-10


def validate_density_matrix(rho: np.ndarray) -> None:
    """Reject non-Hermitian, badly normalized, or significantly negative input.

    Only a construction-time gate, passed when max|rho - rho^dag| <= 1e-12,
    |tr rho - 1| <= 1e-12 and the smallest eigenvalue is >= -1e-10:
    evolution is allowed to drive states negative, and that negativity is
    a measured result, never an error.  rho may be any array-like.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > _HERM_TOL:
        raise ValueError(f"density matrix not Hermitian: max |rho-rho^dag| = {herm:.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1 beyond {_TRACE_TOL}")
    low = min_eigenvalue(rho)
    if low < _EIG_FLOOR:
        raise ValueError(f"density matrix significantly negative: min eigenvalue {low:.3e}")


# ---------------------------------------------------------------------------
# elementary measurements


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """Tr(rho @ op)."""
    if rho.shape != op.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {op.shape}")
    # trace of a product without forming it
    return complex(np.sum(rho.T * op))


def variance(rho: np.ndarray, op: np.ndarray, op_squared: np.ndarray | None = None) -> float:
    if op_squared is None:
        op_squared = op @ op
    mean = expectation(rho, op).real
    return expectation(rho, op_squared).real - mean**2


def purity(rho: np.ndarray) -> float:
    """Tr(rho @ rho), as one contraction without forming the product."""
    return float(np.einsum("ij,ji->", rho, rho).real)


@functools.cache
def _smallest_eigenvalue_routine(dtype: np.dtype):
    """LAPACK's ?heevr for complex input, ?syevr for real, in double
    precision, as numpy.linalg.eigvalsh computes: looked up once per dtype."""
    work = np.promote_types(dtype, np.float64)
    return scipy.linalg.get_lapack_funcs("heevr" if work.kind == "c" else "syevr",
                                         dtype=work)


def _lowest_eigenvalue(a: np.ndarray) -> float:
    """The heevr (syevr) smallest eigenvalue of 0.5 (a + a^dag), for a finite a."""
    sym = 0.5 * (a + a.conj().T)
    # sym is exactly Hermitian, so its transpose is its conjugate, with the
    # same eigenvalues; that transpose is Fortran-ordered, so LAPACK
    # overwrites it where it lies instead of a copy
    w, _, _, _, info = _smallest_eigenvalue_routine(a.dtype)(
        sym.T, compute_v=0, range="I", il=1, iu=1, overwrite_a=1)
    low = float(w[0])
    if info != 0 or math.isnan(low):
        raise np.linalg.LinAlgError(
            f"smallest eigenvalue did not converge (LAPACK info {info})")
    return low


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the defensively symmetrized matrix.

    The LAPACK routine is heevr (syevr for real input), asked for the
    smallest eigenvalue alone (range="I", il=iu=1), which it finds by
    bisection on the tridiagonal form.  It agreed with numpy's heevd and
    scipy's full evr to 1e-14 max(|lambda|, 1) wherever compared, and costs
    less: 96/120 us against heevd's 118/143 us at dims 38/42 (one BLAS
    thread, 2 vCPU, best of 15 x 200 calls).  The bisection runs at LAPACK's
    default tolerance: the "most accurate" abstol = 2 safmin changed a third
    of the values in the last bits but not their largest gap to heevd
    (2.3e-15 max(|lambda|, 1) either way), and cost 13-15% more per call.

    A matrix whose entries with i + j odd are all exactly zero (-0.0 is
    zero) is block-diagonal over even and odd n, as every state of definite
    parity is: its smallest eigenvalue is the smaller of the heevr smallest
    eigenvalues of its even-n and odd-n blocks, two half-size problems.
    That agrees with heevr on the whole matrix to 1e-14 max(|lambda|, 1),
    the bound the tests hold it to; every other matrix takes the
    whole-matrix call.  Non-finite input raises ValueError before LAPACK
    sees it; a solver failure, or an infinite sum from overflow in the
    symmetrization, raises numpy.linalg.LinAlgError.
    """
    if not np.isfinite(rho).all():
        raise ValueError("non-finite entries; eigensolver would fail")
    # rho[0, 1] turns most matrices of no definite parity away at once
    if len(rho) > 1 and rho[0, 1] == 0 and not (
            np.count_nonzero(rho[::2, 1::2]) or np.count_nonzero(rho[1::2, ::2])):
        return min(_lowest_eigenvalue(rho[::2, ::2]),
                   _lowest_eigenvalue(rho[1::2, 1::2]))
    return _lowest_eigenvalue(rho)
