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

from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation size and physical constants of the test particle."""

    dim: int = 40
    hbar: float = 1.0
    mass: float = 1.0
    omega_basis: float = 1.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        for name in ("hbar", "mass", "omega_basis"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

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
        if not w > 0:
            raise ValueError(f"omega_trap must be positive, got {w}")
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
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
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
    if not 0 <= n < cfg.dim:
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
    psi = _displacement(build_ladder(cfg), alpha)[:, 0]
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def squeezed_state(cfg: HilbertConfig, r: float, alpha: complex = 0.0) -> np.ndarray:
    """Squeezed (optionally displaced) vacuum as a pure density matrix.

    r > 0 shrinks the position variance by e^{-2r} and inflates the momentum
    variance by e^{+2r} relative to the basis vacuum.  Built by exponentiating
    the truncated quadratic generator, then renormalized.
    """
    a = build_ladder(cfg)
    s = scipy.linalg.expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
    psi = s[:, 0]
    if alpha != 0.0:
        psi = _displacement(a, alpha) @ psi
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def thermal_state(cfg: HilbertConfig, nbar: float) -> np.ndarray:
    """Geometric-population mixed state with mean occupation nbar, renormalized."""
    if nbar < 0:
        raise ValueError(f"nbar must be nonnegative, got {nbar}")
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
    a measured result, never an error.
    """
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
    return float(np.sum(rho.T * rho).real)


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the defensively symmetrized matrix."""
    if not np.all(np.isfinite(rho)):
        raise ValueError("non-finite entries; eigensolver would fail")
    sym = 0.5 * (rho + rho.conj().T)
    return float(scipy.linalg.eigvalsh(sym)[0])
