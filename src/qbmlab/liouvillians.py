"""Generators drho/dt = L[rho] for the quantum Brownian motion family.

Four builders:

* damped-commutator generator (friction + momentum diffusion only), the
  high-temperature form that is NOT completely positive;
* general bilinear generator with friction, three diffusion coefficients and
  an anticommutator Hamiltonian correction, subject to the CP bound
  D_xx*D_pp - D_xp^2 >= (gamma*hbar/2)^2;
* minimal completely positive generator, whose d_xx and gamma derive from the
  user-supplied d_pp (equivalently assembled from a single thermal-scale jump
  operator);
* gas-collision generator built from exponential shift/weight sandwiches over
  a signed momentum-transfer quadrature grid.

Each builder compiles its physics once, at build time, into one Lindblad
normal form

    L[rho] = K rho + rho K^dag + sum_k s_k J_k rho J_k^dag,

kept on the Liouvillian as data (its normal_form).  One kernel applies it,
with the sandwiches of all jumps stacked into two matrix products, and
superoperator_matrix assembles the dense matrix from the same data.

For the bilinear family the double commutators expand to

    K = -(i/hbar)(H - z mu {x,p}) - z (d_pp x^2 + d_xx p^2 - d_xp {x,p})/hbar^2
        - z (i gamma/hbar) x p,

and the sandwich part is sum_ab C_ab A_a rho A_b over A = (x, p) with the
Hermitian Kossakowski matrix

    C = (z/hbar^2) [[2 d_pp, -2 d_xp - i gamma hbar],
                    [-2 d_xp + i gamma hbar, 2 d_xx]].

Its eigenvalues are the weights s_k and its eigenvectors U give the jumps
J_k = U_xk x + U_pk p.  By the Gorini-Kossakowski-Sudarshan-Lindblad theorem
the generator is completely positive exactly when C >= 0, i.e. when no weight
is negative; det C >= 0 is the CP bound above.  The Caldeira-Leggett generator
(d_xx = 0, gamma > 0) therefore keeps one negative weight, and the minimal
generator saturates the bound, so its C has rank one and it has a single jump.
A weight that is zero within the round-off of the 2x2 eigensolve is dropped.

Trace and Hermiticity are preserved, and never renormalized: tr L[rho] =
tr((K + K^dag + sum_k s_k J_k^dag J_k) rho), and that operator sum cancels
identically as a sum of products of the same truncated matrices (for the
collision generator, up to the unitarity of the computed momentum shift),
so the trace is annihilated at any truncation up to round-off.  With real
weights the two K terms are each other's adjoints and every sandwich is
self-adjoint, so Hermitian rho maps to Hermitian L[rho].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .microcoeffs import (CP_ROUNDOFF, BilinearCoefficients, TMatrixModel,
                          dpp_prefactor, saturating_coefficients, thermal_kernel)
from .operators import (HilbertConfig, build_annihilator, build_hamiltonian,
                        build_momentum, build_position, thermal_wavelength)

CALDEIRA_LEGGETT = "caldeira_leggett"
BILINEAR = "bilinear"
MINIMAL_QBM = "minimal_qbm"
BOLTZMANN_COLLISION = "boltzmann_collision"

DOUBLE_COMMUTATOR = "double_commutator"
SINGLE_GENERATOR = "single_generator"

# G(q) = exp(-(beta/4M) q p) must stay representable; cap the exponent norm.
_COLLISION_EXPONENT_CAP = 5.0


@dataclass(frozen=True)
class CollisionParameters:
    """Gas and quadrature data for the collision generator.

    q_nodes/q_weights discretize the radial momentum-transfer integral on
    (0, q_max]; the weights carry the 3D radial measure q^2, as produced by
    radial_grid().  The builder sums each node with both signs of q.
    """

    gas_mass: float
    beta: float
    fugacity_z: float
    tmatrix: TMatrixModel
    q_nodes: np.ndarray
    q_weights: np.ndarray
    q_max: float

    def __post_init__(self):
        object.__setattr__(self, "q_nodes", np.asarray(self.q_nodes, dtype=float))
        object.__setattr__(self, "q_weights", np.asarray(self.q_weights, dtype=float))
        if not self.gas_mass > 0 or not self.beta > 0:
            raise ValueError("gas_mass and beta must be positive")
        if not self.fugacity_z >= 0:
            raise ValueError("fugacity_z must be nonnegative")
        if self.q_nodes.size == 0:
            raise ValueError("empty momentum-transfer grid")
        if self.q_nodes.shape != self.q_weights.shape:
            raise ValueError("q_nodes and q_weights must have matching shapes")
        if np.any(self.q_nodes <= 0) or np.any(self.q_nodes > self.q_max):
            raise ValueError("q_nodes must lie in (0, q_max]")
        if np.any(self.q_weights <= 0):
            raise ValueError("q_weights must be positive")


def radial_grid(q_max: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on (0, q_max) with the radial q^2 measure folded in."""
    if not q_max > 0 or n_nodes < 1:
        raise ValueError("q_max must be positive and n_nodes >= 1")
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    nodes = 0.5 * q_max * (t + 1.0)
    weights = 0.5 * q_max * w * nodes**2
    return nodes, weights


@dataclass(frozen=True)
class LiouvillianSpec:
    """Which generator to build, and with what physics."""

    kind: str
    hamiltonian_kind: str = "free"
    omega_trap: float | None = None
    beta: float | None = None
    coeffs: BilinearCoefficients | None = None
    collision: CollisionParameters | None = None
    assembly: str = DOUBLE_COMMUTATOR


@dataclass(frozen=True, eq=False)
class NormalForm:
    """A generator compiled to L[rho] = K rho + rho K^dag + sum_k s_k J_k rho J_k^dag.

    k is the (d, d) matrix K, weights the n real s_k, and jumps the J_k
    stacked as an (n, d, d) array.
    """

    k: np.ndarray
    weights: np.ndarray
    jumps: np.ndarray


class Liouvillian:
    """Immutable superoperator: callable on a density matrix.

    Builder-made generators carry their compiled normal_form; a Liouvillian
    made from a custom callable has normal_form None.
    """

    def __init__(self, cfg: HilbertConfig, kind: str, apply_fn,
                 coeffs: BilinearCoefficients | None = None,
                 collision: CollisionParameters | None = None,
                 normal_form: NormalForm | None = None):
        self.cfg = cfg
        self.kind = kind
        self.coeffs = coeffs
        self.collision = collision
        self.normal_form = normal_form
        self._apply = apply_fn

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self._apply(rho)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self._apply(rho)


def _compiled(cfg: HilbertConfig, kind: str, k: np.ndarray, jumps,
              **attrs) -> Liouvillian:
    """Liouvillian of the normal form with K = k and jumps a sequence of (s_k, J_k)."""
    d = k.shape[0]
    nf = NormalForm(k=k, weights=np.array([s for s, _ in jumps], dtype=float),
                    jumps=np.array([j for _, j in jumps], dtype=complex).reshape(-1, d, d))
    return Liouvillian(cfg, kind, _normal_form_apply(nf), normal_form=nf, **attrs)


def _normal_form_apply(nf: NormalForm):
    """Apply function of the normal form.

    All n sandwiches run as two stacked products: Y = [s_1 J_1; ...; s_n J_n]
    rho, then its n blocks side by side times [J_1^dag; ...; J_n^dag].  An
    apply is four matrix products whatever n is, doing the arithmetic of
    2 + 2n square ones.
    """
    k = nf.k
    d = k.shape[0]
    kdag = k.conj().T.copy()
    left = (nf.weights[:, None, None] * nf.jumps).reshape(-1, d)
    right = nf.jumps.conj().transpose(0, 2, 1).reshape(-1, d)

    def apply(rho):
        out = k @ rho
        out += rho @ kdag
        y = (left @ rho).reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)
        out += y @ right
        return out

    return apply


def _bilinear_normal_form(cfg: HilbertConfig, coeffs: BilinearCoefficients,
                          hamiltonian_kind: str, omega_trap: float | None):
    """Compile the bilinear generator's terms into K and Kossakowski (s_k, J_k)."""
    hbar = cfg.hbar
    h = build_hamiltonian(cfg, hamiltonian_kind, omega_trap)
    x = build_position(cfg)
    p = build_momentum(cfg)
    xp = x @ p
    xp_anti = xp + p @ x
    gamma, d_pp, d_xx, d_xp = coeffs.gamma, coeffs.d_pp, coeffs.d_xx, coeffs.d_xp
    mu, z = coeffs.mu, coeffs.fugacity_z

    k = (-1j / hbar) * h + z * (
        (1j * mu / hbar) * xp_anti - (1j * gamma / hbar) * xp
        - (d_pp * (x @ x) + d_xx * (p @ p) - d_xp * xp_anti) / hbar**2)
    kossakowski = (z / hbar**2) * np.array(
        [[2.0 * d_pp, -2.0 * d_xp - 1j * gamma * hbar],
         [-2.0 * d_xp + 1j * gamma * hbar, 2.0 * d_xx]])
    weights, vecs = np.linalg.eigh(kossakowski)
    # the CP-saturated minimal generator has an exact zero weight; what
    # the eigensolver leaves of it is round-off, and dropped
    cutoff = CP_ROUNDOFF * np.abs(weights).max()
    jumps = [(s, u[0] * x + u[1] * p)
             for s, u in zip(weights, vecs.T) if abs(s) > cutoff]
    return k, jumps


def build_bilinear_lindblad(cfg: HilbertConfig, spec: LiouvillianSpec) -> Liouvillian:
    """General bilinear generator with user-supplied coefficients."""
    if spec.kind != BILINEAR:
        raise ValueError(f"spec kind {spec.kind!r} is not {BILINEAR!r}")
    if spec.coeffs is None:
        raise ValueError("bilinear generator requires coefficients")
    k, jumps = _bilinear_normal_form(cfg, spec.coeffs, spec.hamiltonian_kind,
                                     spec.omega_trap)
    return _compiled(cfg, BILINEAR, k, jumps, coeffs=spec.coeffs)


def build_caldeira_leggett(cfg: HilbertConfig, spec: LiouvillianSpec) -> Liouvillian:
    """Friction + momentum diffusion d_pp = 2*M*gamma/beta, no position diffusion.

    Compiles through the bilinear normal form, so it agrees with
    build_bilinear_lindblad at the same coefficients bit for bit.
    """
    if spec.kind != CALDEIRA_LEGGETT:
        raise ValueError(f"spec kind {spec.kind!r} is not {CALDEIRA_LEGGETT!r}")
    if spec.coeffs is None or spec.beta is None:
        raise ValueError("caldeira_leggett requires coeffs.gamma and beta")
    if not spec.beta > 0:
        raise ValueError(f"beta must be positive, got {spec.beta}")
    if spec.coeffs.gamma < 0:
        raise ValueError("gamma must be nonnegative")
    c = spec.coeffs
    if c.d_pp != 0.0 or c.d_xx != 0.0 or c.d_xp != 0.0 or c.mu != 0.0:
        raise ValueError("caldeira_leggett takes only gamma (+ fugacity_z); "
                         "diffusion coefficients are derived")
    derived = BilinearCoefficients(
        gamma=c.gamma, d_pp=2.0 * cfg.mass * c.gamma / spec.beta,
        d_xx=0.0, d_xp=0.0, mu=0.0, fugacity_z=c.fugacity_z)
    k, jumps = _bilinear_normal_form(cfg, derived, spec.hamiltonian_kind, spec.omega_trap)
    return _compiled(cfg, CALDEIRA_LEGGETT, k, jumps, coeffs=derived)


def minimal_coefficients(cfg: HilbertConfig, d_pp: float, beta: float,
                         fugacity_z: float = 1.0) -> BilinearCoefficients:
    """Derive the completely positive coefficient set from d_pp alone.

    gamma = (beta/2M) d_pp and d_xx = (beta hbar/4M)^2 d_pp, from
    saturating_coefficients, saturate the CP bound; the bilinear form
    carries no anticommutator correction (mu = 0), which is exactly what
    the single-generator assembly reduces to.
    """
    if d_pp < 0:
        raise ValueError(f"d_pp must be nonnegative, got {d_pp}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    gamma, d_xx = saturating_coefficients(d_pp, beta, cfg.mass, cfg.hbar)
    return BilinearCoefficients(gamma=gamma, d_pp=d_pp, d_xx=d_xx,
                                fugacity_z=fugacity_z)


def build_minimal_qbm(cfg: HilbertConfig, spec: LiouvillianSpec) -> Liouvillian:
    """Completely positive Brownian generator from d_pp and fugacity_z only.

    assembly selects between the algebraically identical routes:
    DOUBLE_COMMUTATOR compiles the three bilinear terms through the Kossakowski
    matrix, whose one nonzero weight yields the jump; SINGLE_GENERATOR takes
    the thermal-scale annihilator as the jump directly, plus the
    anticommutator Hamiltonian correction with coefficient z*gamma/2.
    """
    if spec.kind != MINIMAL_QBM:
        raise ValueError(f"spec kind {spec.kind!r} is not {MINIMAL_QBM!r}")
    if spec.coeffs is None or spec.beta is None:
        raise ValueError("minimal_qbm requires coeffs.d_pp and beta")
    c = spec.coeffs
    if c.gamma != 0.0 or c.d_xx != 0.0 or c.d_xp != 0.0 or c.mu != 0.0:
        raise ValueError("minimal_qbm takes only d_pp (+ fugacity_z); "
                         "gamma and d_xx are derived")
    derived = minimal_coefficients(cfg, c.d_pp, spec.beta, c.fugacity_z)

    if spec.assembly == DOUBLE_COMMUTATOR:
        k, jumps = _bilinear_normal_form(cfg, derived, spec.hamiltonian_kind,
                                         spec.omega_trap)
        return _compiled(cfg, MINIMAL_QBM, k, jumps, coeffs=derived)
    if spec.assembly != SINGLE_GENERATOR:
        raise ValueError(f"unknown assembly {spec.assembly!r}")

    hbar = cfg.hbar
    lam2 = thermal_wavelength(cfg, spec.beta) ** 2
    z, d_pp = derived.fugacity_z, derived.d_pp
    x = build_position(cfg)
    p = build_momentum(cfg)
    # Hamiltonian correction z*d_pp*lam^2/(4 hbar^2) * {x,p} = (z*gamma/2) {x,p}
    h_eff = build_hamiltonian(cfg, spec.hamiltonian_kind, spec.omega_trap) \
        + z * d_pp * lam2 / (4.0 * hbar**2) * (x @ p + p @ x)
    jump = build_annihilator(cfg, spec.beta)
    rate = z * d_pp * lam2 / hbar**2
    k = (-1j / hbar) * h_eff - (0.5 * rate) * (jump.conj().T @ jump)
    return _compiled(cfg, MINIMAL_QBM, k, [(rate, jump)] if rate != 0.0 else [],
                     coeffs=derived)


def collision_dpp(params: CollisionParameters, hbar: float) -> float:
    """Momentum diffusion implied by the collision quadrature grid itself.

    Equals the radial-integral d_pp of compute_dpp restricted to (0, q_max]
    and evaluated with this grid's nodes; the collision generator converges to
    the minimal generator with exactly this coefficient as q_max shrinks.
    """
    return dpp_prefactor(params.gas_mass, params.beta, hbar) * float(np.sum(thermal_kernel(
        params.tmatrix, params.beta, params.gas_mass, params.q_nodes,
        params.q_weights * params.q_nodes)))


def build_boltzmann_collision(cfg: HilbertConfig, spec: LiouvillianSpec) -> Liouvillian:
    """Collision generator: momentum-kick sandwiches over the signed q grid.

    Each node contributes, for both signs of q,
        U(q) G(q) rho G(q) U(q)^dag - (1/2){G(q)^2, rho}
    with U(q) = exp((i/hbar) q x) a momentum shift and G(q) = exp(-(beta/4M) q p)
    the thermal weight.  The exponentials are computed at construction, and
    every -(1/2){G(q)^2, rho} is folded into the normal form's K.
    """
    if spec.kind != BOLTZMANN_COLLISION:
        raise ValueError(f"spec kind {spec.kind!r} is not {BOLTZMANN_COLLISION!r}")
    if spec.collision is None:
        raise ValueError("boltzmann_collision requires CollisionParameters")
    par = spec.collision
    hbar = cfg.hbar
    x = build_position(cfg)
    p = build_momentum(cfg)
    h = build_hamiltonian(cfg, spec.hamiltonian_kind, spec.omega_trap)

    p_norm = np.linalg.norm(p, 2)
    exponent = par.beta * par.q_max * p_norm / (4.0 * cfg.mass)
    if exponent > _COLLISION_EXPONENT_CAP:
        raise ValueError(
            f"collision weight exponent beta*q_max*||p||/(4M) = {exponent:.2f} "
            f"exceeds {_COLLISION_EXPONENT_CAP}; lower q_max, beta, or dim "
            "to keep exp(-(beta/4M) q p) representable")

    prefactor = dpp_prefactor(par.gas_mass, par.beta, hbar)
    rates = par.fugacity_z * prefactor * thermal_kernel(
        par.tmatrix, par.beta, par.gas_mass, par.q_nodes, par.q_weights / par.q_nodes)

    k = (-1j / hbar) * h
    jumps = []
    for q, rate in zip(par.q_nodes, rates):
        if rate == 0.0:
            continue
        for sq in (q, -q):
            u = scipy.linalg.expm(1j / hbar * sq * x)
            g = scipy.linalg.expm(-par.beta / (4.0 * cfg.mass) * sq * p)
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(g))):
                raise ArithmeticError(f"non-finite matrix exponential at q={sq}")
            k = k - (0.5 * rate) * (g @ g)
            jumps.append((rate, u @ g))
    return _compiled(cfg, BOLTZMANN_COLLISION, k, jumps, collision=par)


_BUILDERS = {
    CALDEIRA_LEGGETT: build_caldeira_leggett,
    BILINEAR: build_bilinear_lindblad,
    MINIMAL_QBM: build_minimal_qbm,
    BOLTZMANN_COLLISION: build_boltzmann_collision,
}


def build_liouvillian(cfg: HilbertConfig, spec: LiouvillianSpec) -> Liouvillian:
    """Dispatch to the builder named by spec.kind."""
    try:
        builder = _BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown generator kind {spec.kind!r}") from None
    return builder(cfg, spec)


def superoperator_matrix(liouv, cfg: HilbertConfig | None = None) -> np.ndarray:
    """Dense column-stacked matrix of a superoperator.

    The matrix acts on Fortran-order (column-stacked) vec(rho), so
    matrix @ vec(rho) reproduces L[rho] for every rho.  A generator that
    carries its normal form is assembled from it directly with
    vec(A X B) = (B^T kron A) vec(X):

        I kron K + conj(K) kron I + sum_k s_k conj(J_k) kron J_k,

    the jump sum taken as one (d^2 x n)(n x d^2) product.  Any other
    callable, such as a Liouvillian built from a custom apply function, is
    probed one column at a time: column j is vec(L[E_j]) for the j-th
    Fortran-order unit matrix E_j.  Guarded to dim^2 <= 10^4.
    """
    if cfg is None:
        cfg = liouv.cfg
    d = cfg.dim
    n = d * d
    if n > 10_000:
        raise ValueError(f"superoperator matrix would be {n}x{n}; guard is 10^4")
    nf = getattr(liouv, "normal_form", None)
    if nf is not None:
        if nf.k.shape != (d, d):
            raise ValueError(f"generator acts on dim {nf.k.shape[0]}, not {d}")
        return _normal_form_superoperator(nf)
    mat = np.zeros((n, n), dtype=complex)
    basis = np.zeros((d, d), dtype=complex)
    for j in range(n):
        basis.flat[:] = 0.0
        # Fortran-order unit matrix: entry (j % d, j // d)
        basis[j % d, j // d] = 1.0
        mat[:, j] = liouv(basis).flatten(order="F")
    return mat


def _normal_form_superoperator(nf: NormalForm) -> np.ndarray:
    d = nf.k.shape[0]
    # (conj(J) kron J)[(a, i), (b, j)] = conj(J)[a, b] J[i, j]: multiply over
    # the realigned pairs (a, b), (i, j), then reorder the four indices
    flat = nf.jumps.reshape(-1, d * d)
    realigned = flat.conj().T @ (nf.weights[:, None] * flat)
    blocks = realigned.reshape(d, d, d, d).transpose(0, 2, 1, 3).copy()
    # the two kron-with-identity terms touch only the a == b and i == j entries
    diag = np.arange(d)
    blocks[diag, :, diag, :] += nf.k
    blocks[:, diag, :, diag] += nf.k.conj()
    return blocks.reshape(d * d, d * d)
