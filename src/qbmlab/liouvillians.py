"""Generators drho/dt = L[rho] for the quantum Brownian motion family.

One constructor, build_liouvillian, compiles a LiouvillianSpec, which
checks its own fields on construction, into one of four kinds of generator:

* damped-commutator generator (friction + momentum diffusion only), the
  high-temperature form that is NOT completely positive;
* general bilinear generator with friction, three diffusion coefficients and
  an anticommutator Hamiltonian correction, subject to the CP bound
  D_xx*D_pp - D_xp^2 >= (gamma*hbar/2)^2;
* minimal completely positive generator, whose d_xx and gamma derive from the
  user-supplied d_pp (equivalently assembled from a single thermal-scale jump
  operator at rate 2 z gamma);
* gas-collision generator built from exponential shift/weight sandwiches over
  a signed momentum-transfer quadrature grid, all taken from one
  eigendecomposition of x and one of p.

The compile function of each kind turns its physics, once, at build time,
into one Lindblad normal form

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
is negative; det C = 4 (z/hbar^2)^2 cp_margin >= 0 is the CP bound above.
microcoeffs.kossakowski_weights decides which weights survive, by cp_check's
rule: a saturated set's smaller weight is an exact zero and is dropped, and
any other keeps the margin's sign.  The Caldeira-Leggett generator (d_xx = 0,
gamma > 0) therefore keeps one negative weight, and the minimal generator
saturates the bound, so its C has rank one and it has a single jump.

Trace and Hermiticity are preserved, and never renormalized: tr L[rho] =
tr((K + K^dag + sum_k s_k J_k^dag J_k) rho), and that operator sum cancels
identically as a sum of products of the same truncated matrices (for the
collision generator, up to the unitarity of the computed momentum shift
V_x e^{i theta} V_x^dag and of p's computed eigenvectors V_p, on which
both G(q)^2 in K and each J_k^dag J_k rest), so the trace is annihilated
at any truncation up to round-off.  With real weights the two K terms are
each other's adjoints and every sandwich is self-adjoint, so Hermitian rho
maps to Hermitian L[rho].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .microcoeffs import (BilinearCoefficients, TMatrixModel, dpp_prefactor,
                          kossakowski_weights, saturating_coefficients,
                          thermal_kernel)
from .operators import (HilbertConfig, build_annihilator, build_hamiltonian,
                        build_momentum, build_position)
from .structure_factor import brownian_weight

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
    radial_grid().  The generator sums each node with both signs of q.
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
    """Which generator to build, and with what physics.

    Checked on construction for every rule the spec alone decides; the
    compile functions check only what needs the Hilbert space.
    """

    kind: str
    hamiltonian_kind: str = "free"
    omega_trap: float | None = None
    beta: float | None = None
    coeffs: BilinearCoefficients | None = None
    collision: CollisionParameters | None = None
    assembly: str = DOUBLE_COMMUTATOR

    def __post_init__(self):
        kind, c = self.kind, self.coeffs
        if kind not in _COMPILERS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind == BOLTZMANN_COLLISION and self.collision is None:
            raise ValueError("boltzmann_collision requires CollisionParameters")
        if kind == BILINEAR and c is None:
            raise ValueError("bilinear generator requires coefficients")
        # a field the kind's compile function never reads would be dropped
        # without a word; CollisionParameters carries the collision beta
        unread = [name for name, stray in (
            ("beta", kind in (BILINEAR, BOLTZMANN_COLLISION) and self.beta is not None),
            ("coeffs", kind == BOLTZMANN_COLLISION and c is not None),
            ("collision", kind != BOLTZMANN_COLLISION and self.collision is not None),
            ("assembly", kind != MINIMAL_QBM and self.assembly != DOUBLE_COMMUTATOR),
        ) if stray]
        if unread:
            raise ValueError(f"{kind} does not read {', '.join(unread)}")
        if kind not in (CALDEIRA_LEGGETT, MINIMAL_QBM):
            return
        # the thermal kinds take one coefficient and derive the others from beta
        given, derived = (("gamma", "diffusion coefficients") if kind == CALDEIRA_LEGGETT
                          else ("d_pp", "gamma and d_xx"))
        if c is None or self.beta is None:
            raise ValueError(f"{kind} requires coeffs.{given} and beta")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if c.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if any(getattr(c, name) != 0.0
               for name in ("gamma", "d_pp", "d_xx", "d_xp", "mu") if name != given):
            raise ValueError(f"{kind} takes only {given} (+ fugacity_z); "
                             f"{derived} are derived")
        if kind == MINIMAL_QBM and self.assembly not in (DOUBLE_COMMUTATOR,
                                                        SINGLE_GENERATOR):
            raise ValueError(f"unknown assembly {self.assembly!r}")


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

    Generators from build_liouvillian carry their compiled normal_form; a
    Liouvillian made from a custom callable has normal_form None.
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


def _bilinear_normal_form(cfg: HilbertConfig, spec: LiouvillianSpec,
                          coeffs: BilinearCoefficients | None = None):
    """K, the Kossakowski (s_k, J_k) and the attributes of the bilinear terms
    of coeffs: spec.coeffs for the bilinear kind, derived ones for the others."""
    coeffs = spec.coeffs if coeffs is None else coeffs
    hbar = cfg.hbar
    h = build_hamiltonian(cfg, spec.hamiltonian_kind, spec.omega_trap)
    x = build_position(cfg)
    p = build_momentum(cfg)
    xp = x @ p
    xp_anti = xp + p @ x
    gamma, d_pp, d_xx, d_xp = coeffs.gamma, coeffs.d_pp, coeffs.d_xx, coeffs.d_xp
    mu, z = coeffs.mu, coeffs.fugacity_z

    k = (-1j / hbar) * h + z * (
        (1j * mu / hbar) * xp_anti - (1j * gamma / hbar) * xp
        - (d_pp * (x @ x) + d_xx * (p @ p) - d_xp * xp_anti) / hbar**2)
    weights, vecs = kossakowski_weights(coeffs, hbar)
    jumps = [(s, u[0] * x + u[1] * p) for s, u in zip(weights, vecs.T)]
    return k, jumps, {"coeffs": coeffs}


def _caldeira_leggett(cfg: HilbertConfig, spec: LiouvillianSpec):
    """Friction + momentum diffusion d_pp = 2*M*gamma/beta, no position diffusion.

    Compiles through the bilinear normal form, so it agrees with the
    bilinear kind at the same coefficients bit for bit.
    """
    c = spec.coeffs
    derived = BilinearCoefficients(
        gamma=c.gamma, d_pp=2.0 * cfg.mass * c.gamma / spec.beta,
        fugacity_z=c.fugacity_z)
    return _bilinear_normal_form(cfg, spec, derived)


def minimal_coefficients(cfg: HilbertConfig, d_pp: float, beta: float,
                         fugacity_z: float = 1.0) -> BilinearCoefficients:
    """Derive the completely positive coefficient set from d_pp alone.

    gamma = (beta/2M) d_pp and d_xx = (beta hbar/4M)^2 d_pp, from
    saturating_coefficients, saturate the CP bound; the bilinear form
    carries no anticommutator correction (mu = 0), which is exactly what
    the single-generator assembly reduces to.  BilinearCoefficients
    rejects a negative d_pp.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    gamma, d_xx = saturating_coefficients(d_pp, beta, cfg.mass, cfg.hbar)
    return BilinearCoefficients(gamma=gamma, d_pp=d_pp, d_xx=d_xx,
                                fugacity_z=fugacity_z)


def _minimal_qbm(cfg: HilbertConfig, spec: LiouvillianSpec):
    """Completely positive Brownian generator from d_pp and fugacity_z only.

    gamma and d_xx come from minimal_coefficients, the one thermal
    derivation.  assembly selects between the algebraically identical
    routes: DOUBLE_COMMUTATOR compiles the three bilinear terms through the
    Kossakowski matrix, whose one nonzero weight yields the jump;
    SINGLE_GENERATOR takes the thermal-scale annihilator as the jump
    directly, with rate 2*z*gamma, plus the anticommutator Hamiltonian
    correction with coefficient z*gamma/2.
    """
    c = spec.coeffs
    derived = minimal_coefficients(cfg, c.d_pp, spec.beta, c.fugacity_z)
    if spec.assembly == DOUBLE_COMMUTATOR:
        return _bilinear_normal_form(cfg, spec, derived)

    z_gamma = derived.fugacity_z * derived.gamma
    x = build_position(cfg)
    p = build_momentum(cfg)
    h_eff = build_hamiltonian(cfg, spec.hamiltonian_kind, spec.omega_trap) \
        + (0.5 * z_gamma) * (x @ p + p @ x)
    jump = build_annihilator(cfg, spec.beta)
    rate = 2.0 * z_gamma
    k = (-1j / cfg.hbar) * h_eff - (0.5 * rate) * (jump.conj().T @ jump)
    return k, [(rate, jump)] if rate != 0.0 else [], {"coeffs": derived}


def collision_dpp(params: CollisionParameters, hbar: float) -> float:
    """Momentum diffusion implied by the collision quadrature grid itself.

    Equals the radial-integral d_pp of compute_dpp restricted to (0, q_max]
    and evaluated with this grid's nodes; the collision generator converges to
    the minimal generator with exactly this coefficient as q_max shrinks.
    """
    return dpp_prefactor(params.gas_mass, params.beta, hbar) * float(np.sum(thermal_kernel(
        params.tmatrix, params.beta, params.gas_mass, params.q_nodes,
        params.q_weights * params.q_nodes)))


def _boltzmann_collision(cfg: HilbertConfig, spec: LiouvillianSpec):
    """Collision generator: momentum-kick sandwiches over the signed q grid.

    Each node contributes, for both signs of q,
        U(q) G(q) rho G(q) U(q)^dag - (1/2){G(q)^2, rho}
    with U(q) = exp((i/hbar) q x) a momentum shift and G(q) = exp(-(beta/4M) q p)
    the thermal weight, structure_factor.brownian_weight of p.  Both are
    functions of one Hermitian matrix, so they come from one eigh of x and
    one of p: with x = V_x diag(l_x) V_x^dag and p = V_p diag(l_p) V_p^dag,

        J(q) = U(q) G(q) = V_x diag(e^{i q l_x/hbar}) (V_x^dag V_p) diag(w_q) V_p^dag,

    w_q = brownian_weight(q, l_p), for all signed nodes as one stacked
    product, and every -(1/2){G(q)^2, rho} is folded into K as
    -(1/2) V_p diag(sum_q s_q w_q^2) V_p^dag.
    """
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

    # signed nodes (q_1, -q_1, q_2, -q_2, ...), skipping those of rate 0
    live = rates != 0.0
    signed = np.stack([par.q_nodes[live], -par.q_nodes[live]], axis=1).ravel()
    signed_rates = np.repeat(rates[live], 2)
    lam_x, v_x = np.linalg.eigh(x)
    lam_p, v_p = np.linalg.eigh(p)
    phase = np.exp((1j / hbar) * signed[:, None] * lam_x)
    weight = brownian_weight(signed[:, None], lam_p, par.beta, cfg.mass)
    if not (np.isfinite(phase).all() and np.isfinite(weight).all()):
        raise ArithmeticError(
            "non-finite momentum shift or thermal weight on the collision grid "
            f"of {par.q_nodes.size} nodes up to q_max={par.q_max}")

    v_p_dag = v_p.conj().T
    jumps = v_x @ (phase[:, :, None] * (v_x.conj().T @ v_p) * weight[:, None, :]) @ v_p_dag
    k = (-1j / hbar) * h - (0.5 * v_p * (signed_rates @ weight**2)) @ v_p_dag
    return k, list(zip(signed_rates, jumps)), {"collision": par}


# the one list of generator kinds, each with its compile function
_COMPILERS = {
    CALDEIRA_LEGGETT: _caldeira_leggett,
    BILINEAR: _bilinear_normal_form,
    MINIMAL_QBM: _minimal_qbm,
    BOLTZMANN_COLLISION: _boltzmann_collision,
}


def build_liouvillian(cfg: HilbertConfig, spec: LiouvillianSpec) -> Liouvillian:
    """Compile the generator spec names: the one way to build a generator.

    The spec has validated itself; the compile function of spec.kind
    returns K, the jumps (s_k, J_k) and the attributes to attach.
    """
    k, jumps, attrs = _COMPILERS[spec.kind](cfg, spec)
    return _compiled(cfg, spec.kind, k, jumps, **attrs)


def superoperator_matrix(liouv) -> np.ndarray:
    """Dense column-stacked matrix of a superoperator.

    The matrix acts on Fortran-order (column-stacked) vec(rho), so
    matrix @ vec(rho) reproduces L[rho] for every rho.  A generator that
    carries its normal form is assembled from it directly with
    vec(A X B) = (B^T kron A) vec(X):

        I kron K + conj(K) kron I + sum_k s_k conj(J_k) kron J_k,

    the jump sum taken as one (d^2 x n)(n x d^2) product.  Any other
    callable, such as a Liouvillian built from a custom apply function, is
    probed one column at a time: column j is vec(L[E_j]) for the j-th
    Fortran-order unit matrix E_j.  d = liouv.cfg.dim; d^2 <= 10^4 is guarded.
    """
    d = liouv.cfg.dim
    n = d * d
    if n > 10_000:
        raise ValueError(f"superoperator matrix would be {n}x{n}; guard is 10^4")
    nf = getattr(liouv, "normal_form", None)
    if nf is not None:
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
