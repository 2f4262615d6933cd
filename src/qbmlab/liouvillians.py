"""Generators drho/dt = L[rho] for the quantum Brownian motion family.

One constructor, build_liouvillian, compiles a LiouvillianSpec, which
checks its own fields on construction, into one of four kinds of generator:

* damped-commutator generator (friction + momentum diffusion only), the
  high-temperature form that is NOT completely positive;
* general bilinear generator with friction, three diffusion coefficients and
  an anticommutator Hamiltonian correction, subject to the CP bound
  D_xx*D_pp - D_xp^2 >= (gamma*hbar/2)^2;
* minimal completely positive generator, whose gamma and d_xx derive from
  the user-supplied d_pp, with one construction: the bilinear one below;
* gas-collision generator built from exponential shift/weight sandwiches over
  a signed momentum-transfer quadrature grid, all taken from one
  eigendecomposition of x and one of p, and compiled as jumps of definite
  parity.

The compile function of each kind turns its physics, once, at build time,
into one Lindblad normal form

    L[rho] = K rho + rho K^dag + sum_k s_k J_k rho J_k^dag,

and the Liouvillian it returns is that normal form: one frozen object that
holds K, the weights s_k and the jumps J_k as read-only data.  A compile
whose arithmetic overflows raises NumericalFailure (build_liouvillian).  A
bilinear-family generator is compiled once per basis and spec, and equal
(cfg, spec) pairs share it.  It is compiled once more, into the entries
of its superoperator, one compact (positions, values) pair per term: the
jump term is the positions where any J_k is nonzero and the block of
their weighted products, never a d^4 index list, and it is one such
block per parity class of positions (i + k even or odd) when every J_k
is nonzero in one class alone.
superoperator_matrix adds the entries into the dense matrix.  apply
compiles them, on its first call, into CSR arrays by scipy.sparse.csr_array,
in sector order (i + j even first), and is then one direct call of scipy's
CSR mat-vec kernel per application.  propagate and superoperator_matrix
also take any other object with cfg and apply alone, such as a proxy that
forwards apply, and reach it through apply.

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
saturates the bound, so its C has rank one and it has a single jump: the
thermal annihilator (operators.build_annihilator) times a complex c, with
s |c|^2 = 2 z gamma.

Trace and Hermiticity are preserved, and never renormalized: tr L[rho] =
tr((K + K^dag + sum_k s_k J_k^dag J_k) rho), and that operator sum cancels
identically as a sum of products of the same truncated matrices (the
collision generator's K is formed from its own jumps to keep it so), so
the trace is annihilated at any truncation up to round-off.  With real
weights the two K terms are each other's adjoints and every sandwich is
self-adjoint, so Hermitian rho maps to Hermitian L[rho].

Parity.  In the number basis x and p have nonzero entries only where
i + k is odd and H (free or harmonic) only where i + k is even.  Every
bilinear-family jump is odd and its K even; the collision jumps are even
or odd and its K even, by construction.  So every library generator maps
the i + j even entries of rho to even ones and the odd to odd, exactly:
no entry of its superoperator couples the two sectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
# scipy's own CSR mat-vec kernel, called without csr_array's per-call dispatch
from scipy.sparse._sparsetools import csr_matvec

from .microcoeffs import (BilinearCoefficients, TMatrixModel, dpp_prefactor,
                          kossakowski_weights, saturating_coefficients,
                          thermal_kernel)
from .operators import (HAMILTONIAN_KINDS, HilbertConfig, build_hamiltonian,
                        build_momentum, build_position, NumericalFailure,
                        check_finite, check_integer, float_policy)
from .quadrature import legendre_rule
from .structure_factor import brownian_weight

CALDEIRA_LEGGETT = "caldeira_leggett"
BILINEAR = "bilinear"
MINIMAL_QBM = "minimal_qbm"
BOLTZMANN_COLLISION = "boltzmann_collision"

DOUBLE_COMMUTATOR = "double_commutator"
SINGLE_GENERATOR = "single_generator"

# G(q) = exp(-(beta/4M) q p) must stay representable; cap the exponent norm.
_COLLISION_EXPONENT_CAP = 5.0


@dataclass(frozen=True, eq=False)
class CollisionParameters:
    """Gas and quadrature data for the collision generator.

    q_nodes/q_weights discretize the radial momentum-transfer integral on
    (0, q_max]; the weights carry the 3D radial measure q^2, as produced by
    radial_grid().  The generator sums each node with both signs of q.
    Both are kept as read-only copies, so the caller's arrays can change
    without changing parameters already checked.  Every check is written
    so that NaN fails it, and each refusal is a ValueError naming its
    field.  Two sets are equal when every field is, the arrays by value;
    the arrays have no value hash, so the class has none.
    """

    gas_mass: float
    beta: float
    fugacity_z: float
    tmatrix: TMatrixModel
    q_nodes: np.ndarray
    q_weights: np.ndarray
    q_max: float

    def __post_init__(self):
        for name in ("q_nodes", "q_weights"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        for name in ("gas_mass", "beta", "q_max"):
            check_finite(name, getattr(self, name), "positive")
        check_finite("fugacity_z", self.fugacity_z, "nonnegative")
        if self.q_nodes.size == 0:
            raise ValueError("empty momentum-transfer grid: q_nodes has no node")
        if self.q_nodes.shape != self.q_weights.shape:
            raise ValueError("q_nodes and q_weights must have matching shapes")
        if not np.all((self.q_nodes > 0) & (self.q_nodes <= self.q_max)):
            raise ValueError("q_nodes must lie in (0, q_max]")
        if not np.all((self.q_weights > 0) & (self.q_weights < np.inf)):
            raise ValueError("q_weights must be positive and finite")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        scalars = ("gas_mass", "beta", "fugacity_z", "tmatrix", "q_max")
        return (all(getattr(self, name) == getattr(other, name) for name in scalars)
                and np.array_equal(self.q_nodes, other.q_nodes)
                and np.array_equal(self.q_weights, other.q_weights))


def radial_grid(q_max: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on (0, q_max) with the radial q^2 measure folded in.

    q_max must be positive and finite and n_nodes an integer >= 1 (bool
    refused), else a ValueError names the field."""
    check_finite("q_max", q_max, "positive")
    check_integer("n_nodes", n_nodes, 1)
    t, w = legendre_rule(n_nodes)
    nodes = 0.5 * q_max * (t + 1.0)
    weights = 0.5 * q_max * w * nodes**2
    return nodes, weights


@dataclass(frozen=True)
class LiouvillianSpec:
    """Which generator to build, and with what physics.

    Checked on construction for every rule the spec alone decides; the
    compile functions check only what needs the Hilbert space.

    assembly, DOUBLE_COMMUTATOR or SINGLE_GENERATOR (minimal_qbm only), is
    checked and never read: both names denote the one minimal generator.
    The benchmark's workloads still set it; the next change to bench/
    deletes it and SINGLE_GENERATOR (ROADMAP.md, item 2).
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
        if self.hamiltonian_kind not in HAMILTONIAN_KINDS:
            raise ValueError(f"unknown hamiltonian kind {self.hamiltonian_kind!r}")
        if self.omega_trap is not None:
            if self.hamiltonian_kind != "harmonic":
                raise ValueError(f"a {self.hamiltonian_kind} Hamiltonian does not "
                                 "read omega_trap")
            check_finite("omega_trap", self.omega_trap, "positive")
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
        check_finite("beta", self.beta, "positive")
        check_finite("gamma", c.gamma, "nonnegative")
        if any(getattr(c, name) != 0.0
               for name in ("gamma", "d_pp", "d_xx", "d_xp", "mu") if name != given):
            raise ValueError(f"{kind} takes only {given} (+ fugacity_z); "
                             f"{derived} are derived")
        if kind == MINIMAL_QBM and self.assembly not in (DOUBLE_COMMUTATOR,
                                                        SINGLE_GENERATOR):
            raise ValueError(f"unknown assembly {self.assembly!r}")


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """A generator as its Lindblad normal form,
    L[rho] = K rho + rho K^dag + sum_k s_k J_k rho J_k^dag.

    kind is the generator kind it was compiled from, k the (d, d) matrix K,
    weights the n real s_k and jumps the J_k stacked as an (n, d, d) array;
    coeffs and collision are the physics of the bilinear-family and the
    collision kinds.  entries is its superoperator, compiled on first use.
    _csr compiles the entries, on the first apply or matvec, into one CSR
    matrix in sector order (sector_order: i + j even first), so a
    generator that is only matrixified never builds it.  matvec is one
    call of scipy's CSR mat-vec kernel on a state vector in that order,
    either all of it or its leading closed block alone (closed_length), the
    even sector of every bilinear-family generator; propagate integrates
    that vector.  apply takes and returns rho in its natural layout.  The
    compiled entries and CSR belong to the instance: dataclasses.replace
    gives a generator that compiles its own.  build_liouvillian hands k,
    weights and jumps over read-only, since it may hand the same instance
    to every caller of an equal spec.
    """

    cfg: HilbertConfig
    kind: str
    k: np.ndarray
    weights: np.ndarray
    jumps: np.ndarray
    coeffs: BilinearCoefficients | None = None
    collision: CollisionParameters | None = None

    @cached_property
    def entries(self) -> tuple[tuple[tuple[np.ndarray, ...], np.ndarray], ...]:
        """The superoperator on Fortran-order vec(rho), where rho[i, j] sits
        at i + d j, as one (index, values) pair for each of its terms

            sum_k s_k conj(J_k) kron J_k,   I kron K,   conj(K) kron I,

        the jump term first, as one pair or as two.  index is four integer
        arrays (j, i, l, k) that broadcast, with values, to the positions
        M[i + d j, k + d l] of the matrix M.  No position repeats within a
        term; the terms overlap.  Each term is kept compact.  The jump term
        is the m positions where any J_k is nonzero and the (m x m) block
        of their products, never a d^4 index array.  When every J_k is
        nonzero in one parity class of positions alone (i + k even, or
        odd), it is one such pair per class, over that class's jumps and
        positions (_parity_classes).  So the bilinear family, whose jumps
        x and p are odd and tridiagonal, keeps one block over 2d - 2
        positions, and the collision generator, whose jumps are even and
        odd halves of dense matrices, two blocks over d^2/2 positions
        each: its form holds d^4/2 values, half its dense superoperator.
        The positions are expanded only where they are used, transiently
        by superoperator_matrix and once by the CSR compile.  The K terms
        are K's nonzeros, broadcast along the identity's d positions.
        """
        d = self.k.shape[0]
        flat = self.jumps.reshape(-1, d * d)
        nonzero = flat != 0.0
        terms = []
        for group in _parity_classes(nonzero, d):
            pos = np.flatnonzero(nonzero[group].any(axis=0))
            row, col = np.divmod(pos, d)
            sub = flat[group][:, pos]
            # (J rho J^dag)[i, j] = J[i, k] rho[k, l] conj(J[j, l]): J's position
            # (i, k) runs along the block's columns, conj(J)'s (j, l) down its rows
            terms.append(((row[:, None], row, col[:, None], col),
                          sub.conj().T @ (self.weights[group][:, None] * sub)))
        k_row, k_col = np.nonzero(self.k)
        k_val = self.k[k_row, k_col]
        other = np.arange(d)[:, None]
        return (
            *terms,
            # (K rho)[i, j] = K[i, k] rho[k, j]
            ((other, k_row, other, k_col), k_val),
            # (rho K^dag)[i, j] = rho[i, l] conj(K[j, l])
            ((k_row, other, k_col, other), k_val.conj()),
        )

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """entries as the CSR arrays (indptr, indices, data) on vec(rho) in
        sector order, and the length of its leading block closed under L.

        Sector order (sector_order) takes the entries of row-major vec(rho)
        with i + j even first, then those with i + j odd.  The arrays are
        those of scipy.sparse.csr_array((data, (rows, cols))) on row-major
        vec(rho), which adds the overlapping terms, with the rows and column
        labels carried into sector order: each row keeps its entries in
        their row-major order, so each row sum is the row-major CSR's, term
        for term.

        The closed length is the even sector's size when no entry of L
        couples an even entry to an odd one and every entry is finite, and
        otherwise all d^2 entries: only then does a state whose odd entries
        are zero keep them zero, as L's zeros and finite products give.
        Every library generator keeps the parity of i + j with a free or
        harmonic Hamiltonian (module docstring).
        """
        d = self.k.shape[0]
        n = d * d
        _, position, n_even = sector_order(d)
        triplets = [np.broadcast_arrays(i * d + j, k * d + l, values)
                    for (j, i, l, k), values in self.entries]
        rows, cols, values = (np.concatenate([a.ravel() for a in part])
                              for part in zip(*triplets))
        # the constructor keeps each row's entries in input order, whatever
        # the row's label, and its sort and sum read only the columns; it
        # keeps numpy's intp indices, with which the mat-vec ran 15-20%
        # faster than with int32 at dims 38-42
        csr = scipy.sparse.csr_array((values, (position.take(rows), cols)), shape=(n, n))
        indptr, indices, data = csr.indptr, position.take(csr.indices), csr.data
        split = indptr[n_even]
        closed = (indices[:split].max(initial=0) < n_even
                  and indices[split:].min(initial=n) >= n_even
                  and np.isfinite(data).all())
        return indptr, indices, data, n_even if closed else n

    @property
    def closed_length(self) -> int:
        """The length of the leading sector block that L maps into itself
        (_csr): the even sector's size, or d^2 when L mixes the sectors."""
        return self._csr[3]

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """L on a state in sector order, as one CSR mat-vec into a new
        zeroed array: vec is all d^2 entries, or the leading closed block
        alone (closed_length), the rest taken as zero."""
        indptr, indices, data, closed = self._csr
        m = vec.size
        # the kernel reads every column its rows name, whatever the length
        if m != indptr.size - 1 and m != closed:
            raise ValueError(f"state of shape {vec.shape} does not match "
                             f"the generator's {indptr.size - 1} entries or "
                             f"its closed block of {closed}")
        out = np.zeros(m, dtype=complex)
        csr_matvec(m, m, indptr, indices, data, vec, out)
        return out

    def apply(self, rho) -> np.ndarray:
        """L[rho] for rho, any array-like, of d^2 entries, read in row-major
        order: rho is gathered into sector order, mapped by matvec and
        scattered back into a new C-contiguous array of rho's shape.  Each
        entry is the row sum of the row-major CSR mat-vec, csr_array @
        vec(rho), term for term, so the same bits."""
        rho = np.asarray(rho)
        order, _, _ = sector_order(self.k.shape[0])
        if rho.size != order.size:
            raise ValueError(f"state of shape {rho.shape} does not match "
                             f"the generator's {order.size} entries")
        out = np.empty(rho.shape, dtype=complex)
        out.reshape(-1)[order] = self.matvec(rho.take(order))
        return out


@functools.lru_cache(maxsize=16)
def sector_order(d: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(order, position, n_even) at dim d, the arrays read-only: order[k] is
    the row-major index of the k-th entry of vec(rho) in sector order, the
    n_even entries with i + j even first, then the odd ones, each in
    row-major order, and position is its inverse.  i + j is symmetric, so
    the same permutation takes Fortran-order vec(rho) into its checkerboard
    order (stationary_state).  The even sector holds the diagonal."""
    i, j = np.divmod(np.arange(d * d), d)
    order = np.argsort((i + j) % 2, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(d * d)
    order.flags.writeable = False
    position.flags.writeable = False
    return order, position, (d * d + 1) // 2


def _parity_classes(nonzero: np.ndarray, d: int) -> list:
    """The jump groups of Liouvillian.entries, from the (n, d^2) nonzero
    mask of the flattened jumps: the jumps nonzero at no odd position, then
    those nonzero at no even one, when each jump is one or the other and
    both groups hold some; otherwise all jumps as one group (a slice, so the
    block is formed from the jumps themselves)."""
    _, position, n_even = sector_order(d)
    odd = position >= n_even
    in_odd = (nonzero & odd).any(axis=1)
    if in_odd.all() or not in_odd.any() or (in_odd & (nonzero & ~odd).any(axis=1)).any():
        return [slice(None)]
    return [~in_odd, in_odd]


def _bilinear(cfg: HilbertConfig, spec: LiouvillianSpec,
              coeffs: BilinearCoefficients | None = None):
    """K, the Kossakowski weights s_k and jumps J_k, and the attributes of
    the bilinear terms of coeffs: spec.coeffs for the bilinear kind, derived
    ones for the others."""
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
    jumps = [u[0] * x + u[1] * p for u in vecs.T]
    return k, weights, jumps, {"coeffs": coeffs}


def _caldeira_leggett(cfg: HilbertConfig, spec: LiouvillianSpec):
    """Friction + momentum diffusion d_pp = 2*M*gamma/beta, no position diffusion.

    Compiles through the bilinear normal form, so it agrees with the
    bilinear kind at the same coefficients bit for bit.
    """
    c = spec.coeffs
    derived = BilinearCoefficients(
        gamma=c.gamma, d_pp=2.0 * cfg.mass * c.gamma / spec.beta,
        fugacity_z=c.fugacity_z)
    return _bilinear(cfg, spec, derived)


def minimal_coefficients(cfg: HilbertConfig, d_pp: float, beta: float,
                         fugacity_z: float = 1.0) -> BilinearCoefficients:
    """Derive the completely positive coefficient set from d_pp alone.

    gamma = (beta/2M) d_pp and d_xx = (beta hbar/4M)^2 d_pp, from
    saturating_coefficients, saturate the CP bound, with no anticommutator
    correction (mu = 0).  BilinearCoefficients rejects a negative d_pp.
    """
    check_finite("beta", beta, "positive")
    gamma, d_xx = saturating_coefficients(d_pp, beta, cfg.mass, cfg.hbar)
    return BilinearCoefficients(gamma=gamma, d_pp=d_pp, d_xx=d_xx,
                                fugacity_z=fugacity_z)


def _minimal_qbm(cfg: HilbertConfig, spec: LiouvillianSpec):
    """Completely positive Brownian generator from d_pp and fugacity_z only.

    gamma and d_xx come from minimal_coefficients, the one thermal
    derivation, and compile through _bilinear: the one construction,
    whatever the spec's assembly.  The one jump is the thermal annihilator
    build_annihilator(cfg, beta) times a complex c, weight |c|^2 = 2 z gamma,
    as the tests check.
    """
    c = spec.coeffs
    return _bilinear(cfg, spec, minimal_coefficients(cfg, c.d_pp, spec.beta, c.fugacity_z))


def collision_dpp(params: CollisionParameters, hbar: float) -> float:
    """Momentum diffusion implied by the collision quadrature grid itself.

    Equals the radial-integral d_pp of compute_dpp restricted to (0, q_max]
    and evaluated with this grid's nodes; the collision generator converges to
    the minimal generator with exactly this coefficient as q_max shrinks.
    It is computed under the float policy, and a d_pp that is not finite
    raises NumericalFailure naming the inputs that set it.
    """
    with float_policy():
        d_pp = dpp_prefactor(params.gas_mass, params.beta, hbar) * float(np.sum(
            thermal_kernel(params.tmatrix, params.beta, params.gas_mass, params.q_nodes,
                           params.q_weights * params.q_nodes)))
    if not np.isfinite(d_pp):
        raise NumericalFailure(
            f"collision_dpp: d_pp = {d_pp!r} is not finite at t0={params.tmatrix.t0!r}, "
            f"beta={params.beta!r}, gas_mass={params.gas_mass!r}, q_max={params.q_max!r}")
    return d_pp


def _boltzmann_collision(cfg: HilbertConfig, spec: LiouvillianSpec):
    """Collision generator: momentum-kick sandwiches over the signed q grid,
    compiled as two jumps of definite parity per node.

    Each node contributes, for both signs of q,
        U(q) G(q) rho G(q) U(q)^dag - (1/2){G(q)^2, rho}
    with U(q) = exp((i/hbar) q x) a momentum shift and G(q) = exp(-(beta/4M) q p)
    the thermal weight, structure_factor.brownian_weight of p.  Both are
    functions of one Hermitian matrix, so they come from one eigh of x and
    one of p: with x = V_x diag(l_x) V_x^dag and p = V_p diag(l_p) V_p^dag,

        J(q) = U(q) G(q) = V_x diag(e^{i q l_x/hbar}) (V_x^dag V_p) diag(w_q) V_p^dag,

    w_q = brownian_weight(q, l_p), for the positive nodes as one stacked
    product.  In the truncated basis Pi x Pi = -x and Pi p Pi = -p exactly,
    Pi = diag((-1)^n), so J(-q) = Pi J(q) Pi = J_e - J_o, where J_e and J_o
    hold J(q)'s entries with i + k even and odd, J(q) = J_e + J_o.  The
    cross terms cancel between the signs:

        s [J(q) rho J(q)^dag + J(-q) rho J(-q)^dag] = 2 s [J_e rho J_e^dag + J_o rho J_o^dag],

    so each node of rate s emits J_e and J_o, in that order, each with
    weight 2 s.  K = -(i/hbar) H - (1/2) sum_k s_k J_k^dag J_k is formed from
    those jumps: J_e^dag J_e + J_o^dag J_o is the even part of J(q)^dag J(q),
    so K = -(i/hbar) H - even(sum_q s_q J(q)^dag J(q)), parity-even by
    construction.  Every jump and K therefore has a definite parity, and
    the superoperator couples no i + j even entry to an odd one.
    """
    par = spec.collision
    hbar = cfg.hbar
    d = cfg.dim
    x = build_position(cfg)
    p = build_momentum(cfg)
    h = build_hamiltonian(cfg, spec.hamiltonian_kind, spec.omega_trap)

    lam_p, v_p = np.linalg.eigh(p)  # ||p|| = max |lam_p|
    exponent = par.beta * par.q_max * np.abs(lam_p).max() / (4.0 * cfg.mass)
    if not exponent <= _COLLISION_EXPONENT_CAP:
        raise ValueError(
            f"collision weight exponent beta*q_max*||p||/(4M) = {exponent:.2f} "
            f"exceeds {_COLLISION_EXPONENT_CAP}; lower q_max, beta, or dim "
            "to keep exp(-(beta/4M) q p) representable")

    prefactor = dpp_prefactor(par.gas_mass, par.beta, hbar)
    rates = par.fugacity_z * prefactor * thermal_kernel(
        par.tmatrix, par.beta, par.gas_mass, par.q_nodes, par.q_weights / par.q_nodes)

    # the positive nodes, skipping those of rate 0
    live = rates != 0.0
    q, rates = par.q_nodes[live], rates[live]
    lam_x, v_x = np.linalg.eigh(x)
    phase = np.exp((1j / hbar) * q[:, None] * lam_x)
    weight = brownian_weight(q[:, None], lam_p, par.beta, cfg.mass)
    kicks = v_x @ (phase[:, :, None] * (v_x.conj().T @ v_p) * weight[:, None, :]) \
        @ v_p.conj().T
    _, position, n_even = sector_order(d)
    odd = (position >= n_even).reshape(d, d)
    # sum_q s_q J(q)^dag J(q), as one product over the stacked rows of all J(q)
    stacked = kicks.reshape(-1, d)
    gram = stacked.conj().T @ (np.repeat(rates, d)[:, None] * stacked)
    k = (-1j / hbar) * h - np.where(odd, 0.0, gram)
    jumps = np.stack([np.where(odd, 0.0, kicks), np.where(odd, kicks, 0.0)], axis=1)
    return k, np.repeat(2.0 * rates, 2), jumps.reshape(-1, d, d), {"collision": par}


# the one list of generator kinds, each with its compile function
_COMPILERS = {
    CALDEIRA_LEGGETT: _caldeira_leggett,
    BILINEAR: _bilinear,
    MINIMAL_QBM: _minimal_qbm,
    BOLTZMANN_COLLISION: _boltzmann_collision,
}


def build_liouvillian(cfg: HilbertConfig, spec: LiouvillianSpec) -> Liouvillian:
    """Compile the generator spec names: the one way to build a generator.

    The spec has validated itself; the compile function of spec.kind
    returns K, the weights s_k, the jumps J_k (a stacked array, or a list
    of matrices) and the physics to attach, and k, weights and jumps are
    handed over read-only.  It runs with numpy's warnings off, and a K,
    weights or jumps not finite raise NumericalFailure naming the kind and
    the part (bilinear coefficients whose CP terms overflow: cp_margin's).

    A bilinear-family generator is compiled once per basis and spec: a
    bounded cache of the 16 latest hands equal (cfg, spec) pairs the same
    Liouvillian, so its entries and CSR are compiled once per run too.  A
    compile that raises is not cached.  A collision spec is compiled on
    every call: its q-grid arrays have no value hash, and its generator
    holds d^4/2 values.
    """
    if spec.kind == BOLTZMANN_COLLISION:
        return _compile(cfg, spec)
    return _cached_compile(cfg, spec)


def _compile(cfg: HilbertConfig, spec: LiouvillianSpec) -> Liouvillian:
    # one floating-point policy per compile: numpy never warns inside it, and
    # an overflow is found by the finiteness check below (or cp_margin's)
    with float_policy():
        k, weights, jumps, attrs = _COMPILERS[spec.kind](cfg, spec)
        weights = np.array(weights, dtype=float)
        jumps = np.asarray(jumps, dtype=complex).reshape(-1, cfg.dim, cfg.dim)
    for part, a in (("K", k), ("weights", weights), ("jumps", jumps)):
        if not np.isfinite(a).all():
            raise NumericalFailure(f"{spec.kind} generator: {part} is not finite")
        a.flags.writeable = False
    return Liouvillian(cfg, spec.kind, k, weights, jumps, **attrs)


_cached_compile = functools.lru_cache(maxsize=16)(_compile)


def superoperator_matrix(liouv) -> np.ndarray:
    """Dense column-stacked matrix of a superoperator.

    The matrix acts on Fortran-order (column-stacked) vec(rho), so
    matrix @ vec(rho) reproduces L[rho] for every rho.  A Liouvillian adds
    its entries into a zeroed matrix, term after term, each at the flat
    positions its index broadcasts to; apply reads the same entries.  Any
    other generator, an object with cfg and apply alone, is probed one
    column at a time: column j is vec(L[E_j]) for the j-th Fortran-order
    unit matrix E_j.  d = liouv.cfg.dim; d^2 <= 10^4 is guarded.
    """
    d = liouv.cfg.dim
    n = d * d
    if n > 10_000:
        raise ValueError(f"superoperator matrix would be {n}x{n}; guard is 10^4")
    if isinstance(liouv, Liouvillian):
        mat = np.zeros(n * n, dtype=complex)
        for (j, i, l, k), values in liouv.entries:
            # M[i + d j, k + d l]; the j, l and i, k parts broadcast once
            mat[(j * (d * n) + l * d) + (i * n + k)] += values
        return mat.reshape(n, n)
    mat = np.zeros((n, n), dtype=complex)
    basis = np.zeros((d, d), dtype=complex)
    for j in range(n):
        basis.flat[:] = 0.0
        # Fortran-order unit matrix: entry (j % d, j // d)
        basis[j % d, j // d] = 1.0
        mat[:, j] = liouv.apply(basis).flatten(order="F")
    return mat
