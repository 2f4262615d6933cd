import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from conftest import (BENCH_BOX, CallableGenerator, bench_collision_spec, random_density,
                      signed_collision_normal_form, single_jump_normal_form)
from qbmlab import (
    BILINEAR,
    BOLTZMANN_COLLISION,
    CALDEIRA_LEGGETT,
    DOUBLE_COMMUTATOR,
    MINIMAL_QBM,
    SINGLE_GENERATOR,
    BilinearCoefficients,
    CollisionParameters,
    GasThermodynamics,
    HilbertConfig,
    Liouvillian,
    LiouvillianSpec,
    NumericalFailure,
    TMatrixModel,
    build_annihilator,
    build_hamiltonian,
    build_momentum,
    build_position,
    build_liouvillian,
    collision_dpp,
    compute_dpp,
    cp_check,
    cutoff_momentum,
    dpp_prefactor,
    minimal_coefficients,
    parity_operator,
    radial_grid,
    s_mb,
    superoperator_matrix,
)
from qbmlab import liouvillians
from qbmlab.liouvillians import _cached_compile, sector_order
from qbmlab.microcoeffs import thermal_kernel

CFG = HilbertConfig(dim=12)
TMAT = TMatrixModel(kind="gaussian", t0=0.05, sigma_q=1.0)
GAS = GasThermodynamics(beta=2.0, gas_mass=1.0)


def _collision_params(q_max, n_nodes=60, fugacity_z=0.8):
    nodes, weights = radial_grid(q_max, n_nodes)
    return CollisionParameters(gas_mass=1.0, beta=2.0, fugacity_z=fugacity_z,
                               tmatrix=TMAT, q_nodes=nodes, q_weights=weights,
                               q_max=q_max)


def _all_generators(cfg, q_max):
    cl = build_liouvillian(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, beta=2.0, coeffs=BilinearCoefficients(gamma=0.3)))
    bil = build_liouvillian(cfg, LiouvillianSpec(
        kind=BILINEAR,
        coeffs=BilinearCoefficients(gamma=0.3, d_pp=0.4, d_xx=0.05, d_xp=0.01,
                                    mu=0.1, fugacity_z=0.9)))
    mini = build_liouvillian(cfg, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=2.0,
        coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=0.8)))
    col = build_liouvillian(cfg, LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, collision=_collision_params(q_max)))
    return [cl, bil, mini, col]


def _reference_bilinear(cfg, coeffs, hamiltonian_kind, omega_trap):
    """Term-by-term double-commutator apply: the oracle for the normal form."""
    hbar = cfg.hbar
    h = build_hamiltonian(cfg, hamiltonian_kind, omega_trap)
    x = build_position(cfg)
    p = build_momentum(cfg)
    xp_anti = x @ p + p @ x
    gamma, d_pp, d_xx, d_xp = coeffs.gamma, coeffs.d_pp, coeffs.d_xx, coeffs.d_xp
    mu, z = coeffs.mu, coeffs.fugacity_z

    def apply(rho):
        out = (-1j / hbar) * (h @ rho - rho @ h)
        comm_x = x @ rho - rho @ x
        comm_p = p @ rho - rho @ p
        anti_p = p @ rho + rho @ p
        dis = (-1j / hbar) * mu * (rho @ xp_anti - xp_anti @ rho)
        dis += (-1j / hbar) * gamma * (x @ anti_p - anti_p @ x)
        dis += (-d_pp / hbar**2) * (x @ comm_x - comm_x @ x)
        dis += (-d_xx / hbar**2) * (p @ comm_p - comm_p @ p)
        dis += (d_xp / hbar**2) * ((p @ comm_x - comm_x @ p)
                                   + (x @ comm_p - comm_p @ x))
        return out + z * dis

    return apply


def _reference_collision(cfg, par, hamiltonian_kind):
    """Sum of per-node sandwiches U G rho G U^dag - (1/2){G^2, rho}: the oracle
    for the compiled collision generator."""
    hbar = cfg.hbar
    x = build_position(cfg)
    p = build_momentum(cfg)
    h = build_hamiltonian(cfg, hamiltonian_kind)
    kern = par.tmatrix.squared(par.q_nodes) * np.exp(
        -par.beta * par.q_nodes**2 / (8.0 * par.gas_mass))
    rates = (par.fugacity_z * dpp_prefactor(par.gas_mass, par.beta, hbar)
             * par.q_weights * kern / par.q_nodes)
    sandwiches = []
    for q, rate in zip(par.q_nodes, rates):
        for sq in (q, -q):
            u = scipy.linalg.expm(1j / hbar * sq * x)
            g = scipy.linalg.expm(-par.beta / (4.0 * cfg.mass) * sq * p)
            w = u @ g
            sandwiches.append((rate, w, w.conj().T, g @ g))

    def apply(rho):
        out = (-1j / hbar) * (h @ rho - rho @ h)
        for rate, w, wdag, g2 in sandwiches:
            out += rate * (w @ rho @ wdag - 0.5 * (g2 @ rho + rho @ g2))
        return out

    return apply


def _expm_collision_normal_form(cfg, spec):
    """K and the jumps (s_k, J_k) of the collision generator with one expm per
    shift and one per weight at every signed node: the oracle for the build
    from the eigendecompositions of x and p."""
    par = spec.collision
    hbar = cfg.hbar
    x = build_position(cfg)
    p = build_momentum(cfg)
    h = build_hamiltonian(cfg, spec.hamiltonian_kind, spec.omega_trap)
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
    return k, jumps


def _signed_pairs(liouv):
    """J(q) = J_e + J_o and J(-q) = J_e - J_o from the definite-parity jumps,
    in the signed compile's order, and each node's rate, half the pair's
    weight."""
    even, odd = liouv.jumps[0::2], liouv.jumps[1::2]
    signed = np.stack([even + odd, even - odd], axis=1).reshape(liouv.jumps.shape)
    return signed, np.repeat(0.5 * liouv.weights[0::2], 2)


def _stacked_product_apply(liouv):
    """Apply by stacked products: Y = [s_1 J_1; ...; s_n J_n] rho, then its n
    blocks side by side times [J_1^dag; ...; J_n^dag]: the oracle for the
    sparse apply."""
    k = liouv.k
    d = k.shape[0]
    kdag = k.conj().T.copy()
    left = (liouv.weights[:, None, None] * liouv.jumps).reshape(-1, d)
    right = liouv.jumps.conj().transpose(0, 2, 1).reshape(-1, d)

    def apply(rho):
        out = k @ rho
        out += rho @ kdag
        y = (left @ rho).reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)
        out += y @ right
        return out

    return apply


def _realigned_superoperator(liouv):
    """I kron K + conj(K) kron I + sum_k s_k conj(J_k) kron J_k by one dense
    (d^2 x n)(n x d^2) product over the realigned pairs and a four-index
    transpose: the oracle for the scatter of the normal form's entries."""
    d = liouv.k.shape[0]
    # (conj(J) kron J)[(a, i), (b, j)] = conj(J)[a, b] J[i, j]
    flat = liouv.jumps.reshape(-1, d * d)
    realigned = flat.conj().T @ (liouv.weights[:, None] * flat)
    blocks = realigned.reshape(d, d, d, d).transpose(0, 2, 1, 3).copy()
    diag = np.arange(d)
    blocks[diag, :, diag, :] += liouv.k
    blocks[:, diag, :, diag] += liouv.k.conj()
    return blocks.reshape(d * d, d * d)


def _jump_groups(liouv):
    """The jumps as (weights, flat jumps) groups by the rule of
    Liouvillian.entries: the jumps with no nonzero entry at an odd position
    (i + k odd), then those with none at an even one, when every jump is
    one or the other and both groups hold some; otherwise one group."""
    d = liouv.k.shape[0]
    flat = liouv.jumps.reshape(-1, d * d)
    i, k = np.divmod(np.arange(d * d), d)
    odd = (i + k) % 2 == 1
    at_odd = (flat[:, odd] != 0.0).any(axis=1)
    at_even = (flat[:, ~odd] != 0.0).any(axis=1)
    if at_odd.all() or not at_odd.any() or (at_odd & at_even).any():
        return [(liouv.weights, flat)]
    return [(liouv.weights[~at_odd], flat[~at_odd]), (liouv.weights[at_odd], flat[at_odd])]


def _flat_entries(liouv):
    """The superoperator's entries as flat (rows, cols, values) groups on
    Fortran-order vec(rho), each jump position pair of each jump group
    expanded, in the order the CSR compile reads them: the oracle of the
    compact entries."""
    d = liouv.k.shape[0]
    groups = []
    for weights, flat in _jump_groups(liouv):
        pos = np.flatnonzero((flat != 0.0).any(axis=0))
        row, col = np.divmod(pos, d)
        jump = flat[:, pos].conj().T @ (weights[:, None] * flat[:, pos])
        groups.append(((row + d * row[:, None]).ravel(),
                       (col + d * col[:, None]).ravel(), jump.ravel()))
    k_row, k_col = np.nonzero(liouv.k)
    k_val = liouv.k[k_row, k_col]
    other = np.arange(d)[:, None]
    return (
        *groups,
        ((k_row + d * other).ravel(), (k_col + d * other).ravel(),
         np.tile(k_val, d)),
        ((other + d * k_row).ravel(), (other + d * k_col).ravel(),
         np.tile(k_val.conj(), d)),
    )


def _flat_scatter(liouv):
    """The flat groups scattered into a zeroed matrix, group after group."""
    n = liouv.k.shape[0] ** 2
    mat = np.zeros(n * n, dtype=complex)
    for rows, cols, values in _flat_entries(liouv):
        mat[rows * n + cols] += values
    return mat.reshape(n, n)


def _constructor_csr(liouv):
    """scipy.sparse.csr_array of the flat groups on row-major vec(rho)."""
    d = liouv.k.shape[0]
    rows, cols, values = (np.concatenate(part) for part in zip(*_flat_entries(liouv)))
    return scipy.sparse.csr_array(
        (values, (rows % d * d + rows // d, cols % d * d + cols // d)),
        shape=(d * d, d * d))


def _assert_matches_reference(liouv, reference, seed):
    """Agreement to 1e-12 relative on density matrices and on a general matrix,
    which also pins which side of rho each term multiplies."""
    rng = np.random.default_rng(seed)
    general = rng.normal(size=(CFG.dim, CFG.dim)) + 1j * rng.normal(size=(CFG.dim, CFG.dim))
    for rho in (random_density(CFG.dim, rng), random_density(CFG.dim, rng), general):
        ref = reference(rho)
        assert np.abs(liouv.apply(rho) - ref).max() <= 1e-12 * np.abs(ref).max()


fugacity = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=2.0))


@given(kind=st.sampled_from([BILINEAR, CALDEIRA_LEGGETT, DOUBLE_COMMUTATOR,
                             SINGLE_GENERATOR]),
       gamma=st.floats(min_value=0.0, max_value=1.0),
       d_pp=st.floats(min_value=0.01, max_value=2.0),
       d_xp=st.floats(min_value=-0.5, max_value=0.5),
       cp_margin=st.floats(min_value=-0.5, max_value=0.5),
       mu=st.floats(min_value=-0.5, max_value=0.5),
       fugacity_z=fugacity,
       beta=st.floats(min_value=0.2, max_value=5.0),
       hamiltonian_kind=st.sampled_from(["free", "harmonic"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_double_commutator_reference(
        kind, gamma, d_pp, d_xp, cp_margin, mu, fugacity_z, beta,
        hamiltonian_kind, seed):
    """Every bilinear-family generator equals the term-by-term double
    commutators at its (derived) coefficients, on either side of the CP bound
    d_xx d_pp - d_xp^2 - (gamma hbar/2)^2 >= 0."""
    omega = 0.8 if hamiltonian_kind == "harmonic" else None
    if kind == BILINEAR:
        d_xx = max(0.0, (d_xp**2 + (gamma * CFG.hbar / 2.0) ** 2 + cp_margin) / d_pp)
        spec = LiouvillianSpec(
            kind=BILINEAR, hamiltonian_kind=hamiltonian_kind, omega_trap=omega,
            coeffs=BilinearCoefficients(gamma=gamma, d_pp=d_pp, d_xx=d_xx,
                                        d_xp=d_xp, mu=mu, fugacity_z=fugacity_z))
    elif kind == CALDEIRA_LEGGETT:
        spec = LiouvillianSpec(
            kind=CALDEIRA_LEGGETT, hamiltonian_kind=hamiltonian_kind,
            omega_trap=omega, beta=beta,
            coeffs=BilinearCoefficients(gamma=gamma, fugacity_z=fugacity_z))
    else:
        spec = LiouvillianSpec(
            kind=MINIMAL_QBM, hamiltonian_kind=hamiltonian_kind, omega_trap=omega,
            beta=beta, assembly=kind,
            coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=fugacity_z))
    liouv = build_liouvillian(CFG, spec)
    reference = _reference_bilinear(CFG, liouv.coeffs, hamiltonian_kind, omega)
    _assert_matches_reference(liouv, reference, seed)


@given(q_max=st.floats(min_value=0.1, max_value=2.0),
       n_nodes=st.integers(min_value=1, max_value=12),
       fugacity_z=fugacity,
       hamiltonian_kind=st.sampled_from(["free", "harmonic"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_collision_matches_sandwich_reference(q_max, n_nodes, fugacity_z,
                                              hamiltonian_kind, seed):
    par = _collision_params(q_max, n_nodes, fugacity_z)
    liouv = build_liouvillian(CFG, LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, hamiltonian_kind=hamiltonian_kind,
        collision=par))
    _assert_matches_reference(liouv, _reference_collision(CFG, par, hamiltonian_kind),
                              seed)


def test_radial_grid_integrates_square_measure():
    # weights carry the q^2 measure: summing them integrates q^2 over [0, q_max]
    for q_max in (0.5, 2.0, 10.0):
        nodes, weights = radial_grid(q_max, 40)
        assert np.all(nodes > 0.0) and np.all(nodes < q_max)
        assert np.all(np.diff(nodes) > 0)
        assert abs(weights.sum() - q_max**3 / 3.0) < 1e-12 * q_max**3


def test_radial_grid_is_bit_identical_to_leggauss_grid():
    """The grid comes from the shared rule cache, unchanged: the reference is
    leggauss's rule mapped to (0, q_max), as radial_grid once computed it."""
    for q_max, n_nodes in ((0.25, 40), (2.0, 8), (10.0, 60), (10.0, 40)):
        t, w = np.polynomial.legendre.leggauss(n_nodes)
        expected = 0.5 * q_max * (t + 1.0)
        nodes, weights = radial_grid(q_max, n_nodes)
        assert np.array_equal(nodes, expected)
        assert np.array_equal(weights, 0.5 * q_max * w * expected**2)


def test_trace_and_hermiticity_preservation(rng):
    # the collision grid's q_max keeps exp(-(beta/4M) q p) under the exponent cap
    for dim, q_max in ((12, 2.0), (40, 1.0)):
        cfg = HilbertConfig(dim=dim)
        for liouv in _all_generators(cfg, q_max):
            for _ in range(3):
                rho = random_density(cfg.dim, rng)
                out = liouv.apply(rho)
                scale = np.abs(out).max()
                assert abs(np.trace(out)) < 1e-13 * max(scale, 1.0)
                assert np.abs(out - out.conj().T).max() < 1e-13 * max(scale, 1.0)


def test_apply_takes_any_array_like(rng):
    """A nested list, a tuple of rows and a real array give the bits of the
    complex array, as propagate and validate_density_matrix take them."""
    cfg = HilbertConfig(dim=5)
    rho = random_density(cfg.dim, rng)
    for liouv in _all_generators(cfg, 1.0):
        expected = liouv.apply(rho)
        for given in (rho.tolist(), tuple(map(tuple, rho))):
            assert np.array_equal(liouv.apply(given), expected)
        assert np.array_equal(liouv.apply(rho.real.tolist()), liouv.apply(rho.real))


@given(fugacity_z=st.floats(min_value=2.0**-20, max_value=2.0),
       gamma=st.floats(min_value=1e-3, max_value=1.0),
       d_xp=st.floats(min_value=-0.5, max_value=0.5),
       log10_d_pp=st.floats(min_value=-3.0, max_value=3.0),
       relative_margin=st.sampled_from([0.0, 1e-15, -1e-15, 1e-13, -1e-13,
                                        1e-8, -1e-8, 0.1, -0.1]))
@settings(max_examples=300, deadline=None)
def test_cp_check_decides_the_compiled_weights(fugacity_z, gamma, d_xp, log10_d_pp,
                                               relative_margin):
    """cp_check's verdict and the compiled generator's Kossakowski weights
    follow one rule: the set is CP exactly when no weight is negative, on
    the boundary and near it, with d_pp / d_xx spanning many decades."""
    d_pp = 10.0**log10_d_pp
    d_xx = (d_xp**2 + (gamma / 2.0) ** 2) * (1.0 + relative_margin) / d_pp
    c = BilinearCoefficients(gamma=gamma, d_pp=d_pp, d_xx=d_xx, d_xp=d_xp,
                             fugacity_z=fugacity_z)
    liouv = build_liouvillian(HilbertConfig(dim=3), LiouvillianSpec(kind=BILINEAR,
                                                                    coeffs=c))
    assert cp_check(c)[0] == (liouv.weights.min() >= 0.0)


def test_unresolved_negative_weight_is_kept():
    """d_pp = 10 beside a tiny d_xx: the negative weight, -5e-14, lies below
    eigh's resolution of the 20.0 weight and is det C / lambda_max."""
    gamma, d_pp = 0.01, 10.0
    c = BilinearCoefficients(gamma=gamma, d_pp=d_pp,
                             d_xx=(gamma / 2.0) ** 2 / d_pp * (1.0 - 1e-8))
    ok, margin = cp_check(c)
    assert ok is False and abs(margin / -2.5e-13 - 1.0) < 1e-6
    weights = build_liouvillian(CFG, LiouvillianSpec(kind=BILINEAR, coeffs=c)).weights
    assert weights.size == 2
    assert abs(weights.min() / -5.0e-14 - 1.0) < 1e-6
    assert abs(weights.sum() - 2.0 * (d_pp + c.d_xx)) < 1e-12 * d_pp


@pytest.mark.parametrize("coeffs, completely_positive", [
    (BilinearCoefficients(d_pp=1.0), True),
    (BilinearCoefficients(d_xx=0.3), True),
    (BilinearCoefficients(), True),
    (BilinearCoefficients(d_pp=1.3, gamma=0.4), False),
    (BilinearCoefficients(d_xp=0.2), False),
], ids=["pure-d_pp", "pure-d_xx", "zero", "d_xx-zero-with-friction", "d_xp-alone"])
def test_cp_check_on_the_edges(coeffs, completely_positive):
    """Where a diffusion vanishes, GKSL needs only C's nonnegative diagonal
    and det C >= 0: cp_check's verdict is still "no compiled weight is
    negative"."""
    weights = build_liouvillian(
        CFG, LiouvillianSpec(kind=BILINEAR, coeffs=coeffs)).weights
    assert cp_check(coeffs)[0] is completely_positive
    assert bool(np.all(weights >= 0.0)) is completely_positive


@given(d_pp=st.floats(min_value=1e-4, max_value=1e4),
       beta=st.floats(min_value=0.05, max_value=20.0),
       mass=st.floats(min_value=0.1, max_value=10.0),
       hbar=st.floats(min_value=0.1, max_value=10.0),
       fugacity_z=st.floats(min_value=0.01, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_positivity_dichotomy_in_the_weights(d_pp, beta, mass, hbar, fugacity_z):
    """The minimal generator has one positive weight in both assemblies;
    Caldeira-Leggett at the minimal generator's friction keeps a negative one."""
    cfg = HilbertConfig(dim=3, hbar=hbar, mass=mass)
    for assembly in (DOUBLE_COMMUTATOR, SINGLE_GENERATOR):
        weights = build_liouvillian(cfg, LiouvillianSpec(
            kind=MINIMAL_QBM, beta=beta, assembly=assembly,
            coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=fugacity_z))
        ).weights
        assert weights.size == 1 and weights[0] > 0.0, assembly
    cl = build_liouvillian(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, beta=beta,
        coeffs=BilinearCoefficients(gamma=beta * d_pp / (2.0 * mass),
                                    fugacity_z=fugacity_z)))
    assert cl.weights.size == 2 and cl.weights.min() < 0.0


def test_single_generator_rate_is_twice_z_gamma():
    """The single-jump oracle takes gamma from minimal_coefficients, the
    one thermal derivation the compile uses too, so its rate is 2 z gamma
    of the compiled generator's coefficients to the last bit."""
    draws = np.random.default_rng(20240917)
    for _ in range(200):
        d_pp = 10.0 ** draws.uniform(-3.0, 3.0)
        beta, z = draws.uniform(0.05, 20.0), draws.uniform(0.01, 2.0)
        mass, hbar = draws.uniform(0.1, 10.0), draws.uniform(0.1, 10.0)
        cfg = HilbertConfig(dim=2, hbar=hbar, mass=mass)
        spec = LiouvillianSpec(kind=MINIMAL_QBM, beta=beta,
                               coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=z))
        _, weights, _ = single_jump_normal_form(cfg, spec)
        assert weights[0] == 2 * z * build_liouvillian(cfg, spec).coeffs.gamma


def _minimal_draws(seed, n):
    """n (cfg, spec) minimal generators at dims 2 to 42, alternately free
    and harmonic, with d_pp, beta, z, M and hbar drawn as
    test_single_generator_rate_is_twice_z_gamma draws them; the first is
    at dim 2 and the second at dim 42."""
    draws = np.random.default_rng(seed)
    for draw in range(n):
        dim = (2, 42)[draw] if draw < 2 else int(draws.integers(2, 43))
        d_pp = 10.0 ** draws.uniform(-3.0, 3.0)
        beta, z = draws.uniform(0.05, 20.0), draws.uniform(0.01, 2.0)
        mass, hbar = draws.uniform(0.1, 10.0), draws.uniform(0.1, 10.0)
        harmonic = draw % 2 == 1
        yield HilbertConfig(dim=dim, hbar=hbar, mass=mass), LiouvillianSpec(
            kind=MINIMAL_QBM, beta=beta,
            hamiltonian_kind="harmonic" if harmonic else "free",
            omega_trap=draws.uniform(0.1, 10.0) if harmonic else None,
            coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=z))


def _sparse_superoperator(k, weights, jumps):
    """I kron K + conj(K) kron I + sum_k s_k conj(J_k) kron J_k on
    Fortran-order vec(rho), as a sparse matrix."""
    eye = scipy.sparse.identity(k.shape[0], format="csr")
    k = scipy.sparse.csr_array(k)
    out = scipy.sparse.kron(eye, k) + scipy.sparse.kron(k.conj(), eye)
    for weight, jump in zip(weights, jumps):
        jump = scipy.sparse.csr_array(jump)
        out = out + weight * scipy.sparse.kron(jump.conj(), jump)
    return scipy.sparse.csr_array(out)


def test_minimal_generator_matches_the_single_jump_oracle():
    """The compiled minimal generator's superoperator is the hand-assembled
    single-jump one to 1e-14 max|L|, over dims 2 to 42, free and harmonic
    Hamiltonians and coefficients drawn over decades."""
    for cfg, spec in _minimal_draws(20261020, 60):
        oracle = _sparse_superoperator(*single_jump_normal_form(cfg, spec))
        liouv = build_liouvillian(cfg, spec)
        compiled = _sparse_superoperator(liouv.k, liouv.weights, liouv.jumps)
        assert abs(compiled - oracle).max() <= 1e-14 * abs(oracle).max(), (cfg, spec)


def test_minimal_jump_is_the_thermal_annihilator():
    """The minimal generator's one jump is build_annihilator(cfg, beta)
    times a complex c, and its weight times |c|^2 is the rate 2 z gamma."""
    for cfg, spec in _minimal_draws(20261021, 60):
        liouv = build_liouvillian(cfg, spec)
        assert liouv.weights.shape == (1,) and liouv.jumps.shape == (1, cfg.dim, cfg.dim)
        a_th = build_annihilator(cfg, spec.beta)
        jump = liouv.jumps[0]
        c = np.vdot(a_th, jump) / np.vdot(a_th, a_th)
        assert np.abs(jump - c * a_th).max() <= 1e-14 * np.abs(jump).max(), (cfg, spec)
        rate = 2.0 * spec.coeffs.fugacity_z * liouv.coeffs.gamma
        assert abs(liouv.weights[0] * abs(c) ** 2 - rate) <= 1e-14 * rate, (cfg, spec)


def test_both_assembly_names_compile_the_same_generator():
    """DOUBLE_COMMUTATOR and SINGLE_GENERATOR name one generator: the same
    K, weights, jumps and coefficients, to the bit."""
    for cfg, spec in _minimal_draws(20261022, 40):
        double = build_liouvillian(cfg, spec)
        single = build_liouvillian(cfg, dataclasses.replace(spec, assembly=SINGLE_GENERATOR))
        assert double is not single and double.coeffs == single.coeffs
        for part in ("k", "weights", "jumps"):
            assert np.array_equal(getattr(double, part), getattr(single, part)), part


def test_caldeira_leggett_equals_bilinear_bitwise(rng):
    beta, gamma = 2.0, 0.3
    cl = build_liouvillian(CFG, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, hamiltonian_kind="harmonic", omega_trap=1.0,
        beta=beta, coeffs=BilinearCoefficients(gamma=gamma)))
    bil = build_liouvillian(CFG, LiouvillianSpec(
        kind=BILINEAR, hamiltonian_kind="harmonic", omega_trap=1.0,
        coeffs=BilinearCoefficients(gamma=gamma,
                                    d_pp=2.0 * CFG.mass * gamma / beta)))
    for _ in range(5):
        rho = random_density(CFG.dim, rng)
        assert np.array_equal(cl.apply(rho), bil.apply(rho))


def test_minimal_coefficients_derivation():
    derived = minimal_coefficients(CFG, d_pp=0.7, beta=2.0, fugacity_z=0.8)
    assert abs(derived.gamma - 2.0 * 0.7 / (2.0 * CFG.mass)) < 1e-15
    assert abs(derived.d_xx - (2.0 / (4.0 * CFG.mass)) ** 2 * 0.7) < 1e-15
    assert derived.mu == 0.0 and derived.d_xp == 0.0
    with pytest.raises(ValueError):
        minimal_coefficients(CFG, d_pp=-1.0, beta=2.0)
    with pytest.raises(ValueError):
        minimal_coefficients(CFG, d_pp=1.0, beta=0.0)


def test_minimal_assemblies_agree(rng):
    """The compiled minimal generator and the single-jump oracle are the
    same superoperator, identically in the coefficients."""
    spec = LiouvillianSpec(kind=MINIMAL_QBM, beta=2.0,
                           coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=0.8))
    double = build_liouvillian(CFG, spec)
    single = Liouvillian(CFG, MINIMAL_QBM, *single_jump_normal_form(CFG, spec))
    for _ in range(20):
        rho = random_density(CFG.dim, rng)
        a = double.apply(rho)
        b = single.apply(rho)
        assert np.abs(a - b).max() < 1e-10 * max(np.abs(a).max(), 1.0)


def test_minimal_rejects_redundant_coefficients():
    for bad in (BilinearCoefficients(d_pp=0.7, gamma=0.1),
                BilinearCoefficients(d_pp=0.7, d_xx=0.1),
                BilinearCoefficients(d_pp=0.7, mu=0.1)):
        with pytest.raises(ValueError):
            build_liouvillian(CFG, LiouvillianSpec(kind=MINIMAL_QBM, beta=2.0,
                                                   coeffs=bad))
    with pytest.raises(ValueError):
        build_liouvillian(CFG, LiouvillianSpec(kind=MINIMAL_QBM,
                                               coeffs=BilinearCoefficients(d_pp=0.7)))
    with pytest.raises(ValueError):
        build_liouvillian(CFG, LiouvillianSpec(
            kind=MINIMAL_QBM, beta=2.0,
            coeffs=BilinearCoefficients(d_pp=0.7), assembly="triple"))


def test_zero_fugacity_reduces_to_hamiltonian_flow(rng):
    liouv = build_liouvillian(CFG, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=2.0,
        coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=0.0)))
    h = build_hamiltonian(CFG, "free")
    rho = random_density(CFG.dim, rng)
    expected = -1j / CFG.hbar * (h @ rho - rho @ h)
    assert np.abs(liouv.apply(rho) - expected).max() < 1e-15


def test_builder_kind_crosschecks():
    good = BilinearCoefficients(gamma=0.3)
    with pytest.raises(ValueError):
        build_liouvillian(CFG, LiouvillianSpec(kind=BILINEAR))
    with pytest.raises(ValueError):
        build_liouvillian(CFG, LiouvillianSpec(kind=CALDEIRA_LEGGETT,
                                               coeffs=good))
    with pytest.raises(ValueError):
        build_liouvillian(CFG, LiouvillianSpec(
            kind=CALDEIRA_LEGGETT, beta=2.0,
            coeffs=BilinearCoefficients(gamma=0.3, d_pp=1.0)))
    with pytest.raises(ValueError):
        build_liouvillian(CFG, LiouvillianSpec(kind="unitary"))
    with pytest.raises(ValueError):
        build_liouvillian(CFG, LiouvillianSpec(kind=BOLTZMANN_COLLISION))


@pytest.mark.parametrize("fields", [
    dict(kind="unitary"),
    dict(kind=BILINEAR),
    dict(kind=CALDEIRA_LEGGETT, coeffs=BilinearCoefficients(gamma=0.3)),
    dict(kind=CALDEIRA_LEGGETT, beta=0.0, coeffs=BilinearCoefficients(gamma=0.3)),
    dict(kind=CALDEIRA_LEGGETT, beta=2.0, coeffs=BilinearCoefficients(gamma=-0.3)),
    dict(kind=CALDEIRA_LEGGETT, beta=2.0, coeffs=BilinearCoefficients(gamma=0.3, d_pp=1.0)),
    dict(kind=MINIMAL_QBM, coeffs=BilinearCoefficients(d_pp=0.7)),
    dict(kind=MINIMAL_QBM, beta=2.0, coeffs=BilinearCoefficients(d_pp=0.7, mu=0.1)),
    dict(kind=MINIMAL_QBM, beta=2.0, coeffs=BilinearCoefficients(d_pp=0.7),
         assembly="triple"),
    dict(kind=BOLTZMANN_COLLISION),
    dict(kind=BOLTZMANN_COLLISION, collision=_collision_params(0.25), beta=50.0),
    dict(kind=BOLTZMANN_COLLISION, collision=_collision_params(0.25),
         coeffs=BilinearCoefficients(gamma=3.0)),
    dict(kind=BOLTZMANN_COLLISION, collision=_collision_params(0.25),
         assembly=SINGLE_GENERATOR),
    dict(kind=BILINEAR, coeffs=BilinearCoefficients(gamma=0.3), beta=-3.0),
    dict(kind=BILINEAR, coeffs=BilinearCoefficients(gamma=0.3), assembly="triple"),
    dict(kind=CALDEIRA_LEGGETT, beta=2.0, coeffs=BilinearCoefficients(gamma=0.3),
         assembly=SINGLE_GENERATOR),
    dict(kind=MINIMAL_QBM, beta=2.0, coeffs=BilinearCoefficients(d_pp=0.7),
         collision=_collision_params(0.25)),
], ids=["unknown-kind", "bilinear-no-coeffs", "cl-no-beta", "cl-beta-zero",
        "cl-negative-gamma", "cl-d_pp", "minimal-no-beta", "minimal-mu",
        "minimal-assembly", "collision-no-parameters", "collision-beta",
        "collision-coeffs", "collision-assembly", "bilinear-beta",
        "bilinear-assembly", "cl-assembly", "minimal-collision"])
def test_spec_rules_raise_at_construction(fields):
    """A spec checks every rule it alone decides when it is made, with no
    Hilbert space and no build."""
    with pytest.raises(ValueError):
        LiouvillianSpec(**fields)


def test_spec_refuses_a_hamiltonian_field_it_would_drop():
    """omega_trap is read by the harmonic Hamiltonian alone, and the
    Hamiltonian kind is checked when the spec is made, not at the build."""
    fields = dict(kind=MINIMAL_QBM, beta=2.0, coeffs=BilinearCoefficients(d_pp=0.7))
    with pytest.raises(ValueError, match="free Hamiltonian does not read omega_trap"):
        LiouvillianSpec(omega_trap=2.0, **fields)
    with pytest.raises(ValueError, match="unknown hamiltonian kind 'harmonik'"):
        LiouvillianSpec(hamiltonian_kind="harmonik", **fields)
    LiouvillianSpec(hamiltonian_kind="harmonic", omega_trap=2.0, **fields)


def test_collision_parameters_validation():
    """Every refusal is a ValueError naming its field, NaN included: each
    check holds for the values it accepts, so NaN fails it."""
    nodes, weights = radial_grid(2.0, 20)
    good = dict(gas_mass=1.0, beta=2.0, fugacity_z=0.8, tmatrix=TMAT,
                q_nodes=nodes, q_weights=weights, q_max=2.0)
    CollisionParameters(**good)
    nan = float("nan")
    for bad, field in (
            (dict(gas_mass=-1.0), "gas_mass"), (dict(gas_mass=nan), "gas_mass"),
            (dict(beta=0.0), "beta"), (dict(beta=nan), "beta"),
            (dict(fugacity_z=-0.1), "fugacity_z"), (dict(fugacity_z=nan), "fugacity_z"),
            (dict(q_weights=weights[:-1]), "q_weights"),
            (dict(q_nodes=nodes[:0], q_weights=weights[:0]), "q_nodes"),  # empty grid
            (dict(q_max=1.0), "q_nodes"),  # nodes beyond q_max
            (dict(q_nodes=-nodes), "q_nodes"),  # nodes below zero
            (dict(q_weights=np.where(nodes > 1.0, 0.0, weights)), "q_weights"),
            (dict(q_max=nan), "q_max"), (dict(q_max=np.inf), "q_max"),
            (dict(q_max=-2.0), "q_max"),
            (dict(q_nodes=np.append(nodes[:-1], nan)), "q_nodes"),
            (dict(q_weights=np.append(weights[:-1], nan)), "q_weights"),
            (dict(q_nodes=np.append(nodes[:-1], nan),
                  q_weights=np.append(weights[:-1], nan)), "q_nodes"),
            (dict(q_weights=np.append(weights[:-1], np.inf)), "q_weights")):
        with pytest.raises(ValueError, match=field):
            CollisionParameters(**{**good, **bad})


def test_a_nan_exponent_is_refused_by_the_cap(monkeypatch):
    """The weight exponent's cap holds for the exponents it accepts, so a
    NaN exponent is refused like one above it, as a ValueError that names
    it, before any jump is formed."""
    cfg = HilbertConfig(dim=6)
    spec = LiouvillianSpec(kind=BOLTZMANN_COLLISION, collision=_collision_params(0.25))
    build_liouvillian(cfg, spec)
    eigh = np.linalg.eigh

    def nan_spectrum(a):
        lam, vecs = eigh(a)
        return np.full_like(lam, np.nan), vecs

    monkeypatch.setattr(np.linalg, "eigh", nan_spectrum)
    with pytest.raises(ValueError, match="collision weight exponent .* = nan exceeds"):
        build_liouvillian(cfg, spec)


@pytest.mark.parametrize("q_max, n_nodes, field", [
    (0.2, True, "n_nodes"), (0.2, 2.5, "n_nodes"), (0.2, 0, "n_nodes"),
    (0.2, -3, "n_nodes"), (0.2, "4", "n_nodes"), (float("nan"), 4, "q_max"),
    (np.inf, 4, "q_max"), (0.0, 4, "q_max")])
def test_radial_grid_refuses_what_it_cannot_build(q_max, n_nodes, field):
    """n_nodes is an integer >= 1, a bool not counting as one, and q_max
    positive and finite; anything else is a ValueError naming its field."""
    with pytest.raises(ValueError, match=field):
        radial_grid(q_max, n_nodes)
    nodes, _ = radial_grid(0.2, np.int64(3))
    assert nodes.shape == (3,)


def test_collision_prefactor_value():
    params = _collision_params(2.0)
    expected = 8.0 * np.pi**3 * 1.0**2 / (3.0 * 2.0 * 1.0)
    assert abs(dpp_prefactor(params.gas_mass, params.beta, 1.0) - expected) \
        < 1e-15 * expected


def test_collision_dpp_matches_quadrature():
    # Gauss-Legendre on the full kernel support reproduces the adaptive result
    q_max = cutoff_momentum(GAS)
    params = _collision_params(q_max)
    reference = compute_dpp(TMAT, GAS, mass_test=1.0).d_pp
    assert abs(collision_dpp(params, 1.0) - reference) < 1e-12 * reference


def test_collision_parity_covariance(rng):
    liouv = build_liouvillian(CFG, LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, collision=_collision_params(2.0)))
    par = parity_operator(CFG)
    rho = random_density(CFG.dim, rng)
    direct = liouv.apply(rho)
    conjugated = par @ liouv.apply(par @ rho @ par) @ par
    assert np.abs(direct - conjugated).max() < 1e-13 * np.abs(direct).max()


def test_collision_approaches_minimal_at_small_momentum_transfer(rng):
    """Shrinking the momentum-transfer support collapses the jump generator
    onto the quadratic minimal generator with the same diffusion strength."""
    rho = random_density(CFG.dim, rng)
    discrepancies = []
    for q_max in (2.0, 1.0, 0.5):
        params = _collision_params(q_max)
        d_pp = collision_dpp(params, CFG.hbar)
        col = build_liouvillian(CFG, LiouvillianSpec(
            kind=BOLTZMANN_COLLISION, collision=params))
        mini = build_liouvillian(CFG, LiouvillianSpec(
            kind=MINIMAL_QBM, beta=2.0,
            coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=0.8)))
        ref = mini.apply(rho)
        discrepancies.append(np.abs(col.apply(rho) - ref).max() / np.abs(ref).max())
    assert discrepancies[0] > discrepancies[1] > discrepancies[2]
    assert discrepancies[2] < 0.02


def test_collision_weight_is_brownian_limit_of_structure_factor():
    """J_q^dag J_q = G(q)^2 (U(q) is unitary) is the m/M -> 0 limit of the
    gas's dynamic structure factor.  On p's eigenvector with eigenvalue
    lambda, G(q)^2 = exp(-(beta/2M) q lambda), and s_mb(q, E(lambda)) /
    s_mb(q, E(0)), with E(p) = -(q p/M + q^2/2M) the energy handed to the
    gas, differs from it by the recoil factor exp(-beta m (E^2 - E_0^2)/2q^2),
    which vanishes linearly in m/M.  The two are paired by eigenvector, not
    as sorted lists: p's spectrum is symmetric, so sorting would hide the
    sign of G's exponent."""
    cfg = HilbertConfig(dim=14)
    par = _collision_params(0.25, n_nodes=8)
    liouv = build_liouvillian(cfg, LiouvillianSpec(kind=BOLTZMANN_COLLISION,
                                                   collision=par))
    signed = [sq for q in par.q_nodes for sq in (q, -q)]
    assert liouv.jumps.shape[0] == len(signed)
    # J(q) and J(-q), rebuilt from each node's even and odd halves
    kicks, _ = _signed_pairs(liouv)
    lam, vecs = np.linalg.eigh(build_momentum(cfg))
    gaps = []
    for mass_ratio in (0.05, 0.005, 0.0005):
        gas = GasThermodynamics(beta=par.beta, gas_mass=mass_ratio * cfg.mass)
        gap = 0.0
        for sq, jump in zip(signed, kicks):
            g2 = jump.conj().T @ jump
            on_p = np.einsum("ik,ij,jk->k", vecs.conj(), g2, vecs).real
            # equal to the spectrum only if the p eigenbasis diagonalizes G^2
            assert np.abs(np.sort(on_p) - np.linalg.eigvalsh(g2)).max() \
                < 1e-12 * on_p.max()
            energy = -(sq * lam + sq**2 / 2.0) / cfg.mass
            e_zero = -sq**2 / (2.0 * cfg.mass)
            ratio = s_mb(abs(sq), energy, gas) / s_mb(abs(sq), e_zero, gas)
            gap = max(gap, (np.abs(on_p - ratio) / ratio).max())
        gaps.append(gap)
    # about 1.66, 0.103 and 0.0098: linear once the recoil exponent is small
    assert gaps[0] > gaps[1] > gaps[2]
    assert 9.0 < gaps[1] / gaps[2] < 11.0
    assert gaps[2] < 0.011


@pytest.mark.parametrize("dim, beta, gas_mass, fugacity_z", [
    (12, 2.0, 1.0, 0.8), (14, 3.0, 0.5, 1.0), (24, 1.5, 2.0, 0.5), (13, 2.0, 1.0, 0.0)])
@pytest.mark.parametrize("exponent", [None, 4.95])
def test_collision_normal_form_matches_expm_build(dim, beta, gas_mass, fugacity_z,
                                                  exponent):
    """Every jump pair and K agree with the build by one expm per shift and
    weight, at the benchmark's sizes (40 nodes, q_max 0.25) and with the
    weight exponent beta q_max ||p||/4M just under its cap.  Each node of
    nonzero rate s (none at zero fugacity) has two jumps of weight 2 s, its
    even and odd halves J_e and J_o: J_e + J_o is the expm J(q) and
    J_e - J_o the expm J(-q).  K + K^dag + sum_k s_k J_k^dag J_k, the
    operator the trace sees, cancels to round-off."""
    cfg = HilbertConfig(dim=dim)
    q_max = 0.25 if exponent is None else (
        exponent * 4.0 * cfg.mass / (beta * np.linalg.norm(build_momentum(cfg), 2)))
    nodes, weights = radial_grid(q_max, 40)
    spec = LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, hamiltonian_kind="harmonic", omega_trap=1.1,
        collision=CollisionParameters(gas_mass=gas_mass, beta=beta,
                                      fugacity_z=fugacity_z, tmatrix=TMAT,
                                      q_nodes=nodes, q_weights=weights, q_max=q_max))
    liouv = build_liouvillian(cfg, spec)
    k_ref, jumps_ref = _expm_collision_normal_form(cfg, spec)
    assert liouv.jumps.shape == (len(jumps_ref), dim, dim)
    assert len(jumps_ref) == (0 if fugacity_z == 0.0 else 80)
    kicks, rates = _signed_pairs(liouv)
    assert np.array_equal(rates, [s for s, _ in jumps_ref])
    assert np.array_equal(liouv.weights[0::2], liouv.weights[1::2])
    odd = np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 1
    assert not liouv.jumps[0::2][:, odd].any() and not liouv.jumps[1::2][:, ~odd].any()
    for jump, (_, ref) in zip(kicks, jumps_ref):
        assert np.abs(jump - ref).max() <= 1e-13 * np.abs(ref).max()
    # relative to the dissipative part of K, which H would otherwise swamp
    dissipative = k_ref + (1j / cfg.hbar) * build_hamiltonian(cfg, "harmonic", 1.1)
    assert np.abs(liouv.k - k_ref).max() <= 1e-13 * np.abs(dissipative).max()
    assert not liouv.k[odd].any()
    trace_op = liouv.k + liouv.k.conj().T + np.einsum(
        "n,nji,njk->ik", liouv.weights, liouv.jumps.conj(), liouv.jumps)
    assert np.abs(trace_op).max() <= 1e-14 * np.abs(liouv.k).max()


def _assert_matches_the_signed_compile(cfg, spec):
    signed = Liouvillian(cfg, BOLTZMANN_COLLISION, *signed_collision_normal_form(cfg, spec))
    reference = _realigned_superoperator(signed)
    mat = superoperator_matrix(build_liouvillian(cfg, spec))
    assert np.abs(mat - reference).max() <= 1e-14 * np.abs(reference).max()
    order, _, n_even = sector_order(cfg.dim)
    even, odd = np.sort(order[:n_even]), np.sort(order[n_even:])
    assert not mat[np.ix_(even, odd)].any() and not mat[np.ix_(odd, even)].any()


@given(dim=st.integers(min_value=5, max_value=24), **BENCH_BOX)
@settings(max_examples=30, deadline=None)
def test_definite_parity_compile_matches_the_signed_compile(dim, **box):
    """The superoperator of the definite-parity compile agrees with that of
    the signed compile it replaced (conftest; realigned from its 80 jumps,
    which mix the parities to round-off) within 1e-14 max|L|, at dims 5-24
    over the benchmark's parameter box, and couples no even entry to an
    odd one, exactly."""
    cfg = HilbertConfig(dim=dim)
    _assert_matches_the_signed_compile(cfg, bench_collision_spec(cfg, **box))


@pytest.mark.parametrize("sigma_q", [None, 1.0])
@pytest.mark.parametrize("dim", [5, 12, 13, 14, 24])
def test_definite_parity_compile_matches_the_signed_compile_at_the_cap(dim, sigma_q):
    """The same at the middle of the box with the weight exponent just under
    its cap, where G(q)^2 reaches e^9.9: the two compiles differ there by
    the signed compile's own mismatch between K, taken from p's
    eigenbasis, and its jumps' J^dag J, up to 6.4e-15 max|L| at dim 24."""
    cfg = HilbertConfig(dim=dim)
    _assert_matches_the_signed_compile(cfg, bench_collision_spec(
        cfg, q_max=0.225, beta=2.25, gas_mass=1.25, fugacity_z=0.75, t0=0.055,
        sigma_q=sigma_q, omega_trap=1.05, at_cap=True))


def test_collision_exponent_guard():
    # a huge radial extent would overflow the drift exponential; refuse to build
    with pytest.raises(ValueError):
        build_liouvillian(HilbertConfig(dim=40), LiouvillianSpec(
            kind=BOLTZMANN_COLLISION,
            collision=_collision_params(200.0)))


def test_superoperator_matrix_consistency(rng):
    liouv = build_liouvillian(CFG, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=2.0,
        coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=0.8)))
    mat = superoperator_matrix(liouv)
    rho = random_density(CFG.dim, rng)
    direct = liouv.apply(rho)
    via_matrix = (mat @ rho.flatten(order="F")).reshape(CFG.dim, CFG.dim, order="F")
    assert np.abs(direct - via_matrix).max() < 1e-13 * np.abs(direct).max()


def _generators_of_every_kind(cfg):
    """Caldeira-Leggett (a negative weight), bilinear, minimal in both
    assemblies, the jump-free minimal generator, and at dims up to 14 the
    collision generator and its jump-free zero-fugacity twin."""
    cl, bil, mini, col = _all_generators(cfg, 1.0)
    single, closed = (build_liouvillian(cfg, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=2.0, assembly=SINGLE_GENERATOR,
        coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=z))) for z in (0.8, 0.0))
    gens = [cl, bil, mini, single, closed]
    if cfg.dim <= 14:
        gens += [col, build_liouvillian(cfg, LiouvillianSpec(
            kind=BOLTZMANN_COLLISION,
            collision=_collision_params(1.0, fugacity_z=0.0)))]
    return gens


@pytest.mark.parametrize("dim", [2, 7, 12])
def test_kronecker_superoperator_matches_column_loop(dim):
    """The superoperator assembled from the normal form equals the one probed
    column by column through apply, for every kind: Caldeira-Leggett with
    its negative Kossakowski weight, bilinear, the rank-one minimal generator
    in both assemblies, a jump-free generator, the 120-jump collision
    generator and its jump-free twin."""
    cfg = HilbertConfig(dim=dim)
    generators = _generators_of_every_kind(cfg)
    cl, bil, mini, single, closed, col, col_closed = generators
    assert cl.weights.min() < 0.0
    assert [g.weights.size
            for g in (mini, single, closed, col, col_closed)] == [1, 1, 0, 120, 0]
    for liouv in generators:
        kron = superoperator_matrix(liouv)
        loop = superoperator_matrix(CallableGenerator(cfg, liouv.apply))
        assert kron.shape == loop.shape == (dim * dim, dim * dim)
        assert np.abs(kron - loop).max() <= 1e-14 * np.abs(loop).max(), liouv.kind


@pytest.mark.parametrize("dim", [12, 24, 40])
def test_entries_match_stacked_and_realigned_oracles(dim, rng):
    """The normal form's entries reproduce both compilations they replace,
    for every kind and for the jump-free zero-fugacity collision generator:
    the dense scatter equals the realigned assembly entry for entry, and
    the CSR apply the stacked products to 1e-14 max|K|.  The bilinear set's
    two-term jump sums are rounded by BLAS per output tile, so there the
    two assemblies may differ in the last bit of an entry, and no more."""
    cfg = HilbertConfig(dim=dim)
    closed = build_liouvillian(cfg, LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, collision=_collision_params(1.0, fugacity_z=0.0)))
    assert closed.weights.size == 0
    general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for liouv in _all_generators(cfg, 1.0) + [closed]:
        mat = superoperator_matrix(liouv)
        ref = _realigned_superoperator(liouv)
        if liouv.kind == BILINEAR:
            assert np.all(np.abs(mat - ref) <= np.finfo(float).eps * np.abs(ref))
        else:
            assert np.array_equal(mat, ref), liouv.kind
        # matrixifying compiles the entries but builds no CSR
        assert "_csr" not in vars(liouv)
        oracle = _stacked_product_apply(liouv)
        for rho in (random_density(dim, rng), general):
            out = liouv.apply(rho)
            assert out.shape == (dim, dim) and out.flags.c_contiguous
            assert np.abs(out - oracle(rho)).max() <= 1e-14 * np.abs(liouv.k).max(), \
                liouv.kind


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("dim", [2, 7, 12, 14])
def test_compact_entries_scatter_to_the_flat_scatter_bit_for_bit(dim):
    """The superoperator placed from the compact entries equals the scatter
    of the expanded flat groups bit for bit, signed zeros included, for
    every kind; its jump term holds no d^4 index array.  The bilinear
    family's odd jumps give one block over 2d - 2 positions; the collision
    generator's even and odd halves give one block per class, over the
    d^2/2 positions of each, half the values of one block over all d^2."""
    cfg = HilbertConfig(dim=dim)
    n_even = sector_order(dim)[2]
    for liouv in _generators_of_every_kind(cfg):
        assert np.array_equal(_bits(superoperator_matrix(liouv)),
                              _bits(_flat_scatter(liouv))), liouv.kind
        jump_terms = liouv.entries[:-2]
        sizes = []
        for (j, i, l, k), block in jump_terms:
            m = block.shape[0]
            assert block.shape == (m, m)
            assert all(a.size == m for a in (j, i, l, k))
            sizes.append(m)
        if liouv.weights.size == 0:
            assert sizes == [0]
        elif liouv.kind == BOLTZMANN_COLLISION:
            assert sizes == [n_even, dim * dim - n_even]
        else:
            assert sizes == [2 * dim - 2]


@pytest.mark.parametrize("dim", [2, 7, 12, 38, 42])
def test_apply_is_the_constructor_csr_matvec_bit_for_bit(dim, rng):
    """apply equals csr_array(...) @ vec(rho) bit for bit, on density
    matrices, a general matrix, its Fortran-ordered copy and a real matrix:
    the bilinear-family kinds at every dim, the collision generators up to
    dim 12.  Its CSR arrays are the constructor's, with intp indices.  The
    result is a new C-contiguous array and the input is left as it was."""
    cfg = HilbertConfig(dim=dim)
    general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    inputs = (random_density(dim, rng), general, np.asfortranarray(general),
              general.real.copy())
    for liouv in _generators_of_every_kind(cfg):
        oracle = _constructor_csr(liouv)
        for rho in inputs:
            before = rho.copy(order="K")
            out = liouv.apply(rho)
            expected = (oracle @ rho.reshape(-1)).reshape(dim, dim)
            assert out.dtype == expected.dtype and out.shape == (dim, dim)
            assert np.array_equal(_bits(out), _bits(expected)), liouv.kind
            assert out.flags.c_contiguous and out.flags.owndata
            assert not np.shares_memory(out, rho)
            assert np.array_equal(_bits(rho), _bits(before))
        # row k of the sector-ordered CSR is the constructor's row order[k],
        # its entries in the constructor's order, with sector column labels
        indptr, indices, data, _ = liouv._csr
        # intp, not int32, whatever the size: the mat-vec ran 15-20% faster
        assert indptr.dtype == np.intp and indices.dtype == np.intp
        order, _, _ = sector_order(dim)
        assert np.array_equal(np.diff(indptr), np.diff(oracle.indptr)[order])
        take = np.concatenate([np.arange(oracle.indptr[row], oracle.indptr[row + 1])
                               for row in order])
        assert np.array_equal(order[indices], oracle.indices[take])
        assert np.array_equal(_bits(data), _bits(oracle.data[take]))


def test_sector_order_is_the_checkerboard_permutation():
    """sector_order(d)'s order is the stable sort by the parity of i + j of
    Fortran-order vec(rho) as well as of row-major vec(rho), position is its
    inverse, and neither can be written."""
    for dim in range(2, 50):
        order, position, n_even = sector_order(dim)
        j, i = np.divmod(np.arange(dim * dim), dim)  # Fortran order
        assert np.array_equal(order, np.argsort((i + j) % 2, kind="stable"))
        assert np.array_equal(position[order], np.arange(dim * dim))
        assert n_even == np.count_nonzero((i + j) % 2 == 0)
        for a in (order, position):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


def test_replace_compiles_a_fresh_csr():
    """dataclasses.replace on a compiled generator gives one that compiles
    its own entries and CSR from its own fields."""
    liouv = _all_generators(HilbertConfig(dim=6), 1.0)[1]
    rho = np.eye(6, dtype=complex) / 6
    before = liouv.apply(rho)  # compiles liouv's CSR
    twice = dataclasses.replace(liouv, k=2.0 * liouv.k, weights=2.0 * liouv.weights)
    assert "entries" not in vars(twice) and "_csr" not in vars(twice)
    assert np.array_equal(twice.apply(rho), 2.0 * before)
    assert np.array_equal(twice._csr[2], 2.0 * liouv._csr[2])
    # the compiled generator is untouched and still the one its spec gets
    assert _all_generators(HilbertConfig(dim=6), 1.0)[1] is liouv
    assert np.array_equal(liouv.apply(rho), before)


def _minimal_spec(d_pp, omega_trap=1.1):
    return LiouvillianSpec(kind=MINIMAL_QBM, beta=2.0, hamiltonian_kind="harmonic",
                           omega_trap=omega_trap,
                           coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=0.8))


def test_bilinear_family_is_compiled_once_per_basis_and_spec():
    """Equal (cfg, spec) pairs, each built afresh, get the same generator,
    whose CSR is compiled once; another spec or basis gets its own.  A
    collision spec is compiled on every call and never enters the cache."""
    cfg = HilbertConfig(dim=6)
    first = _all_generators(cfg, 1.0)
    first[2].apply(np.eye(6, dtype=complex))
    again = _all_generators(HilbertConfig(dim=6), 1.0)
    for old, new in zip(first[:3], again[:3]):
        assert new is old
    assert "_csr" in vars(again[2])
    assert again[3] is not first[3] and again[3].collision == first[3].collision
    assert np.array_equal(again[3].jumps, first[3].jumps)
    assert _cached_compile.cache_info().currsize == 3
    base = build_liouvillian(cfg, _minimal_spec(0.4))
    for other in (build_liouvillian(cfg, _minimal_spec(0.5)),
                  build_liouvillian(cfg, _minimal_spec(0.4, omega_trap=1.2)),
                  build_liouvillian(HilbertConfig(dim=7), _minimal_spec(0.4)),
                  build_liouvillian(HilbertConfig(dim=6, mass=2.0), _minimal_spec(0.4))):
        assert other is not base
    assert build_liouvillian(cfg, _minimal_spec(0.4)) is base


def test_compiled_generators_cannot_be_written():
    """A generator the cache may hand out again refuses in-place writes to
    its k, weights and jumps, for every kind."""
    for liouv in _all_generators(HilbertConfig(dim=5), 1.0):
        for name in ("k", "weights", "jumps"):
            values = getattr(liouv, name)
            with pytest.raises(ValueError, match="read-only"):
                values[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                values *= 2.0


def test_compile_cache_is_bounded():
    cfg = HilbertConfig(dim=3)
    for i in range(40):
        build_liouvillian(cfg, _minimal_spec(0.1 + 0.01 * i))
        assert _cached_compile.cache_info().currsize <= 16
    info = _cached_compile.cache_info()
    assert info.currsize == 16 and info.misses == 40 and info.hits == 0


def test_a_compile_that_raises_is_not_cached(monkeypatch):
    """A failed compile leaves nothing behind: the same spec compiles again,
    and fails or succeeds on its own.  A negative trap frequency is the
    spec's own refusal; derived coefficients that overflow are the
    compile's."""
    cfg = HilbertConfig(dim=4)
    with pytest.raises(ValueError, match="omega_trap must be positive"):
        _minimal_spec(0.4, omega_trap=-1.0)
    # gamma = beta d_pp / 2M overflows to inf, which BilinearCoefficients refuses
    overflowing = LiouvillianSpec(kind=MINIMAL_QBM, beta=1e150,
                                  coeffs=BilinearCoefficients(d_pp=1e200))
    for _ in range(2):
        with pytest.raises(ValueError, match="gamma must be finite"):
            build_liouvillian(cfg, overflowing)
    assert _cached_compile.cache_info().currsize == 0
    spec = _minimal_spec(0.4)

    def failing(cfg, spec):
        raise ArithmeticError("compile failed")

    monkeypatch.setitem(liouvillians._COMPILERS, MINIMAL_QBM, failing)
    with pytest.raises(ArithmeticError, match="compile failed"):
        build_liouvillian(cfg, spec)
    assert _cached_compile.cache_info().currsize == 0
    monkeypatch.undo()
    liouv = build_liouvillian(cfg, spec)
    assert liouv.kind == MINIMAL_QBM and build_liouvillian(cfg, spec) is liouv
    assert _cached_compile.cache_info().currsize == 1


@pytest.mark.parametrize("spec, message", [
    # d_pp x^2 overflows in K; eigh then finds no weight in the inf matrix
    (LiouvillianSpec(kind=BILINEAR, coeffs=BilinearCoefficients(d_pp=1e308)),
     r"^bilinear generator: K is not finite$"),
    # (gamma hbar/2)^2 overflows, which Python's ** raises as OverflowError
    (LiouvillianSpec(kind=CALDEIRA_LEGGETT, beta=1.0,
                     coeffs=BilinearCoefficients(gamma=1e200)), r"^cp_margin: "),
    # the derived d_xx d_pp overflows
    (LiouvillianSpec(kind=MINIMAL_QBM, beta=1.0, coeffs=BilinearCoefficients(d_pp=1e300)),
     r"^cp_margin: "),
    # either assembly name: the one construction refuses it the same way
    (LiouvillianSpec(kind=MINIMAL_QBM, beta=1.0, coeffs=BilinearCoefficients(d_pp=1e300),
                     assembly=SINGLE_GENERATOR), r"^cp_margin: "),
    # t0^2 overflows in every node's rate
    (LiouvillianSpec(kind=BOLTZMANN_COLLISION, collision=dataclasses.replace(
        _collision_params(0.3, 8), tmatrix=TMatrixModel(kind="constant", t0=1e160))),
     r"^t0: "),
], ids=["bilinear-d_pp", "caldeira_leggett-gamma", "minimal_qbm-d_pp",
        "minimal_qbm-single_generator-d_pp", "boltzmann_collision-t0"])
def test_a_compile_whose_arithmetic_overflows_is_a_numerical_failure(spec, message):
    """Under the suite's error::RuntimeWarning no numpy warning escapes a
    compile: an overflow ends as one NumericalFailure, naming the kind and
    the part that is not finite, or cp_margin or t0, and nothing is cached."""
    cfg = HilbertConfig(dim=6)
    for _ in range(2):
        with pytest.raises(NumericalFailure, match=message):
            build_liouvillian(cfg, spec)
    assert _cached_compile.cache_info().currsize == 0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_collision_weight_fails_the_one_check(monkeypatch, bad):
    """The collision kind has no guard of its own: a thermal weight that is
    not finite reaches K, and the compile's finiteness check names it."""
    monkeypatch.setattr(liouvillians, "brownian_weight",
                        lambda q, momentum, beta, mass: np.full(
                            np.broadcast_shapes(np.shape(q), np.shape(momentum)), bad))
    spec = LiouvillianSpec(kind=BOLTZMANN_COLLISION, collision=_collision_params(0.3, 8))
    with pytest.raises(NumericalFailure,
                       match=r"^boltzmann_collision generator: K is not finite$"):
        build_liouvillian(HilbertConfig(dim=6), spec)


def test_collision_parameters_compare_by_value_and_keep_their_own_arrays():
    """Two parameter sets with equal values are equal, and so are specs that
    hold them, whatever arrays the caller passed; the sets keep read-only
    copies of the q grid and have no hash."""
    nodes, weights = radial_grid(0.5, 8)
    params = CollisionParameters(gas_mass=1.0, beta=2.0, fugacity_z=0.8, tmatrix=TMAT,
                                 q_nodes=nodes, q_weights=weights, q_max=0.5)
    twin = CollisionParameters(gas_mass=1.0, beta=2.0, fugacity_z=0.8, tmatrix=TMAT,
                               q_nodes=nodes.copy(), q_weights=list(weights), q_max=0.5)
    assert params == twin and not params != twin and params != "params"
    spec = LiouvillianSpec(kind=BOLTZMANN_COLLISION, collision=params)
    assert spec == LiouvillianSpec(kind=BOLTZMANN_COLLISION, collision=twin)
    assert spec != LiouvillianSpec(kind=BOLTZMANN_COLLISION,
                                   collision=dataclasses.replace(twin, beta=2.5))
    nodes[0] *= 0.5
    assert params.q_nodes[0] == 2.0 * nodes[0]
    assert params != dataclasses.replace(params, q_nodes=nodes)
    for values in (params.q_nodes, params.q_weights):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    for unhashable in (params, spec):
        with pytest.raises(TypeError, match="unhashable"):
            hash(unhashable)
    cfg = HilbertConfig(dim=5)
    first = build_liouvillian(cfg, spec)
    second = build_liouvillian(cfg, LiouvillianSpec(kind=BOLTZMANN_COLLISION,
                                                    collision=twin))
    assert second is not first and np.array_equal(second.k, first.k)
    assert _cached_compile.cache_info().currsize == 0


def test_apply_refuses_a_state_of_the_wrong_size():
    """The kernel reads d^2 entries whatever it is given: a state of another
    size is refused before it runs."""
    liouv = _all_generators(HilbertConfig(dim=6), 1.0)[1]
    liouv.apply(np.eye(6, dtype=complex))
    for shape in ((5, 5), (6, 7), (35,), (7, 7)):
        with pytest.raises(ValueError, match="does not match"):
            liouv.apply(np.ones(shape, dtype=complex))


def test_superoperator_two_level_spectrum():
    # closed two-level system: eigenvalues are 0 (twice) and +-i * gap
    cfg2 = HilbertConfig(dim=2)
    gap = 1.3
    ham = np.diag([0.0, gap]).astype(complex)

    def apply(rho):
        return -1j / cfg2.hbar * (ham @ rho - rho @ ham)

    liouv = CallableGenerator(cfg2, apply)
    eig = np.linalg.eigvals(superoperator_matrix(liouv))
    eig = eig[np.argsort(eig.imag)]
    expected = np.array([-1j * gap, 0.0, 0.0, 1j * gap])
    assert np.abs(eig - expected).max() < 1e-12


def test_superoperator_size_guard():
    big = HilbertConfig(dim=101)
    liouv = build_liouvillian(big, LiouvillianSpec(
        kind=BILINEAR, coeffs=BilinearCoefficients(gamma=0.1, d_pp=0.1)))
    with pytest.raises(ValueError):
        superoperator_matrix(liouv)
