import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import random_density
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
    TMatrixModel,
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


def _stacked_product_apply(nf):
    """Apply by stacked products: Y = [s_1 J_1; ...; s_n J_n] rho, then its n
    blocks side by side times [J_1^dag; ...; J_n^dag]: the oracle for the
    sparse apply."""
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


def _realigned_superoperator(nf):
    """I kron K + conj(K) kron I + sum_k s_k conj(J_k) kron J_k by one dense
    (d^2 x n)(n x d^2) product over the realigned pairs and a four-index
    transpose: the oracle for the scatter of the normal form's entries."""
    d = nf.k.shape[0]
    # (conj(J) kron J)[(a, i), (b, j)] = conj(J)[a, b] J[i, j]
    flat = nf.jumps.reshape(-1, d * d)
    realigned = flat.conj().T @ (nf.weights[:, None] * flat)
    blocks = realigned.reshape(d, d, d, d).transpose(0, 2, 1, 3).copy()
    diag = np.arange(d)
    blocks[diag, :, diag, :] += nf.k
    blocks[:, diag, :, diag] += nf.k.conj()
    return blocks.reshape(d * d, d * d)


def _assert_matches_reference(liouv, reference, seed):
    """Agreement to 1e-12 relative on density matrices and on a general matrix,
    which also pins which side of rho each term multiplies."""
    rng = np.random.default_rng(seed)
    general = rng.normal(size=(CFG.dim, CFG.dim)) + 1j * rng.normal(size=(CFG.dim, CFG.dim))
    for rho in (random_density(CFG.dim, rng), random_density(CFG.dim, rng), general):
        ref = reference(rho)
        assert np.abs(liouv(rho) - ref).max() <= 1e-12 * np.abs(ref).max()


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
                out = liouv(rho)
                scale = np.abs(out).max()
                assert abs(np.trace(out)) < 1e-13 * max(scale, 1.0)
                assert np.abs(out - out.conj().T).max() < 1e-13 * max(scale, 1.0)


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
    assert cp_check(c)[0] == (liouv.normal_form.weights.min() >= 0.0)


def test_unresolved_negative_weight_is_kept():
    """d_pp = 10 beside a tiny d_xx: the negative weight, -5e-14, lies below
    eigh's resolution of the 20.0 weight and is det C / lambda_max."""
    gamma, d_pp = 0.01, 10.0
    c = BilinearCoefficients(gamma=gamma, d_pp=d_pp,
                             d_xx=(gamma / 2.0) ** 2 / d_pp * (1.0 - 1e-8))
    ok, margin = cp_check(c)
    assert ok is False and abs(margin / -2.5e-13 - 1.0) < 1e-6
    weights = build_liouvillian(CFG, LiouvillianSpec(kind=BILINEAR, coeffs=c)) \
        .normal_form.weights
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
    weights = build_liouvillian(CFG, LiouvillianSpec(kind=BILINEAR, coeffs=coeffs)) \
        .normal_form.weights
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
        ).normal_form.weights
        assert weights.size == 1 and weights[0] > 0.0, assembly
    cl = build_liouvillian(cfg, LiouvillianSpec(
        kind=CALDEIRA_LEGGETT, beta=beta,
        coeffs=BilinearCoefficients(gamma=beta * d_pp / (2.0 * mass),
                                    fugacity_z=fugacity_z)))
    assert cl.normal_form.weights.size == 2 and cl.normal_form.weights.min() < 0.0


def test_single_generator_rate_is_twice_z_gamma():
    """The single-jump assembly takes gamma from minimal_coefficients, the
    one thermal derivation, so its rate is 2 z gamma to the last bit."""
    draws = np.random.default_rng(20240917)
    for _ in range(200):
        d_pp = 10.0 ** draws.uniform(-3.0, 3.0)
        beta, z = draws.uniform(0.05, 20.0), draws.uniform(0.01, 2.0)
        mass, hbar = draws.uniform(0.1, 10.0), draws.uniform(0.1, 10.0)
        cfg = HilbertConfig(dim=2, hbar=hbar, mass=mass)
        liouv = build_liouvillian(cfg, LiouvillianSpec(
            kind=MINIMAL_QBM, beta=beta, assembly=SINGLE_GENERATOR,
            coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=z)))
        assert liouv.normal_form.weights[0] == 2 * z * liouv.coeffs.gamma


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
        assert np.array_equal(cl(rho), bil(rho))


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
    """The three-term commutator assembly and the single-jump assembly are
    the same superoperator, identically in the coefficients."""
    spec_d = LiouvillianSpec(kind=MINIMAL_QBM, beta=2.0,
                             coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=0.8),
                             assembly=DOUBLE_COMMUTATOR)
    spec_s = LiouvillianSpec(kind=MINIMAL_QBM, beta=2.0,
                             coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=0.8),
                             assembly=SINGLE_GENERATOR)
    double = build_liouvillian(CFG, spec_d)
    single = build_liouvillian(CFG, spec_s)
    for _ in range(20):
        rho = random_density(CFG.dim, rng)
        a = double(rho)
        b = single(rho)
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
    assert np.abs(liouv(rho) - expected).max() < 1e-15


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


def test_collision_parameters_validation():
    nodes, weights = radial_grid(2.0, 20)
    good = dict(gas_mass=1.0, beta=2.0, fugacity_z=0.8, tmatrix=TMAT,
                q_nodes=nodes, q_weights=weights, q_max=2.0)
    CollisionParameters(**good)
    for bad in (dict(gas_mass=-1.0), dict(fugacity_z=-0.1),
                dict(q_weights=weights[:-1]),
                dict(q_nodes=nodes[:0], q_weights=weights[:0]),  # empty grid
                dict(q_max=1.0),  # nodes beyond q_max
                dict(q_nodes=-nodes),  # nodes below zero
                dict(q_weights=np.where(nodes > 1.0, 0.0, weights))):
        with pytest.raises(ValueError):
            CollisionParameters(**{**good, **bad})


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
    direct = liouv(rho)
    conjugated = par @ liouv(par @ rho @ par) @ par
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
        ref = mini(rho)
        discrepancies.append(np.abs(col(rho) - ref).max() / np.abs(ref).max())
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
    assert liouv.normal_form.jumps.shape[0] == len(signed)
    lam, vecs = np.linalg.eigh(build_momentum(cfg))
    gaps = []
    for mass_ratio in (0.05, 0.005, 0.0005):
        gas = GasThermodynamics(beta=par.beta, gas_mass=mass_ratio * cfg.mass)
        gap = 0.0
        for sq, jump in zip(signed, liouv.normal_form.jumps):
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
    """Every jump and K agree with the build by one expm per shift and weight,
    at the benchmark's sizes (40 nodes, q_max 0.25) and with the weight
    exponent beta q_max ||p||/4M just under its cap; the jumps come in the
    same order, two per node of nonzero rate (none at zero fugacity), and
    K + K^dag + sum_k s_k J_k^dag J_k, the operator the trace sees, cancels
    to round-off."""
    cfg = HilbertConfig(dim=dim)
    q_max = 0.25 if exponent is None else (
        exponent * 4.0 * cfg.mass / (beta * np.linalg.norm(build_momentum(cfg), 2)))
    nodes, weights = radial_grid(q_max, 40)
    spec = LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, hamiltonian_kind="harmonic", omega_trap=1.1,
        collision=CollisionParameters(gas_mass=gas_mass, beta=beta,
                                      fugacity_z=fugacity_z, tmatrix=TMAT,
                                      q_nodes=nodes, q_weights=weights, q_max=q_max))
    nf = build_liouvillian(cfg, spec).normal_form
    k_ref, jumps_ref = _expm_collision_normal_form(cfg, spec)
    assert np.array_equal(nf.weights, [s for s, _ in jumps_ref])
    assert nf.jumps.shape == (len(jumps_ref), dim, dim)
    assert len(jumps_ref) == (0 if fugacity_z == 0.0 else 80)
    for jump, (_, ref) in zip(nf.jumps, jumps_ref):
        assert np.abs(jump - ref).max() <= 1e-13 * np.abs(ref).max()
    # relative to the dissipative part of K, which H would otherwise swamp
    dissipative = k_ref + (1j / cfg.hbar) * build_hamiltonian(cfg, "harmonic", 1.1)
    assert np.abs(nf.k - k_ref).max() <= 1e-13 * np.abs(dissipative).max()
    trace_op = nf.k + nf.k.conj().T + np.einsum(
        "n,nji,njk->ik", nf.weights, nf.jumps.conj(), nf.jumps)
    assert np.abs(trace_op).max() <= 1e-14 * np.abs(nf.k).max()


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
    direct = liouv(rho)
    via_matrix = (mat @ rho.flatten(order="F")).reshape(CFG.dim, CFG.dim, order="F")
    assert np.abs(direct - via_matrix).max() < 1e-13 * np.abs(direct).max()


@pytest.mark.parametrize("dim", [2, 7, 12])
def test_kronecker_superoperator_matches_column_loop(dim):
    """The superoperator assembled from the normal form equals the one probed
    column by column through apply, for every kind: Caldeira-Leggett with
    its negative Kossakowski weight, bilinear, the rank-one minimal generator
    in both assemblies, a jump-free generator and the 120-jump collision
    generator."""
    cfg = HilbertConfig(dim=dim)
    cl, bil, mini, col = _all_generators(cfg, 1.0)
    single, closed = (build_liouvillian(cfg, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=2.0, assembly=SINGLE_GENERATOR,
        coeffs=BilinearCoefficients(d_pp=0.7, fugacity_z=z))) for z in (0.8, 0.0))
    assert cl.normal_form.weights.min() < 0.0
    assert [g.normal_form.weights.size for g in (mini, single, closed, col)] == \
        [1, 1, 0, 120]
    for liouv in (cl, bil, mini, single, closed, col):
        kron = superoperator_matrix(liouv)
        loop = superoperator_matrix(Liouvillian(cfg, "probed", liouv.apply))
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
    assert closed.normal_form.weights.size == 0
    general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for liouv in _all_generators(cfg, 1.0) + [closed]:
        nf = liouv.normal_form
        mat = superoperator_matrix(liouv)
        ref = _realigned_superoperator(nf)
        if liouv.kind == BILINEAR:
            assert np.all(np.abs(mat - ref) <= np.finfo(float).eps * np.abs(ref))
        else:
            assert np.array_equal(mat, ref), liouv.kind
        # matrixifying compiles the entries but builds no CSR
        assert "_csr" not in vars(nf)
        oracle = _stacked_product_apply(nf)
        for rho in (random_density(dim, rng), general):
            out = liouv.apply(rho)
            assert out.shape == (dim, dim) and out.flags.c_contiguous
            assert np.abs(out - oracle(rho)).max() <= 1e-14 * np.abs(nf.k).max(), \
                liouv.kind


def test_superoperator_two_level_spectrum():
    # closed two-level system: eigenvalues are 0 (twice) and +-i * gap
    cfg2 = HilbertConfig(dim=2)
    gap = 1.3
    ham = np.diag([0.0, gap]).astype(complex)

    def apply(rho):
        return -1j / cfg2.hbar * (ham @ rho - rho @ ham)

    liouv = Liouvillian(cfg2, "two_level", apply)
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
