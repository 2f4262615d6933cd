import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import qbmlab
from conftest import CallableGenerator
from qbmlab import (
    HilbertConfig,
    build_annihilator,
    build_hamiltonian,
    build_ladder,
    build_momentum,
    build_position,
    coherent_state,
    expectation,
    min_eigenvalue,
    number_state,
    parity_operator,
    purity,
    squeezed_state,
    thermal_state,
    thermal_wavelength,
    vacuum_state,
    validate_density_matrix,
    variance,
)

CFG = HilbertConfig(dim=40)
SQRT_HALF = 1.0 / np.sqrt(2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        HilbertConfig(dim=1)
    with pytest.raises(ValueError):
        HilbertConfig(dim=0)
    with pytest.raises(ValueError):
        HilbertConfig(dim=8, mass=-1.0)
    with pytest.raises(ValueError):
        HilbertConfig(dim=8, hbar=0.0)
    with pytest.raises(ValueError):
        HilbertConfig(dim=8, omega_basis=-2.0)


@pytest.mark.parametrize("name", ["hbar", "mass", "omega_basis"])
@pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
def test_config_refuses_non_finite_constants(name, value):
    """A non-finite constant would build inf and nan matrix entries; it is
    refused by name, as a non-positive one is."""
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        HilbertConfig(dim=4, **{name: value})


@pytest.mark.parametrize("dim", [2.5, 6.0, True, "6"])
def test_dim_must_be_an_integer(dim):
    """A non-integer dim would build operators of another size, or fail
    later; it is refused by name.  numpy integers are integers."""
    with pytest.raises(ValueError, match="dim must be an integer"):
        HilbertConfig(dim=dim)
    assert HilbertConfig(dim=np.int64(6)).dim == 6


def test_two_level_matrices():
    # smallest admissible space, unit scales: all entries known in closed form
    cfg = HilbertConfig(dim=2)
    x = build_position(cfg)
    p = build_momentum(cfg)
    assert np.allclose(x, SQRT_HALF * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)
    assert np.allclose(p, SQRT_HALF * np.array([[0.0, -1.0j], [1.0j, 0.0]]), atol=1e-15)
    h = build_hamiltonian(cfg, "free")
    assert np.allclose(h, 0.25 * np.eye(2), atol=1e-15)


def test_hermiticity_and_traces():
    x = build_position(CFG)
    p = build_momentum(CFG)
    assert np.array_equal(x, x.conj().T)
    assert np.array_equal(p, p.conj().T)
    assert np.trace(x) == 0.0
    assert np.trace(p) == 0.0


def test_commutator_leading_block_and_corner():
    x = build_position(CFG)
    p = build_momentum(CFG)
    comm = x @ p - p @ x
    d = CFG.dim
    target = 1j * CFG.hbar * np.eye(d)
    # truncation piles the commutator defect into the last basis state
    assert np.abs(comm[: d - 1, : d - 1] - target[: d - 1, : d - 1]).max() < 1e-10
    assert abs(comm[d - 1, d - 1] - (-1j * CFG.hbar * (d - 1))) < 1e-12


@given(dim=st.integers(min_value=2, max_value=16),
       scale=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_commutator_corner_scales(dim, scale):
    cfg = HilbertConfig(dim=dim, hbar=scale, mass=scale, omega_basis=scale)
    x = build_position(cfg)
    p = build_momentum(cfg)
    comm = x @ p - p @ x
    assert np.array_equal(x, x.conj().T)
    assert np.array_equal(p, p.conj().T)
    corner = comm[dim - 1, dim - 1]
    assert abs(corner - (-1j * cfg.hbar * (dim - 1))) < 1e-12 * cfg.hbar * dim


def test_harmonic_spectrum_matched_basis():
    h = build_hamiltonian(CFG, "harmonic", omega_trap=1.0)
    offdiag = h - np.diag(np.diag(h))
    assert np.abs(offdiag).max() == 0.0
    n = np.arange(CFG.dim - 1)
    assert np.abs(np.diag(h)[:-1] - (n + 0.5)).max() < 1e-12


def test_harmonic_spectrum_off_basis():
    # trap frequency away from the basis frequency: low eigenvalues must
    # still be the oscillator ladder once the space is large enough
    cfg = HilbertConfig(dim=60)
    h = build_hamiltonian(cfg, "harmonic", omega_trap=0.8)
    ev = np.linalg.eigvalsh(h)
    exact = 0.8 * (np.arange(20) + 0.5)
    assert np.abs(ev[:20] - exact).max() < 1e-8


def test_hamiltonian_validation():
    # omitted trap frequency falls back to the basis frequency
    h_default = build_hamiltonian(CFG, "harmonic")
    h_matched = build_hamiltonian(CFG, "harmonic", omega_trap=CFG.omega_basis)
    assert np.array_equal(h_default, h_matched)
    with pytest.raises(ValueError):
        build_hamiltonian(CFG, "harmonic", omega_trap=-1.0)
    with pytest.raises(ValueError):
        build_hamiltonian(CFG, "anharmonic")


def test_annihilator_matches_ladder_at_matched_length():
    # beta = 4/(hbar*omega_basis) makes the jump operator the ladder itself
    a = build_annihilator(CFG, beta=4.0)
    assert np.abs(a - build_ladder(CFG)).max() < 1e-14


def test_annihilator_commutator():
    a = build_annihilator(CFG, beta=2.7)
    adag = a.conj().T
    comm = a @ adag - adag @ a
    d = CFG.dim
    assert np.abs(comm[: d - 1, : d - 1] - np.eye(d - 1)).max() < 1e-10

    cfg2 = HilbertConfig(dim=2)
    a2 = build_annihilator(cfg2, beta=2.7)
    c2 = a2 @ a2.conj().T - a2.conj().T @ a2
    assert np.trace(c2) == 0.0


def test_thermal_wavelength():
    lam = thermal_wavelength(CFG, beta=2.0)
    assert abs(lam - np.sqrt(2.0)) < 1e-15
    with pytest.raises(ValueError):
        build_annihilator(CFG, beta=0.0)


def test_parity_operator():
    par = parity_operator(CFG)
    x = build_position(CFG)
    p = build_momentum(CFG)
    assert np.array_equal(par @ par, np.eye(CFG.dim))
    assert np.array_equal(par @ x @ par, -x)
    assert np.array_equal(par @ p @ par, -p)


def test_number_state_moments():
    rho = number_state(CFG, 1)
    x = build_position(CFG)
    assert abs(expectation(rho, x @ x).real - 1.5) < 1e-12
    assert abs(expectation(rho, x).real) < 1e-15
    assert abs(purity(rho) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        number_state(CFG, CFG.dim)
    with pytest.raises(ValueError):
        number_state(CFG, -1)


def test_vacuum_state_is_ground():
    rho = vacuum_state(CFG)
    x = build_position(CFG)
    p = build_momentum(CFG)
    assert abs(variance(rho, x) - 0.5) < 1e-14
    assert abs(variance(rho, p) - 0.5) < 1e-14


def test_coherent_state_means():
    alpha = 1.0 + 0.5j
    rho = coherent_state(CFG, alpha)
    validate_density_matrix(rho)
    x = build_position(CFG)
    p = build_momentum(CFG)
    assert abs(expectation(rho, x).real - np.sqrt(2.0) * alpha.real) < 1e-12
    assert abs(expectation(rho, p).real - np.sqrt(2.0) * alpha.imag) < 1e-12
    assert abs(variance(rho, x) - 0.5) < 1e-12


def test_squeezed_state_variances():
    r = 0.5
    rho = squeezed_state(CFG, r)
    x = build_position(CFG)
    p = build_momentum(CFG)
    assert abs(variance(rho, x) - 0.5 * np.exp(-2.0 * r)) < 1e-9
    assert abs(variance(rho, p) - 0.5 * np.exp(2.0 * r)) < 1e-9


def test_thermal_state_occupation():
    nbar = 0.5
    rho = thermal_state(CFG, nbar)
    validate_density_matrix(rho)
    a = build_ladder(CFG)
    assert abs(expectation(rho, a.conj().T @ a).real - nbar) < 1e-10
    assert purity(rho) < 1.0
    # nbar = 0 degenerates to the vacuum
    assert np.abs(thermal_state(CFG, 0.0) - vacuum_state(CFG)).max() < 1e-15


@pytest.mark.parametrize("build, match", [
    (lambda: thermal_state(CFG, np.nan), "nbar"),
    (lambda: thermal_state(CFG, np.inf), "nbar"),
    (lambda: number_state(CFG, 1.5), "level must be an integer"),
    (lambda: coherent_state(CFG, complex("nan")), "alpha must be finite"),
    (lambda: coherent_state(CFG, complex(0.5, np.inf)), "alpha must be finite"),
    (lambda: squeezed_state(CFG, np.inf), "r must be finite"),
    (lambda: squeezed_state(CFG, np.nan), "r must be finite"),
    (lambda: squeezed_state(CFG, 0.5, complex(np.nan, 0.0)), "alpha must be finite"),
], ids=["thermal-nan", "thermal-inf", "number-fractional", "coherent-nan",
        "coherent-inf", "squeezed-inf", "squeezed-nan", "squeezed-alpha-nan"])
def test_state_constructors_refuse_what_they_cannot_build(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_validate_density_matrix_rejections():
    good = vacuum_state(CFG)
    validate_density_matrix(good)
    with pytest.raises(ValueError):
        validate_density_matrix(0.5 * good)
    bad = good.copy()
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        validate_density_matrix(bad)
    neg = np.diag([1.1, -0.1] + [0.0] * (CFG.dim - 2)).astype(complex)
    with pytest.raises(ValueError):
        validate_density_matrix(neg)
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(3, 4))
    # any array-like is read as an array
    validate_density_matrix(good.tolist())
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density_matrix(bad.tolist())


def test_scalar_helpers():
    neg = np.diag([1.1, -0.1]).astype(complex)
    assert abs(min_eigenvalue(neg) - (-0.1)) < 1e-12
    mixed = np.eye(CFG.dim) / CFG.dim
    assert abs(purity(mixed) - 1.0 / CFG.dim) < 1e-14
    assert abs(expectation(mixed, np.eye(CFG.dim)) - 1.0) < 1e-14


def _hermitian_cases(dim, rng):
    """A random Hermitian matrix, a rank-deficient positive one and a
    negative definite one, all of dim x dim."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim // 2 + 1)) + 1j * rng.normal(size=(dim, dim // 2 + 1))
    low_rank = b @ b.conj().T
    return [0.5 * (a + a.conj().T), low_rank / np.trace(low_rank).real,
            -(a @ a.conj().T) - 0.1 * np.eye(dim)]


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 24, 38, 40, 42])
def test_min_eigenvalue_matches_scipy_driver(dim):
    """The heevr (syevr) smallest eigenvalue of the symmetrized matrix
    matches both numpy's heevd and scipy.linalg.eigvalsh's full evr to
    1e-14 * max(||rho||_2, 1), for random Hermitian, rank-deficient and
    negative matrices, whether or not the input is exactly Hermitian, and
    for their real parts; the input is left as it was."""
    rng = np.random.default_rng([20261018, dim])
    for rho in _hermitian_cases(dim, rng):
        noisy = rho + 1e-13 * rng.normal(size=(dim, dim))
        for case in (rho, noisy, rho.real.copy(), noisy.real.copy()):
            before = case.copy()
            sym = 0.5 * (case + case.conj().T)
            oracle = scipy.linalg.eigvalsh(sym)
            scale = max(np.abs(oracle).max(), 1.0)
            low = min_eigenvalue(case)
            assert abs(low - oracle[0]) <= 1e-14 * scale
            assert abs(low - np.linalg.eigvalsh(sym)[0]) <= 1e-14 * scale
            assert np.array_equal(case, before)


def _whole_matrix_min_eigenvalue(rho):
    """The oracle for the parity split: heevr's smallest eigenvalue of the
    whole symmetrized matrix, as min_eigenvalue computed it for every matrix
    before it split those of definite parity."""
    sym = 0.5 * (rho + rho.conj().T)
    routine = scipy.linalg.get_lapack_funcs(
        "heevr" if np.iscomplexobj(rho) else "syevr", dtype=rho.dtype)
    w, _, _, _, info = routine(sym.T, compute_v=0, range="I", il=1, iu=1)
    assert info == 0
    return float(w[0])


def _parity_definite(dim, rng, kind, real):
    """A Hermitian dim x dim matrix with no entry of i + j odd: a general
    one, or a density matrix pushed a little negative, as the
    Caldeira-Leggett generator pushes a squeezed state."""
    a = rng.normal(size=(dim, dim))
    if not real:
        a = a + 1j * rng.normal(size=(dim, dim))
    if kind == "hermitian":
        rho = 0.5 * (a + a.conj().T)
    else:
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        noise = rng.normal(size=(dim, dim))
        rho = rho + 1e-3 * (noise + noise.T)
    i, j = np.indices((dim, dim))
    rho[(i + j) % 2 == 1] = 0.0
    return rho


def _heevr_shapes(monkeypatch):
    """The shapes of the matrices min_eigenvalue hands LAPACK, in order."""
    from qbmlab import operators

    shapes, lookup = [], operators._smallest_eigenvalue_routine

    def recording(dtype):
        routine = lookup(dtype)

        def call(a, **kwargs):
            shapes.append(a.shape)
            return routine(a, **kwargs)

        return call

    monkeypatch.setattr(operators, "_smallest_eigenvalue_routine", recording)
    return shapes


@given(dim=st.integers(min_value=2, max_value=49),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from(["hermitian", "breached_density"]),
       real=st.booleans())
@settings(max_examples=150, deadline=None)
def test_parity_split_matches_the_whole_matrix_oracle(dim, seed, kind, real):
    """A matrix of definite parity takes its smallest eigenvalue from its
    even-n and odd-n blocks, within 1e-14 max(|lambda|, 1) of heevr on the
    whole matrix, negative eigenvalues included; the input is left as it
    was."""
    rho = _parity_definite(dim, np.random.default_rng(seed), kind, real)
    before = rho.copy()
    scale = max(np.abs(np.linalg.eigvalsh(rho)).max(), 1.0)
    low = min_eigenvalue(rho)
    assert abs(low - _whole_matrix_min_eigenvalue(rho)) <= 1e-14 * scale
    assert np.array_equal(rho, before)


@pytest.mark.parametrize("dim", [2, 7, 40])
def test_only_exact_zeros_split_the_matrix(monkeypatch, dim):
    """Odd entries of -0.0 still split the matrix into its two blocks; a
    single odd entry of 1e-300, in either odd quadrant, sends it whole to
    LAPACK, as does a state of no definite parity."""
    rho = _parity_definite(dim, np.random.default_rng(dim), "breached_density", False)
    half = ((dim + 1) // 2,) * 2, (dim // 2,) * 2
    shapes = _heevr_shapes(monkeypatch)
    negative_zero = rho.copy()
    i, j = np.indices((dim, dim))
    negative_zero[(i + j) % 2 == 1] = complex(-0.0, -0.0)
    for split in (rho, negative_zero, thermal_state(HilbertConfig(dim=dim), 0.5)):
        shapes.clear()
        low = min_eigenvalue(split)
        assert shapes == list(half)
        assert low == min_eigenvalue(split.copy())
    for row, col in ((0, 1), (dim - 1, dim - 2), (dim - 2, dim - 1)):
        tiny = rho.copy()
        tiny[row, col] = 1e-300
        shapes.clear()
        assert min_eigenvalue(tiny) == _whole_matrix_min_eigenvalue(tiny)
        assert shapes == [(dim, dim)]
    shapes.clear()
    min_eigenvalue(coherent_state(HilbertConfig(dim=dim), 0.3 + 0.2j))
    assert shapes == [(dim, dim)]


def test_min_eigenvalue_rejects_non_finite():
    rho = vacuum_state(HilbertConfig(dim=4))
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        corrupt = rho.copy()
        corrupt[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            min_eigenvalue(corrupt)


def test_min_eigenvalue_refuses_an_overflowing_symmetrization():
    """Finite entries whose symmetrized sum overflows give LAPACK an inf,
    for which heevr reports a NaN and no error: that is refused, as numpy's
    heevd refused it, not returned."""
    huge = np.full((4, 4), 1.5e308, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(np.linalg.LinAlgError):
        min_eigenvalue(huge)


def test_min_eigenvalue_looks_its_lapack_routine_up_once_per_dtype():
    from qbmlab.operators import _smallest_eigenvalue_routine

    # one LAPACK call for a state of no definite parity, one per block for
    # a state of definite parity
    cfg = HilbertConfig(dim=6)
    states = (coherent_state(cfg, 0.5), thermal_state(cfg, 0.5))
    for rho in states:
        min_eigenvalue(rho)
        min_eigenvalue(rho.real.copy())
    before = _smallest_eigenvalue_routine.cache_info()
    for _ in range(3):
        for rho in states:
            min_eigenvalue(rho)
            min_eigenvalue(rho.real.copy())
    after = _smallest_eigenvalue_routine.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 6 + 12
    assert _smallest_eigenvalue_routine(np.dtype(complex)).typecode == "z"
    assert _smallest_eigenvalue_routine(np.dtype(float)).typecode == "d"


def test_basis_frequency_is_gauge():
    """Physics must not depend on the basis frequency choice.

    The same physical initial state (a trap-ground Gaussian), prepared in two
    different basis frequencies via the matching squeeze, must evolve to the
    same monitor trajectories under the same physical generator.
    """
    from qbmlab import (
        BilinearCoefficients,
        CALDEIRA_LEGGETT,
        IntegratorConfig,
        LiouvillianSpec,
        build_liouvillian,
        propagate,
    )

    def run(omega_basis):
        cfg = HilbertConfig(dim=40, omega_basis=omega_basis)
        spec = LiouvillianSpec(kind=CALDEIRA_LEGGETT, hamiltonian_kind="harmonic",
                               omega_trap=1.0, beta=5.0,
                               coeffs=BilinearCoefficients(gamma=0.3))
        liouv = build_liouvillian(cfg, spec)
        rho0 = squeezed_state(cfg, -0.5 * np.log(omega_basis))
        icfg = IntegratorConfig(t_final=2.0, dt=1e-3, monitor_stride=50)
        return propagate(rho0, liouv, icfg)

    ra = run(1.0)
    rb = run(0.8)
    for field in ("mean_x", "mean_p", "var_x", "var_p"):
        diff = np.abs(getattr(ra, field) - getattr(rb, field)).max()
        assert diff < 1e-9, field


def _overflowing_compile():
    qbmlab.build_liouvillian(HilbertConfig(dim=4), qbmlab.LiouvillianSpec(
        kind=qbmlab.BILINEAR, coeffs=qbmlab.BilinearCoefficients(d_pp=1e308)))


def _diverging_run():
    cfg = HilbertConfig(dim=4)
    qbmlab.propagate(vacuum_state(cfg), CallableGenerator(cfg, lambda rho: 1e80 * rho),
                     qbmlab.IntegratorConfig(method=qbmlab.RK4_FIXED, t_final=1.0, dt=0.1))


def _unconverged(module, run):
    """run, with module's integrate handed, at its caller's own interval and
    tolerance, the caller's integrand times a ripple its rules cannot
    resolve."""
    def failing(monkeypatch):
        real = qbmlab.quadrature.integrate
        monkeypatch.setattr(module, "integrate", lambda f, lo, hi, *rule: real(
            lambda x: f(x) * (1.0 + np.cos(1e3 * x)), lo, hi, *rule))
        run()
    return failing


GAS = qbmlab.GasThermodynamics(beta=1.0, gas_mass=1.0)


def _compute_dpp(t0, beta):
    qbmlab.compute_dpp(qbmlab.TMatrixModel(kind="constant", t0=t0),
                       qbmlab.GasThermodynamics(beta=beta, gas_mass=1.0), 1.0)


def _collision_dpp(t0):
    nodes, weights = qbmlab.radial_grid(10.0, 8)
    qbmlab.collision_dpp(qbmlab.CollisionParameters(
        gas_mass=1.0, beta=1.0, fugacity_z=1.0,
        tmatrix=qbmlab.TMatrixModel(kind="constant", t0=t0),
        q_nodes=nodes, q_weights=weights, q_max=10.0), 1.0)


# (where, what fails, taking pytest's monkeypatch)
NUMERICAL_FAILURES = [
    ("compute_dpp", _unconverged(qbmlab.microcoeffs, lambda: qbmlab.compute_dpp(
        qbmlab.TMatrixModel(kind="constant", t0=0.1), GAS, 1.0))),
    ("sum_rule_zero", _unconverged(qbmlab.structure_factor,
                                   lambda: qbmlab.sum_rule_zero(0.5, GAS))),
    # the radial integral overflows; then d_pp, gamma and d_xx do
    ("compute_dpp-integral-overflows", lambda mp: _compute_dpp(1e154, 1.0)),
    ("compute_dpp-coefficients-overflow", lambda mp: _compute_dpp(1e148, 1e-3)),
    # q^2 underflows to a subnormal, then to zero
    *((f"{where}-q={q}", lambda mp, run=run, q=q: run(q))
      for q in (1e-160, 1e-300)
      for where, run in (("s_mb", lambda q: qbmlab.s_mb(q, 0.0, GAS)),
                         ("sum_rule_zero", lambda q: qbmlab.sum_rule_zero(q, GAS)))),
    # q^2 overflows
    ("sum_rule_f-q=1e155", lambda mp: qbmlab.sum_rule_f(1e155, GAS)),
    # d_pp and gamma underflow to subnormals, d_xx to zero
    ("compute_dpp-underflows", lambda mp: qbmlab.compute_dpp(
        qbmlab.TMatrixModel(kind="constant", t0=1e-145),
        qbmlab.GasThermodynamics(beta=1.0, gas_mass=1e-6), 1e6)),
    ("collision_dpp", lambda mp: _collision_dpp(1e154)),
    ("dpp_constant_closed_form", lambda mp: qbmlab.dpp_constant_closed_form(1e155, GAS)),
    ("cp_margin", lambda mp: qbmlab.cp_margin(qbmlab.BilinearCoefficients(gamma=1e200))),
    ("stability_bound", lambda mp: qbmlab.stability_bound(
        qbmlab.gaussian_grid(-8.0, 8.0, 8), 1.0, 1e308)),
    ("build_liouvillian", lambda mp: _overflowing_compile()),
    ("propagate", lambda mp: _diverging_run()),
    ("stationary_state", lambda mp: qbmlab.stationary_state(np.full((4, 4), np.nan))),
    ("stationary_state-degenerate", lambda mp: qbmlab.stationary_state(np.zeros((4, 4)))),
]


@pytest.mark.parametrize("fail", [row[1] for row in NUMERICAL_FAILURES],
                         ids=[row[0] for row in NUMERICAL_FAILURES])
def test_every_numerical_failure_is_one_arithmetic_error(monkeypatch, fail):
    """The library has one numerical-failure type, defined here, exported by
    propagation and qbmlab, and an ArithmeticError, which is what the
    command line catches; no bare ArithmeticError is raised."""
    failure = qbmlab.operators.NumericalFailure
    assert qbmlab.NumericalFailure is failure is qbmlab.propagation.NumericalFailure
    with pytest.raises(ArithmeticError) as exc:
        fail(monkeypatch)
    assert isinstance(exc.value, failure)
