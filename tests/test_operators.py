import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_scalar_helpers():
    neg = np.diag([1.1, -0.1]).astype(complex)
    assert abs(min_eigenvalue(neg) - (-0.1)) < 1e-12
    mixed = np.eye(CFG.dim) / CFG.dim
    assert abs(purity(mixed) - 1.0 / CFG.dim) < 1e-14
    assert abs(expectation(mixed, np.eye(CFG.dim)) - 1.0) < 1e-14


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
