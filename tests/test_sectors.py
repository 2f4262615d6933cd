"""The sector path of propagate against the full-state propagate it replaced.

Every library generator, the bilinear family and the collision generator,
keeps the parity of i + j with a free or harmonic Hamiltonian, so a state
with no odd entry keeps none, and propagate integrates the even sector
alone.  The oracle below is the full-state propagate as it was before the
sector path: every stage on the (d, d) state through liouvillian.apply,
whose bits are the row-major CSR mat-vec's (test_liouvillians), and the
adaptive error norm over all d^2 entries.  The sector path must reproduce
it bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qbmlab.propagation as propagation
from conftest import CallableGenerator
from qbmlab import (
    BILINEAR,
    BOLTZMANN_COLLISION,
    CALDEIRA_LEGGETT,
    DOUBLE_COMMUTATOR,
    MINIMAL_QBM,
    RK4_FIXED,
    RK45_ADAPTIVE,
    SINGLE_GENERATOR,
    BilinearCoefficients,
    CollisionParameters,
    HilbertConfig,
    IntegratorConfig,
    Liouvillian,
    LiouvillianSpec,
    NumericalFailure,
    TMatrixModel,
    TrajectoryRecord,
    build_liouvillian,
    build_position,
    coherent_state,
    number_state,
    propagate,
    radial_grid,
    squeezed_state,
    superoperator_matrix,
    thermal_state,
    validate_density_matrix,
)
from qbmlab.liouvillians import sector_order


def _parent_rk4(rho, apply_fn, icfg, sampler):
    for t, h in propagation.fixed_steps(icfg.t_final, icfg.dt):
        rho = propagation._rk4_step(apply_fn, rho, h)
        propagation._check_finite(rho, t)
        sampler.accept(t, rho)
    return rho, 0


def _parent_rk45(rho, apply_fn, icfg, sampler):
    t = 0.0
    dt = min(icfg.dt_init, icfg.t_final)
    rejected = 0
    dt_floor = 1e-14 * icfg.t_final
    k1 = apply_fn(rho)
    abs_rho = np.abs(rho)
    abs_rho5, scale = np.empty_like(abs_rho), np.empty_like(abs_rho)
    while t < icfg.t_final * (1.0 - 1e-15):
        dt = min(dt, icfg.t_final - t)
        if dt < dt_floor:
            raise NumericalFailure(
                "step size underflow at t=%.6g (dt=%.3g)" % (t, dt))
        rho5, rho4, k7 = propagation._dp_attempt(apply_fn, rho, k1, dt)
        np.maximum(abs_rho, np.abs(rho5, out=abs_rho5), out=scale)
        np.multiply(icfg.rtol, scale, out=scale)
        np.add(icfg.atol, scale, out=scale)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            np.subtract(rho5, rho4, out=rho4)
            np.divide(rho4, scale, out=rho4)
            err = np.sqrt(np.mean(np.square(np.abs(rho4, out=scale), out=scale)))
        if not np.isfinite(err):
            rejected += 1
            dt = dt * propagation._FACTOR_MIN
            continue
        if err <= 1.0:
            t += dt
            if t >= icfg.t_final * (1.0 - 1e-15):
                t = icfg.t_final
            rho, k1 = rho5, k7
            abs_rho, abs_rho5 = abs_rho5, abs_rho
            propagation._check_finite(rho, t)
            sampler.accept(t, rho)
        else:
            rejected += 1
        if err == 0.0:
            factor = propagation._FACTOR_MAX
        else:
            factor = min(propagation._FACTOR_MAX, max(
                propagation._FACTOR_MIN, propagation._SAFETY * err ** (-0.2)))
        dt = dt * factor
    return rho, rejected


def _parent_propagate(rho0, liouvillian, icfg, apply=None):
    """The full-state propagate: the oracle of the sector path.  apply, if
    given, stands in for liouvillian.apply."""
    validate_density_matrix(rho0)
    rho = np.array(rho0, dtype=complex)
    apply = liouvillian.apply if apply is None else apply
    calls = 0

    def apply_fn(state):
        nonlocal calls
        calls += 1
        return apply(state)

    integrate = _parent_rk4 if icfg.method == RK4_FIXED else _parent_rk45
    # _rk4_step and the monitors set no error state of their own: propagate
    # sets numpy's once per integration, and so does this oracle
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sampler = propagation.Sampler(propagation._monitors(liouvillian.cfg),
                                      icfg.monitor_stride, rho)
        rho, rejected = integrate(rho, apply_fn, icfg, sampler)
        return TrajectoryRecord(*sampler.columns(icfg.t_final, rho), final_state=rho,
                                accepted_steps=sampler.accepted, rejected_steps=rejected,
                                generator_calls=calls)


_COEFFS = BilinearCoefficients(gamma=0.25, d_pp=0.3, d_xx=0.2, d_xp=-0.05, mu=0.1)
_KINDS = {
    "caldeira_leggett": dict(kind=CALDEIRA_LEGGETT, beta=10.0,
                             coeffs=BilinearCoefficients(gamma=0.5)),
    "bilinear": dict(kind=BILINEAR, coeffs=_COEFFS),
    "minimal_double": dict(kind=MINIMAL_QBM, beta=8.0, assembly=DOUBLE_COMMUTATOR,
                           coeffs=BilinearCoefficients(d_pp=0.1, fugacity_z=0.8)),
    "minimal_single": dict(kind=MINIMAL_QBM, beta=8.0, assembly=SINGLE_GENERATOR,
                           coeffs=BilinearCoefficients(d_pp=0.1, fugacity_z=0.8)),
}
_BILINEAR_DIMS = (5, 8, 38, 39, 40, 41, 42)
_COLLISION_DIMS = (5, 6, 9, 10)


def _collision(fugacity_z=0.8, n_nodes=8):
    nodes, weights = radial_grid(0.5, n_nodes)
    return dict(kind=BOLTZMANN_COLLISION, collision=CollisionParameters(
        gas_mass=1.0, beta=2.0, fugacity_z=fugacity_z,
        tmatrix=TMatrixModel(kind="gaussian", t0=0.05, sigma_q=1.0),
        q_nodes=nodes, q_weights=weights, q_max=0.5))


def _generator(name, cfg, hamiltonian_kind="harmonic"):
    fields = _collision() if name == "collision" else _KINDS[name]
    omega = 1.1 if hamiltonian_kind == "harmonic" else None
    return build_liouvillian(cfg, LiouvillianSpec(
        hamiltonian_kind=hamiltonian_kind, omega_trap=omega, **fields))


def _states(cfg):
    return {"squeezed": squeezed_state(cfg, 0.9),
            "thermal": thermal_state(cfg, 0.8),
            "number": number_state(cfg, 3),
            "coherent": coherent_state(cfg, 0.7 - 0.4j)}


def _icfg(method, stride):
    return IntegratorConfig(method=method, t_final=0.12, dt=4e-3, dt_init=1e-3,
                            rtol=1e-9, atol=1e-11, monitor_stride=stride)


def _assert_same_record(record, reference, label):
    for field in dataclasses.fields(TrajectoryRecord):
        assert np.array_equal(getattr(record, field.name),
                              getattr(reference, field.name)), (label, field.name)


def _is_odd(cfg):
    i, j = np.indices((cfg.dim, cfg.dim))
    return (i + j) % 2 == 1


@pytest.mark.parametrize("method", [RK4_FIXED, RK45_ADAPTIVE])
@pytest.mark.parametrize("name", list(_KINDS) + ["collision"])
def test_sector_path_matches_the_full_state_oracle(monkeypatch, name, method):
    """The final state, all eight monitor series and the accepted, rejected
    and generator-call counts equal the full-state oracle's, from squeezed,
    thermal, number and coherent states, at strides 1, 3 and 10, at odd and
    even dims.  Parity-definite states integrate the even sector alone,
    under the collision generator too; coherent states the whole vector."""
    sizes = []
    matvec = Liouvillian.matvec

    def spy(self, vec):
        sizes.append(vec.size)
        return matvec(self, vec)

    monkeypatch.setattr(Liouvillian, "matvec", spy)
    dims = _COLLISION_DIMS if name == "collision" else _BILINEAR_DIMS
    for dim in dims:
        cfg = HilbertConfig(dim=dim)
        liouv = _generator(name, cfg)
        _, _, n_even = sector_order(dim)
        for state_name, rho0 in _states(cfg).items():
            for stride in (1, 3, 10):
                icfg = _icfg(method, stride)
                sizes.clear()
                record = propagate(rho0, liouv, icfg)
                whole = state_name == "coherent"
                assert sizes == [dim * dim if whole else n_even] * \
                    record.generator_calls, (dim, state_name)
                reference = _parent_propagate(rho0, liouv, icfg)
                _assert_same_record(record, reference, (dim, state_name, stride))


@pytest.mark.parametrize("method", [RK4_FIXED, RK45_ADAPTIVE])
@pytest.mark.parametrize("dim", [7, 40])
def test_custom_callable_matches_the_full_state_oracle(monkeypatch, method, dim):
    """A generator that is not a Liouvillian, cfg and apply alone, steps all
    d^2 entries through its apply on (d, d) views, bit for bit as before."""
    cfg = HilbertConfig(dim=dim)
    inner = _generator("minimal_double", cfg)
    shapes = []

    def custom(rho):
        shapes.append(rho.shape)
        return inner.apply(rho)

    liouv = CallableGenerator(cfg, custom)
    for state_name, rho0 in _states(cfg).items():
        for stride in (1, 3, 10):
            icfg = _icfg(method, stride)
            record = propagate(rho0, liouv, icfg)
            _assert_same_record(record, _parent_propagate(rho0, inner, icfg),
                                (state_name, stride))
    assert set(shapes) == {(dim, dim)}


@pytest.mark.parametrize("name", ["caldeira_leggett", "minimal_single", "collision"])
@pytest.mark.parametrize("state_name", ["squeezed", "coherent"])
def test_a_divergent_run_fails_as_the_oracle_does(name, state_name):
    """A step far above stability overflows the state at the same step on
    both paths, and the same NumericalFailure names the same t."""
    cfg = HilbertConfig(dim=9)
    liouv = _generator(name, cfg)
    rho0 = _states(cfg)[state_name]
    icfg = IntegratorConfig(t_final=1e4, dt=50.0, monitor_stride=3)
    with pytest.raises(NumericalFailure) as new:
        propagate(rho0, liouv, icfg)
    with pytest.raises(NumericalFailure) as old:
        _parent_propagate(rho0, liouv, icfg)
    assert str(new.value) == str(old.value)
    assert "non-finite at t=" in str(new.value)


def _couples_sectors(matrix, cfg):
    """Whether the Fortran-order superoperator has an entry between an
    entry with i + j even and one with i + j odd."""
    odd = _is_odd(cfg).ravel(order="F")
    return bool(np.any(matrix[np.ix_(odd, ~odd)]) or np.any(matrix[np.ix_(~odd, odd)]))


def _csr_couples_sectors(liouv, n_even):
    indptr, indices, _, _ = liouv._csr
    split = indptr[n_even]
    return bool((indices[:split] >= n_even).any() or (indices[split:] < n_even).any())


@given(name=st.sampled_from(list(_KINDS)),
       hamiltonian_kind=st.sampled_from(["free", "harmonic"]),
       gamma=st.floats(min_value=0.0, max_value=1.0),
       d_pp=st.floats(min_value=0.01, max_value=2.0),
       d_xp=st.floats(min_value=-0.5, max_value=0.5),
       mu=st.floats(min_value=-0.5, max_value=0.5),
       dim=st.integers(min_value=2, max_value=14))
@settings(max_examples=40, deadline=None)
def test_bilinear_family_keeps_the_parity_of_i_plus_j(name, hamiltonian_kind, gamma,
                                                      d_pp, d_xp, mu, dim):
    """No bilinear-family generator, free or harmonic, couples the sectors:
    neither its compiled CSR nor its superoperator, so its closed block is
    the even sector."""
    cfg = HilbertConfig(dim=dim)
    fields = dict(_KINDS[name])
    if name == "bilinear":
        fields["coeffs"] = BilinearCoefficients(
            gamma=gamma, d_pp=d_pp, d_xx=0.3, d_xp=d_xp, mu=mu, fugacity_z=0.9)
    liouv = build_liouvillian(cfg, LiouvillianSpec(
        hamiltonian_kind=hamiltonian_kind,
        omega_trap=0.9 if hamiltonian_kind == "harmonic" else None, **fields))
    _, _, n_even = sector_order(dim)
    assert not _couples_sectors(superoperator_matrix(liouv), cfg)
    assert not _csr_couples_sectors(liouv, n_even)
    assert liouv.closed_length == n_even


@pytest.mark.parametrize("fugacity_z", [0.0, 0.8])
@pytest.mark.parametrize("hamiltonian_kind", ["free", "harmonic"])
@pytest.mark.parametrize("dim", [2, 5, 8, 13])
def test_every_library_kind_keeps_the_sectors_apart(dim, hamiltonian_kind, fugacity_z):
    """No library generator has a superoperator entry coupling an i + j even
    entry to an odd one, exactly: every bilinear-family kind, and the
    collision generator, whose jumps are each node's even and odd halves,
    with and without jumps (zero fugacity).  So each CSR is closed on the
    even sector."""
    cfg = HilbertConfig(dim=dim)
    _, _, n_even = sector_order(dim)
    omega = 1.1 if hamiltonian_kind == "harmonic" else None
    generators = [build_liouvillian(cfg, LiouvillianSpec(
        hamiltonian_kind=hamiltonian_kind, omega_trap=omega,
        **_collision(fugacity_z=fugacity_z)))]
    if fugacity_z:
        generators += [_generator(name, cfg, hamiltonian_kind) for name in _KINDS]
    for liouv in generators:
        assert not _couples_sectors(superoperator_matrix(liouv), cfg), liouv.kind
        assert not _csr_couples_sectors(liouv, n_even)
        assert liouv.closed_length == n_even


def test_a_non_finite_entry_keeps_the_whole_vector():
    """A non-finite entry of L would turn the full state's odd zeros into
    NaN, so a generator with one integrates the whole vector."""
    cfg = HilbertConfig(dim=6)
    liouv = _generator("bilinear", cfg)
    jumps = liouv.jumps.copy()
    jumps[0, 1, 0] = np.inf
    broken = dataclasses.replace(liouv, jumps=jumps)
    with np.errstate(invalid="ignore"):  # inf * 0 in the jump products
        broken._csr
    assert liouv.closed_length == sector_order(cfg.dim)[2]
    assert broken.closed_length == cfg.dim ** 2


@pytest.mark.parametrize("name", list(_KINDS) + ["collision"])
@pytest.mark.parametrize("state_name", ["squeezed", "thermal", "number"])
@pytest.mark.parametrize("hamiltonian_kind", ["free", "harmonic"])
def test_full_propagation_keeps_odd_entries_exactly_zero(name, state_name,
                                                         hamiltonian_kind):
    """The fact the sector path rests on: from a parity-definite state the
    full-state oracle never gives an odd entry a nonzero value, in any
    stage input, under either integrator."""
    cfg = HilbertConfig(dim=11)
    liouv = _generator(name, cfg, hamiltonian_kind)
    odd = _is_odd(cfg)
    rho0 = _states(cfg)[state_name]
    assert not rho0[odd].any()
    largest = []

    def watched(rho):
        largest.append(np.abs(rho[odd]).max())
        return liouv.apply(rho)

    for method in (RK4_FIXED, RK45_ADAPTIVE):
        record = _parent_propagate(rho0, liouv, _icfg(method, 3), apply=watched)
        assert not record.final_state[odd].any()
    assert len(largest) > 50 and max(largest) == 0.0


def _parity_mixing(cfg):
    """A trace-preserving normal form that truly mixes the parities: the
    jump x + x^2 moves n by 1 and by 0 or 2 at once, and K is -J^dag J / 2."""
    x = build_position(cfg)
    jump = x + x @ x
    k = -0.5 * (jump.conj().T @ jump).astype(complex)
    return Liouvillian(cfg, "custom", k, np.array([1.0]), jump[None].astype(complex))


def test_matvec_refuses_a_length_the_kernel_would_overrun():
    """The kernel reads every column its rows name, whatever the input's
    length: matvec takes all d^2 entries or the closed block, nothing else,
    so the even sector alone is refused where L mixes the sectors."""
    cfg = HilbertConfig(dim=6)
    _, _, n_even = sector_order(cfg.dim)
    mixing = _parity_mixing(cfg)
    keeping = _generator("bilinear", cfg)
    assert mixing.closed_length == cfg.dim ** 2
    assert _couples_sectors(superoperator_matrix(mixing), cfg)
    assert mixing.matvec(np.ones(cfg.dim ** 2, dtype=complex)).shape == (cfg.dim ** 2,)
    assert keeping.matvec(np.ones(n_even, dtype=complex)).shape == (n_even,)
    for liouv, size in ((mixing, n_even), (keeping, n_even - 1), (keeping, 37)):
        with pytest.raises(ValueError, match="does not match"):
            liouv.matvec(np.ones(size, dtype=complex))
