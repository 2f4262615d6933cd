import dataclasses
from typing import Callable

import numpy as np
import pytest
from hypothesis import strategies as st

from qbmlab import (BOLTZMANN_COLLISION, CollisionParameters, HilbertConfig,
                    LiouvillianSpec, TMatrixModel, build_annihilator, build_hamiltonian,
                    build_momentum, build_position, dpp_prefactor, minimal_coefficients,
                    radial_grid)
from qbmlab.liouvillians import _cached_compile
from qbmlab.microcoeffs import thermal_kernel
from qbmlab.structure_factor import brownian_weight


@pytest.fixture(autouse=True)
def cold_compile_cache():
    """Each test starts without compiled generators, so what it checks about
    a compile (which caches exist, what it raises) is its own."""
    _cached_compile.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@dataclasses.dataclass(frozen=True)
class CallableGenerator:
    """A generator that is not a Liouvillian: cfg and apply alone, the
    shape of a proxy that forwards only apply."""

    cfg: HilbertConfig
    apply: Callable


def random_density(dim, rng):
    """Full-rank random density matrix (Wishart normalized to unit trace)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def signed_collision_normal_form(cfg, spec):
    """K, the weights and the jumps of the collision generator as it was
    compiled over the signed nodes: J(q) and J(-q) from the
    eigendecompositions of x and p, in the order (q_1, -q_1, q_2, ...), each
    with its node's rate, and K from the eigenbasis of p.  Its jumps mix the
    parities to round-off.  The oracle of the definite-parity compile."""
    par = spec.collision
    hbar = cfg.hbar
    x = build_position(cfg)
    p = build_momentum(cfg)
    h = build_hamiltonian(cfg, spec.hamiltonian_kind, spec.omega_trap)
    lam_p, v_p = np.linalg.eigh(p)
    rates = par.fugacity_z * dpp_prefactor(par.gas_mass, par.beta, hbar) * thermal_kernel(
        par.tmatrix, par.beta, par.gas_mass, par.q_nodes, par.q_weights / par.q_nodes)
    live = rates != 0.0
    signed = np.stack([par.q_nodes[live], -par.q_nodes[live]], axis=1).ravel()
    signed_rates = np.repeat(rates[live], 2)
    lam_x, v_x = np.linalg.eigh(x)
    phase = np.exp((1j / hbar) * signed[:, None] * lam_x)
    weight = brownian_weight(signed[:, None], lam_p, par.beta, cfg.mass)
    v_p_dag = v_p.conj().T
    jumps = v_x @ (phase[:, :, None] * (v_x.conj().T @ v_p) * weight[:, None, :]) @ v_p_dag
    k = (-1j / hbar) * h - (0.5 * v_p * (signed_rates @ weight**2)) @ v_p_dag
    return k, signed_rates, jumps.reshape(-1, cfg.dim, cfg.dim)


def single_jump_normal_form(cfg, spec):
    """K, the weights and the jumps of a minimal_qbm spec's generator,
    assembled by hand from its one jump: the thermal annihilator
    build_annihilator(cfg, beta) at rate 2 z gamma, gamma from
    minimal_coefficients, with the anticommutator Hamiltonian correction
    (z gamma/2){x, p}; no weight and no jump when z gamma = 0.  The oracle
    of the minimal generator's Kossakowski compile."""
    c = spec.coeffs
    derived = minimal_coefficients(cfg, c.d_pp, spec.beta, c.fugacity_z)
    z_gamma = derived.fugacity_z * derived.gamma
    x = build_position(cfg)
    p = build_momentum(cfg)
    h_eff = build_hamiltonian(cfg, spec.hamiltonian_kind, spec.omega_trap) \
        + (0.5 * z_gamma) * (x @ p + p @ x)
    jump = build_annihilator(cfg, spec.beta)
    rate = 2.0 * z_gamma
    k = (-1j / cfg.hbar) * h_eff - (0.5 * rate) * (jump.conj().T @ jump)
    live = [rate] if rate != 0.0 else []
    return k, np.array(live), np.array([jump] * len(live)).reshape(-1, cfg.dim, cfg.dim)


BENCH_BOX = dict(
    q_max=st.floats(min_value=0.15, max_value=0.3),
    beta=st.floats(min_value=1.5, max_value=3.0),
    gas_mass=st.floats(min_value=0.5, max_value=2.0),
    fugacity_z=st.floats(min_value=0.5, max_value=1.0),
    t0=st.floats(min_value=0.03, max_value=0.08),
    sigma_q=st.one_of(st.none(), st.floats(min_value=0.5, max_value=1.5)),
    omega_trap=st.floats(min_value=0.9, max_value=1.2))


def bench_collision_spec(cfg, q_max, beta, gas_mass, fugacity_z, t0, sigma_q,
                         omega_trap, at_cap=False):
    """A collision spec from the benchmark's parameter box, with 40 nodes;
    at_cap moves q_max to put the weight exponent just under its cap."""
    if at_cap:
        q_max = 4.95 * 4.0 * cfg.mass / (beta * np.linalg.norm(build_momentum(cfg), 2))
    nodes, weights = radial_grid(q_max, 40)
    tmatrix = (TMatrixModel(kind="constant", t0=t0) if sigma_q is None
               else TMatrixModel(kind="gaussian", t0=t0, sigma_q=sigma_q))
    return LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, hamiltonian_kind="harmonic", omega_trap=omega_trap,
        collision=CollisionParameters(gas_mass=gas_mass, beta=beta, fugacity_z=fugacity_z,
                                      tmatrix=tmatrix, q_nodes=nodes, q_weights=weights,
                                      q_max=q_max))
