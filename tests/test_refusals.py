"""One rule for every scalar physical input: finite and, where a sign
applies, of that sign, else a ValueError that names the field.

Each row builds one input through its public constructor or function,
with the field set to a given value; a valid value builds, and NaN, +-inf
and each wrong-signed value are refused by operators.check_finite's
message, "<field> must be [<sign> and ]finite, got <value>".  Integer
inputs meet operators.check_integer in the same way: a bool, a float and
the integer below the lowest valid one are each refused by
"<field> must be an integer >= <low>, got <value!r>".
"""

import re
import types

import numpy as np
import pytest

from qbmlab import (
    BOLTZMANN_COLLISION,
    CALDEIRA_LEGGETT,
    MINIMAL_QBM,
    BilinearCoefficients,
    CollisionParameters,
    FPGrid,
    GasThermodynamics,
    HilbertConfig,
    IntegratorConfig,
    LiouvillianSpec,
    TMatrixModel,
    build_annihilator,
    build_hamiltonian,
    coherent_state,
    compute_dpp,
    fp_solve,
    gaussian_grid,
    maxwell_grid,
    minimal_coefficients,
    number_state,
    positivity_breach_time,
    radial_grid,
    s_mb,
    squeezed_state,
    sum_rule_f,
    sum_rule_zero,
    thermal_state,
)

CFG = HilbertConfig(dim=4)
GAS = GasThermodynamics(beta=2.0, gas_mass=1.0)
TMAT = TMatrixModel(kind="gaussian", t0=0.05, sigma_q=1.0)
NODES, WEIGHTS = radial_grid(0.3, 8)
GRID = gaussian_grid(-6.0, 6.0, 40)
RECORD = types.SimpleNamespace(times=np.array([0.0, 1.0]), min_eig=np.array([0.0, -1.0]))


def _collision(**field):
    return CollisionParameters(**{**dict(
        gas_mass=1.0, beta=2.0, fugacity_z=0.8, tmatrix=TMAT, q_nodes=NODES,
        q_weights=WEIGHTS, q_max=0.3), **field})


def _uniform_grid(v_min=-6.0, v_max=6.0, n_cells=40):
    """FPGrid with a uniform density on [v_min, v_max], in 40 entries."""
    return FPGrid(v_min=v_min, v_max=v_max, n_cells=n_cells,
                  p_values=np.full(40, 1.0 / (v_max - v_min)))


def _thermal_spec(kind, **field):
    given = "gamma" if kind == CALDEIRA_LEGGETT else "d_pp"
    return LiouvillianSpec(**{**dict(
        kind=kind, beta=2.0, coeffs=BilinearCoefficients(**{given: 0.3})), **field})


# (where, build from the field's value, field, sign rule, a valid value)
ROWS = [
    *(("HilbertConfig", lambda v, f=f: HilbertConfig(**{f: v}), f, "positive", 2.0)
      for f in ("hbar", "mass", "omega_basis")),
    ("build_hamiltonian", lambda v: build_hamiltonian(CFG, "harmonic", v),
     "omega_trap", "positive", 1.5),
    ("build_annihilator", lambda v: build_annihilator(CFG, v), "beta", "positive", 2.0),
    ("thermal_state", lambda v: thermal_state(CFG, v), "nbar", "nonnegative", 0.0),
    ("coherent_state", lambda v: coherent_state(CFG, complex(0.1, v)), "alpha", None, 0.2),
    ("squeezed_state", lambda v: squeezed_state(CFG, v), "r", None, -0.2),
    *(("CollisionParameters", lambda v, f=f: _collision(**{f: v}), f, "positive", 0.3)
      for f in ("gas_mass", "beta", "q_max")),
    ("CollisionParameters", lambda v: _collision(fugacity_z=v), "fugacity_z",
     "nonnegative", 0.0),
    ("radial_grid", lambda v: radial_grid(v, 4), "q_max", "positive", 0.3),
    *((f"LiouvillianSpec[{k}]", lambda v, k=k: _thermal_spec(k, beta=v), "beta",
       "positive", 2.0) for k in (CALDEIRA_LEGGETT, MINIMAL_QBM)),
    (f"LiouvillianSpec[{MINIMAL_QBM}]", lambda v: _thermal_spec(
        MINIMAL_QBM, hamiltonian_kind="harmonic", omega_trap=v), "omega_trap", "positive",
     1.5),
    (f"LiouvillianSpec[{BOLTZMANN_COLLISION}]", lambda v: LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, collision=_collision(), hamiltonian_kind="harmonic",
        omega_trap=v), "omega_trap", "positive", 1.5),
    ("minimal_coefficients", lambda v: minimal_coefficients(CFG, 0.7, v), "beta",
     "positive", 2.0),
    ("TMatrixModel[constant]", lambda v: TMatrixModel(kind="constant", t0=v), "t0", None, -0.5),
    ("TMatrixModel[gaussian]", lambda v: TMatrixModel(kind="gaussian", t0=0.5, sigma_q=v),
     "sigma_q", "positive", 1.0),
    *(("BilinearCoefficients", lambda v, f=f: BilinearCoefficients(**{f: v}), f, None,
       -0.1) for f in ("gamma", "d_xp", "mu")),
    *(("BilinearCoefficients", lambda v, f=f: BilinearCoefficients(**{f: v}), f,
       "nonnegative", 0.0) for f in ("d_pp", "d_xx", "fugacity_z")),
    *(("compute_dpp", lambda v, f=f: compute_dpp(TMAT, GAS, **{"mass_test": 1.0,
                                                                "hbar": 1.0, f: v}),
       f, "positive", 2.0) for f in ("mass_test", "hbar")),
    *(("GasThermodynamics", lambda v, f=f: GasThermodynamics(
        **{**dict(beta=2.0, gas_mass=1.0), f: v}), f, "positive", 0.5)
      for f in ("beta", "gas_mass", "fugacity")),
    ("s_mb", lambda v: s_mb(v, 0.1, GAS), "q", "positive", 0.5),
    ("sum_rule_zero", lambda v: sum_rule_zero(v, GAS), "q", "positive", 0.5),
    ("sum_rule_f", lambda v: sum_rule_f(v, GAS), "q", "positive", 0.5),
    ("gaussian_grid", lambda v: gaussian_grid(-6.0, 6.0, 40, var=v), "var", "positive",
     2.0),
    ("gaussian_grid", lambda v: gaussian_grid(-6.0, 6.0, 40, mean=v), "mean", None, -0.5),
    ("gaussian_grid", lambda v: gaussian_grid(v, 6.0, 40), "v_min", "negative", -6.0),
    ("gaussian_grid", lambda v: gaussian_grid(-6.0, v, 40), "v_max", "positive", 6.0),
    ("FPGrid", lambda v: _uniform_grid(v_min=v), "v_min", "negative", -6.0),
    ("FPGrid", lambda v: _uniform_grid(v_max=v), "v_max", "positive", 6.0),
    *(("maxwell_grid", lambda v, f=f: maxwell_grid(
        -6.0, 6.0, 40, **{**dict(eta=1.0, d_v=1.0), f: v}), f, "positive", 2.0)
      for f in ("eta", "d_v")),
    *(("fp_solve", lambda v, f=f: fp_solve(GRID, 1.0, 1.0, **{
        **dict(t_final=0.01, dt=1e-3), f: v}), f, "positive", 2e-3)
      for f in ("t_final", "dt")),
    *(("IntegratorConfig", lambda v, f=f: IntegratorConfig(**{f: v}), f, "positive", 0.5)
      for f in ("t_final", "dt", "dt_init", "rtol", "atol")),
    ("positivity_breach_time", lambda v: positivity_breach_time(RECORD, v), "threshold",
     "negative", -0.5),
]

# the wrong-signed values each rule refuses besides NaN and +-inf
WRONG_SIGN = {None: (), "positive": (0.0, -1.0), "nonnegative": (-1e-300, -1.0),
              "negative": (0.0, 1.0)}

CASES = [pytest.param(build, field, sign, value, id=f"{where}-{field}-{value}")
         for where, build, field, sign, _ in ROWS
         for value in (np.nan, np.inf, -np.inf, *WRONG_SIGN[sign])]


@pytest.mark.parametrize("where, build, field, sign, valid", ROWS,
                         ids=[f"{row[0]}-{row[2]}" for row in ROWS])
def test_each_field_builds_from_a_valid_value(where, build, field, sign, valid):
    build(valid)


@pytest.mark.parametrize("build, field, sign, value", CASES)
def test_each_field_refuses_non_finite_and_wrong_signed_values(build, field, sign, value):
    rule = "finite" if sign is None else f"{sign} and finite"
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got "):
        build(value)


# (where, build from the field's value, field, the lowest valid value)
INTEGER_ROWS = [
    ("HilbertConfig", lambda v: HilbertConfig(dim=v), "dim", 2),
    ("number_state", lambda v: number_state(CFG, v), "level", 0),
    ("IntegratorConfig", lambda v: IntegratorConfig(monitor_stride=v), "monitor_stride", 1),
    ("fp_solve", lambda v: fp_solve(GRID, 1.0, 1.0, 0.01, 1e-3, sample_stride=v),
     "sample_stride", 1),
    ("radial_grid", lambda v: radial_grid(0.3, v), "n_nodes", 1),
]


@pytest.mark.parametrize("build, field, low", [
    pytest.param(build, field, low, id=f"{where}-{field}")
    for where, build, field, low in INTEGER_ROWS])
def test_each_integer_field_builds_from_its_lowest_valid_value(build, field, low):
    build(low)
    build(np.int64(low))


@pytest.mark.parametrize("build, field, low, value", [
    pytest.param(build, field, low, value, id=f"{where}-{field}-{value!r}")
    for where, build, field, low in INTEGER_ROWS
    for value in (True, float(low), low - 1)])
def test_each_integer_field_refuses_a_bool_a_float_and_one_below(build, field, low, value):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= {low}, "
                                         rf"got {re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("build", [lambda n: gaussian_grid(-6.0, 6.0, n),
                                   lambda n: _uniform_grid(n_cells=n)],
                         ids=["gaussian_grid", "FPGrid"])
@pytest.mark.parametrize("n_cells", [40.0, 40.5, "40", True])
def test_grid_refuses_a_cell_count_that_is_not_an_integer(build, n_cells):
    """A grid's cell count is an integer, as operators.check_integer decides
    (a bool is not one); a numpy integer builds."""
    with pytest.raises(ValueError, match=rf"^n_cells must be an integer >= 4, "
                                         rf"got {re.escape(repr(n_cells))}$"):
        build(n_cells)
    assert build(np.int64(40)).n_cells == 40


@pytest.mark.parametrize("build", [
    lambda n: gaussian_grid(-6.0, 6.0, n),
    # the cell count is checked before the density's shape
    lambda n: FPGrid(v_min=-6.0, v_max=6.0, n_cells=n, p_values=np.full(4, 1.0 / 12.0))],
    ids=["gaussian_grid", "FPGrid"])
@pytest.mark.parametrize("n_cells", [3, 0, -4])
def test_grid_refuses_fewer_than_four_cells(build, n_cells):
    with pytest.raises(ValueError, match=rf"^n_cells must be an integer >= 4, got {n_cells}$"):
        build(n_cells)
    assert build(4).n_cells == 4
