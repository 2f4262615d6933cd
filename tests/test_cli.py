import glob
import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest

from qbmlab import cli
from qbmlab.config import load_config

PRESETS = Path(__file__).resolve().parents[1] / "presets"

EVOLVE_QUICK = """
[hilbert]
dim = 8

[generator]
kind = minimal_qbm
beta = 2.0
d_pp = 0.4
fugacity_z = 0.7
initial_state = thermal
initial_nbar = 0.3

[integrator]
method = rk4_fixed
t_final = 0.2
dt = 0.002
monitor_stride = 10

[output]
basename = quick
"""

COEFFS_QUICK = """
[hilbert]
mass = 2.0

[gas]
beta = 0.5
gas_mass = 1.3

[tmatrix]
kind = constant
t0 = 0.02

[output]
basename = co
"""

DSF_QUICK = """
[gas]
beta = 1.0
gas_mass = 1.0

[dsf]
q_values = 0.5, 2.0
n_e = 11

[output]
basename = sf
"""

FP_QUICK = """
[fp]
v_min = -6.0
v_max = 6.0
n_cells = 80
eta = 1.0
d_v = 1.0
t_final = 0.2
initial = maxwell

[output]
basename = fpq
"""


def run(tmp_path, monkeypatch, text, command, basename):
    cfg = tmp_path / (basename + ".ini")
    cfg.write_text(text)
    out = tmp_path / "out"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
    code = cli.main([command, str(cfg)])
    return code, out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "evolve" in capsys.readouterr().out


def test_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[generator]\ngama = 0.5\n")
    assert cli.main(["evolve", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "gama" in err


def test_missing_config_exits_two(tmp_path):
    assert cli.main(["evolve", str(tmp_path / "absent.ini")]) == 2


def test_invalid_physics_value_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[gas]\nbeta = 1.0\ngas_mass = 1.0\n\n[dsf]\nq_values = -1.0\n")
    assert cli.main(["dsf", str(cfg)]) == 2
    assert "q_values" in capsys.readouterr().err


def test_numerical_failure_exits_three(tmp_path, capsys):
    # an explicit step far beyond the stability limit overflows the state
    cfg = tmp_path / "stiff.ini"
    cfg.write_text("""
[hilbert]
dim = 8

[generator]
kind = caldeira_leggett
hamiltonian = harmonic
omega_trap = 1.0
beta = 0.5
gamma = 1e6

[integrator]
method = rk4_fixed
t_final = 20.0
dt = 1.0
""")
    code = cli.main(["evolve", str(cfg)])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


DIVERGENT_CL = """
[hilbert]
dim = 6

[generator]
kind = caldeira_leggett
beta = 1.0
gamma = 1e100

[integrator]
method = rk45_adaptive
t_final = 1
dt_init = 0.1
"""


@pytest.mark.parametrize("method, message", [
    ("rk45_adaptive", "step size underflow at t="),
    ("rk4_fixed", "state became non-finite at t=")], ids=["rk45_adaptive", "rk4_fixed"])
def test_diverging_run_exits_three_without_a_warning(tmp_path, monkeypatch, capsys,
                                                     method, message):
    """Under the suite's error::RuntimeWarning, a run whose states overflow
    ends as a numerical failure, not as a numpy warning's traceback, and
    writes nothing."""
    text = DIVERGENT_CL.replace("rk45_adaptive", method)
    if method == "rk4_fixed":
        text = text.replace("dt_init", "dt")
    code, out = run(tmp_path, monkeypatch, text, "evolve", "divergent")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: " + message) and err.count("\n") == 1
    assert not out.exists()


OVERFLOWING_GENERATORS = {
    "bilinear": ("kind = bilinear\nd_pp = 1e308", "bilinear generator: K is not finite"),
    "caldeira_leggett": ("kind = caldeira_leggett\nbeta = 1.0\ngamma = 1e200",
                         "cp_margin: "),
    "minimal_qbm": ("kind = minimal_qbm\nbeta = 1.0\nd_pp = 1e300", "cp_margin: "),
}


# a gas and a t-matrix, and a microscopic minimal generator driven by them
GAS_SIDE = "[gas]\nbeta = %s\ngas_mass = 1.0\n\n[tmatrix]\nkind = constant\nt0 = %s\n"
MICROSCOPIC = ("[hilbert]\ndim = 6\n\n[generator]\nkind = minimal_qbm\n"
               "coefficients = microscopic\n\n[integrator]\nt_final = 1\ndt = 0.1\n\n")


@pytest.mark.parametrize("command, text, message", [
    *(pytest.param("evolve", "[hilbert]\ndim = 6\n\n[generator]\n%s\n\n[integrator]\n"
                   "t_final = 1\ndt = 0.1\n" % generator, message, id="evolve-" + kind)
      for kind, (generator, message) in OVERFLOWING_GENERATORS.items()),
    # the radial integral overflows; then d_pp, gamma and d_xx do, which
    # BilinearCoefficients would refuse as a configuration error
    pytest.param("coeffs", GAS_SIDE % ("1.0", "1e154"),
                 "compute_dpp: the radial integral at t0=1e+154, beta=1.0, gas_mass=1.0 "
                 "did not converge: value=inf", id="coeffs-radial-integral"),
    pytest.param("coeffs", GAS_SIDE % ("0.001", "1e148"),
                 "compute_dpp: d_pp, gamma and d_xx = (inf, inf, inf) are not all finite "
                 "at t0=1e+148, beta=0.001", id="coeffs-d_pp"),
    pytest.param("evolve", MICROSCOPIC + GAS_SIDE % ("0.001", "1e148"),
                 "compute_dpp: d_pp, gamma and d_xx", id="evolve-microscopic-d_pp"),
    # q^2 underflows to a subnormal, then to zero
    *(pytest.param("dsf", "[gas]\nbeta = 1.0\ngas_mass = 1.0\n\n[dsf]\nq_values = %s\n" % q,
                   "s_mb: the structure factor is not finite at q=%s, beta=1.0" % q,
                   id="dsf-q=" + q)
      for q in ("1e-160", "1e-300")),
    pytest.param("coeffs", COEFFS_QUICK.replace("t0 = 0.02", "t0 = 1e100"), "cp_margin: ",
                 id="coeffs-t0"),
    # t0^2 itself overflows, for either kind of t-matrix
    *(pytest.param("coeffs", COEFFS_QUICK.replace("kind = constant\nt0 = 0.02", tmatrix),
                   "t0: ", id="coeffs-t0-squared-" + tmatrix.split()[2])
      for tmatrix in ("kind = constant\nt0 = 1e160",
                      "kind = gaussian\nt0 = 1e160\nsigma_q = 1.0"))])
def test_build_whose_arithmetic_overflows_exits_three(tmp_path, monkeypatch, capsys,
                                                      command, text, message):
    """A generator or coefficient set whose arithmetic overflows is a
    numerical failure of the build, named on one stderr line, with no
    numpy warning under the suite's error::RuntimeWarning and nothing
    written: coeffs writes no NaN cp_margin."""
    code, out = run(tmp_path, monkeypatch, text, command, "overflow")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: " + message) and err.count("\n") == 1
    assert not out.exists()


def test_gaussian_that_underflows_everywhere_exits_two(tmp_path, monkeypatch, capsys):
    """A Gaussian initial density below the smallest float at every cell
    centre is a configuration error naming its mean and var, not a
    p_values the config never sets, nor a division warning."""
    text = FP_QUICK.replace("initial = maxwell", "initial = gaussian\ninitial_var = 1e-300")
    code, out = run(tmp_path, monkeypatch, text, "fp", "narrow")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: in section [fp]: the Gaussian of mean 0.0 "
                          "and var 1e-300 underflows")
    assert not out.exists()


def test_linalg_failure_during_run_exits_three(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError; mid-run it is numerical, not config
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "propagate", failing)
    code, out = run(tmp_path, monkeypatch, EVOLVE_QUICK, "evolve", "quick")
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "did not converge" in err
    assert not (out / "quick.csv").exists()


def test_numerical_failure_while_building_exits_three(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise ArithmeticError("radial quadrature did not converge")

    monkeypatch.setattr(cli, "compute_dpp", failing)
    code, out = run(tmp_path, monkeypatch, COEFFS_QUICK, "coeffs", "co")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("state", ["initial_state = number\ninitial_n = 2",
                                   "initial_state = number\ninitial_n = 0",
                                   "initial_state = coherent\ninitial_alpha_re = 0.5\n"
                                   "initial_alpha_im = -0.3"],
                         ids=["number", "number-zero", "coherent"])
def test_evolve_from_pure_initial_states(tmp_path, monkeypatch, state):
    text = EVOLVE_QUICK.replace("initial_state = thermal\ninitial_nbar = 0.3", state)
    code, out = run(tmp_path, monkeypatch, text, "evolve", "pure")
    assert code == 0
    assert (out / "quick.csv").exists()


@pytest.mark.parametrize("command, text, section, key", [
    ("evolve", EVOLVE_QUICK.replace("monitor_stride = 10",
                                    "monitor_stride = 10\nbreach_threshold = 1e-6"),
     "integrator", "breach_threshold"),
    ("fp", FP_QUICK.replace("initial = maxwell", "initial = maxwell\ndt = 0.5"), "fp", "dt"),
    ("fp", FP_QUICK.replace("t_final = 0.2", "t_final = -0.2"), "fp", "t_final"),
    ("fp", FP_QUICK.replace("initial = maxwell",
                            "initial = gaussian\ninitial_var = 1.0")
                   .replace("eta = 1.0", "eta = -1.0"), "fp", "eta"),
    ("compare", "[compare]\nbeta = 2.0\nd_pp = 0.3\nt_final = 0.1\ndim = 8\n"
                "eta_scale = -1.0\n", "compare", "eta_scale"),
    ("fp", FP_QUICK.replace("eta = 1.0", "eta = nan"), "fp", "eta"),
    ("fp", FP_QUICK.replace("eta = 1.0", "eta = inf"), "fp", "eta"),
    # values the library's own validation rejects
    ("coeffs", COEFFS_QUICK.replace("gas_mass = 1.3", "gas_mass = 1.3\nstatistics = bose"),
     "gas", "fugacity"),
    ("evolve", EVOLVE_QUICK.replace("dim = 8", "dim = 8\nmass = -2"), "hilbert", "mass"),
    ("evolve", EVOLVE_QUICK.replace("kind = minimal_qbm\nbeta = 2.0\nd_pp = 0.4",
                                    "kind = caldeira_leggett\nbeta = 2.0\ngamma = -0.1"),
     "generator", "gamma"),
    ("fp", FP_QUICK.replace("eta = 1.0", "eta = 0"), "fp", "eta"),
    ("coeffs", COEFFS_QUICK.replace("kind = constant", "kind = gaussian\nsigma_q = -1"),
     "tmatrix", "sigma_q"),
    ("compare", "[compare]\nbeta = 2.0\nd_pp = 0.3\nt_final = 0.1\ndim = 1\n",
     "compare", "dim"),
    ("dsf", DSF_QUICK.replace("gas_mass = 1.0", "gas_mass = 1.0\nstatistics = fermi"),
     "gas", "statistics"),
    ("dsf", DSF_QUICK.replace("gas_mass = 1.0", "gas_mass = 1.0\nstatistics = bose"),
     "gas", "statistics"),
    # no friction, so chi is undefined
    ("coeffs", COEFFS_QUICK.replace("t0 = 0.02", "t0 = 0"), "tmatrix", "t0"),
    # no drift and no diffusion: nothing bounds the step, so dt must be given
    ("fp", FP_QUICK.replace("initial = maxwell", "initial = gaussian\ninitial_var = 1.0")
     .replace("eta = 1.0", "eta = 0").replace("d_v = 1.0", "d_v = 0"), "fp", "dt"),
], ids=["evolve-breach_threshold", "fp-dt", "fp-t_final", "fp-eta",
        "compare-eta_scale", "fp-eta-nan", "fp-eta-inf", "gas-bose-fugacity",
        "hilbert-mass", "cl-gamma", "fp-maxwell-eta", "tmatrix-sigma_q", "compare-dim",
        "dsf-fermi", "dsf-bose", "tmatrix-t0-zero", "fp-no-coefficients-no-dt"])
def test_bad_run_parameters_exit_two_before_running(tmp_path, monkeypatch, capsys,
                                                    command, text, section, key):
    code, out = run(tmp_path, monkeypatch, text, command, "bad")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "in section [%s]" % section in err and key in err
    assert not out.exists()


COLLISION_QUICK = """
[hilbert]
dim = 6

[generator]
kind = boltzmann_collision
q_max = 0.2
n_nodes = 4

[gas]
beta = 2.0
gas_mass = 1.0

[tmatrix]
kind = constant
t0 = 0.05

[integrator]
t_final = 0.01
dt = 0.005
"""

MICROSCOPIC_QUICK = COLLISION_QUICK.replace(
    "kind = boltzmann_collision\nq_max = 0.2\nn_nodes = 4",
    "kind = minimal_qbm\ncoefficients = microscopic")


@pytest.mark.parametrize("text, keys", [
    (EVOLVE_QUICK.replace("kind = minimal_qbm\nbeta = 2.0\nd_pp = 0.4",
                          "kind = caldeira_leggett\nbeta = 2.0\ngamma = 0.2\n"
                          "d_pp = 5.0\nd_xx = 3.0"), ["d_pp", "d_xx"]),
    (EVOLVE_QUICK.replace("kind = minimal_qbm\nbeta = 2.0\nd_pp = 0.4",
                          "kind = caldeira_leggett\nbeta = 2.0\ngamma = 0.2\n"
                          "d_pp = 0.0"), ["d_pp"]),
    (COLLISION_QUICK.replace("n_nodes = 4", "n_nodes = 4\nbeta = 99\ngamma = 0.1\n"
                             "d_pp = 0.3"), ["beta", "gamma", "d_pp"]),
    (MICROSCOPIC_QUICK.replace("microscopic", "microscopic\nbeta = 2.0"), ["beta"]),
    (MICROSCOPIC_QUICK.replace("microscopic", "microscopic\nd_pp = 0.4"), ["d_pp"]),
    (MICROSCOPIC_QUICK.replace("microscopic", "microscopic\nfugacity_z = 0.5"),
     ["fugacity_z"]),
    (EVOLVE_QUICK.replace("d_pp = 0.4", "d_pp = 0.4\nq_max = 1.0"), ["q_max"]),
    (EVOLVE_QUICK.replace("kind = minimal_qbm\nbeta = 2.0",
                          "kind = bilinear\nassembly = single_generator"),
     ["assembly"]),
    # the minimal generator has one construction: no run reads assembly
    *((EVOLVE_QUICK.replace("d_pp = 0.4", "d_pp = 0.4\nassembly = " + assembly), ["assembly"])
      for assembly in ("double_commutator", "single_generator")),
    (EVOLVE_QUICK.replace("initial_nbar = 0.3", "initial_nbar = 0.3\ninitial_n = 2"),
     ["initial_n"]),
], ids=["cl-d_pp-d_xx", "cl-zero-d_pp", "collision-beta-gamma-d_pp",
        "microscopic-beta", "microscopic-d_pp", "microscopic-fugacity_z",
        "minimal-q_max", "bilinear-assembly", "minimal-assembly-double_commutator",
        "minimal-assembly-single_generator", "thermal-initial_n"])
def test_unread_generator_keys_exit_two(tmp_path, monkeypatch, capsys, text, keys):
    code, out = run(tmp_path, monkeypatch, text, "evolve", "unread")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(" not read by this evolve run\n")
    assert all("key '%s' in section [generator]" % key in err for key in keys)
    assert not out.exists()


@pytest.mark.parametrize("text", [COLLISION_QUICK, MICROSCOPIC_QUICK],
                         ids=["collision", "microscopic"])
def test_generator_keys_read_by_their_kind_run(tmp_path, monkeypatch, text):
    code, out = run(tmp_path, monkeypatch, text, "evolve", "read")
    assert code == 0
    assert (out / "evolve.csv").exists()


RK45_QUICK = EVOLVE_QUICK.replace("method = rk4_fixed\nt_final = 0.2\ndt = 0.002",
                                  "method = rk45_adaptive\nt_final = 0.2\nrtol = 1e-6")
CL_QUICK = EVOLVE_QUICK.replace("kind = minimal_qbm\nbeta = 2.0\nd_pp = 0.4",
                                "kind = caldeira_leggett\nbeta = 2.0\ngamma = 0.2")
COMPARE_QUICK = "[compare]\nbeta = 2.0\nd_pp = 0.3\nt_final = 0.1\ndim = 8\n"


@pytest.mark.parametrize("command, text, keys", [
    # each reader reads a key only on the branch that uses it
    ("evolve", EVOLVE_QUICK.replace("dt = 0.002",
                                    "dt = 0.002\ndt_init = 1e-3\nrtol = 1e-6\natol = 1e-9"),
     [("integrator", "dt_init"), ("integrator", "rtol"), ("integrator", "atol")]),
    ("evolve", RK45_QUICK.replace("rtol = 1e-6", "rtol = 1e-6\ndt = 0.002\natol = 1e-9"),
     [("integrator", "dt")]),
    ("evolve", EVOLVE_QUICK.replace("kind = minimal_qbm", "kind = minimal_qbm\nomega_trap = 1.5"),
     [("generator", "omega_trap")]),
    ("evolve", MICROSCOPIC_QUICK.replace("t0 = 0.05", "t0 = 0.05\nsigma_q = 1.0"),
     [("tmatrix", "sigma_q")]),
    ("coeffs", COEFFS_QUICK.replace("mass = 2.0", "mass = 2.0\nhbar = 1.0\nomega_basis = 2.0"),
     [("hilbert", "omega_basis")]),
    ("dsf", DSF_QUICK.replace("gas_mass = 1.0", "gas_mass = 1.0\nfugacity = 0.5"),
     [("gas", "fugacity")]),
    # the energy window is the recoil peak +- 8 thermal widths, not a setting
    ("dsf", DSF_QUICK.replace("n_e = 11", "n_e = 11\ne_min = 3.0\ne_max = -3.0"),
     [("dsf", "e_min"), ("dsf", "e_max")]),
    ("evolve", COLLISION_QUICK.replace("n_nodes = 4", "n_nodes = 4\nfugacity_z = 0.5"),
     [("generator", "fugacity_z")]),
    ("evolve", COLLISION_QUICK.replace("gas_mass = 1.0", "gas_mass = 1.0\nstatistics = fermi"),
     [("gas", "statistics")]),
    ("evolve", MICROSCOPIC_QUICK.replace("gas_mass = 1.0",
                                         "gas_mass = 1.0\nfugacity = 0.5\nstatistics = bose"),
     [("gas", "statistics")]),
    # inputs that used to do nothing without a message
    ("compare", COMPARE_QUICK + "\n[hilbert]\nmass = 5.0\n", [("hilbert", "mass")]),
    ("fp", FP_QUICK.replace("initial = maxwell", "initial = maxwell\ninitial_var = 2.0")
     + "\n[integrator]\nt_final = 1.0\ndt = 0.01\n",
     [("fp", "initial_var"), ("integrator", "t_final"), ("integrator", "dt")]),
    ("coeffs", COEFFS_QUICK.replace("mass = 2.0", "mass = 2.0\ndim = 8")
     .replace("t0 = 0.02", "t0 = 0.02\nsigma_q = 1.0"),
     [("hilbert", "dim"), ("tmatrix", "sigma_q")]),
    ("evolve", CL_QUICK + "\n[gas]\nbeta = 2.0\ngas_mass = 1.0\n\n"
     "[tmatrix]\nkind = constant\nt0 = 0.05\n",
     [("gas", "beta"), ("gas", "gas_mass"), ("tmatrix", "kind"), ("tmatrix", "t0")]),
], ids=["rk4-dt_init-rtol-atol", "rk45-dt", "free-omega_trap",
        "constant-sigma_q", "coeffs-omega_basis", "dsf-fugacity", "dsf-e_min-e_max",
        "collision-fugacity_z", "collision-fermi", "microscopic-bose",
        "compare-hilbert-mass", "fp-maxwell-initial_var-integrator",
        "coeffs-dim-sigma_q", "cl-gas-tmatrix"])
def test_unread_keys_exit_two(tmp_path, monkeypatch, capsys, command, text, keys):
    code, out = run(tmp_path, monkeypatch, text, command, "unread")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    for section, key in keys:
        assert "key '%s' in section [%s]" % (key, section) in err
    assert err.count("key '") == len(keys)
    assert not out.exists()


def test_branch_keys_read_where_used(tmp_path, monkeypatch):
    harmonic = EVOLVE_QUICK.replace(
        "kind = minimal_qbm", "kind = minimal_qbm\nhamiltonian = harmonic\nomega_trap = 1.5")
    assert run(tmp_path, monkeypatch, harmonic, "evolve", "harmonic")[0] == 0
    rk45 = RK45_QUICK.replace("rtol = 1e-6", "rtol = 1e-6\ndt_init = 1e-3\natol = 1e-9")
    assert run(tmp_path, monkeypatch, rk45, "evolve", "rk45")[0] == 0


def test_collision_takes_its_fugacity_from_gas(tmp_path, monkeypatch):
    tables = []
    for z in ("0.5", "1.0"):
        text = COLLISION_QUICK.replace("gas_mass = 1.0", "gas_mass = 1.0\nfugacity = " + z)
        code, out = run(tmp_path, monkeypatch, text, "evolve", "z" + z)
        assert code == 0
        tables.append((out / "evolve.csv").read_bytes())
    assert tables[0] != tables[1]


def test_collision_q_max_is_required(tmp_path, monkeypatch, capsys):
    """The collision generator has no default momentum-transfer cutoff: the
    gas's thermal scale breaks the weight exponent's cap for nearly every
    gas, so the preset without its q_max line is a configuration error."""
    text = (PRESETS / "09_collision_thermal.ini").read_text()
    assert "q_max = 0.25\n" in text
    code, _ = run(tmp_path, monkeypatch, text.replace("q_max = 0.25\n", ""),
                  "evolve", "no_q_max")
    assert code == 2
    err = capsys.readouterr().err
    assert "q_max" in err and "[generator]" in err


@pytest.mark.parametrize("line", ["q_max = nan", "q_max = inf", "q_max = -0.2",
                                  "q_max = 0"])
def test_collision_refuses_a_bad_cutoff_by_name(tmp_path, monkeypatch, capsys, line):
    """A non-finite cutoff is refused by the parser, a nonpositive one by the
    library's grid; either way a configuration error naming q_max."""
    code, out = run(tmp_path, monkeypatch, COLLISION_QUICK.replace("q_max = 0.2", line),
                    "evolve", "bad_q_max")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[generator]" in err and "q_max" in err
    assert not out.exists()


def test_default_output_dir(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "co.ini").write_text(COEFFS_QUICK)
    assert cli.main(["coeffs", "co.ini"]) == 0
    assert sorted(p.name for p in (tmp_path / "qbmlab_out").iterdir()) == \
        ["co.csv", "co.meta.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["co.ini", "qbmlab_out"]


def test_evolve_output_contract(tmp_path, monkeypatch, capsys):
    code, out = run(tmp_path, monkeypatch, EVOLVE_QUICK, "evolve", "quick")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "positivity_breach_t=none" in stdout

    data = (out / "quick.csv").read_text().splitlines()
    assert data[0] == "t,trace,min_eig,purity,mean_x,mean_p,var_x,var_p"
    assert len(data) == 1 + 11  # header, t=0, then every 10th of 100 steps

    meta = (out / "quick.meta.txt").read_text()
    assert "config_sha256" in meta
    assert "package_version" in meta
    assert "positivity_breach_t=none" in meta
    # the run's own counts: 100 fixed steps of four generator calls each,
    # sampled at t = 0 and after every 10th step
    lines = meta.splitlines()
    for line in ("accepted_steps=100", "rejected_steps=0", "generator_calls=400",
                 "monitor_samples=11"):
        assert line in lines
    # data files carry no timestamp; reruns must be byte-identical
    assert "written_utc" not in (out / "quick.csv").read_text()


def test_evolve_determinism(tmp_path, monkeypatch):
    _, out = run(tmp_path, monkeypatch, EVOLVE_QUICK, "evolve", "quick")
    first = (out / "quick.csv").read_bytes()
    code = cli.main(["evolve", str(tmp_path / "quick.ini")])
    assert code == 0
    assert (out / "quick.csv").read_bytes() == first


def test_coeffs_output_contract(tmp_path, monkeypatch, capsys):
    code, out = run(tmp_path, monkeypatch, COEFFS_QUICK, "coeffs", "co")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "chi=1.25000000000000e-01" in stdout
    assert "cp_margin=" in stdout
    assert "friction_ratio=1.0000000000000000e+00" in stdout
    data = (out / "co.csv").read_text().splitlines()
    assert data[0] == "D_pp,D_xx,gamma,mu,chi,cp_margin,friction_ratio"
    assert len(data) == 2


def test_dsf_output_contract(tmp_path, monkeypatch, capsys):
    code, out = run(tmp_path, monkeypatch, DSF_QUICK, "dsf", "sf")
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("sum_rule_0=") == 2
    assert stdout.count("sum_rule_f_ratio=") == 2
    for line in stdout.splitlines():
        if line.startswith("sum_rule_0="):
            assert abs(float(line.split("=")[1]) - 1.0) < 1e-8
        if line.startswith("sum_rule_f_ratio="):
            assert abs(float(line.split("=")[1]) - 1.0) < 1e-8
    data = (out / "sf.csv").read_text().splitlines()
    assert data[0] == "q,E,S"
    assert len(data) == 1 + 2 * 11


def test_fp_output_contract(tmp_path, monkeypatch, capsys):
    code, out = run(tmp_path, monkeypatch, FP_QUICK, "fp", "fpq")
    assert code == 0
    stdout = capsys.readouterr().out
    line = [l for l in stdout.splitlines() if l.startswith("stationary_var=")][0]
    assert abs(float(line.split("=")[1]) - 1.0) < 0.01
    data = (out / "fpq.csv").read_text().splitlines()
    assert data[0] == "t,mass,mean_v,var_v"
    # the run's own counts: dt = 0.9 * 0.4 * dv**2 / 2 = 0.00405 at dv = 0.15
    # gives 49 full steps and a remainder, each updating 80 cells
    for lines in (stdout.splitlines(), (out / "fpq.meta.txt").read_text().splitlines()):
        assert "steps=50" in lines
        assert "cell_updates=4000" in lines


def test_output_dir_env_overrides_config(tmp_path, monkeypatch):
    text = COEFFS_QUICK + "\n[output]\ndir = %s\n" % (tmp_path / "ignored")
    # [output] appears twice -> configparser duplicate error surfaces as exit 2
    cfg = tmp_path / "dup.ini"
    cfg.write_text(text)
    assert cli.main(["coeffs", str(cfg)]) == 2

    # the honest override: env var wins over the configured directory
    cfg2 = tmp_path / "env.ini"
    cfg2.write_text(COEFFS_QUICK.replace("[output]\nbasename = co",
                                         "[output]\nbasename = co\ndir = %s"
                                         % (tmp_path / "from_config")))
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    assert cli.main(["coeffs", str(cfg2)]) == 0
    assert (env_dir / "co.csv").exists()
    assert not (tmp_path / "from_config").exists()


def _preset_command(path):
    text = Path(path).read_text()
    for section, command in (("[generator]", "evolve"), ("[compare]", "compare"),
                             ("[fp]", "fp"), ("[dsf]", "dsf")):
        if section in text:
            return command
    return "coeffs"


def _parent_write_csv(path, header, rows, formats=None):
    """_write_csv's per-cell join: the oracle for its row template."""
    if formats is None:
        formats = ["%.16e"] * len(header.split(","))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f % v for f, v in zip(formats, row)) + "\n")


def test_csv_row_template_writes_the_per_cell_bytes(tmp_path):
    """The coeffs table's mixed formats, a default-format table and an
    empty one give the bytes of the per-cell join."""
    header, rows, _, formats = cli.build(
        "coeffs", load_config(PRESETS / "03_dpp_closed_form.ini"))[0]()
    dsf_header, dsf_rows, _ = cli.build(
        "dsf", load_config(PRESETS / "04_dsf_grid.ini"))[0]()
    for name, table in (("coeffs", (header, rows, formats)),
                        ("dsf", (dsf_header, dsf_rows)),
                        ("empty", (header, [], formats)),
                        ("empty_default", (dsf_header, []))):
        cli._write_csv(str(tmp_path), name, *table)
        _parent_write_csv(tmp_path / (name + ".expected"), *table)
        assert (tmp_path / (name + ".csv")).read_bytes() == \
            (tmp_path / (name + ".expected")).read_bytes(), name
    assert "%.14e" in formats and "%.16e" in formats


def test_csv_width_mismatch_raises(tmp_path):
    """A format list or a row whose width differs from the header's is an
    error, never a silently truncated line."""
    with pytest.raises(TypeError, match="2 column formats for the 3 columns"):
        cli._write_csv(str(tmp_path), "t", "a,b,c", [(1.0, 2.0, 3.0)], ["%.16e"] * 2)
    with pytest.raises(TypeError, match="4 column formats for the 3 columns"):
        cli._write_csv(str(tmp_path), "t", "a,b,c", [(1.0, 2.0, 3.0)], ["%.16e"] * 4)
    for row in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0)):
        with pytest.raises(TypeError):
            cli._write_csv(str(tmp_path), "t", "a,b,c", [(1.0, 2.0, 3.0), row])


def test_repeated_main_calls_in_one_process_give_the_same_bytes(
        tmp_path, monkeypatch, capsys):
    """Every coeffs, dsf, fp and compare preset run twice in one process
    writes the same CSVs and prints the same summary; a command the parser
    does not know exits 2 before and after every successful call."""

    def unknown_command_exits_two():
        with pytest.raises(SystemExit) as exc:
            cli.main(["nosuch", str(PRESETS / "03_dpp_closed_form.ini")])
        assert exc.value.code == 2

    unknown_command_exits_two()
    commands = set()
    for path in sorted(PRESETS.glob("*.ini")):
        command = _preset_command(path)
        if command == "evolve":
            continue
        commands.add(command)
        runs = []
        for out in (tmp_path / path.stem / "first", tmp_path / path.stem / "second"):
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
            assert cli.main([command, str(path)]) == 0, path.name
            runs.append((capsys.readouterr().out,
                         {f.name: f.read_bytes() for f in out.glob("*.csv")}))
            unknown_command_exits_two()
        assert runs[1] == runs[0], path.name
        assert runs[0][1], path.name
    assert commands == {"coeffs", "dsf", "fp", "compare"}


def test_all_presets_parse():
    # parsing and building pass for every preset, the unread-key check included
    paths = sorted(glob.glob(str(PRESETS / "*.ini")))
    assert len(paths) >= 10
    for path in paths:
        run_fn, _, _ = cli.build(_preset_command(path), load_config(path))
        assert callable(run_fn)


def test_quick_presets_run(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["coeffs", str(PRESETS / "03_dpp_closed_form.ini")]) == 0
    assert cli.main(["dsf", str(PRESETS / "04_dsf_grid.ini")]) == 0
    assert cli.main(["coeffs", str(PRESETS / "05_statistics_bose.ini")]) == 0


def _first_entry(text):
    """(section, key, value) of the first key of the text's first section."""
    match = re.search(r"^\[(\w+)\]\n(\w+) = (.*)$", text, re.M)
    return match.groups()


def _after_first_header(text, line):
    section = _first_entry(text)[0]
    return text.replace("[%s]\n" % section, "[%s]\n%s\n" % (section, line), 1)


def _stray_key(text):
    section = _first_entry(text)[0]
    return _after_first_header(text, "stray = 1"), "key 'stray' in section [%s]" % section


def _case_variant(text):
    # Dim is a misspelling of dim, not an alias: the run reads dim and
    # leaves Dim unread
    section, key, value = _first_entry(text)
    variant = key.capitalize()
    return (_after_first_header(text, "%s = %s" % (variant, value)),
            "key '%s' in section [%s]" % (variant, section))


STRAYS = {
    "stray-key": _stray_key,
    "unknown-section": lambda text: (text + "\n[stray]\nkey = 1\n",
                                     "key 'key' in section [stray]"),
    "empty-unknown-section": lambda text: (text + "\n[stray]\n", "section [stray]"),
    "case-variant": _case_variant,
}


@pytest.mark.parametrize("stray", STRAYS)
@pytest.mark.parametrize("preset", sorted(PRESETS.glob("*.ini")), ids=lambda p: p.stem)
def test_every_preset_refuses_what_it_does_not_read(tmp_path, monkeypatch, capsys,
                                                    preset, stray):
    """A stray key in the preset's own section, an unknown section with or
    without keys, and a case variant of one of its keys each exit 2 before
    anything is written, naming the key or section."""
    text, named = STRAYS[stray](preset.read_text())
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stray.ini").write_text(text)
    assert cli.main([_preset_command(preset), "stray.ini"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err and "not read by this" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stray.ini"]


@pytest.mark.parametrize("command, text, named", [
    ("evolve", EVOLVE_QUICK.replace("dim = 8", "dim = 8\nmass = -Infinity"),
     ["'mass'", "[hilbert]", "finite"]),
    ("dsf", DSF_QUICK.replace("q_values = 0.5, 2.0", "q_values = 0.5, nan"),
     ["'q_values'", "[dsf]", "finite"]),
    ("dsf", DSF_QUICK.replace("gas_mass = 1.0", "gas_mass = 1.0\nstatistics = anyonic"),
     ["'statistics'", "[gas]", "must be one of"]),
    ("evolve", EVOLVE_QUICK.replace("dim = 8", "dim = twelve"), ["'dim'", "[hilbert]"]),
    ("fp", FP_QUICK.replace("n_cells = 80", "n_cells = 0"), ["'n_cells'", "[fp]", ">= 1"]),
    ("evolve", EVOLVE_QUICK.replace("initial_state = thermal\ninitial_nbar = 0.3",
                                    "initial_state = number\ninitial_n = -1"),
     ["'initial_n'", "[generator]", ">= 0"]),
    ("coeffs", "[DEFAULT]\nmass = 2.0\n" + COEFFS_QUICK, ["[DEFAULT]", "mass"]),
], ids=["non-finite", "list-nan", "choice", "not-an-integer",
        "integer-floor", "initial_n-floor", "default-section"])
def test_values_refused_where_read_exit_two(tmp_path, monkeypatch, capsys,
                                            command, text, named):
    code, out = run(tmp_path, monkeypatch, text, command, "bad")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(word in err for word in named)
    assert not out.exists()


def test_missing_key_names_its_misspelling(tmp_path, monkeypatch, capsys):
    """The run stops on the missing t_final, and names the t_fnal it read
    nowhere beside it."""
    code, out = run(tmp_path, monkeypatch, FP_QUICK.replace("t_final", "t_fnal"), "fp", "typo")
    assert code == 2
    err = capsys.readouterr().err
    assert "missing required key 't_final' in section [fp]" in err
    assert "key 't_fnal' in section [fp]" in err
    assert not out.exists()


def test_sidecar_hashes_the_config_it_parsed(tmp_path, monkeypatch):
    """A config edited while the run goes on does not change the recorded
    hash: it is of the bytes the run was built from."""
    solve = cli.fp_solve

    def edit_then_solve(*args, **kwargs):
        (tmp_path / "fpq.ini").write_text(FP_QUICK.replace("t_final = 0.2", "t_final = 0.3"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "fp_solve", edit_then_solve)
    code, out = run(tmp_path, monkeypatch, FP_QUICK, "fp", "fpq")
    assert code == 0
    lines = (out / "fpq.meta.txt").read_text().splitlines()
    assert "config_sha256=%s" % hashlib.sha256(FP_QUICK.encode()).hexdigest() in lines
