"""Command-line front door: one config file, one experiment, one table.

Each subcommand loads an INI config and runs a single experiment.  A
cmd_* function reads the config and builds every input, then returns the
callable that runs the experiment and returns its table: (header, rows,
summary lines[, column formats]).  Each read names its key's cast
(config._float, _int_from, _float_list, _choice or str), so a value is
checked where it is used.  build ends the build phase with the one
fail-closed rule: every section and key in the file must have been read,
and a key is read only where the run uses it.  A missing required key
also names the keys no read had reached, so a misspelt key is named even
when the run stops first on the key it misspells.  main is the one
output path: it writes the CSV (17 significant digits unless a format
says otherwise) as `<basename>.csv`, prints the summary to stdout in a
machine-greppable key=value form, and writes the `<basename>.meta.txt`
sidecar, whose config hash is of the bytes the run parsed.  The
basename defaults to the command name.

Exit codes: 0 success; 2 configuration error, a ConfigError or ValueError
while parsing and building (the message names the offending keys or
sections, and a library ValueError is reported with the section being
built); 3 numerical failure, an ArithmeticError in either phase
(NumericalFailure is one: a generator or coefficient set whose arithmetic
overflows or underflows, a structure factor or D_pp that is not finite,
a dsf energy grid that does not increase strictly, a quadrature that did
not converge, a diverging integration)
or a ValueError once the run has started (numpy.linalg.LinAlgError is a
ValueError).  Making the output directory
and writing belong to the run.

The data files contain no timestamps or hostnames, so identical configs
produce byte-identical tables; run provenance (version, config hash,
wall-clock time) lives in the sidecar.  The environment variable
QBMLAB_OUTPUT_DIR, when set, overrides the configured output directory,
which defaults to ./qbmlab_out.
"""

import argparse
import contextlib
import functools
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import ConfigError, _choice, _float, _float_list, _int_from, load_config
from .fokker_planck import fp_solve, gaussian_grid, maxwell_grid, stability_bound
from .liouvillians import (
    BOLTZMANN_COLLISION,
    CALDEIRA_LEGGETT,
    MINIMAL_QBM,
    BILINEAR,
    CollisionParameters,
    LiouvillianSpec,
    build_liouvillian,
    radial_grid,
)
from .microcoeffs import (
    BilinearCoefficients,
    TMatrixModel,
    chi_of,
    compute_dpp,
    cp_margin,
    friction_ratio,
)
from .operators import (
    HAMILTONIAN_KINDS,
    HilbertConfig,
    NumericalFailure,
    check_finite,
    coherent_state,
    number_state,
    squeezed_state,
    thermal_state,
    vacuum_state,
)
from .propagation import (
    RK4_FIXED,
    RK45_ADAPTIVE,
    IntegratorConfig,
    positivity_breach_time,
    propagate,
)
from .structure_factor import (
    BOSE,
    FERMI,
    MAXWELL_BOLTZMANN,
    GasThermodynamics,
    recoil_scale,
    s_mb,
    sum_rule_f,
    sum_rule_zero,
)

OUTPUT_DIR_ENV = "QBMLAB_OUTPUT_DIR"

# substeps between consecutive comparison samples; keeps the quantum and
# classical time grids commensurate
_COMPARE_SUBSTEPS = 20


def _write_csv(out_dir, basename, header, rows, formats=None):
    """The table as CSV, one format per header column; a row of another
    width raises TypeError."""
    width = len(header.split(","))
    if formats is None:
        formats = ["%.16e"] * width
    elif len(formats) != width:
        raise TypeError("%d column formats for the %d columns of %r"
                        % (len(formats), width, header))
    template = ",".join(formats) + "\n"
    with open(os.path.join(out_dir, basename + ".csv"), "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(template % tuple(row))


def _write_sidecar(out_dir, basename, rc, command, summary):
    lines = [
        "command=%s" % command,
        "package_version=%s" % __version__,
        "config_path=%s" % rc.path,
        "config_sha256=%s" % rc.sha256,
        "written_utc=%s" % datetime.now(timezone.utc).isoformat(),
    ]
    lines.extend(summary)
    with open(os.path.join(out_dir, basename + ".meta.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _section(rc, section):
    """Builds [section]'s objects; yields given(**casts), the keys of casts
    set in the file, each cast by its own (one left out keeps the library
    default).  A ValueError, whose message names the key, becomes a
    ConfigError naming the section too."""
    try:
        yield lambda **casts: {key: value for key, cast in casts.items()
                               if (value := rc.get(section, key, cast, None)) is not None}
    except ValueError as exc:
        raise ConfigError("in section [%s]: %s" % (section, exc)) from exc


def _gas_from(rc, *optional, maxwell_for=None):
    """The gas of [gas]; maxwell_for names a use that needs Maxwell-Boltzmann."""
    casts = {"fugacity": _float, "statistics": _choice(MAXWELL_BOLTZMANN, BOSE, FERMI)}
    with _section(rc, "gas") as given:
        keys = given(**{key: casts[key] for key in optional})
        # before the gas checks its fugacity, which such a use may not read
        if maxwell_for and keys.get("statistics", MAXWELL_BOLTZMANN) != MAXWELL_BOLTZMANN:
            raise ConfigError("key 'statistics' in section [gas] must be "
                              "maxwell_boltzmann for %s" % maxwell_for)
        return GasThermodynamics(beta=rc.get("gas", "beta", _float),
                                 gas_mass=rc.get("gas", "gas_mass", _float), **keys)


def _tmatrix_from(rc):
    kind = rc.get("tmatrix", "kind", _choice("constant", "gaussian"))
    with _section(rc, "tmatrix"):
        return TMatrixModel(kind=kind, t0=rc.get("tmatrix", "t0", _float), sigma_q=(
            rc.get("tmatrix", "sigma_q", _float, None) if kind == "gaussian" else None))


def _initial_state(rc, cfg):
    kind = rc.get("generator", "initial_state",
                  _choice("vacuum", "number", "coherent", "squeezed", "thermal"), "vacuum")
    if kind == "vacuum":
        return vacuum_state(cfg)
    if kind == "number":
        return number_state(cfg, rc.get("generator", "initial_n", _int_from(0)))
    if kind == "thermal":
        return thermal_state(cfg, rc.get("generator", "initial_nbar", _float))
    alpha = complex(rc.get("generator", "initial_alpha_re", _float, 0.0),
                    rc.get("generator", "initial_alpha_im", _float, 0.0))
    if kind == "coherent":
        return coherent_state(cfg, alpha)
    return squeezed_state(cfg, rc.get("generator", "initial_r", _float), alpha)


def _generator_from(rc, cfg):
    """Build the generator [generator] names, reading only the keys it takes.

    The gas-driven ones, collision and microscopic minimal_qbm, take beta
    and the fugacity from [gas], whose statistics must be Maxwell-Boltzmann.
    """
    kind = rc.get("generator", "kind", _choice(
        CALDEIRA_LEGGETT, BILINEAR, MINIMAL_QBM, BOLTZMANN_COLLISION))
    hamiltonian = rc.get("generator", "hamiltonian", _choice(*HAMILTONIAN_KINDS), "free")
    common = dict(kind=kind, hamiltonian_kind=hamiltonian, omega_trap=(
        rc.get("generator", "omega_trap", _float, None) if hamiltonian == "harmonic" else None))
    gas_driven = kind == BOLTZMANN_COLLISION or (kind == MINIMAL_QBM and rc.get(
        "generator", "coefficients", _choice("user", "microscopic"), "user") == "microscopic")
    gas = _gas_from(rc, "fugacity", "statistics",
                    maxwell_for="generator kind %r" % kind) if gas_driven else None
    z = rc.get("generator", "fugacity_z", _float, 1.0) if gas is None else gas.fugacity

    if kind == CALDEIRA_LEGGETT:
        spec = LiouvillianSpec(
            beta=rc.get("generator", "beta", _float), coeffs=BilinearCoefficients(
                gamma=rc.get("generator", "gamma", _float), fugacity_z=z), **common)
    elif kind == BILINEAR:
        spec = LiouvillianSpec(coeffs=BilinearCoefficients(
            fugacity_z=z, **{key: rc.get("generator", key, _float, 0.0)
                             for key in ("gamma", "d_pp", "d_xx", "d_xp", "mu")}), **common)
    elif kind == MINIMAL_QBM:
        if gas is not None:
            d_pp = compute_dpp(_tmatrix_from(rc), gas, cfg.mass, cfg.hbar).d_pp
            beta = gas.beta
        else:
            d_pp = rc.get("generator", "d_pp", _float)
            beta = rc.get("generator", "beta", _float)
        spec = LiouvillianSpec(
            beta=beta, coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=z), **common)
    else:
        q_max = rc.get("generator", "q_max", _float)
        nodes, weights = radial_grid(q_max, rc.get("generator", "n_nodes", _int_from(1), 40))
        spec = LiouvillianSpec(collision=CollisionParameters(
            gas_mass=gas.gas_mass, beta=gas.beta, fugacity_z=z,
            tmatrix=_tmatrix_from(rc), q_nodes=nodes, q_weights=weights,
            q_max=q_max), **common)
    return build_liouvillian(cfg, spec)


def cmd_evolve(rc):
    with _section(rc, "hilbert") as given:
        cfg = HilbertConfig(**given(dim=_int_from(1), hbar=_float, mass=_float,
                                    omega_basis=_float))
    with _section(rc, "generator"):
        liouv = _generator_from(rc, cfg)
        rho0 = _initial_state(rc, cfg)
    method = rc.get("integrator", "method", _choice(RK4_FIXED, RK45_ADAPTIVE), RK4_FIXED)
    # the fixed scheme steps by dt, the adaptive one by dt_init, rtol and atol
    keys = ("dt",) if method == RK4_FIXED else ("dt_init", "rtol", "atol")
    with _section(rc, "integrator") as given:
        icfg = IntegratorConfig(method=method, t_final=rc.get("integrator", "t_final", _float),
                                **given(**dict.fromkeys(keys, _float),
                                        monitor_stride=_int_from(1)))
        threshold = rc.get("integrator", "breach_threshold", _float, -1e-10)
        check_finite("breach_threshold", threshold, "negative")

    def run():
        record = propagate(rho0, liouv, icfg)
        breach = positivity_breach_time(record, threshold)
        rows = zip(record.times, record.trace, record.min_eig, record.purity,
                   record.mean_x, record.mean_p, record.var_x, record.var_p)
        summary = ["positivity_breach_t=%s" % (
            "none" if breach is None else "%.16e" % breach)]
        # what the integrator did, from the record itself
        summary += ["%s=%d" % (name, value) for name, value in (
            ("accepted_steps", record.accepted_steps),
            ("rejected_steps", record.rejected_steps),
            ("generator_calls", record.generator_calls),
            ("monitor_samples", record.times.size))]
        return "t,trace,min_eig,purity,mean_x,mean_p,var_x,var_p", rows, summary

    return run


def cmd_coeffs(rc):
    mass = rc.get("hilbert", "mass", _float, 1.0)
    hbar = rc.get("hilbert", "hbar", _float, 1.0)
    gas = _gas_from(rc, "fugacity", "statistics")
    with _section(rc, "hilbert"):
        coeffs = compute_dpp(_tmatrix_from(rc), gas, mass, hbar)
    try:
        chi = chi_of(coeffs, gas, mass, hbar)
    except ValueError as exc:  # t0 = 0: no friction to measure chi by
        raise ConfigError("key 't0' in section [tmatrix]: %s" % exc) from exc
    margin = cp_margin(coeffs, hbar)
    ratio = friction_ratio(gas)
    table = ("D_pp,D_xx,gamma,mu,chi,cp_margin,friction_ratio",
             [(coeffs.d_pp, coeffs.d_xx, coeffs.gamma, coeffs.mu, chi, margin, ratio)],
             ["chi=%.14e" % chi, "cp_margin=%.16e" % margin,
              "friction_ratio=%.16e" % ratio],
             # chi carries 15 significant digits, everything else 17
             ["%.16e"] * 4 + ["%.14e", "%.16e", "%.16e"])
    return lambda: table


def cmd_dsf(rc):
    # the closed form is Maxwell-Boltzmann's, which takes no fugacity
    gas = _gas_from(rc, "statistics", maxwell_for="dsf")
    with _section(rc, "dsf"):
        q_values = rc.get("dsf", "q_values", _float_list, (0.2, 1.0, 5.0))
        for q in q_values:
            check_finite("q_values", q, "positive")
    n_e = rc.get("dsf", "n_e", _int_from(1), 41)
    rows = []
    summary = []
    for q in q_values:
        # the recoil peak and 8 thermal widths on each side of it, in
        # Python floats, which overflow to inf without a numpy warning
        recoil, width = recoil_scale(q, gas)
        lo, hi = recoil - 8.0 * width, recoil + 8.0 * width
        energies = np.linspace(lo, hi, n_e) if math.isfinite(hi - lo) else None
        if energies is None or not (np.diff(energies) > 0.0).all():
            raise NumericalFailure(
                "s_mb: the grid E_r -+ 8 sigma = [%r, %r] holds no %d finite, strictly "
                "increasing energies at q=%r, beta=%r, gas_mass=%r"
                % (lo, hi, n_e, q, gas.beta, gas.gas_mass))
        values = s_mb(q, energies, gas)
        rows.extend((q, e, s) for e, s in zip(energies, values))
        zeroth = sum_rule_zero(q, gas)
        first = sum_rule_f(q, gas)
        summary.append("sum_rule_0=%.16e" % zeroth)
        summary.append("sum_rule_f_ratio=%.16e" % (first / recoil))
    return lambda: ("q,E,S", rows, summary)


def cmd_fp(rc):
    eta = rc.get("fp", "eta", _float)
    d_v = rc.get("fp", "d_v", _float)
    v_min = rc.get("fp", "v_min", _float, -8.0)
    v_max = rc.get("fp", "v_max", _float, 8.0)
    n_cells = rc.get("fp", "n_cells", _int_from(1), 200)
    kind = rc.get("fp", "initial", _choice("maxwell", "gaussian"), "maxwell")
    with _section(rc, "fp"):
        if kind == "maxwell":
            grid = maxwell_grid(v_min, v_max, n_cells, eta, d_v)
        else:
            grid = gaussian_grid(v_min, v_max, n_cells,
                                 mean=rc.get("fp", "initial_mean", _float, 0.0),
                                 var=rc.get("fp", "initial_var", _float))
        bound = stability_bound(grid, eta, d_v)
        t_final = rc.get("fp", "t_final", _float)
        check_finite("t_final", t_final, "positive")
    dt = rc.get("fp", "dt", _float, None)
    if dt is None:
        if not np.isfinite(bound):
            raise ConfigError(
                "key 'dt' in section [fp] is required when eta = d_v = 0")
        dt = 0.9 * bound
    elif not 0.0 < dt <= bound:
        raise ConfigError("key 'dt' in section [fp] must lie in (0, %.6g], "
                          "the stability bound" % bound)
    stride = rc.get("fp", "sample_stride", _int_from(1), None)
    if stride is None:
        stride = max(1, int(np.ceil(t_final / dt / 500.0)))

    def run():
        traj = fp_solve(grid, eta, d_v, t_final, dt, sample_stride=stride)
        return ("t,mass,mean_v,var_v",
                zip(traj.times, traj.mass, traj.mean_v, traj.var_v),
                ["stationary_var=%.16e" % traj.var_v[-1],
                 # what the solver did, from the trajectory itself
                 "steps=%d" % traj.steps,
                 "cell_updates=%d" % (traj.steps * grid.n_cells)])

    return run


def cmd_compare(rc):
    beta = rc.get("compare", "beta", _float)
    mass = rc.get("compare", "mass", _float, 1.0)
    d_pp = rc.get("compare", "d_pp", _float)
    z = rc.get("compare", "fugacity_z", _float, 1.0)
    t_final = rc.get("compare", "t_final", _float)
    n_samples = rc.get("compare", "n_samples", _int_from(1), 50)
    eta_scale = rc.get("compare", "eta_scale", _float, 1.0)

    with _section(rc, "compare"):
        check_finite("eta_scale", eta_scale, "nonnegative")
        cfg = HilbertConfig(dim=rc.get("compare", "dim", _int_from(1), 40), hbar=1.0,
                            mass=mass, omega_basis=1.0)
        spec = LiouvillianSpec(kind=MINIMAL_QBM, hamiltonian_kind="free", beta=beta,
                               coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=z))
        liouv = build_liouvillian(cfg, spec)
        rho0 = vacuum_state(cfg)
        delta = t_final / n_samples
        icfg = IntegratorConfig(method=RK4_FIXED, t_final=t_final,
                                dt=delta / _COMPARE_SUBSTEPS,
                                monitor_stride=_COMPARE_SUBSTEPS)

        # classical twin: momentum-to-velocity conversion of the same moments;
        # a Python float's ** raises an OverflowError that names nothing
        try:
            mass_sq = mass**2
        except OverflowError:
            raise NumericalFailure(
                "compare: mass**2 overflows at mass=%r" % mass) from None
        eta = 2.0 * z * liouv.coeffs.gamma * eta_scale
        d_v = z * d_pp / mass_sq
        var_v0 = cfg.hbar * cfg.omega_basis / (2.0 * mass)  # vacuum momentum spread
        var_ref = max(var_v0, d_v / eta) if eta > 0.0 else var_v0
        v_max = rc.get("compare", "v_max", _float, 8.0 * np.sqrt(var_ref))
        grid = gaussian_grid(-v_max, v_max, rc.get("compare", "n_cells", _int_from(1), 200),
                             mean=0.0, var=var_v0)
        if eta > 0.0 or d_v > 0.0:
            bound = stability_bound(grid, eta, d_v)
            substeps = int(np.ceil(delta / (0.9 * bound)))
        else:
            substeps = 1

    def run():
        record = propagate(rho0, liouv, icfg)
        traj = fp_solve(grid, eta, d_v, t_final, delta / substeps,
                        sample_stride=substeps)
        if record.times.shape != traj.times.shape or \
                np.max(np.abs(record.times - traj.times)) > 1e-9 * t_final:
            raise NumericalFailure("comparison time grids failed to align")
        var_q = record.var_p
        var_c = mass_sq * traj.var_v
        rel = np.abs(var_q - var_c) / np.maximum(np.maximum(np.abs(var_q),
                                                            np.abs(var_c)), 1e-300)
        return ("t,var_p_quantum,var_p_classical,rel_diff",
                zip(record.times, var_q, var_c, rel),
                ["max_rel_diff=%.16e" % np.max(rel)])

    return run


_COMMANDS = {
    "evolve": (cmd_evolve, "integrate a quantum generator and tabulate monitors"),
    "coeffs": (cmd_coeffs, "friction/diffusion coefficients from the gas model"),
    "dsf": (cmd_dsf, "tabulate the gas dynamic structure factor"),
    "fp": (cmd_fp, "solve the classical velocity Fokker-Planck equation"),
    "compare": (cmd_compare, "quantum vs classical momentum-variance cross-check"),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process; main only reads it."""
    parser = argparse.ArgumentParser(
        prog="qbmlab",
        description="Quantum Brownian motion laboratory: generators, "
                    "propagation, gas kernels, and a classical cross-check.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to an INI run configuration")
    return parser


def build(command, rc):
    """(run, output dir, basename); ConfigError names every section and key
    nothing read."""
    # read first, so a missing key's message does not list them as unread,
    # and before the override, so a configured dir counts as read either way
    out_dir = rc.get("output", "dir", str, "qbmlab_out")
    basename = rc.get("output", "basename", str, command)
    run = _COMMANDS[command][0](rc)
    unread = rc.unread()
    if unread:
        raise ConfigError("%s not read by this %s run" % (", ".join(unread), command))
    return run, os.environ.get(OUTPUT_DIR_ENV) or out_dir, basename


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = load_config(args.config)
        run, out_dir, basename = build(args.command, rc)
    except (ConfigError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    # past parsing and building, a ValueError is a numerical failure:
    # numpy.linalg.LinAlgError, for one, subclasses it
    try:
        header, rows, summary, *formats = run()
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(out_dir, basename, header, rows, *formats)
        for line in summary:
            print(line)
        _write_sidecar(out_dir, basename, rc, args.command, summary)
    except (ArithmeticError, ValueError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
