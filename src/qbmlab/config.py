"""INI-style run configuration with fail-closed validation.

Every section and key a config file may contain is declared in the
schema below; anything else is rejected with a message naming the
offender.  Values are cast eagerly so type errors surface at load time,
not mid-run.
"""

import configparser
import math
import os

from .liouvillians import (
    BILINEAR,
    BOLTZMANN_COLLISION,
    CALDEIRA_LEGGETT,
    DOUBLE_COMMUTATOR,
    MINIMAL_QBM,
    SINGLE_GENERATOR,
)
from .operators import HAMILTONIAN_KINDS
from .propagation import RK4_FIXED, RK45_ADAPTIVE
from .structure_factor import BOSE, FERMI, MAXWELL_BOLTZMANN


class ConfigError(Exception):
    """Invalid or incomplete run configuration (exit code 2)."""


def _float(text):
    val = float(text)
    if not math.isfinite(val):
        raise ValueError("must be a finite number")
    return val


def _int_from(low):
    def cast(text):
        val = int(text)
        if val < low:
            raise ValueError("must be an integer >= %d" % low)
        return val
    return cast


def _float_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_float(p) for p in parts)


def _choice(*options):
    def cast(text):
        if text not in options:
            raise ValueError("must be one of %s" % (", ".join(options),))
        return text
    return cast


_SCHEMA = {
    "hilbert": {
        "dim": _int_from(1),
        "hbar": _float,
        "mass": _float,
        "omega_basis": _float,
    },
    "generator": {
        "kind": _choice(CALDEIRA_LEGGETT, BILINEAR, MINIMAL_QBM,
                        BOLTZMANN_COLLISION),
        "hamiltonian": _choice(*HAMILTONIAN_KINDS),
        "omega_trap": _float,
        "beta": _float,
        "gamma": _float,
        "d_pp": _float,
        "d_xx": _float,
        "d_xp": _float,
        "mu": _float,
        "fugacity_z": _float,
        "assembly": _choice(DOUBLE_COMMUTATOR, SINGLE_GENERATOR),
        "coefficients": _choice("user", "microscopic"),
        "q_max": _float,
        "n_nodes": _int_from(1),
        "initial_state": _choice("vacuum", "number", "coherent", "squeezed",
                                 "thermal"),
        "initial_n": _int_from(0),
        "initial_alpha_re": _float,
        "initial_alpha_im": _float,
        "initial_r": _float,
        "initial_nbar": _float,
    },
    "gas": {
        "beta": _float,
        "gas_mass": _float,
        "fugacity": _float,
        "statistics": _choice(MAXWELL_BOLTZMANN, BOSE, FERMI),
    },
    "tmatrix": {
        "kind": _choice("constant", "gaussian"),
        "t0": _float,
        "sigma_q": _float,
    },
    "integrator": {
        "method": _choice(RK4_FIXED, RK45_ADAPTIVE),
        "t_final": _float,
        "dt": _float,
        "dt_init": _float,
        "rtol": _float,
        "atol": _float,
        "monitor_stride": _int_from(1),
        "breach_threshold": _float,
    },
    "fp": {
        "v_min": _float,
        "v_max": _float,
        "n_cells": _int_from(1),
        "eta": _float,
        "d_v": _float,
        "t_final": _float,
        "dt": _float,
        "sample_stride": _int_from(1),
        "initial": _choice("maxwell", "gaussian"),
        "initial_mean": _float,
        "initial_var": _float,
    },
    "dsf": {
        "q_values": _float_list,
        "e_min": _float,
        "e_max": _float,
        "n_e": _int_from(1),
    },
    "compare": {
        "beta": _float,
        "mass": _float,
        "d_pp": _float,
        "fugacity_z": _float,
        "dim": _int_from(1),
        "t_final": _float,
        "n_samples": _int_from(1),
        "n_cells": _int_from(1),
        "v_max": _float,
        "eta_scale": _float,
    },
    "output": {
        "dir": str,
        "basename": str,
    },
}


class RunConfig:
    """Parsed and validated configuration.

    It remembers which keys get and require have asked for, so the CLI
    can reject keys a run would silently ignore (see unread).
    """

    def __init__(self, values, path):
        self.values = values
        self.path = path
        self._asked = set()

    def has_section(self, section):
        return section in self.values

    def get(self, section, key, default=None):
        self._asked.add((section, key))
        return self.values.get(section, {}).get(key, default)

    def require(self, section, key):
        self._asked.add((section, key))
        try:
            return self.values[section][key]
        except KeyError:
            raise ConfigError(
                "missing required key '%s' in section [%s]" % (key, section))

    def unread(self):
        """(section, key) pairs set in the file that neither get nor require asked for."""
        return [(section, key) for section, keys in self.values.items()
                for key in keys if (section, key) not in self._asked]


def load_config(path):
    if not os.path.isfile(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep case so misspelled keys stay visible
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc))
    if parser.defaults():
        bad = ", ".join(sorted(parser.defaults()))
        raise ConfigError("unknown key(s) in [DEFAULT]: %s" % bad)
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError("unknown section [%s] in %s" % (section, path))
        section_schema = _SCHEMA[section]
        parsed = {}
        for key, raw in parser.items(section):
            if key not in section_schema:
                raise ConfigError(
                    "unknown key '%s' in section [%s]" % (key, section))
            try:
                parsed[key] = section_schema[key](raw)
            except ValueError as exc:
                raise ConfigError(
                    "invalid value for key '%s' in section [%s]: %s"
                    % (key, section, exc))
        values[section] = parsed
    return RunConfig(values, os.path.abspath(path))
