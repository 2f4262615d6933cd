import hashlib

import pytest

from qbmlab.config import (
    ConfigError,
    _choice,
    _float,
    _float_list,
    _int_from,
    load_config,
)


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


GOOD = """
[hilbert]
dim = 12
mass = 2.0

[gas]
beta = 0.5
gas_mass = 1.3
statistics = maxwell_boltzmann

[tmatrix]
kind = constant
t0 = 0.02

[dsf]
q_values = 0.2, 1.0, 5.0

[output]
basename = demo
"""

STATISTICS = _choice("maxwell_boltzmann", "bose", "fermi")


def test_load_good_config(tmp_path):
    rc = load_config(write(tmp_path, GOOD))
    # the file's values are kept as written, and cast where they are read
    assert rc.values["hilbert"] == {"dim": "12", "mass": "2.0"}
    assert rc.get("hilbert", "dim", _int_from(1)) == 12
    assert rc.get("hilbert", "mass", _float) == 2.0
    assert rc.get("hilbert", "hbar", _float, 1.0) == 1.0  # default fills the gap
    assert rc.get("gas", "statistics", STATISTICS) == "maxwell_boltzmann"
    assert rc.get("dsf", "q_values", _float_list) == (0.2, 1.0, 5.0)
    assert "tmatrix" in rc.values
    assert "fp" not in rc.values


def test_config_hash_is_of_the_bytes_parsed(tmp_path):
    path = write(tmp_path, GOOD)
    rc = load_config(path)
    with open(path, "w") as fh:
        fh.write(GOOD.replace("dim = 12", "dim = 13"))
    assert rc.sha256 == hashlib.sha256(GOOD.encode()).hexdigest()
    assert rc.get("hilbert", "dim", _int_from(1)) == 12


def test_require_names_the_missing_key(tmp_path):
    rc = load_config(write(tmp_path, GOOD))
    with pytest.raises(ConfigError) as exc:
        rc.get("gas", "fugacity", _float)
    assert "fugacity" in str(exc.value)
    assert "[gas]" in str(exc.value)


def test_missing_key_names_the_keys_not_read_yet(tmp_path):
    # the misspelling is named beside the key it misspells
    rc = load_config(write(tmp_path, "[generator]\nknd = bilinear\ngamma = 0.1\n"))
    rc.get("generator", "gamma", _float)
    with pytest.raises(ConfigError) as exc:
        rc.get("generator", "kind", str)
    message = str(exc.value)
    assert "missing required key 'kind' in section [generator]" in message
    assert "key 'knd' in section [generator]" in message
    assert "'gamma'" not in message


def test_unknown_key_fails_closed(tmp_path):
    rc = load_config(write(tmp_path, "[generator]\ngama = 0.5\n"))
    assert rc.get("generator", "gamma", _float, 0.0) == 0.0
    assert rc.unread() == ["key 'gama' in section [generator]"]


def test_unknown_section_fails_closed(tmp_path):
    rc = load_config(write(tmp_path, "[hamiltonian]\nkind = free\n\n[stray]\n"))
    assert rc.get("generator", "hamiltonian", str, "free") == "free"
    assert rc.unread() == ["key 'kind' in section [hamiltonian]", "section [stray]"]


def test_read_sections_and_keys_leave_nothing_unread(tmp_path):
    rc = load_config(write(tmp_path, "[hilbert]\ndim = 4\n\n[output]\n"))
    rc.get("hilbert", "dim", _int_from(1))
    assert rc.unread() == ["section [output]"]
    rc.get("output", "dir", str, "qbmlab_out")
    assert rc.unread() == []


def test_case_is_significant(tmp_path):
    # Dim is a misspelling of dim, not an alias
    rc = load_config(write(tmp_path, "[hilbert]\nDim = 12\n"))
    assert rc.get("hilbert", "dim", _int_from(1), 40) == 40
    assert rc.unread() == ["key 'Dim' in section [hilbert]"]


def test_bad_value_names_the_key(tmp_path):
    rc = load_config(write(tmp_path, "[hilbert]\ndim = twelve\n"))
    with pytest.raises(ConfigError) as exc:
        rc.get("hilbert", "dim", _int_from(1))
    assert "dim" in str(exc.value)


@pytest.mark.parametrize("text, section, key, cast", [
    ("[fp]\neta = nan\n", "fp", "eta", _float),
    ("[fp]\neta = inf\n", "fp", "eta", _float),
    ("[hilbert]\nmass = -Infinity\n", "hilbert", "mass", _float),
    ("[dsf]\nq_values = 0.5, nan\n", "dsf", "q_values", _float_list),
], ids=["nan", "inf", "minus-infinity", "list-nan"])
def test_non_finite_numbers_rejected(tmp_path, text, section, key, cast):
    rc = load_config(write(tmp_path, text))
    with pytest.raises(ConfigError) as exc:
        rc.get(section, key, cast)
    assert "'%s'" % key in str(exc.value) and "finite" in str(exc.value)


def test_choice_values_are_validated(tmp_path):
    rc = load_config(write(tmp_path, "[gas]\nbeta = 1.0\ngas_mass = 1.0\nstatistics = anyonic\n"))
    with pytest.raises(ConfigError) as exc:
        rc.get("gas", "statistics", STATISTICS)
    assert "statistics" in str(exc.value)


def test_integer_below_its_floor_rejected(tmp_path):
    rc = load_config(write(tmp_path, "[fp]\nn_cells = 0\n"))
    with pytest.raises(ConfigError) as exc:
        rc.get("fp", "n_cells", _int_from(1))
    assert "'n_cells'" in str(exc.value) and ">= 1" in str(exc.value)


def test_default_section_rejected(tmp_path):
    path = write(tmp_path, "[DEFAULT]\ndim = 12\n\n[hilbert]\ndim = 12\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_nonnegative_int_accepts_zero(tmp_path):
    path = write(tmp_path, "[generator]\nkind = minimal_qbm\ninitial_n = 0\n")
    rc = load_config(path)
    assert rc.get("generator", "initial_n", _int_from(0)) == 0
