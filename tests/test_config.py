import pytest

from qbmlab.config import ConfigError, load_config


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


def test_load_good_config(tmp_path):
    rc = load_config(write(tmp_path, GOOD))
    assert rc.get("hilbert", "dim") == 12
    assert rc.get("hilbert", "mass") == 2.0
    assert rc.get("hilbert", "hbar", 1.0) == 1.0  # default fills the gap
    assert rc.get("gas", "statistics") == "maxwell_boltzmann"
    assert rc.get("dsf", "q_values") == (0.2, 1.0, 5.0)
    assert rc.has_section("tmatrix")
    assert not rc.has_section("fp")


def test_require_names_the_missing_key(tmp_path):
    rc = load_config(write(tmp_path, GOOD))
    with pytest.raises(ConfigError) as exc:
        rc.require("gas", "fugacity")
    assert "fugacity" in str(exc.value)
    assert "[gas]" in str(exc.value)


def test_unknown_key_fails_closed(tmp_path):
    path = write(tmp_path, "[generator]\ngama = 0.5\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "gama" in str(exc.value)
    assert "[generator]" in str(exc.value)


def test_unknown_section_fails_closed(tmp_path):
    path = write(tmp_path, "[hamiltonian]\nkind = free\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "[hamiltonian]" in str(exc.value)


def test_case_is_significant(tmp_path):
    # Dim is a misspelling of dim, not an alias
    path = write(tmp_path, "[hilbert]\nDim = 12\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "Dim" in str(exc.value)


def test_bad_value_names_the_key(tmp_path):
    path = write(tmp_path, "[hilbert]\ndim = twelve\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "dim" in str(exc.value)


@pytest.mark.parametrize("text, key", [
    ("[fp]\neta = nan\n", "eta"),
    ("[fp]\neta = inf\n", "eta"),
    ("[hilbert]\nmass = -Infinity\n", "mass"),
    ("[dsf]\nq_values = 0.5, nan\n", "q_values"),
], ids=["nan", "inf", "minus-infinity", "list-nan"])
def test_non_finite_numbers_rejected(tmp_path, text, key):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "'%s'" % key in str(exc.value) and "finite" in str(exc.value)


def test_choice_values_are_validated(tmp_path):
    path = write(tmp_path, "[gas]\nbeta = 1.0\ngas_mass = 1.0\nstatistics = anyonic\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "statistics" in str(exc.value)


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
    assert rc.get("generator", "initial_n") == 0
