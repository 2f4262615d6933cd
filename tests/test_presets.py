"""Every preset's table, column by column, against its baseline.

Each presets/*.ini runs through cli.main, with the command CI picks for it
(its first matching [generator], [compare], [fp] or [dsf] section, else
coeffs), and its CSV is compared with the one of the same name under
tests/preset_baselines.  A value v agrees when it lies within
1e-12 max(|v|, 1) of the baseline's: CPU-specific BLAS kernels move the
last bits of a table, and nothing more.
"""

import configparser
from pathlib import Path

import numpy as np
import pytest

from qbmlab import cli

PRESETS = sorted((Path(__file__).parents[1] / "presets").glob("*.ini"))
BASELINES = Path(__file__).parent / "preset_baselines"
TOLERANCE = 1e-12


def _command_and_basename(preset):
    config = configparser.ConfigParser()
    config.read(preset)
    command = next((name for name in ("generator", "compare", "fp", "dsf")
                    if config.has_section(name)), "coeffs")
    command = {"generator": "evolve"}.get(command, command)
    return command, config.get("output", "basename", fallback=command)


def _read(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def test_every_baseline_belongs_to_a_preset():
    assert PRESETS
    basenames = sorted(_command_and_basename(p)[1] + ".csv" for p in PRESETS)
    assert basenames == sorted(p.name for p in BASELINES.glob("*.csv"))


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
def test_preset_table_matches_its_baseline(preset, tmp_path, monkeypatch, capsys):
    command, basename = _command_and_basename(preset)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main([command, str(preset)]) == 0, capsys.readouterr().err
    header, table = _read(tmp_path / (basename + ".csv"))
    base_header, base = _read(BASELINES / (basename + ".csv"))
    assert header == base_header and table.shape == base.shape
    for name, got, want in zip(header, table.T, base.T):
        gap = np.abs(got - want)
        bound = TOLERANCE * np.maximum(np.abs(want), 1.0)
        assert np.all(gap <= bound), f"{basename}.{name}: max gap {gap.max():.3e}"
