import dataclasses
from typing import Callable

import numpy as np
import pytest

from qbmlab import HilbertConfig


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
