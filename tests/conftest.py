import dataclasses
from typing import Callable

import numpy as np
import pytest

from qbmlab import HilbertConfig
from qbmlab.liouvillians import _cached_compile


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
