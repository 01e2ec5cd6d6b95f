import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from collapsesim import LatticeGrid, ParticleSet

from oracles import einsum_apply


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240813))


@pytest.fixture
def chain8():
    return LatticeGrid((8,), 1.0)


@pytest.fixture
def grid444():
    return LatticeGrid((4, 4, 4), 1.0)


@pytest.fixture
def one_particle():
    return ParticleSet([1.0])


def random_density_matrix(rng, n):
    """Random full-rank density matrix (Hermitian, unit trace, positive)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_state(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


class DenseOperator:
    """A dense (n, n) matrix with the apply that sse_step calls, by the
    einsum oracle."""

    def __init__(self, H):
        self.H = H

    def apply(self, psi):
        return einsum_apply(self.H, psi)
