import numpy as np
import pytest

import juliahull.julia as julia_mod
from juliahull import CheckConfig, Polynomial, chebyshev


@pytest.fixture
def fast_cfg():
    """Small-but-valid config for module-level check tests."""
    return CheckConfig(julia_samples=20_000, boundary_samples=256,
                       interior_samples=64, seed=9, grid_resolution=256)


@pytest.fixture
def square():
    return np.array([0, 1, 1j, 1 + 1j, 0.5 + 0.5j])


@pytest.fixture
def basilica():
    return Polynomial([-1, 0, 1])


@pytest.fixture
def squaring():
    return Polynomial([0, 0, 1])


@pytest.fixture
def t2():
    return chebyshev(2)


@pytest.fixture
def unsolvable_fibers(monkeypatch):
    """Every fiber solve the Julia sampler makes reports non-convergence."""
    def never_converges(p, targets, *args, **kwargs):
        m = np.size(targets)
        roots = np.zeros((m, p.degree), dtype=np.complex128)
        return roots, np.ones((m, p.degree)), np.zeros(m, dtype=bool)

    monkeypatch.setattr(julia_mod, "solve_fibers", never_converges)
