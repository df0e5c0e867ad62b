import os
from pathlib import Path

import numpy as np
import pytest

from stochconv import (
    HilbertSpec,
    IntegrandSpec,
    QWienerSpec,
    SemigroupSpec,
    SpectralOperator,
    TimeGrid,
    sample_increments,
)
from stochconv.noise import prefix_sums

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    # the `pythonpath` ini setting reaches this process only; a test's child
    # interpreter (`python -m stochconv.cli`) finds the checkout through PYTHONPATH
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def scalar_space():
    return HilbertSpec(1)


@pytest.fixture
def scalar_wiener(scalar_space):
    """Unit-covariance scalar noise on [0, 1] with 200 steps, 400 paths."""
    spec = QWienerSpec(scalar_space, [1.0])
    return sample_increments(spec, TimeGrid(1.0, 200), 424242, 400)


@pytest.fixture
def unit_integrand(scalar_space):
    return IntegrandSpec.from_constant(SpectralOperator(scalar_space, scalar_space, [1.0]))


@pytest.fixture
def ou_semigroup(scalar_space):
    return SemigroupSpec(scalar_space, rates=[1.0], horizon=1.0)


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def wiener_values(noise, path: int) -> np.ndarray:
    """One path's cumulative noise at the grid nodes, (N + 1, dim), starting at 0."""
    return prefix_sums(noise.increments[path : path + 1])[0]
