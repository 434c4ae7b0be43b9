"""Shared fixtures: small schedules and datasets reused across test modules."""

import numpy as np
import pytest

from guidelab import _blas
from guidelab import data as gdata
from guidelab import metrics as gmetrics
from guidelab import schedule as gschedule


@pytest.fixture(scope="session")
def linb_1000():
    return gschedule.build_linear_beta(1000, 1e-4, 0.02)


@pytest.fixture(scope="session")
def lina_1000():
    return gschedule.build_linear_alphabar(1000)


@pytest.fixture(scope="session")
def linb_50():
    return gschedule.build_linear_beta(50, 1e-4, 0.02)


@pytest.fixture(scope="session")
def bench_descriptor():
    return gdata.eight_gaussians()


@pytest.fixture(scope="session")
def bench_dataset(bench_descriptor):
    return gdata.generate(bench_descriptor, 8000, seed=1)


@pytest.fixture(scope="session")
def small_descriptor():
    """Two well-separated classes in D=8 for cheap gradient/oracle tests."""
    means = np.zeros((2, 8))
    means[0, 0] = 4.0
    means[1, 0] = -4.0
    return gdata.ManifoldDescriptor(kind="gaussian_mixture", dim=8,
                                    weights=np.array([0.5, 0.5]),
                                    means=means,
                                    variances=np.array([1.0, 1.0]))


@pytest.fixture(autouse=True)
def cold_grouping_memo(monkeypatch):
    """Each test starts with no grouped reference set kept by ``metrics``, so
    no tile-pair count depends on the order the tests run in."""
    monkeypatch.setattr(gmetrics, "_grouping_memo", None)


class TilePairs(list):
    """The entries of each distance tile computed, in call order; ``threads``
    holds the BLAS thread count inside each (None where it cannot be read)."""

    def __init__(self):
        super().__init__()
        self.threads = []


@pytest.fixture()
def tile_pairs(monkeypatch):
    """Counts the pairs of every distance tile: the k-NN's and the
    nearest-point search's all go through ``metrics._tile``."""
    pairs = TilePairs()
    tile = gmetrics._tile
    get_threads = _blas._openblas()[0] if _blas._openblas() else lambda: None

    def counted(rows, cols, block):
        pairs.append(len(rows) * cols.shape[1])
        pairs.threads.append(get_threads())
        return tile(rows, cols, block)

    monkeypatch.setattr(gmetrics, "_tile", counted)
    return pairs
