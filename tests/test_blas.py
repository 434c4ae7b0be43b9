"""The BLAS thread pin: the previous thread count always comes back."""

import numpy as np
import pytest

from guidelab import _blas
from guidelab import data as gd
from guidelab import metrics as gmet
from guidelab import sampler as gsam
from guidelab import schedule as gs

if _blas._openblas() is None:
    pytest.skip("numpy's BLAS exports no scipy_openblas thread-count symbols",
                allow_module_level=True)
get_threads = _blas._openblas()[0]


def test_restored_on_exit():
    before = get_threads()
    with _blas.threads(1):
        assert get_threads() == 1
    assert get_threads() == before


def test_restored_on_exception():
    with _blas.threads(2):
        with pytest.raises(RuntimeError):
            with _blas.threads(1):
                raise RuntimeError("inside the pin")
        assert get_threads() == 2


def test_nested():
    before = get_threads()
    with _blas.threads(1):
        with _blas.threads(2):
            assert get_threads() == 2
        assert get_threads() == 1
    assert get_threads() == before


def test_knn_leaves_count_unchanged():
    x = np.random.default_rng(0).standard_normal((300, 4))
    with _blas.threads(2):
        gmet.knn_precision_recall(x, x + 0.1, 3)
        assert get_threads() == 2


@pytest.fixture(scope="module")
def traced():
    """A one-chain record, a small dataset and a 50-step schedule."""
    sch = gs.build_linear_beta(50, 1e-4, 0.02)
    rng = np.random.default_rng(1)
    batch = gsam.SampleBatch(
        samples=np.zeros((1, 8)), targets=np.zeros(1, dtype=np.int64),
        ts=np.arange(3, 0, -1), alpha_bars=np.array([0.5, 0.7, 0.9]),
        guidance_active=np.ones(3, dtype=bool), adjustment_norms=np.zeros((1, 3)),
        stored_steps=np.arange(3), stored_ts=np.array([2, 1, 0]),
        stored_alpha_bars=np.array([0.7, 0.9, 1.0]),
        stored_x=rng.standard_normal((1, 3, 8)))
    ds = gd.LabeledDataset(points=rng.standard_normal((300, 8)), labels=np.zeros(300))
    return batch, ds, sch


def test_traces_leave_count_unchanged(traced, tile_pairs):
    batch, ds, sch = traced
    with _blas.threads(2):
        gsam.trace_manifold_distance(batch, ds)
        assert get_threads() == 2
        gsam.forward_manifold_traces(ds, sch, 4, seed=0)
        assert get_threads() == 2
    assert tile_pairs.threads and set(tile_pairs.threads) == {1}


def test_trace_restores_count_on_error(traced, monkeypatch):
    batch, ds, sch = traced

    def failing(rows, cols, block):
        raise RuntimeError("inside the pin")

    monkeypatch.setattr(gmet, "_tile", failing)
    with _blas.threads(2):
        for trace in (lambda: gsam.trace_manifold_distance(batch, ds),
                      lambda: gsam.forward_manifold_traces(ds, sch, 4, seed=0)):
            with pytest.raises(RuntimeError, match="inside the pin"):
                trace()
            assert get_threads() == 2
