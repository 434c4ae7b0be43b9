"""The BLAS thread pin: the previous thread count always comes back."""

import numpy as np
import pytest

from guidelab import _blas
from guidelab import metrics as gmet

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
