"""Thread-budget helper: order preservation and output invariance."""

import importlib

import numpy as np
import pytest

from pcedit import OrientedBox, parallel


@pytest.fixture
def restore_threads():
    before = parallel.get_max_threads()
    yield
    parallel.set_max_threads(before)


def test_blockwise_assembles_in_index_order(restore_threads):
    parallel.set_max_threads(4)
    n = 3 * (1 << 18) + 17  # big enough to actually split into blocks
    out = parallel.blockwise(lambda lo, hi: np.arange(lo, hi), n)
    assert out.shape == (n,)
    assert out[0] == 0 and out[-1] == n - 1
    assert np.all(np.diff(out) == 1)


def test_small_inputs_run_in_one_call(restore_threads):
    parallel.set_max_threads(8)
    calls = []

    def fn(lo, hi):
        calls.append((lo, hi))
        return np.zeros(hi - lo)

    parallel.blockwise(fn, 1000)
    assert calls == [(0, 1000)]


@pytest.mark.parametrize("threads", [1, 2, 7])
def test_containment_mask_independent_of_thread_count(restore_threads,
                                                      rng, threads):
    positions = rng.uniform(-3, 3, (600_000, 3))
    box = OrientedBox(label="b", centroid=(0.2, -0.1, 0.3),
                      dimensions=(3, 2, 4), rotations=(10, 20, 30))
    parallel.set_max_threads(1)
    reference = box.contains(positions)
    parallel.set_max_threads(threads)
    assert np.array_equal(box.contains(positions), reference)


def test_zero_means_cpu_count(restore_threads):
    parallel.set_max_threads(0)
    import os
    assert parallel.get_max_threads() == (os.cpu_count() or 1)


def test_default_is_one_thread_whatever_the_environment(restore_threads,
                                                        monkeypatch):
    monkeypatch.setenv("PCEDIT_THREADS", "3")
    importlib.reload(parallel)
    assert parallel.get_max_threads() == 1
