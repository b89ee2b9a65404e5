"""Worker-thread budget for per-point passes.

Per-point predicates are pure, so big clouds can be evaluated over disjoint
index ranges in parallel. Results are assembled in index order, so the
thread count never changes any output. Default is single-threaded; the CLI
``--threads`` flag overrides it (0 means one per CPU).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

_MIN_BLOCK = 1 << 18  # below this, threading overhead dominates


_max_threads = 1


def set_max_threads(n: int) -> None:
    """Cap the worker threads at ``n``; 0 or less means one per CPU."""
    global _max_threads
    _max_threads = n if n > 0 else os.cpu_count() or 1


def get_max_threads() -> int:
    return _max_threads


def blockwise(fn: Callable[[int, int], np.ndarray], n: int) -> np.ndarray:
    """Evaluate ``fn(lo, hi)`` over [0, n) in index-ordered blocks.

    ``fn`` must return a 1-D array of length ``hi - lo``. Runs on the
    configured thread pool when it pays off, sequentially otherwise.
    """
    threads = _max_threads
    if threads <= 1 or n < 2 * _MIN_BLOCK:
        return fn(0, n)
    blocks = min(threads, max(1, n // _MIN_BLOCK))
    bounds = np.linspace(0, n, blocks + 1, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=blocks) as pool:
        parts = list(pool.map(lambda i: fn(int(bounds[i]), int(bounds[i + 1])),
                              range(blocks)))
    return np.concatenate(parts)
