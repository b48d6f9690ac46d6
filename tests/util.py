"""Shared helpers for the test suite."""

import numpy as np


def max_abs(x) -> float:
    arr = np.atleast_1d(np.asarray(x))
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def rel_err(a, b) -> float:
    """Scale-guarded relative difference: |a-b|_inf / max(1, |a|_inf, |b|_inf)."""
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    return max_abs(a - b) / max(1.0, max_abs(a), max_abs(b))


def random_rows(rng, n):
    """(2n, 4) complex rows: n spread over six decades, then n built from
    exact zeros, signed zeros and small integers, where signed zeros show."""
    spread = (rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))) \
        * 10.0 ** rng.integers(-3, 4, size=(n, 4))
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -0.5])
    exact = rng.choice(pool, size=(n, 4)) + 1j * rng.choice(pool, size=(n, 4))
    exact.imag[rng.random((n, 4)) < 0.3] = -0.0
    return np.concatenate([spread, exact])
