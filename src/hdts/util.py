"""Small shared helpers: deterministic parallel map, slope fits, hashing."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ValidationError


def run_indexed(fn, count: int, threads: int = 1) -> list:
    """Evaluate fn(i) for i in range(count), optionally on a thread pool.

    Results come back ordered by index, so the output is independent of
    the number of threads as long as fn(i) depends only on i.
    """
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(count)))


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValidationError("slope fit needs at least 2 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValidationError("slope fit needs strictly positive values")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()
