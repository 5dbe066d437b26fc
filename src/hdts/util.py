"""Small shared helpers: deterministic parallel map, slope fits, hashing."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ValidationError


# Consecutive indices run_indexed hands to one worker at a time.
RUN = 8


def run_indexed(fn, count: int, threads: int = 1) -> list:
    """Evaluate fn(i) for i in range(count), optionally on a thread pool.

    Indices go out in runs of RUN consecutive indices (the last run may be
    shorter); each run is evaluated in order on one thread, so fn can
    share work across the indices of a run.  There is still one fn call
    per index.  Results come back ordered by index, so the output is
    independent of the number of threads as long as fn(i) depends only on i.
    """
    if threads <= 1 or count <= RUN:
        return [fn(i) for i in range(count)]

    def run(start: int) -> list:
        return [fn(i) for i in range(start, min(start + RUN, count))]

    with ThreadPoolExecutor(max_workers=threads) as ex:
        return [out for part in ex.map(run, range(0, count, RUN)) for out in part]


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
