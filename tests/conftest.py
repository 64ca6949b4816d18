import numpy as np
import pytest

from spdsliced import EmpiricalSpdMeasure, RngState, linalg, wishart_stack


@pytest.fixture
def nprng():
    return np.random.default_rng(20240717)


def random_sym(rng, d, scale=1.0):
    z = rng.standard_normal((d, d))
    return scale * 0.5 * (z + z.T)


def random_spd(rng, d, dof=None):
    dof = dof or 4 * d
    g = rng.standard_normal((dof, d))
    return g.T @ g / dof


def wishart_measure(seed, n, d, dof=None, scale=None):
    dof = dof or 3 * d
    return EmpiricalSpdMeasure(wishart_stack(RngState(seed), n, d, dof, scale=scale))


# Chunk budget of the split runs: small enough that every test stack splits
# into several chunks of stack_map, and every pairwise-distance row into
# several column blocks.
SPLIT_BUDGET = 64


def on_threads(count, fn):
    """fn() with the stack maps of this context on ``count`` workers."""
    token = linalg.THREADS.set(count)
    try:
        return fn()
    finally:
        linalg.THREADS.reset(token)


@pytest.fixture
def on_workers(monkeypatch):
    """``run(fn)``: fn() on one worker with the default chunk budget, then
    on 1, 2 and 3 workers with chunks of SPLIT_BUDGET elements."""

    def run(fn):
        monkeypatch.delenv("SPDSLICED_THREADS", raising=False)
        results = [on_threads(1, fn)]
        monkeypatch.setattr(linalg, "_CHUNK_ELEMS", SPLIT_BUDGET)
        return results + [on_threads(n, fn) for n in (1, 2, 3)]

    return run


def assert_all_equal(results):
    """Every result equals the first bit for bit (arrays, or tuples of them)."""
    first = results[0]
    for other in results[1:]:
        if isinstance(first, tuple):
            assert all(np.array_equal(a, b) for a, b in zip(first, other, strict=True))
        else:
            assert np.array_equal(first, other)
