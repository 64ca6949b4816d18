"""Seeded random generation: slicing directions, Haar-orthogonal matrices,
unit-sphere vectors, and Wishart SPD matrices for synthetic data.

Determinism contract: every sampler is a pure function of an :class:`RngState`
backed by the counter-based Philox generator keyed on (seed, stream_id).
Projection bases map each direction index to a disjoint counter block
(``jumped``), so parallel generation would produce exactly the sequential
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSample, DimensionMismatch, NotPositiveDefinite, NotUnitNorm
from .linalg import (
    SpdMatrix,
    SymMatrix,
    as_spd,
    sym_dim,
    symmetrize,
    unvech_isometric,
)

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngState:
    """Seed of a counter-based random stream.

    Identical (seed, stream_id) pairs replay identical sample sequences
    across runs and platforms.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= int(v) <= _UINT64_MAX):
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def generator(self, jump: int = 0) -> np.random.Generator:
        """Fresh generator for this state, optionally jumped ahead by
        ``jump`` disjoint 2^128-draw counter blocks."""
        bitgen = np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        if jump:
            bitgen = bitgen.jumped(jump)
        return np.random.Generator(bitgen)

    def substream(self, offset: int) -> "RngState":
        """Derived state on a shifted stream id (wraps modulo 2^64)."""
        return RngState(self.seed, (self.stream_id + offset) % (_UINT64_MAX + 1))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngState):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngState or numpy Generator, got {type(rng).__name__}")


def sample_sphere(rng, d: int) -> np.ndarray:
    """Uniform point on the unit sphere S^{d-1} (normalized Gaussian)."""
    return sample_sphere_batch(rng, d, 1)[0]


def sample_sphere_batch(rng, d: int, count: int) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    gen = _as_generator(rng)
    g = gen.standard_normal((count, d))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms == 0.0):  # probability-zero guard
        bad = norms == 0.0
        g[bad] = gen.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def sample_haar_orthogonal(rng, d: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian matrix with the
    sign convention diag(R) > 0."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    gen = _as_generator(rng)
    z = gen.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _lambda_s_from(gen: np.random.Generator, d: int) -> np.ndarray:
    # Draw order is part of the determinism contract: theta first, then P.
    theta = sample_sphere(gen, d)
    p = sample_haar_orthogonal(gen, d)
    a = symmetrize((p * theta) @ p.T)
    return a / np.linalg.norm(a)


def sample_lambda_s(rng, d: int) -> SymMatrix:
    """Uniform unit-Frobenius-norm symmetric matrix A = P diag(theta) P^T
    with P Haar-orthogonal and theta uniform on the sphere."""
    return SymMatrix(_lambda_s_from(_as_generator(rng), d))


def _fast_symmetric_from(gen: np.random.Generator, d: int) -> np.ndarray:
    while True:  # a zero draw has probability zero; redraw it
        z = gen.standard_normal((d, d))
        a = z + z.T
        norm = np.linalg.norm(a)
        if norm > 0.0:
            return a / norm


def sample_fast_symmetric(rng, d: int) -> SymMatrix:
    """O(d^2) unit-norm symmetric matrix (Z + Z^T)/||Z + Z^T||_F.

    This is NOT the same law as :func:`sample_lambda_s`; both are exposed
    and no equivalence is claimed.
    """
    return SymMatrix(_fast_symmetric_from(_as_generator(rng), d))


def _vec_sphere_from(gen: np.random.Generator, d: int) -> np.ndarray:
    return unvech_isometric(sample_sphere(gen, sym_dim(d)))


def sample_wishart(rng, d: int, dof: int, scale=None) -> SpdMatrix:
    """Normalized Wishart draw (1/dof) sum_k z_k z_k^T with z_k ~ N(0, scale):
    a stack of one, redrawn once if it fails the positive-definiteness check."""
    gen = _as_generator(rng)
    for _ in range(2):
        draw = wishart_stack(gen, 1, d, dof, scale)[0]
        try:
            return SpdMatrix(draw)
        except NotPositiveDefinite:
            pass
    raise DegenerateSample("Wishart sample failed the positive-definiteness check twice")


def _scale_factor(d: int, scale) -> np.ndarray | None:
    if scale is None:
        return None
    scale = as_spd(scale)
    if scale.dim != d:
        raise DimensionMismatch(f"scale has dim {scale.dim}, expected {d}")
    w, q = scale.eig.eigenvalues, scale.eig.eigenvectors
    return q * np.sqrt(w)  # factor F with F F^T = scale


def wishart_stack(rng, count: int, d: int, dof: int, scale=None, chunk_elems: int = 20_000_000) -> np.ndarray:
    """Stack of ``count`` normalized Wishart draws, shape (count, d, d).

    Draws sequentially from one stream in memory-bounded chunks; positive
    definiteness is almost sure for dof >= d and re-validated downstream.
    """
    if dof < d:
        raise ValueError(f"dof ({dof}) must be at least the dimension ({d})")
    gen = _as_generator(rng)
    factor = _scale_factor(d, scale)
    out = np.empty((count, d, d))
    step = max(1, chunk_elems // (dof * d))
    for start in range(0, count, step):
        stop = min(start + step, count)
        g = gen.standard_normal((stop - start, dof, d))
        z = g if factor is None else g @ factor.T
        out[start:stop] = symmetrize(np.einsum("nkd,nke->nde", z, z)) / dof
    return out


@dataclass(frozen=True)
class ProjectionBasis:
    """An ordered set of unit-Frobenius-norm symmetric slicing directions,
    with provenance (sampler kind and seed)."""

    dim: int
    count: int
    directions: np.ndarray
    sampler_kind: str
    seed: RngState | None = None

    def __post_init__(self):
        dirs = np.array(self.directions, dtype=float)  # own the frozen copy
        if dirs.shape != (self.count, self.dim, self.dim):
            raise DimensionMismatch(
                f"directions have shape {dirs.shape}, expected {(self.count, self.dim, self.dim)}"
            )
        if not np.allclose(dirs, np.swapaxes(dirs, -2, -1)):
            raise ValueError("directions must be symmetric")
        norms = np.linalg.norm(dirs.reshape(self.count, -1), axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise NotUnitNorm("every direction must have unit Frobenius norm (1e-12)")
        if self.sampler_kind not in _SAMPLER_FUNCS:
            raise ValueError(f"unknown sampler kind {self.sampler_kind!r}")
        dirs.flags.writeable = False
        object.__setattr__(self, "directions", dirs)

    @cached_property
    def flat(self) -> np.ndarray:
        """Directions reshaped to (count, dim^2) for fast inner products."""
        return self.directions.reshape(self.count, -1)

    def project_symmetric(self, mats: np.ndarray) -> np.ndarray:
        """Coordinates <A_l, S_i>_F of symmetric matrices (n, d, d),
        returned as an (L, n) array."""
        m = np.asarray(mats, dtype=float)
        if m.shape[-1] != self.dim:
            raise DimensionMismatch(f"matrices have dim {m.shape[-1]}, basis has {self.dim}")
        return self.flat @ m.reshape(m.shape[0], -1).T


_SAMPLER_FUNCS = {
    "eig_uniform": _lambda_s_from,
    "fast_symmetric": _fast_symmetric_from,
    "vec_sphere": _vec_sphere_from,
}


def build_projection_basis(rng: RngState, d: int, count: int, sampler_kind: str = "eig_uniform") -> ProjectionBasis:
    """Generate ``count`` slicing directions, one disjoint substream per index."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if sampler_kind not in _SAMPLER_FUNCS:
        raise ValueError(f"unknown sampler kind {sampler_kind!r}")
    if not isinstance(rng, RngState):
        raise TypeError("build_projection_basis requires an RngState for provenance")
    draw = _SAMPLER_FUNCS[sampler_kind]
    dirs = np.empty((count, d, d))
    for i in range(count):
        dirs[i] = draw(rng.generator(jump=i), d)
    return ProjectionBasis(dim=d, count=count, directions=dirs, sampler_kind=sampler_kind, seed=rng)
