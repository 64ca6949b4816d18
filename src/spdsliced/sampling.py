"""Seeded random generation: slicing directions, Haar-orthogonal matrices,
unit-sphere vectors, and Wishart SPD matrices for synthetic data.

Determinism contract: every sampler is a pure function of an :class:`RngState`
backed by the counter-based Philox generator keyed on (seed, stream_id).
A projection basis gives each direction index i one Philox counter block,
``counter=[0, 0, i, 0]``: index i draws its normals from that block alone, so
any chunking or parallel order of generation reproduces the sequential basis.
The draws are per index; everything after them (sphere normalisation, QR,
products, norms) runs batched over memory-bounded chunks of directions, and
the scalar samplers are stacks of one through the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateSample, DimensionMismatch, NotPositiveDefinite, NotUnitNorm
from .linalg import eigh_stack, stack_map, sym_dim, sym_stack, symmetrize, unvech_isometric

_UINT64_MAX = 2**64 - 1


def _block_counter(index: int) -> np.ndarray:
    return np.array([0, 0, index, 0], dtype=np.uint64)


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

    @property
    def _key(self) -> np.ndarray:
        return np.array([self.seed, self.stream_id], dtype=np.uint64)

    def generator(self, jump: int = 0) -> np.random.Generator:
        """Fresh generator on counter block ``jump`` of this state: one Philox
        counter block per index, ``counter=[0, 0, jump, 0]`` under the key
        (seed, stream_id).  Blocks start 2^128 draws apart."""
        return np.random.Generator(np.random.Philox(key=self._key, counter=_block_counter(jump)))

    def substream(self, offset: int) -> "RngState":
        """Derived state on a shifted stream id (wraps modulo 2^64)."""
        return RngState(self.seed, (self.stream_id + offset) % (_UINT64_MAX + 1))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngState):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngState or numpy Generator, got {type(rng).__name__}")


def _unit_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``g`` scaled to unit norm, and the mask of zero rows."""
    norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None], norms == 0.0


def _frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (n, d, d), with no
    full-size temporary.  The per-matrix (1, k) @ (k, 1) product is the
    dot-product summation of ``np.linalg.norm(a[i])``, bit for bit."""
    flat = a.reshape(a.shape[0], 1, -1)
    return np.sqrt((flat @ np.swapaxes(flat, -2, -1))[:, 0, 0])


def _haar_stack(z: np.ndarray) -> np.ndarray:
    """Q factors of the stack z with the sign convention diag(R) > 0."""
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    return q * signs[:, None, :]


def _lambda_s_stack(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A = P diag(theta) P^T / ||.||_F for stacks theta (n, d) and P (n, d, d)."""
    a = symmetrize((p * theta[:, None, :]) @ np.swapaxes(p, -2, -1))
    return a / _frobenius_norms(a)[:, None, None]


def sample_sphere(rng, d: int) -> np.ndarray:
    """Uniform point on the unit sphere S^{d-1} (normalized Gaussian)."""
    return sample_sphere_batch(rng, d, 1)[0]


def sample_sphere_batch(rng, d: int, count: int) -> np.ndarray:
    """``count`` sphere points drawn in sequence from one stream; zero rows
    (probability zero) are redrawn from the same stream, in row order."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    gen = _as_generator(rng)
    out, zero = _unit_rows(gen.standard_normal((count, d)))
    while np.any(zero):
        out[zero], zero[zero] = _unit_rows(gen.standard_normal((int(zero.sum()), d)))
    return out


def sample_haar_orthogonal(rng, d: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian matrix with the
    sign convention diag(R) > 0."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_stack(_as_generator(rng).standard_normal((1, d, d)))[0]


def _lambda_s_rows(normals: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # Draw order is part of the determinism contract: theta first, then P.
    theta, zero = _unit_rows(normals[:, :d])
    p = _haar_stack(normals[:, d:].reshape(-1, d, d))
    return _lambda_s_stack(theta, p), zero


def sample_lambda_s(rng, d: int) -> np.ndarray:
    """Uniform unit-Frobenius-norm symmetric matrix A = P diag(theta) P^T
    with P Haar-orthogonal and theta uniform on the sphere."""
    return _guarded_draw(_as_generator(rng), d, "eig_uniform")


def _vec_sphere_rows(normals: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    v, zero = _unit_rows(normals)
    return unvech_isometric(v), zero


def sample_wishart(rng, d: int, dof: int, scale=None) -> np.ndarray:
    """Normalized Wishart draw (1/dof) sum_k z_k z_k^T with z_k ~ N(0, scale):
    a stack of one, redrawn once if it fails the positive-definiteness check."""
    gen = _as_generator(rng)
    for _ in range(2):
        draw = wishart_stack(gen, 1, d, dof, scale)
        try:
            eigh_stack(draw)
            return draw[0]
        except NotPositiveDefinite:
            pass
    raise DegenerateSample("Wishart sample failed the positive-definiteness check twice")


def _scale_factor(d: int, scale) -> np.ndarray | None:
    if scale is None:
        return None
    scale = sym_stack([scale])
    if scale.shape[-1] != d:
        raise DimensionMismatch(f"scale has dim {scale.shape[-1]}, expected {d}")
    (w,), (q,) = eigh_stack(scale)
    return q * np.sqrt(w)  # factor F with F F^T = scale


def wishart_stack(rng, count: int, d: int, dof: int, scale=None) -> np.ndarray:
    """Stack of ``count`` normalized Wishart draws, shape (count, d, d).

    Draws serially from one stream in chunks of ``linalg._CHUNK_ELEMS`` normals, or one
    matrix; positive definiteness is almost sure for dof >= d and re-validated downstream.
    """
    if dof < d:
        raise ValueError(f"dof ({dof}) must be at least the dimension ({d})")
    gen = _as_generator(rng)
    factor = _scale_factor(d, scale)
    out = np.empty((count, d, d))
    step = max(1, linalg._CHUNK_ELEMS // (dof * d))
    for start in range(0, count, step):
        g = gen.standard_normal((min(step, count - start), dof, d))
        z = g if factor is None else g @ factor.T
        out[start:start + step] = symmetrize(np.swapaxes(z, 1, 2) @ z) / dof
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
        self._adopt(dirs, symmetric=np.allclose)

    @classmethod
    def _owning(cls, dim: int, count: int, directions: np.ndarray, sampler_kind: str,
                seed: RngState) -> "ProjectionBasis":
        """Basis that takes ownership of a freshly built float array, with no
        copy.  The array must be exactly symmetric, not just close."""
        basis = object.__new__(cls)
        for name, value in (("dim", dim), ("count", count), ("sampler_kind", sampler_kind),
                            ("seed", seed)):
            object.__setattr__(basis, name, value)
        basis._adopt(directions, symmetric=np.array_equal)
        return basis

    def _adopt(self, dirs: np.ndarray, symmetric) -> None:
        """Validate ``dirs``, freeze it and make it the directions;
        ``symmetric(a, a^T)`` is the symmetry test."""
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if dirs.shape != (self.count, self.dim, self.dim):
            raise DimensionMismatch(
                f"directions have shape {dirs.shape}, expected {(self.count, self.dim, self.dim)}"
            )
        if not symmetric(dirs, np.swapaxes(dirs, -2, -1)):
            raise ValueError("directions must be symmetric")
        if np.any(np.abs(_frobenius_norms(dirs) - 1.0) > 1e-12):
            raise NotUnitNorm("every direction must have unit Frobenius norm (1e-12)")
        if self.sampler_kind not in _SAMPLERS:
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


# Each sampler kind is (normals per direction, batched kernel).  The kernel
# maps one row of normals per direction to the directions and the mask of
# rows that hit a probability-zero degenerate draw.
_SAMPLERS = {
    "eig_uniform": (lambda d: d + d * d, _lambda_s_rows),
    "vec_sphere": (sym_dim, _vec_sphere_rows),
}


def _guarded_draw(gen: np.random.Generator, d: int, kind: str) -> np.ndarray:
    """One direction of sampler ``kind`` from ``gen``: a row of normals
    through the batched kernel, the whole row redrawn while degenerate."""
    if d < 1:  # an empty row is always degenerate
        raise ValueError("dimension must be >= 1")
    width, rows = _SAMPLERS[kind]
    while True:
        a, bad = rows(gen.standard_normal((1, width(d))), d)
        if not bad[0]:
            return a[0]


def _block_normals(rng: RngState, start: int, stop: int, width: int) -> np.ndarray:
    """Row j holds the first ``width`` standard normals of counter block
    start + j.  One Philox is re-seated on each block: the same state as
    ``rng.generator(jump=start + j)`` without constructing a new one."""
    bitgen = np.random.Philox(key=rng._key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # fresh: empty buffer, nothing cached
    out = np.empty((stop - start, width))
    for j in range(stop - start):
        state["state"]["counter"] = _block_counter(start + j)
        bitgen.state = state
        gen.standard_normal(out=out[j])
    return out


def _chunk_directions(rng: RngState, start: int, stop: int, d: int, sampler_kind: str) -> np.ndarray:
    """Directions start..stop-1 in one batch.  An index whose draw was
    degenerate is replayed by the guarded draw on its own counter block."""
    width, rows = _SAMPLERS[sampler_kind]
    block, redraw = rows(_block_normals(rng, start, stop, width(d)), d)
    for j in np.flatnonzero(redraw):
        block[j] = _guarded_draw(rng.generator(jump=start + int(j)), d, sampler_kind)
    return block


def build_projection_basis(rng: RngState, d: int, count: int, sampler_kind: str = "eig_uniform") -> ProjectionBasis:
    """Generate ``count`` slicing directions, one Philox counter block per
    index, over the memory-bounded chunks of :func:`~.linalg.stack_map`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if sampler_kind not in _SAMPLERS:
        raise ValueError(f"unknown sampler kind {sampler_kind!r}")
    if not isinstance(rng, RngState):
        raise TypeError("build_projection_basis requires an RngState for provenance")
    dirs = np.empty((count, d, d))  # filled in place: no second O(L d^2) array
    stack_map(lambda i, j: np.copyto(dirs[i:j], _chunk_directions(rng, i, j, d, sampler_kind)),
              count, d * d)
    return ProjectionBasis._owning(d, count, dirs, sampler_kind, rng)
