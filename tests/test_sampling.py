import hashlib

import numpy as np
import pytest

from spdsliced import (
    RngState,
    build_projection_basis,
    sample_haar_orthogonal,
    sample_lambda_s,
    sample_sphere,
    sample_wishart,
    wishart_stack,
)
from spdsliced import linalg, sampling
from spdsliced.errors import NotPositiveDefinite, NotUnitNorm
from spdsliced.linalg import pd_tolerance, sym_dim, symmetrize, unvech_isometric
from spdsliced.sampling import ProjectionBasis, sample_sphere_batch

from conftest import peak_bytes


class TestRngState:
    def test_replay_is_bit_identical(self):
        a = RngState(123, 7).generator().standard_normal(16)
        b = RngState(123, 7).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngState(123, 0).generator().standard_normal(16)
        b = RngState(123, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_jumped_blocks_are_distinct(self):
        s = RngState(5)
        a = s.generator(jump=0).standard_normal(8)
        b = s.generator(jump=1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_validates_range(self):
        with pytest.raises(ValueError):
            RngState(-1)
        with pytest.raises(ValueError):
            RngState(0, 2**64)


_MAX = 2**64 - 1

# SHA-256 of ``directions.tobytes()`` for (sampler kind, seed, stream_id, d, L).
# Pinned from the per-index ``Philox(...).jumped(i)`` implementation (numpy 2.4,
# OpenBLAS 0.3.31); later implementations must reproduce these bases bit for
# bit. The d=20, L=600 rows span several chunks of the batched build.
GOLDEN_BASES = [
    ("eig_uniform", 0, 0, 1, 1, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    ("eig_uniform", _MAX, 0, 1, 7, "4bd4dfbbea44772cba5a4da49ce3feb2796414ecd7f8906a4e4d94ae8eaedf64"),
    ("eig_uniform", _MAX, _MAX, 2, 5, "570a24ca1c925d712308cb19e5d9d97dbea203c42dcb4980a3236fe4369da4e6"),
    ("eig_uniform", 3, 1, 2, 1000, "c0c6cc1e86f68896dc0c34d186d93ee0a7e2f9865c2c1d0d11dedcbe5ea39837"),
    ("eig_uniform", 11, 0, 5, 40, "914100fce62ee6039138530a1e79aa1984ba06a1fdeda72ec472b016459fd6bd"),
    ("eig_uniform", 7, 3, 10, 25, "ec1db25798c9e5cde5519a8604a13a8cbddf21566a04b4b0232e42b9ac15bdcc"),
    ("eig_uniform", 123, 9, 20, 16, "fd5f09bda287f215198423d4f28d18df4dd9251fd01e183917b9a69c1c0a883b"),
    ("eig_uniform", 5, 2, 20, 600, "f6e08c6a840393c2a9407acfc9fd18404e8ca953422576584af8815744b087f9"),
    ("vec_sphere", 0, 0, 1, 1, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    ("vec_sphere", _MAX, 0, 1, 7, "4bd4dfbbea44772cba5a4da49ce3feb2796414ecd7f8906a4e4d94ae8eaedf64"),
    ("vec_sphere", _MAX, _MAX, 2, 5, "0524a41975325df8c9732ac63453cf31c859954c49e087c3a093103182770aed"),
    ("vec_sphere", 3, 1, 2, 1000, "bce4b4d45e4dbc5cb7d957ae8f64f8802c904eeebf68d9de211a97a076d3c304"),
    ("vec_sphere", 11, 0, 5, 40, "07573679c12f21087e97327b3d225c002dc96e3a8eded6948abe878884c6213c"),
    ("vec_sphere", 7, 3, 10, 25, "b2b30e4b97246e29b0a64e52093899588831d0eef7f15e22121c5f99a2a1d915"),
    ("vec_sphere", 123, 9, 20, 16, "8d5d3e752c2e968a27e126c88bb2525eea89336b6afc99c89681642afb242b00"),
    ("vec_sphere", 5, 2, 20, 600, "83737907a0c75b47341390f9b4cd5259e5d4158699454c112fb7e9b2225b1835"),
]


@pytest.mark.parametrize("kind,seed,stream,d,count,digest", GOLDEN_BASES)
def test_golden_basis_digests(kind, seed, stream, d, count, digest):
    basis = build_projection_basis(RngState(seed, stream), d, count, kind)
    assert hashlib.sha256(basis.directions.tobytes()).hexdigest() == digest


def test_golden_basis_digests_on_split_pool(on_workers):
    # Each chunk re-seats its own Philox on the counter blocks of its
    # indices, so bases built from many pooled chunks keep their digests.
    def digests():
        return [hashlib.sha256(build_projection_basis(RngState(seed, stream), d, count, kind)
                               .directions.tobytes()).hexdigest()
                for kind, seed, stream, d, count, _ in GOLDEN_BASES]

    for got in on_workers(digests):
        assert got == [digest for *_, digest in GOLDEN_BASES]


def _per_index_basis(state, d, count, kind):
    # Independent oracle: the per-index loop, one jumped Philox and one QR
    # and norm per direction, as the basis was built before batching.
    key = np.array([state.seed, state.stream_id], dtype=np.uint64)
    out = np.empty((count, d, d))
    for i in range(count):
        gen = np.random.Generator(np.random.Philox(key=key).jumped(i))
        k = d if kind == "eig_uniform" else sym_dim(d)
        v = gen.standard_normal((1, k))
        v = (v / np.linalg.norm(v, axis=1)[:, None])[0]
        if kind == "vec_sphere":
            out[i] = unvech_isometric(v)
            continue
        q, r = np.linalg.qr(gen.standard_normal((d, d)))
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        p = q * signs
        m = (p * v) @ p.T
        a = 0.5 * (m + m.T)
        out[i] = a / np.linalg.norm(a)
    return out


@pytest.mark.parametrize("kind", ["eig_uniform", "vec_sphere"])
@pytest.mark.parametrize("seed,stream,d,count", [(0, 0, 1, 3), (2, 5, 2, 300), (_MAX, 1, 7, 30), (4, 0, 16, 420)])
def test_basis_matches_per_index_loop(kind, seed, stream, d, count):
    state = RngState(seed, stream)
    expected = _per_index_basis(state, d, count, kind)
    assert np.array_equal(build_projection_basis(state, d, count, kind).directions, expected)


@pytest.mark.parametrize("seed,stream", [(0, 0), (5, 3), (_MAX, _MAX)])
def test_generator_blocks_match_jumped(seed, stream):
    # Independent oracle: jumping a fresh Philox i times of 2^128 draws.
    key = np.array([seed, stream], dtype=np.uint64)
    for i in (0, 1, 7, 10_000):
        expected = np.random.Generator(np.random.Philox(key=key).jumped(i))
        got = RngState(seed, stream).generator(jump=i)
        assert np.array_equal(got.standard_normal(64), expected.standard_normal(64))
        assert np.array_equal(got.random(5), expected.random(5))


@pytest.mark.parametrize("seed,stream,d", [(0, 0, 1), (4, 1, 2), (_MAX, 6, 5), (9, _MAX, 12)])
def test_scalar_samplers_are_basis_index_zero(seed, stream, d):
    state = RngState(seed, stream)

    def first(kind):
        return build_projection_basis(state, d, 3, kind).directions[0]

    assert np.array_equal(sample_lambda_s(state, d), first("eig_uniform"))
    assert np.array_equal(unvech_isometric(sample_sphere(state, sym_dim(d))), first("vec_sphere"))


@pytest.mark.parametrize("d", [1, 3, 8])
def test_haar_matches_sign_fixed_qr(d):
    # Independent oracle: QR of the first d*d normals of the stream, with
    # the sign convention diag(R) > 0.
    state = RngState(21, d)
    q, r = np.linalg.qr(state.generator().standard_normal((d, d)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    assert np.array_equal(sample_haar_orthogonal(state, d), q * signs)


class TestSphere:
    def test_unit_norm(self):
        for i in range(10):
            theta = sample_sphere(RngState(i), 6)
            assert abs(np.linalg.norm(theta) - 1.0) < 1e-14

    def test_dimension_one_is_sign(self):
        values = {float(sample_sphere(RngState(i), 1)[0]) for i in range(20)}
        assert values <= {1.0, -1.0}
        assert len(values) == 2

    def test_mean_norm_small(self):
        samples = sample_sphere_batch(RngState(99), 3, 100_000)
        assert np.linalg.norm(samples.mean(axis=0)) <= 0.02

    def test_coordinate_second_moment(self):
        samples = sample_sphere_batch(RngState(7), 5, 100_000)
        assert abs(np.mean(samples[:, 0] ** 2) - 0.2) <= 0.01


class TestHaar:
    def test_orthogonality(self):
        for i in range(10):
            p = sample_haar_orthogonal(RngState(i), 5)
            assert np.linalg.norm(p.T @ p - np.eye(5)) <= 1e-10
            assert abs(abs(np.linalg.det(p)) - 1.0) <= 1e-10

    def test_first_column_uniform_on_sphere(self):
        cols = np.stack(
            [sample_haar_orthogonal(RngState(0, i), 3)[:, 0] for i in range(20_000)]
        )
        assert np.linalg.norm(cols.mean(axis=0)) <= 0.03

    def test_trace_against_fixed_rotation(self):
        # Haar invariance: tr(RP) has mean 0.
        rot = sample_haar_orthogonal(RngState(42), 4)
        traces = [
            np.trace(rot @ sample_haar_orthogonal(RngState(1, i), 4)) for i in range(10_000)
        ]
        traces = np.asarray(traces)
        assert abs(traces.mean()) <= 3.0 * traces.std() / np.sqrt(traces.size)


class TestLambdaS:
    def test_unit_norm_and_symmetry(self):
        for i in range(20):
            a = sample_lambda_s(RngState(i), 4)
            assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
            assert np.array_equal(a, a.T)

    def test_eigenvalues_match_sphere_draw(self):
        # Replays the documented draw order: theta first, then P.
        state = RngState(31)
        a = sample_lambda_s(state, 4)
        gen = state.generator()
        theta = sample_sphere_batch(gen, 4, 1)[0]
        eigs = np.linalg.eigvalsh(a)
        assert np.allclose(np.sort(eigs), np.sort(theta), atol=1e-10)

    def test_eigenvalues_distributed_as_sphere(self):
        # Sorted eigenvalues of the directions should match sorted sphere
        # draws (independent oracle) in their order-statistic means.
        n = 4000
        basis = build_projection_basis(RngState(11), 3, n, "eig_uniform")
        eigs = np.sort(np.linalg.eigvalsh(basis.directions), axis=1)
        sphere = np.sort(sample_sphere_batch(RngState(77), 3, n), axis=1)
        for k in range(3):
            gap = abs(eigs[:, k].mean() - sphere[:, k].mean())
            noise = np.sqrt(eigs[:, k].var() / n + sphere[:, k].var() / n)
            assert gap <= 5.0 * noise


class TestVecSphere:
    def test_law_differs_from_lambda_s(self):
        # Detectable difference in eigenvalue spread at d=3: the top
        # eigenvalue of the GOE-like vec_sphere draw concentrates higher
        # than under the eigenvalue-uniform law.
        n = 10_000
        eig = build_projection_basis(RngState(0), 3, n, "eig_uniform")
        vec = build_projection_basis(RngState(0), 3, n, "vec_sphere")
        top_eig = np.linalg.eigvalsh(eig.directions)[:, -1]
        top_vec = np.linalg.eigvalsh(vec.directions)[:, -1]
        gap = abs(top_eig.mean() - top_vec.mean())
        noise = np.sqrt(top_eig.var() / n + top_vec.var() / n)
        assert gap > 5.0 * noise


class TestWishart:
    def test_scalar_case_positive(self):
        m = sample_wishart(RngState(3), 1, 1)
        assert m[0, 0] > 0.0

    def test_mean_approaches_scale(self):
        draws = wishart_stack(RngState(17), 10_000, 3, 100)
        assert np.linalg.norm(draws.mean(axis=0) - np.eye(3)) <= 0.05

    def test_output_is_spd(self):
        for i in range(10):
            m = sample_wishart(RngState(i), 4, 6)
            eigs = np.linalg.eigvalsh(m)
            assert eigs[0] > pd_tolerance(eigs)

    def test_scale_matrix(self):
        scale = np.diag([4.0, 1.0])
        draws = wishart_stack(RngState(5), 20_000, 2, 50, scale=scale)
        assert np.linalg.norm(draws.mean(axis=0) - scale) <= 0.05 * np.linalg.norm(scale)

    def test_dof_below_dim_rejected(self):
        with pytest.raises(ValueError):
            sample_wishart(RngState(0), 3, 2)

    def test_indefinite_scale_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            sample_wishart(RngState(0), 2, 4, scale=np.diag([1.0, -1.0]))

    def test_stack_matches_sequential_stream(self):
        stacked = wishart_stack(RngState(9), 5, 3, 7)
        again = wishart_stack(RngState(9), 5, 3, 7)
        assert np.array_equal(stacked, again)

    @staticmethod
    def _serial_chunk_oracle(rng, count, d, dof, scale, chunk_elems=20_000_000):
        # The draw loop as it was with its own 20M-normal budget.
        gen = rng.generator()
        factor = sampling._scale_factor(d, scale)
        out = np.empty((count, d, d))
        step = max(1, chunk_elems // (dof * d))
        for start in range(0, count, step):
            stop = min(start + step, count)
            g = gen.standard_normal((stop - start, dof, d))
            z = g if factor is None else g @ factor.T
            out[start:stop] = symmetrize(np.swapaxes(z, 1, 2) @ z) / dof
        return out

    @pytest.mark.parametrize("scaled", [False, True], ids=["identity", "scaled"])
    @pytest.mark.parametrize("count, d, dof", [(7, 3, 5), (450, 10, 20), (3, 20, 2001)])
    @pytest.mark.parametrize("budget", [1, None, 10**12],
                             ids=["one-matrix", "default", "one-chunk"])
    def test_draws_do_not_depend_on_the_budget(self, monkeypatch, budget, count, d, dof, scaled):
        # (450, 10, 20) splits into three chunks at the default budget, and a
        # (20, 2001) draw holds more than _CHUNK_ELEMS normals on its own.
        if budget is not None:
            monkeypatch.setattr(linalg, "_CHUNK_ELEMS", budget)
        scale = np.diag(np.linspace(1.0, 2.0, d)) if scaled else None
        got = wishart_stack(RngState(count + d), count, d, dof, scale=scale)
        want = self._serial_chunk_oracle(RngState(count + d), count, d, dof, scale)
        assert np.array_equal(got, want)

    def test_memory_is_the_output_plus_one_chunk(self):
        # (20000, 10, 10) is 16 MB. A chunk draws _CHUNK_ELEMS normals and
        # forms products of half that size. Measured: 80,067,416 bytes while
        # one 20M-normal chunk held the whole stack, 16,707,416 now.
        draws, peak = peak_bytes(lambda: wishart_stack(RngState(2), 20_000, 10, 20))
        assert peak < draws.nbytes + 3 * linalg._CHUNK_ELEMS * 8

    @staticmethod
    def _einsum_oracle(rng, count, d, dof, scale):
        # The draw with its Gram product as the einsum it was before it
        # became a batched matmul (one chunk at these sizes).
        g = rng.generator().standard_normal((count, dof, d))
        factor = sampling._scale_factor(d, scale)
        z = g if factor is None else g @ factor.T
        return symmetrize(np.einsum("nkd,nke->nde", z, z)) / dof

    @pytest.mark.parametrize("scaled", [False, True], ids=["identity", "scaled"])
    @pytest.mark.parametrize("d", [5, 20])
    def test_matches_einsum_form(self, d, scaled):
        scale = np.diag(np.linspace(1.0, 3.0, d)) if scaled else None
        got = wishart_stack(RngState(81), 200, d, 40, scale=scale)
        want = self._einsum_oracle(RngState(81), 200, d, 40, scale)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(got, np.swapaxes(got, 1, 2))


class TestProjectionBasis:
    def test_identical_seeds_bit_identical(self):
        a = build_projection_basis(RngState(2), 4, 25, "eig_uniform")
        b = build_projection_basis(RngState(2), 4, 25, "eig_uniform")
        assert np.array_equal(a.directions, b.directions)

    def test_all_unit_norm(self):
        for kind in ("eig_uniform", "vec_sphere"):
            basis = build_projection_basis(RngState(3), 3, 10, kind)
            norms = np.linalg.norm(basis.directions.reshape(10, -1), axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_prefix_stability(self):
        # Per-index streams: the first L directions of a longer basis are
        # exactly a shorter basis (parallel generation == sequential).
        short = build_projection_basis(RngState(8), 3, 5)
        long = build_projection_basis(RngState(8), 3, 9)
        assert np.array_equal(long.directions[:5], short.directions)

    def test_rejects_bad_directions(self):
        with pytest.raises(NotUnitNorm):
            ProjectionBasis(dim=2, count=1, directions=np.eye(2)[None], sampler_kind="eig_uniform")

    def test_build_owns_its_array_and_public_constructor_copies(self):
        built = build_projection_basis(RngState(5), 3, 6)
        external = built.directions.copy()
        owned = ProjectionBasis._owning(3, 6, external, "eig_uniform", RngState(5))
        assert owned.directions is external
        assert not external.flags.writeable
        copied = ProjectionBasis(dim=3, count=6, directions=external, sampler_kind="eig_uniform")
        assert not np.shares_memory(copied.directions, external)
        assert np.array_equal(copied.directions, built.directions)

    def test_owning_path_requires_exact_symmetry(self):
        dirs = build_projection_basis(RngState(5), 3, 6).directions.copy()
        dirs[2, 0, 1] = np.nextafter(dirs[2, 0, 1], np.inf)
        # Close enough for the public constructor, not for the owning path.
        ProjectionBasis(dim=3, count=6, directions=dirs, sampler_kind="eig_uniform")
        with pytest.raises(ValueError, match="symmetric"):
            ProjectionBasis._owning(3, 6, dirs, "eig_uniform", RngState(5))
        with pytest.raises(NotUnitNorm):
            ProjectionBasis._owning(1, 1, np.full((1, 1, 1), 0.5), "eig_uniform", RngState(5))

    def test_empty_basis_is_refused_as_the_builder_refuses_it(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            ProjectionBasis(dim=2, count=0, directions=np.empty((0, 2, 2)), sampler_kind="eig_uniform")
        with pytest.raises(ValueError, match="count must be >= 1"):
            build_projection_basis(RngState(1), 2, 0)

    def test_projection_shape(self):
        basis = build_projection_basis(RngState(1), 3, 7)
        mats = np.stack([np.eye(3)] * 4)
        coords = basis.project_symmetric(mats)
        assert coords.shape == (7, 4)
        expected = np.trace(basis.directions, axis1=1, axis2=2)
        assert np.allclose(coords, expected[:, None])

    def test_build_memory_is_bounded(self):
        # (10^4, 20, 20) directions are 32 MB. The basis takes ownership of
        # the built array, so the peak is that output plus the 4 MB boolean
        # mask of the exact symmetry check: 36,065,848 to 36,071,848 bytes
        # after a warm-up call, depending on what else the process holds.
        # It was 132,067,520 while ProjectionBasis copied the array and
        # checked it with allclose. Chunks must not add another O(L d^2)
        # array.
        basis, peak = peak_bytes(lambda: build_projection_basis(RngState(0), 20, 10_000))
        assert basis.count == 10_000
        assert peak <= 36_100_000

    @pytest.mark.parametrize("kind", ["eig_uniform", "vec_sphere"])
    def test_degenerate_draw_is_replayed_from_its_block(self, kind, monkeypatch):
        # Force the probability-zero case: index 3 of the batch draws all
        # zeros. The guarded draw on counter block 3 must replace it, which
        # gives back exactly the direction the real block 3 yields.
        expected = build_projection_basis(RngState(4), 3, 6, kind).directions
        block_normals = sampling._block_normals

        def zero_index_3(rng, start, stop, width):
            out = block_normals(rng, start, stop, width)
            out[3 - start] = 0.0
            return out

        monkeypatch.setattr(sampling, "_block_normals", zero_index_3)
        with np.errstate(invalid="ignore"):
            basis = build_projection_basis(RngState(4), 3, 6, kind)
        assert np.array_equal(basis.directions, expected)

    def test_rejects_nonpositive_dimension(self):
        for kind in ("eig_uniform", "vec_sphere"):
            with pytest.raises(ValueError):
                build_projection_basis(RngState(0), 0, 3, kind)

    @pytest.mark.parametrize("kind,draw", [
        ("eig_uniform", lambda state, d: sample_lambda_s(state, d)),
        ("vec_sphere", lambda state, d: sampling._guarded_draw(state.generator(), d, "vec_sphere")),
    ])
    def test_degenerate_scalar_draw_redraws_the_whole_row(self, kind, draw, monkeypatch):
        # Flag the first row the kernel sees as degenerate: the guarded draw
        # must drop all of it and map the next row of the same stream.
        width, rows = sampling._SAMPLERS[kind]
        gen = RngState(8).generator()
        gen.standard_normal((1, width(3)))
        expected = rows(gen.standard_normal((1, width(3))), 3)[0][0]
        seen = []

        def first_row_degenerate(normals, d):
            out, bad = rows(normals, d)
            seen.append(normals)
            return out, bad | (len(seen) == 1)

        monkeypatch.setitem(sampling._SAMPLERS, kind, (width, first_row_degenerate))
        assert np.array_equal(draw(RngState(8), 3), expected)
        assert len(seen) == 2

    def test_scalar_samplers_reject_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            sample_lambda_s(RngState(0), 0)
        with pytest.raises(ValueError):
            sampling._guarded_draw(RngState(0).generator(), 0, "vec_sphere")
