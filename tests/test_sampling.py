import numpy as np
import pytest

from spdsliced import (
    RngState,
    build_projection_basis,
    sample_fast_symmetric,
    sample_haar_orthogonal,
    sample_lambda_s,
    sample_sphere,
    sample_wishart,
    wishart_stack,
)
from spdsliced.errors import NotPositiveDefinite, NotUnitNorm
from spdsliced.linalg import pd_tolerance
from spdsliced.sampling import ProjectionBasis, sample_sphere_batch


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
            assert abs(np.linalg.norm(a.array) - 1.0) <= 1e-12
            assert np.array_equal(a.array, a.array.T)

    def test_eigenvalues_match_sphere_draw(self):
        # Replays the documented draw order: theta first, then P.
        state = RngState(31)
        a = sample_lambda_s(state, 4)
        gen = state.generator()
        theta = sample_sphere_batch(gen, 4, 1)[0]
        eigs = np.linalg.eigvalsh(a.array)
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


class TestFastSymmetric:
    def test_unit_norm_and_symmetry(self):
        for i in range(20):
            a = sample_fast_symmetric(RngState(i), 4)
            assert abs(np.linalg.norm(a.array) - 1.0) <= 1e-12
            assert np.array_equal(a.array, a.array.T)

    def test_law_differs_from_lambda_s(self):
        # Detectable difference in eigenvalue spread at d=3: the top
        # eigenvalue of the GOE-like fast draw concentrates higher than
        # under the eigenvalue-uniform law.
        n = 10_000
        eig = build_projection_basis(RngState(0), 3, n, "eig_uniform")
        fast = build_projection_basis(RngState(0), 3, n, "fast_symmetric")
        top_eig = np.linalg.eigvalsh(eig.directions)[:, -1]
        top_fast = np.linalg.eigvalsh(fast.directions)[:, -1]
        gap = abs(top_eig.mean() - top_fast.mean())
        noise = np.sqrt(top_eig.var() / n + top_fast.var() / n)
        assert gap > 5.0 * noise


class TestWishart:
    def test_scalar_case_positive(self):
        m = sample_wishart(RngState(3), 1, 1)
        assert m.array[0, 0] > 0.0

    def test_mean_approaches_scale(self):
        draws = wishart_stack(RngState(17), 10_000, 3, 100)
        assert np.linalg.norm(draws.mean(axis=0) - np.eye(3)) <= 0.05

    def test_output_is_spd(self):
        for i in range(10):
            m = sample_wishart(RngState(i), 4, 6)
            eigs = np.linalg.eigvalsh(m.array)
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


class TestProjectionBasis:
    def test_identical_seeds_bit_identical(self):
        a = build_projection_basis(RngState(2), 4, 25, "eig_uniform")
        b = build_projection_basis(RngState(2), 4, 25, "eig_uniform")
        assert np.array_equal(a.directions, b.directions)

    def test_all_unit_norm(self):
        for kind in ("eig_uniform", "fast_symmetric", "vec_sphere"):
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

    def test_projection_shape(self):
        basis = build_projection_basis(RngState(1), 3, 7)
        mats = np.stack([np.eye(3)] * 4)
        coords = basis.project_symmetric(mats)
        assert coords.shape == (7, 4)
        expected = np.trace(basis.directions, axis1=1, axis2=2)
        assert np.allclose(coords, expected[:, None])
