import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spdsliced import (
    EmpiricalSpdMeasure,
    RngState,
    build_cost_matrix,
    build_projection_basis,
    dist_affine_invariant,
    dist_log_euclidean,
    log_frechet_derivative,
    quantile_feature,
    sym_exp,
    sym_log,
    udu_decompose,
    wishart_stack,
)
from spdsliced.errors import DimensionMismatch, NotPositiveDefinite
from spdsliced import linalg
from spdsliced.linalg import (
    EXP_CAP,
    _daleckii_krein,
    _exp_divided_differences,
    _log_divided_differences,
    exp_frechet_adjoint,
    exp_stack,
    eigh_stack,
    log_frechet_stack,
    log_stack,
    pairwise_ai_dists,
    pairwise_sq_dists,
    reconstruct,
    stack_map,
    symmetrize,
    udu_stack,
    unvech_isometric,
    vech_isometric,
)

from conftest import (
    SPLIT_BUDGET, assert_all_equal, on_threads, peak_bytes, random_spd, random_sym,
    wishart_measure,
)


class TestLogExp:
    def test_log_identity_is_zero(self):
        assert np.allclose(sym_log(np.eye(3)), 0.0)

    def test_log_diagonal(self):
        out = sym_log(np.diag([np.e, 1.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_exp_zero_is_identity(self):
        assert np.allclose(sym_exp(np.zeros((4, 4))), np.eye(4))

    def test_exp_diagonal(self):
        out = sym_exp(np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([np.e, 1.0]), atol=1e-14)

    def test_roundtrip_wishart(self, nprng):
        for _ in range(20):
            m = random_spd(nprng, 4)
            back = sym_exp(sym_log(m))
            assert np.linalg.norm(back - m) / np.linalg.norm(m) < 1e-10

    def test_roundtrip_log_of_exp(self, nprng):
        for _ in range(20):
            s = random_sym(nprng, 4, scale=2.0)
            back = sym_log(sym_exp(s))
            assert np.linalg.norm(back - s) <= 1e-10 * max(1.0, np.linalg.norm(s))

    def test_matches_scipy_logm(self, nprng):
        m = random_spd(nprng, 5)
        ours = sym_log(m)
        theirs = scipy.linalg.logm(m)
        assert np.linalg.norm(ours - theirs) < 1e-10
        # An asymmetric input is read as its symmetric part.
        a = m + 1e-3 * nprng.standard_normal((5, 5))
        assert np.array_equal(sym_log(a), sym_log((a + a.T) / 2))

    def test_exp_overflow_guard(self):
        with pytest.raises(OverflowError):
            sym_exp(np.diag([EXP_CAP + 1.0, 0.0]))
        with pytest.raises(ValueError):  # a non-finite entry is no overflow
            sym_exp(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        s = random_sym(rng, 3)
        s *= min(1.0, 6.0 / max(np.abs(np.linalg.eigvalsh(s))))  # condition <= ~1e6
        back = sym_log(sym_exp(s))
        assert np.linalg.norm(back - s) <= 1e-10 * max(1.0, np.linalg.norm(s))


class TestDistances:
    def test_le_self_distance_zero(self, nprng):
        m = random_spd(nprng, 3)
        assert dist_log_euclidean(m, m) == 0.0

    def test_le_diagonal_example(self):
        assert abs(dist_log_euclidean(np.diag([np.e, 1.0]), np.eye(2)) - 1.0) < 1e-14

    def test_le_triangle_inequality(self, nprng):
        for _ in range(50):
            x, y, z = (random_spd(nprng, 3) for _ in range(3))
            dxz = dist_log_euclidean(x, z)
            dxy = dist_log_euclidean(x, y)
            dyz = dist_log_euclidean(y, z)
            assert dxz <= dxy + dyz + 1e-10

    def test_le_dimension_mismatch(self, nprng):
        with pytest.raises(DimensionMismatch):
            dist_log_euclidean(random_spd(nprng, 2), random_spd(nprng, 3))
        with pytest.raises(DimensionMismatch):
            dist_log_euclidean(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_ai_self_distance_zero(self, nprng):
        m = random_spd(nprng, 4)
        assert dist_affine_invariant(m, m) < 1e-12

    def test_ai_equals_le_for_commuting(self):
        x, y = np.diag([4.0, 1.0]), np.diag([1.0, 1.0])
        assert abs(dist_affine_invariant(x, y) - dist_log_euclidean(x, y)) < 1e-12

    def test_ai_affine_invariance(self, nprng):
        for _ in range(20):
            x, y = random_spd(nprng, 3), random_spd(nprng, 3)
            g = nprng.standard_normal((3, 3))
            while abs(np.linalg.det(g)) < 0.1:
                g = nprng.standard_normal((3, 3))
            base = dist_affine_invariant(x, y)
            moved = dist_affine_invariant(g @ x @ g.T, g @ y @ g.T)
            assert abs(base - moved) <= 1e-8 * max(1.0, base)

    def test_ai_equals_cost_matrix_entry(self, nprng):
        for _ in range(10):
            x, y = random_spd(nprng, 4), random_spd(nprng, 4)
            cost = build_cost_matrix(EmpiricalSpdMeasure(x[None]), EmpiricalSpdMeasure(y[None]),
                                     "affine_invariant", 1.0)
            assert dist_affine_invariant(x, y) == cost.entries[0, 0]


class TestLogFrechetDerivative:
    def test_identity_base_point(self, nprng):
        h = random_sym(nprng, 4)
        out = log_frechet_derivative(np.eye(4), h)
        assert np.allclose(out, h, atol=1e-12)

    def test_linearity(self, nprng):
        m = random_spd(nprng, 4)
        h1, h2 = random_sym(nprng, 4), random_sym(nprng, 4)
        lhs = log_frechet_derivative(m, 2.0 * h1 - 3.0 * h2)
        rhs = 2.0 * log_frechet_derivative(m, h1) - 3.0 * log_frechet_derivative(m, h2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    @staticmethod
    def _fd_oracle(m, h, eps=1e-5):
        plus = scipy.linalg.logm(m + eps * h)
        minus = scipy.linalg.logm(m - eps * h)
        return (plus - minus) / (2.0 * eps)

    def test_matches_finite_differences(self, nprng):
        for _ in range(20):
            m = random_spd(nprng, 4)
            h = random_sym(nprng, 4)
            ours = log_frechet_derivative(m, h)
            oracle = self._fd_oracle(m, h)
            assert np.linalg.norm(ours - oracle) / np.linalg.norm(oracle) <= 1e-6

    def test_near_degenerate_spectrum(self, nprng):
        # Two eigenvalues within 1e-7 of each other.
        q = np.linalg.qr(nprng.standard_normal((4, 4)))[0]
        w = np.array([0.5, 1.0, 1.0 + 1e-7, 3.0])
        m = (q * w) @ q.T
        h = random_sym(nprng, 4)
        ours = log_frechet_derivative(m, h)
        oracle = self._fd_oracle(m, h)
        assert np.linalg.norm(ours - oracle) / np.linalg.norm(oracle) <= 1e-6

    def test_exp_derivative_inverse_relation(self, nprng):
        # Dexp at S is the inverse map of Dlog at exp(S).
        s = random_sym(nprng, 3)
        h = random_sym(nprng, 3)
        m = sym_exp(s)
        forward = exp_frechet_adjoint(s, h)
        back = log_frechet_derivative(m, forward)
        assert np.linalg.norm(back - h) <= 1e-9 * max(1.0, np.linalg.norm(h))


def _generators(seed, count=500, max_norm=30.0, skew=True):
    """``count`` pairs (K, G): K a random skew (or symmetric) generator of
    size 2..20 and Frobenius norm up to ``max_norm``, G a random direction."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 21))
        z = rng.standard_normal((d, d))
        k = 0.5 * (z - z.T) if skew else symmetrize(z)
        yield k * (rng.uniform(0.0, max_norm) / np.linalg.norm(k)), rng.standard_normal((d, d))


def expm(k):
    return exp_stack(k[None])[0]


class TestExpm:
    """The one exponential of symmetric and skew generators, with scipy's
    Pade ``expm`` and ``expm_frechet`` as the reference."""

    @staticmethod
    def _assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rotations_match_scipy(self):
        for k, g in _generators(90):
            self._assert_close(expm(k), scipy.linalg.expm(k))
            # The adjoint of the derivative at K is the derivative at K^T.
            self._assert_close(exp_frechet_adjoint(k, g),
                               scipy.linalg.expm_frechet(k.T, g, compute_expm=False))

    def test_symmetric_generators_match_scipy(self):
        for s, g in _generators(91, count=100, max_norm=5.0, skew=False):
            self._assert_close(expm(s), scipy.linalg.expm(s))
            self._assert_close(exp_frechet_adjoint(s, g),
                               scipy.linalg.expm_frechet(s, g, compute_expm=False))

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_zero_generator_is_exact(self, d, nprng):
        g = nprng.standard_normal((d, d))
        assert np.array_equal(expm(np.zeros((d, d))), np.eye(d))
        assert np.array_equal(exp_frechet_adjoint(np.zeros((d, d)), g), g)

    @pytest.mark.parametrize("d", [3, 5, 20])
    def test_angles_give_a_rotation_or_overflow(self, d):
        # An angle float64 cannot resolve raises; every rotation returned
        # is orthogonal to 1e-12.
        z = np.random.default_rng(92 + d).standard_normal((d, d))
        unit = 0.5 * (z - z.T) / np.linalg.norm(0.5 * (z - z.T))
        raised = []
        for e in range(101):
            try:
                r = expm(unit * 10.0**e)
            except OverflowError:
                raised.append(e)
                continue
            assert np.max(np.abs(r.T @ r - np.eye(d))) <= 1e-12, e
        assert raised and min(raised) > 6

    def test_loewner_limits_are_silent_and_overflows_warn(self):
        # The diagonal and subnormal imaginary gaps, where numpy's complex division
        # overflows, take the limit e^{w_i} without a warning; an entry past exp's
        # range still warns, whether expm1 of the gap or exp of an eigenvalue overflows.
        w = np.array([[0.0 + 0.0j, 5e-324j, 1.0 + 1e-320j]])
        g = _exp_divided_differences(w)
        assert np.all(np.isfinite(g))
        assert np.array_equal(np.diagonal(g[0]), np.exp(w[0]))
        assert g[0, 0, 1] == np.exp(w[0, 0]) and g[0, 1, 0] == np.exp(w[0, 1])
        for w in (np.array([[-100.0, 700.0]]), np.array([[710.0, 710.5]])):
            with pytest.warns(RuntimeWarning, match="overflow"):
                _exp_divided_differences(w)


def _daleckii_krein_einsum(q, g, h):
    # The sandwich as two einsums, before it became batched matmuls.
    inner = np.einsum("bki,bkl,blj->bij", q, h, q)
    return np.einsum("bik,bkl,bjl->bij", q, g * inner, q)


class TestDaleckiiKreinSandwich:
    # The matmul form sums in another order than the einsum; it must agree
    # to 1e-13 relative to the largest entry, at the shapes the adaptation
    # and the Wishart experiments use.
    @pytest.mark.parametrize("divided", [_log_divided_differences, _exp_divided_differences],
                             ids=["log", "exp"])
    @pytest.mark.parametrize("d", [5, 20])
    def test_matches_einsum_form(self, d, divided):
        rng = np.random.default_rng(70 + d)
        w, q = np.linalg.eigh(wishart_stack(RngState(71), 200, d, 40))
        h = symmetrize(rng.standard_normal((200, d, d)))
        g = divided(w)
        want = _daleckii_krein_einsum(q, g, h)
        got = _daleckii_krein(q, g, h)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _udu_by_elimination(mats):
    """Independent oracle: backward column elimination (bottom-right pivot
    first), the UDU^T analogue of the LDL^T algorithm."""
    m = np.asarray(mats, dtype=float)
    b, d, _ = m.shape
    u = np.broadcast_to(np.eye(d), (b, d, d)).copy()
    diag = np.zeros((b, d))
    for j in range(d - 1, -1, -1):
        tail = slice(j + 1, d)
        diag[:, j] = m[:, j, j] - np.sum(u[:, j, tail] ** 2 * diag[:, tail], axis=-1)
        if j > 0:
            acc = np.einsum("bik,bk,bk->bi", u[:, :j, tail], diag[:, tail], u[:, j, tail])
            u[:, :j, j] = (m[:, :j, j] - acc) / diag[:, j, None]
    return u, diag


def _spd_with_condition(rng, count, d, cond):
    q = np.linalg.qr(rng.standard_normal((count, d, d)))[0]
    w = np.exp(rng.uniform(0.0, np.log(cond), (count, d)))
    w[:, 0], w[:, -1] = 1.0, cond
    a = (q * w[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (a + np.swapaxes(a, 1, 2))


class TestUdu:
    def test_matches_elimination_oracle(self, nprng):
        for d in (1, 2, 5, 10):
            for cond in (1.0, 10.0, 100.0):
                mats = _spd_with_condition(nprng, 40, d, cond)
                u, diag = udu_stack(mats)
                u_ref, diag_ref = _udu_by_elimination(mats)
                assert np.max(np.abs(u - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))
                assert np.max(np.abs(diag - diag_ref)) <= 1e-13 * np.max(diag_ref)

    def test_stack_with_one_indefinite_raises(self, nprng):
        mats = _spd_with_condition(nprng, 8, 4, 10.0)
        mats[5] = np.diag([1.0, 2.0, -0.5, 3.0])
        with pytest.raises(NotPositiveDefinite):
            udu_stack(mats)

    def test_diagonal_input(self):
        u, d = udu_decompose(np.diag([3.0, 5.0, 7.0]))
        assert np.array_equal(u, np.eye(3))
        assert np.array_equal(d, np.array([3.0, 5.0, 7.0]))

    def test_two_by_two_example(self):
        u, d = udu_decompose(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert np.array_equal(u, np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.array_equal(d, np.ones(2))

    def test_reconstruction_random(self, nprng):
        for _ in range(20):
            m = random_spd(nprng, 5)
            u, d = udu_decompose(m)
            rebuilt = (u * d) @ u.T
            assert np.linalg.norm(rebuilt - m) / np.linalg.norm(m) <= 1e-10
            assert np.array_equal(np.diag(u), np.ones(5))
            assert np.array_equal(u, np.triu(u))
            assert np.all(d > 0)

    def test_batch_matches_single(self, nprng):
        mats = np.stack([random_spd(nprng, 4) for _ in range(6)])
        us, ds = udu_stack(mats)
        for k in range(6):
            u, d = udu_decompose(mats[k])
            assert np.array_equal(us[k], u)
            assert np.array_equal(ds[k], d)

    def test_rejects_indefinite(self):
        for diag in ([1.0, -1.0], [1.0, -0.5], [1.0, 0.0]):
            with pytest.raises(NotPositiveDefinite):
                udu_decompose(np.diag(diag))
            with pytest.raises(NotPositiveDefinite):
                sym_log(np.diag(diag))


class TestVectorization:
    def test_isometry(self, nprng):
        s = random_sym(nprng, 5)
        t = random_sym(nprng, 5)
        vs, vt = vech_isometric(s), vech_isometric(t)
        assert abs(vs @ vt - np.sum(s * t)) < 1e-12 * max(1.0, abs(np.sum(s * t)))

    def test_roundtrip(self, nprng):
        s = random_sym(nprng, 4)
        assert np.allclose(unvech_isometric(vech_isometric(s)), s, atol=1e-14)


def _einsum_reconstruct(w, q):
    return np.einsum("bik,bk,bjk->bij", q, w, q)


def _plain_sq_dists(x, y):
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _two_pair_sq_dists(x, y):
    """Each pair summed inside a two-pair einsum, the order every block of
    pairwise_sq_dists keeps: einsum sums a lone (1, 1, D) pair in another."""
    out = np.empty((len(x), len(y)))
    for i, j in np.ndindex(out.shape):
        diff = np.stack([x[i] - y[j]] * 2)[None]
        out[i, j] = np.einsum("ijk,ijk->ij", diff, diff)[0, 0]
    return out


def _whitened_ai_dists(x, y):
    """Affine-invariant distances from one whitened (n, m, d, d) stack."""
    w, q = np.linalg.eigh(x)
    inv_sqrts = (q * (1.0 / np.sqrt(w))[:, None, :]) @ np.swapaxes(q, 1, 2)
    w = np.linalg.eigvalsh(symmetrize(inv_sqrts[:, None] @ y @ inv_sqrts[:, None]))
    if np.any(w[..., 0] <= linalg.pd_tolerance(w)):
        raise NotPositiveDefinite("whitened matrix lost positive definiteness")
    return np.sqrt(np.sum(np.log(w) ** 2, axis=-1))


class TestStackReconstruction:
    def test_log_stack_matches_einsum_form(self, nprng):
        mats = np.stack([random_spd(nprng, 6) for _ in range(50)])
        w, q = np.linalg.eigh(mats)
        want = _einsum_reconstruct(np.log(w), q)
        got = log_stack(mats)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_exp_stack_matches_einsum_form(self, nprng):
        mats = np.stack([random_sym(nprng, 6) for _ in range(50)])
        w, q = np.linalg.eigh(mats)
        want = _einsum_reconstruct(np.exp(w), q)
        got = exp_stack(mats)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


    def test_scalar_functions_are_rows_of_the_stack_kernels(self, nprng):
        # 3000 6x6 matrices span several stack_map chunks; each scalar call
        # equals its matrix's row of the batched kernel bit for bit.
        mats = wishart_stack(RngState(8), 3000, 6, 12)
        logs = log_stack(mats)
        h = symmetrize(nprng.standard_normal(mats.shape))
        exps, frechet = exp_stack(logs), log_frechet_stack(*eigh_stack(mats), h)
        us, ds = udu_stack(mats)
        assert len(stack_map(lambda i, j: None, len(mats), 36)) > 1
        for k in range(len(mats)):
            assert np.array_equal(sym_log(mats[k]), logs[k])
            assert np.array_equal(sym_exp(logs[k]), exps[k])
            assert np.array_equal(log_frechet_derivative(mats[k], h[k]), frechet[k])
            u, d = udu_decompose(mats[k])
            assert np.array_equal(u, us[k]) and np.array_equal(d, ds[k])

    def test_blocks_match_one_batched_matmul(self):
        mats = wishart_stack(RngState(3), 3000, 20, 40)  # two blocks of Q
        w, q = np.linalg.eigh(mats)
        whole = (q * np.log(w)[:, None, :]) @ np.swapaxes(q, 1, 2)
        assert np.array_equal(reconstruct(np.log(w), q), whole)


class TestFusedLog:
    """log_stack decomposes and rebuilds each chunk in turn: the same bits,
    checks and messages as eigh_stack followed by reconstruct."""

    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_equals_eigh_stack_then_reconstruct(self, on_workers, d):
        mats = wishart_stack(RngState(d), 37, d, 2 * d)

        def both():
            w, q = eigh_stack(mats)
            return log_stack(mats), reconstruct(np.log(w), q)

        runs = on_workers(both)
        assert len(stack_map(lambda i, j: None, len(mats), d * d)) > 1  # split, as in the runs
        for fused, unfused in runs:
            assert fused.tobytes() == unfused.tobytes()
        assert_all_equal([fused for fused, _ in runs])

    def test_non_pd_matrix_in_a_later_chunk_raises_like_eigh_stack(self, on_workers):
        # Chunks of SPLIT_BUDGET // 16 = 4 matrices: 17 and 23 sit in the
        # fifth and sixth, and the first of them is named.
        mats = wishart_stack(RngState(6), 30, 4, 9)
        mats[17] = mats[23] = np.diag([1.0, 1.0, 1.0, -1.0])

        def messages():
            with pytest.raises(NotPositiveDefinite) as fused:
                log_stack(mats)
            with pytest.raises(NotPositiveDefinite) as unfused:
                eigh_stack(mats)
            return str(fused.value), str(unfused.value)

        runs = on_workers(messages)
        assert runs[0][0].startswith("matrix 17 in the stack has smallest eigenvalue")
        assert all(fused == unfused == runs[0][0] for fused, unfused in runs)

    def test_memory_is_the_output_plus_a_few_chunks(self):
        # (5000, 10, 10) is 4 MB, a chunk of _CHUNK_ELEMS elements 320 kB.
        # Measured at two workers: 9,372,676 bytes while the whole
        # eigenvector stack was formed before the rebuild, 5,156,534 now.
        mats = wishart_stack(RngState(1), 5000, 10, 20)
        logs, peak = peak_bytes(lambda: on_threads(2, lambda: log_stack(mats)))
        assert logs.shape == mats.shape
        assert peak < mats.nbytes + 6 * linalg._CHUNK_ELEMS * 8


class TestPairwiseSqDists:
    def test_bit_identical_on_kernel_features(self):
        basis = build_projection_basis(RngState(5), 3, 100)
        flat = np.stack([quantile_feature(wishart_measure(s, 30, 3), basis).flat()
                         for s in range(25)])
        assert flat.shape[1] == 10_000  # several column blocks per row
        assert np.array_equal(pairwise_sq_dists(flat, flat), _plain_sq_dists(flat, flat))
        assert np.array_equal(pairwise_sq_dists(flat[:7], flat), _plain_sq_dists(flat[:7], flat))

    @pytest.mark.parametrize("shape", [(40, 10_000), (123, 77), (7, 13), (1, 5)])
    def test_same_array_twice_mirrors_bit_for_bit(self, shape):
        # With y is x only the blocks on or above the diagonal are formed;
        # the mirrored result must equal what an equal copy of x gives.
        x = np.random.default_rng(shape[0]).standard_normal(shape)
        got = pairwise_sq_dists(x, x)
        assert np.array_equal(got, pairwise_sq_dists(x, x.copy()))
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_one_column_of_many_features_matches_unblocked(self, n):
        # Past 8192 features einsum sums a single pair in another order, so
        # a one-row chunk against one column borrows a neighbouring row.
        rng = np.random.default_rng(n)
        x, y = rng.standard_normal((n, 10_000)), rng.standard_normal((1, 10_000))
        assert np.array_equal(pairwise_sq_dists(x, y), _plain_sq_dists(x, y))

    def test_bit_identical_on_adaptation_vech_logs(self):
        vs = vech_isometric(log_stack(wishart_stack(RngState(1), 150, 20, 40)))
        vt = vech_isometric(log_stack(wishart_stack(RngState(2), 120, 20, 40)))
        assert np.array_equal(pairwise_sq_dists(vs, vt), _plain_sq_dists(vs, vt))

    @pytest.mark.parametrize("budget", [None, SPLIT_BUDGET], ids=["default", "split"])
    @pytest.mark.parametrize("n, m, dim", [
        (40, None, 10_000), (30, 25, 10), (7, None, 13), (1, None, 5), (5, 1, 10_000),
        (3, 3, 9000), (4, 101, 20_000),
    ])  # m None: y is x.  (4, 101, 20_000) once ended its rows in a lone pair.
    def test_every_pair_summed_as_in_a_two_pair_block(self, monkeypatch, budget, n, m, dim):
        if budget is not None:
            monkeypatch.setattr(linalg, "_CHUNK_ELEMS", budget)
        rng = np.random.default_rng(n * dim)
        x = rng.standard_normal((n, dim))
        y = x if m is None else rng.standard_normal((m, dim))
        assert np.array_equal(pairwise_sq_dists(x, y), _two_pair_sq_dists(x, y))


class TestPairwiseAiDists:
    @pytest.mark.parametrize("budget", [None, SPLIT_BUDGET], ids=["default", "split"])
    @pytest.mark.parametrize("n, m, d", [(9, 7, 3), (1, 1, 4), (3, 401, 10), (2, 3, 150)])
    def test_column_blocks_match_one_whitened_stack(self, monkeypatch, budget, n, m, d):
        if budget is not None:
            monkeypatch.setattr(linalg, "_CHUNK_ELEMS", budget)
        x, y = wishart_stack(RngState(n), n, d, 2 * d), wishart_stack(RngState(m), m, d, 2 * d)
        assert np.array_equal(pairwise_ai_dists(x, y), _whitened_ai_dists(x, y))

    @pytest.mark.parametrize("budget", [None, SPLIT_BUDGET], ids=["default", "split"])
    def test_indefinite_matrix_in_last_block_raises_the_same(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(linalg, "_CHUNK_ELEMS", budget)
        x, y = wishart_stack(RngState(1), 3, 4, 9), wishart_stack(RngState(2), 10, 4, 9)
        y[9] = np.diag([1.0, 1.0, 1.0, -1.0])
        errors = []
        for fn in (pairwise_ai_dists, _whitened_ai_dists):
            with pytest.raises(NotPositiveDefinite) as exc:
                fn(x, y)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_memory_is_bounded_in_the_column_count(self):
        # A whole (1, 5000, 20, 20) row of whitened matrices is 16 MB, and
        # one row held three of them; a column block holds _CHUNK_ELEMS
        # elements, so two workers hold a few blocks of 320 kB.
        x, y = wishart_stack(RngState(1), 4, 20, 40), wishart_stack(RngState(2), 5000, 20, 40)
        dists, peak = peak_bytes(lambda: on_threads(2, lambda: pairwise_ai_dists(x, y)))
        assert dists.shape == (4, 5000)
        assert peak < 16 * linalg._CHUNK_ELEMS * 8


class TestStackMap:
    """Chunk boundaries come from the element budget alone, so every pooled
    result equals the serial one bit for bit."""

    def test_first_failing_chunk_raises_after_every_chunk_ran(self, monkeypatch):
        monkeypatch.setattr(linalg, "_CHUNK_ELEMS", 1)
        done = []

        def chunk(start, stop):
            if start == 2:
                time.sleep(0.05)  # chunk 4 fails first in time
            if start in (2, 4):
                raise ValueError(f"chunk {start}")
            done.append(start)

        with pytest.raises(ValueError, match="^chunk 2$"):
            on_threads(3, lambda: stack_map(chunk, 6, 1))
        assert sorted(done) == [0, 1, 3, 5]

    @pytest.mark.parametrize("workers, count", [(3, 1), (1, 6)], ids=["one-chunk", "one-worker"])
    def test_one_chunk_or_one_worker_runs_inline(self, monkeypatch, workers, count):
        monkeypatch.setattr(linalg, "_CHUNK_ELEMS", 1)
        threads = set()
        on_threads(workers, lambda: stack_map(lambda i, j: threads.add(threading.get_ident()), count, 1))
        assert threads == {threading.get_ident()}

    def test_caller_is_one_of_two_workers(self, monkeypatch):
        # At 2 workers the pool holds one thread; the caller is the other.
        monkeypatch.setattr(linalg, "_CHUNK_ELEMS", 1)
        threads = set()
        on_threads(2, lambda: stack_map(lambda i, j: threads.add(threading.get_ident()), 8, 1))
        pool = linalg._pools[(os.getpid(), 2)]
        assert pool._max_workers == 1 and len(pool._threads) == 1
        assert threads <= {threading.get_ident()} | {t.ident for t in pool._threads}

    @pytest.mark.parametrize("text", ["abc", "1.5", "0", "-3", ""])
    def test_environment_count_that_is_no_integer_is_rejected(self, monkeypatch, text):
        # The CLI's --threads rule: a positive integer.  The CLI turns the
        # same values into a usage error before any stack map runs.
        monkeypatch.setenv("SPDSLICED_THREADS", text)
        with pytest.raises(ValueError, match=f"SPDSLICED_THREADS must be a positive integer, "
                                             f"got {text!r}"):
            stack_map(lambda i, j: None, 3, 1)

    def test_results_come_back_in_chunk_order(self, monkeypatch):
        monkeypatch.setattr(linalg, "_CHUNK_ELEMS", 2)
        assert on_threads(3, lambda: stack_map(lambda i, j: (i, j), 7, 1)) == [
            (0, 2), (2, 4), (4, 6), (6, 7)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        # The parent's pool threads do not exist in a forked child; a child
        # that reused the pool would wait forever (here: until the alarm).
        monkeypatch.setattr(linalg, "_CHUNK_ELEMS", 1)
        assert on_threads(2, lambda: stack_map(lambda i, j: i, 4, 1)) == [0, 1, 2, 3]
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)
            os._exit(on_threads(2, lambda: stack_map(lambda i, j: i, 4, 1)) != [0, 1, 2, 3])
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0

    def test_maps_from_many_threads_at_once(self, monkeypatch):
        # Six callers race to create the pool and share its four workers;
        # every chunk writes only its own slice of its caller's output.
        monkeypatch.setattr(linalg, "_CHUNK_ELEMS", 64)
        monkeypatch.setenv("SPDSLICED_THREADS", "4")
        mats = wishart_stack(RngState(7), 40, 4, 9)
        expected = on_threads(1, lambda: log_stack(mats))
        results = [None] * 6

        def work(k):
            results[k] = log_stack(mats)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(np.array_equal(r, expected) for r in results)

    def test_eigh_log_exp_stacks(self, on_workers):
        mats = wishart_stack(RngState(3), 21, 4, 9)
        sym = log_stack(mats)
        w, q = np.linalg.eigh(mats)
        assert_all_equal([(w, q)] + on_workers(lambda: eigh_stack(mats)))
        assert_all_equal(on_workers(lambda: log_stack(mats)))
        assert_all_equal(on_workers(lambda: exp_stack(sym)))

    def test_pairwise_dists(self, on_workers):
        x, y = wishart_stack(RngState(4), 9, 3, 7), wishart_stack(RngState(5), 7, 3, 7)
        vx, vy = vech_isometric(log_stack(x)), vech_isometric(log_stack(y))
        assert_all_equal(on_workers(lambda: pairwise_ai_dists(x, y)))
        assert_all_equal([_plain_sq_dists(vx, vy)] + on_workers(lambda: pairwise_sq_dists(vx, vy)))
        assert_all_equal([_plain_sq_dists(vx, vx)] + on_workers(lambda: pairwise_sq_dists(vx, vx)))

    def test_non_pd_matrix_in_last_chunk_names_its_index(self, on_workers):
        mats = wishart_stack(RngState(6), 10, 4, 9)
        mats[9] = np.diag([1.0, 1.0, 1.0, -1.0])

        def message():
            with pytest.raises(NotPositiveDefinite) as exc:
                eigh_stack(mats)
            return str(exc.value)

        messages = on_workers(message)
        assert messages[0].startswith("matrix 9 in the stack")
        assert len(set(messages)) == 1
