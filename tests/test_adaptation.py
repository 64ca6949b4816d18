import warnings
from dataclasses import replace

import numpy as np
import pytest

from spdsliced import (
    AdaptationConfig,
    EmpiricalSpdMeasure,
    LabeledSpdDataset,
    RngState,
    build_projection_basis,
    evaluate_transfer,
    loss_and_gradient_particles,
    loss_and_gradient_transform,
    run_adaptation,
    train_log_linear_classifier,
)
from spdsliced import adaptation
from spdsliced.adaptation import (
    ORDER,
    PARTICLE_LOSSES,
    _basis_for,
    _fixed_target,
    _log_loss,
    _multinomial_hessian,
    _plan_for,
    _sliced_evaluate,
    _sliced_gradient,
    _softmax,
    _transform_loss,
    _transport_evaluate,
    _transport_gradient,
    chain_images,
    chain_matrices,
)
from spdsliced.baselines import CostMatrix
from spdsliced.errors import (
    DimensionMismatch,
    MissingLabels,
    NotPositiveDefinite,
    SingularFeatures,
)
from spdsliced.experiments import _default_lr
from spdsliced.linalg import (
    eigh_stack,
    exp_frechet_adjoint,
    exp_stack,
    log_frechet_stack,
    log_stack,
    pairwise_sq_dists,
    reconstruct,
    symmetrize,
    vech_isometric,
)

from conftest import random_sym, wishart_measure


def sym_direction(rng, d):
    h = random_sym(rng, d)
    return h / np.linalg.norm(h)


def skew(z):
    return 0.5 * (z - z.T)


def skew_direction(rng, d):
    h = skew(rng.standard_normal((d, d)))
    return h / np.linalg.norm(h)


def project_like_chain_params(g):
    # The sym/skew projection each chain parameter object applied to its
    # matrix on construction, before the chain became one generator stack.
    return np.stack([symmetrize(g[0]), skew(g[1])])


class TestParticleLossGradient:
    def test_zero_on_identical(self):
        target = wishart_measure(1, 10, 3)
        basis = build_projection_basis(RngState(2), 3, 20)
        loss, grads = loss_and_gradient_particles(target.logs, target, basis)
        assert loss == 0.0
        assert np.all(grads == 0.0)

    def test_matches_finite_differences(self, nprng):
        target = wishart_measure(3, 9, 3)
        basis = build_projection_basis(RngState(4), 3, 25)
        state = wishart_measure(5, 9, 3).logs.copy()
        _, grads = loss_and_gradient_particles(state, target, basis)
        st = _fixed_target(target.logs, basis, "spdsw")
        eps = 1e-6
        for _ in range(10):
            i = int(nprng.integers(len(state)))
            h = sym_direction(nprng, 3)
            plus, minus = state.copy(), state.copy()
            plus[i] += eps * h
            minus[i] -= eps * h
            fd = (
                _sliced_evaluate(plus, st, basis, 2.0)[0]
                - _sliced_evaluate(minus, st, basis, 2.0)[0]
            ) / (2.0 * eps)
            an = float(np.sum(grads[i] * h))
            assert abs(fd - an) <= 1e-5 * max(abs(fd), 1e-10)

    def test_matches_finite_differences_unequal_sizes(self, nprng):
        target = wishart_measure(3, 7, 3)
        basis = build_projection_basis(RngState(4), 3, 25)
        state = wishart_measure(5, 10, 3).logs.copy()
        _, grads = loss_and_gradient_particles(state, target, basis)
        st = _fixed_target(target.logs, basis, "spdsw")
        eps = 1e-6
        for _ in range(6):
            i = int(nprng.integers(len(state)))
            h = sym_direction(nprng, 3)
            plus, minus = state.copy(), state.copy()
            plus[i] += eps * h
            minus[i] -= eps * h
            fd = (
                _sliced_evaluate(plus, st, basis, 2.0)[0]
                - _sliced_evaluate(minus, st, basis, 2.0)[0]
            ) / (2.0 * eps)
            an = float(np.sum(grads[i] * h))
            assert abs(fd - an) <= 1e-5 * max(abs(fd), 1e-10)

    def test_descent_step_decreases_loss(self):
        target = wishart_measure(6, 12, 3)
        basis = build_projection_basis(RngState(7), 3, 30)
        state = wishart_measure(8, 12, 3).logs.copy()
        loss, grads = loss_and_gradient_particles(state, target, basis)
        stepped = state - 0.05 * grads
        new_loss, _ = loss_and_gradient_particles(stepped, target, basis)
        assert new_loss < loss


class TestTransformLossGradient:
    def test_identity_chain_zero_loss(self):
        source = wishart_measure(1, 10, 3)
        target = EmpiricalSpdMeasure(source.points.copy())
        basis = build_projection_basis(RngState(2), 3, 20)
        loss, grads = loss_and_gradient_transform(np.zeros((2, 3, 3)), source, target, basis)
        assert loss <= 1e-24
        assert grads.shape == (2, 3, 3) and np.all(np.isfinite(grads))

    @staticmethod
    def _fixed_plan_cost(generators, source, target, plan):
        # The les/lew gradients differentiate the cost through a frozen
        # plan (envelope convention); the finite-difference oracle must
        # evaluate that same function.
        logs = log_stack(chain_images(chain_matrices(generators), source.points)[-1])
        diff = vech_isometric(logs)[:, None, :] - vech_isometric(target.logs)[None, :, :]
        return float(np.sum(plan * np.einsum("ijk,ijk->ij", diff, diff)))

    @pytest.mark.parametrize("loss_kind", ["spdsw", "lew", "les"])
    def test_matches_finite_differences(self, nprng, loss_kind):
        source = wishart_measure(3, 8, 3)
        target = wishart_measure(4, 8, 3)
        basis = build_projection_basis(RngState(5), 3, 20)
        params = np.stack([0.2 * random_sym(nprng, 3), 0.2 * skew(nprng.standard_normal((3, 3)))])
        epsilon = 5.0
        _, grads = loss_and_gradient_transform(
            params, source, target, basis, loss_kind=loss_kind, epsilon=epsilon
        )
        if loss_kind == "les":
            logs = log_stack(chain_images(chain_matrices(params), source.points)[-1])
            diff = vech_isometric(logs)[:, None, :] - vech_isometric(target.logs)[None, :, :]
            sq = np.einsum("ijk,ijk->ij", diff, diff)
            cost = CostMatrix(entries=sq, ground_metric="log_euclidean", power=2.0)
            plan = _plan_for(cost, "les", epsilon)

            def loss_at(prms):
                return self._fixed_plan_cost(prms, source, target, plan)
        else:
            fixed = _fixed_target(target.logs, basis, loss_kind)
            evaluate, _ = _transform_loss(
                source, *_log_loss(loss_kind, fixed, basis, 2.0, epsilon)
            )

            def loss_at(prms):
                return evaluate(prms)[0]

        eps = 1e-6
        for k in range(2):
            for _ in range(3):
                h = (sym_direction, skew_direction)[k](nprng, 3)

                def shifted(sign):
                    moved = params.copy()
                    moved[k] += sign * eps * h
                    return moved

                fd = (loss_at(shifted(+1)) - loss_at(shifted(-1))) / (2.0 * eps)
                an = float(np.sum(grads[k] * h))
                assert abs(fd - an) <= 1e-4 * max(abs(fd), 1e-8)

    def test_commuting_diagonal_closed_form(self, nprng):
        # Diagonal data with a diagonal translation parameter S: the step
        # shifts every log by exactly 2S, so the chain gradient must match
        # the particle gradient of the shifted logs pushed through that
        # linear map (factor 2, diagonal block).
        d = 3
        pts = np.stack([np.diag(nprng.uniform(0.5, 3.0, d)) for _ in range(8)])
        source = EmpiricalSpdMeasure(pts)
        target = wishart_measure(11, 8, d)
        basis = build_projection_basis(RngState(12), d, 30)
        s_diag = np.diag(nprng.uniform(-0.4, 0.4, d))
        params = np.stack([s_diag, np.zeros((d, d))])  # the rotation is the identity
        _, grads = loss_and_gradient_transform(params, source, target, basis)
        shifted_logs = log_stack(pts) + 2.0 * s_diag
        _, particle_grads = loss_and_gradient_particles(shifted_logs, target, basis)
        closed_form = 2.0 * particle_grads.sum(axis=0)
        got_diag = np.diag(grads[0])
        want_diag = np.diag(closed_form)
        assert np.max(np.abs(got_diag - want_diag)) <= 1e-8 * max(1.0, np.max(np.abs(want_diag)))

    def test_zero_generators_are_the_identity_chain(self):
        for w in chain_matrices(np.zeros((2, 3, 3))):
            assert np.array_equal(w, np.eye(3))

    def test_generators_of_another_shape_are_rejected(self):
        source = wishart_measure(1, 6, 3)
        basis = build_projection_basis(RngState(2), 3, 10)
        for shape in [(3, 3), (1, 3, 3), (2, 2, 2)]:
            with pytest.raises(DimensionMismatch):
                loss_and_gradient_transform(np.zeros(shape), source, source, basis)


class TestRunAdaptation:
    def test_zero_epochs_leaves_source_unchanged(self):
        source = LabeledSpdDataset(wishart_measure(1, 10, 3), np.zeros(10, dtype=int))
        target = wishart_measure(2, 10, 3)
        cfg = AdaptationConfig(epochs=0, num_projections=10, seed=3)
        trace = run_adaptation("particles", source, target, cfg)
        assert trace.losses.size == 1
        assert np.allclose(trace.final_source.measure.points, source.measure.points, atol=1e-10)

    def test_deterministic_trace(self):
        source = LabeledSpdDataset(wishart_measure(1, 8, 3), np.zeros(8, dtype=int))
        target = wishart_measure(2, 8, 3)
        cfg = AdaptationConfig(epochs=20, num_projections=30, learning_rate=50.0, seed=3)
        t1 = run_adaptation("particles", source, target, cfg)
        t2 = run_adaptation("particles", source, target, cfg)
        assert np.array_equal(t1.losses, t2.losses)
        assert np.array_equal(t1.final_source.measure.points, t2.final_source.measure.points)

    def test_safeguarded_losses_nonincreasing(self):
        source = LabeledSpdDataset(wishart_measure(4, 10, 3), np.zeros(10, dtype=int))
        target = wishart_measure(5, 10, 3)
        cfg = AdaptationConfig(epochs=60, num_projections=40, learning_rate=5000.0, seed=6)
        trace = run_adaptation("particles", source, target, cfg)
        assert np.all(np.diff(trace.losses) <= 1e-15)

    def test_transform_mode_starts_at_unadapted_loss(self):
        from spdsliced import spdsw

        source = LabeledSpdDataset(wishart_measure(4, 9, 3), np.zeros(9, dtype=int))
        target = wishart_measure(5, 9, 3)
        cfg = AdaptationConfig(epochs=5, num_projections=25, learning_rate=0.05, seed=8)
        trace = run_adaptation("transform", source, target, cfg)
        basis = build_projection_basis(RngState(8), 3, 25)
        unadapted = spdsw(source.measure, target, basis).value
        assert abs(trace.losses[0] - unadapted) <= 1e-12 * max(1.0, unadapted)

    def test_labels_and_count_preserved(self):
        labels = np.array([0, 1] * 5)
        source = LabeledSpdDataset(wishart_measure(1, 10, 3), labels)
        target = wishart_measure(2, 10, 3)
        cfg = AdaptationConfig(epochs=5, num_projections=10, learning_rate=100.0, seed=3)
        for mode in ("particles", "transform"):
            trace = run_adaptation(mode, source, target, cfg)
            assert np.array_equal(trace.final_source.labels, labels)
            assert len(trace.final_source.measure) == 10
            assert trace.final_source.measure.dim == 3

    def test_loss_kinds_all_run(self):
        source = LabeledSpdDataset(wishart_measure(1, 6, 2), np.zeros(6, dtype=int))
        target = wishart_measure(2, 6, 2)
        for loss in ("spdsw", "logsw", "lew", "les"):
            lr = 100.0 if loss in ("spdsw", "logsw") else 1.0
            cfg = AdaptationConfig(loss_kind=loss, epochs=3, num_projections=8,
                                   learning_rate=lr, seed=3, epsilon=5.0)
            trace = run_adaptation("particles", source, target, cfg)
            assert trace.losses[-1] <= trace.losses[0] + 1e-12

    def test_dimension_mismatch(self):
        source = LabeledSpdDataset(wishart_measure(1, 5, 2), np.zeros(5, dtype=int))
        target = wishart_measure(2, 5, 3)
        with pytest.raises(DimensionMismatch):
            run_adaptation("particles", source, target, AdaptationConfig(epochs=1))


class TestClassifier:
    @staticmethod
    def _separable_dataset(n_per=20):
        # Near-diagonal classes separated along the trace direction; the
        # tiny off-diagonal jitter keeps every feature column non-constant.
        rng = np.random.default_rng(5)
        pts = []
        for scale in (1.0, 4.0):
            for _ in range(n_per):
                m = np.diag(scale * rng.uniform(0.9, 1.1, 3))
                off = 1e-3 * rng.standard_normal((3, 3))
                pts.append(m + 0.5 * (off + off.T) * (1.0 - np.eye(3)))
        labels = np.array([0] * n_per + [1] * n_per)
        return LabeledSpdDataset(EmpiricalSpdMeasure(np.stack(pts)), labels)

    def test_separable_training_accuracy(self):
        data = self._separable_dataset()
        clf = train_log_linear_classifier(data)
        assert evaluate_transfer(clf, data) == 1.0

    def test_label_permutation_symmetry(self):
        data = self._separable_dataset()
        clf = train_log_linear_classifier(data)
        flipped = LabeledSpdDataset(data.measure, 1 - data.labels)
        clf_flipped = train_log_linear_classifier(flipped)
        p = clf.predict_proba(data.measure)
        q = clf_flipped.predict_proba(data.measure)
        assert np.allclose(p, q[:, ::-1], atol=1e-8)

    def test_random_guess_on_balanced_classes(self):
        # A zero-weight classifier ties every class; argmax picks the first.
        from spdsliced.adaptation import LogLinearClassifier

        measure = wishart_measure(3, 90, 3)
        labels = np.arange(90) % 3
        clf = LogLinearClassifier(
            weights=np.zeros((3, 7)), kept_columns=np.arange(6),
            classes=np.array([0, 1, 2]), dim=3,
        )
        acc = evaluate_transfer(clf, LabeledSpdDataset(measure, labels))
        assert abs(acc - 1.0 / 3.0) <= 3.0 * np.sqrt((1 / 3) * (2 / 3) / 90)

    def test_constant_columns_dropped_with_warning(self):
        rng = np.random.default_rng(6)
        pts = np.stack([np.diag([2.0, *rng.uniform(1.0, 3.0, 2)]) for _ in range(20)])
        labels = (np.arange(20) % 2).astype(int)
        data = LabeledSpdDataset(EmpiricalSpdMeasure(pts), labels)
        with pytest.warns(SingularFeatures):
            train_log_linear_classifier(data)

    def test_missing_labels(self):
        measure = wishart_measure(1, 6, 2)
        with pytest.raises(MissingLabels):
            train_log_linear_classifier(LabeledSpdDataset(measure, None))
        clf = train_log_linear_classifier(self._separable_dataset())
        with pytest.raises(MissingLabels):
            evaluate_transfer(clf, LabeledSpdDataset(wishart_measure(1, 6, 3), None))

    def test_dimension_mismatch_on_transfer(self):
        clf = train_log_linear_classifier(self._separable_dataset())
        bad = LabeledSpdDataset(wishart_measure(1, 6, 4), np.zeros(6, dtype=int))
        with pytest.raises(DimensionMismatch):
            evaluate_transfer(clf, bad)


# -- the fixed target is projected and sorted once per run ---------------------


def _scatter(grad_coords, basis):
    # The production gradient scatter, restated.
    return (grad_coords.T @ basis.flat).reshape(-1, basis.dim, basis.dim) / basis.count


def _scatter_einsum(grad_coords, basis):
    # The scatter as an einsum, before it became one matmul: the oracle of
    # the contraction itself.
    return np.einsum("ln,lab->nab", grad_coords, basis.directions) / basis.count


def _oracle_sliced_loss_grad(source_logs, target_logs, basis, p, want_grad, scatter=_scatter):
    # The loss as it was computed before the target was fixed per run: both
    # sides projected and sorted on every call, the source through argsort.
    from spdsliced.sliced import _merged_quantile_grid, _wpp_rows

    cs = basis.project_symmetric(source_logs)
    ct = basis.project_symmetric(target_logs)
    order_s = np.argsort(cs, axis=-1)
    ss = np.take_along_axis(cs, order_s, axis=-1)
    st = np.sort(ct, axis=-1)
    loss = float(np.mean(_wpp_rows(ss, st, p)))
    if not want_grad:
        return loss, None
    n, m = ss.shape[-1], st.shape[-1]
    if n == m:
        diff = ss - st
        g_sorted = (p / n) * np.abs(diff) ** (p - 1.0) * np.sign(diff)
    else:
        lens, ix, iy = _merged_quantile_grid(n, m)
        diff = ss[:, ix] - st[:, iy]
        contrib = lens * p * np.abs(diff) ** (p - 1.0) * np.sign(diff)
        g_sorted = np.zeros_like(ss)
        rows = np.arange(ss.shape[0])[:, None]
        np.add.at(g_sorted, (rows, ix[None, :]), contrib)
    grad_coords = np.empty_like(g_sorted)
    np.put_along_axis(grad_coords, order_s, g_sorted, axis=-1)
    return loss, scatter(grad_coords, basis)


def _use_oracle(monkeypatch):
    # Route run_adaptation and the public losses through the oracle: the
    # "fixed target" becomes the target logs, re-projected on every call,
    # and the sliced context is the source logs, which the oracle gradient
    # starts again from.
    from spdsliced import adaptation

    monkeypatch.setattr(adaptation, "_fixed_target", lambda logs, basis, kind: logs)
    monkeypatch.setattr(adaptation, "_sorted_coords", lambda logs, basis: logs)
    monkeypatch.setattr(
        adaptation, "_sliced_evaluate",
        lambda logs, tl, basis, p: (_oracle_sliced_loss_grad(logs, tl, basis, p, False)[0], logs),
    )
    monkeypatch.setattr(
        adaptation, "_sliced_gradient",
        lambda logs, tl, basis, p: _oracle_sliced_loss_grad(logs, tl, basis, p, True)[1],
    )


def _sliced_evaluate_and_gradient(logs, st, basis, p=2.0):
    # One evaluation, then the gradient from its context.
    loss, ctx = _sliced_evaluate(logs, st, basis, p)
    return loss, _sliced_gradient(ctx, st, basis, p)


_SLICED_KINDS = {"spdsw": "eig_uniform", "logsw": "vec_sphere"}


class TestFixedTargetMatchesPerCallOracle:
    @pytest.mark.parametrize("m", [10, 7], ids=["n-eq-m", "n-ne-m"])
    @pytest.mark.parametrize("kind", sorted(_SLICED_KINDS))
    def test_losses_and_gradients(self, kind, m, monkeypatch):
        basis = build_projection_basis(RngState(21), 3, 24, _SLICED_KINDS[kind])
        target = wishart_measure(22, m, 3)
        state = wishart_measure(23, 10, 3).logs.copy()
        fixed = _fixed_target(target.logs, basis, kind)
        source = wishart_measure(24, 10, 3)
        params = np.stack([0.1 * np.eye(3), np.zeros((3, 3))])
        got = [
            _sliced_evaluate_and_gradient(state, fixed, basis),
            (_sliced_evaluate(state, fixed, basis, 2.0)[0], None),
            loss_and_gradient_particles(state, target, basis),
            loss_and_gradient_transform(params, source, target, basis, loss_kind=kind),
        ]
        _use_oracle(monkeypatch)
        want = [
            _oracle_sliced_loss_grad(state, target.logs, basis, 2.0, True),
            (_oracle_sliced_loss_grad(state, target.logs, basis, 2.0, False)[0], None),
            loss_and_gradient_particles(state, target, basis),
            loss_and_gradient_transform(params, source, target, basis, loss_kind=kind),
        ]
        for (loss, grads), (want_loss, want_grads) in zip(got, want):
            assert loss == want_loss
            if want_grads is None:
                assert grads is None
            else:
                assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))

    @pytest.mark.parametrize("m", [10, 7], ids=["n-eq-m", "n-ne-m"])
    @pytest.mark.parametrize("mode, lr", [("particles", 50.0), ("transform", 0.05)])
    @pytest.mark.parametrize("kind", sorted(_SLICED_KINDS))
    def test_adapted_state(self, kind, mode, lr, m, monkeypatch):
        source = LabeledSpdDataset(wishart_measure(31, 10, 3), np.arange(10) % 2)
        target = wishart_measure(32, m, 3)
        cfg = AdaptationConfig(loss_kind=kind, epochs=6, num_projections=20,
                               learning_rate=lr, seed=33)
        got = run_adaptation(mode, source, target, cfg)
        _use_oracle(monkeypatch)
        want = run_adaptation(mode, source, target, cfg)
        assert np.array_equal(got.losses, want.losses)
        assert got.final_learning_rate == want.final_learning_rate
        assert np.array_equal(got.final_source.measure.points, want.final_source.measure.points)

    @pytest.mark.parametrize("mode", ["particles", "transform"])
    @pytest.mark.parametrize("kind", sorted(_SLICED_KINDS))
    def test_target_projected_once_per_run(self, kind, mode, monkeypatch):
        from spdsliced.sampling import ProjectionBasis

        source = LabeledSpdDataset(wishart_measure(41, 8, 3), np.arange(8) % 2)
        target = wishart_measure(42, 9, 3)
        projected = []
        real_project = ProjectionBasis.project_symmetric

        def counting_project(self, mats):
            projected.append(mats is target.logs)
            return real_project(self, mats)

        monkeypatch.setattr(ProjectionBasis, "project_symmetric", counting_project)
        cfg = AdaptationConfig(loss_kind=kind, epochs=4, num_projections=15,
                               learning_rate=0.05, seed=43)
        trace = run_adaptation(mode, source, target, cfg)
        assert trace.final_learning_rate == cfg.learning_rate  # no halving
        assert projected.count(True) == 1
        assert projected.count(False) == 1 + 4  # the source: once per evaluated state

    @pytest.mark.parametrize("kind", PARTICLE_LOSSES)
    def test_transform_mode_one_eigh_per_evaluated_state(self, kind, monkeypatch):
        from spdsliced import adaptation, linalg, sliced

        source = LabeledSpdDataset(wishart_measure(44, 8, 3), np.arange(8) % 2)
        target = wishart_measure(45, 9, 3)
        target.logs  # the measure's own cached logs, outside the run
        calls = {"eigh_stack": 0, "log_stack": 0}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(adaptation, "eigh_stack")
        counting(linalg, "log_stack")
        monkeypatch.setattr(sliced, "log_stack", linalg.log_stack)
        cfg = AdaptationConfig(loss_kind=kind, epochs=4, num_projections=15,
                               learning_rate=_default_lr("transform", kind, 8, 3), seed=46)
        trace = run_adaptation("transform", source, target, cfg)
        assert trace.final_learning_rate == cfg.learning_rate  # no halving
        assert calls == {"eigh_stack": 1 + 4, "log_stack": 0}


# -- the descent evaluates each state once -------------------------------------
#
# The oracle restates the descent as it was before: each epoch scored the
# candidate with a loss-only pass, then recomputed loss and gradient from
# scratch at the accepted state (a second projection and sort, transport
# plan, eigendecomposition).  Evaluating each state once must not change a
# single bit of the losses, the step size or the adapted points.


def _oracle_fixed_sliced_loss_grad(source_logs, st, basis, p, want_grad):
    from spdsliced.sliced import _merged_quantile_grid, _wpp_rows

    if not want_grad:
        ss = np.sort(basis.project_symmetric(source_logs), axis=-1)
        return float(np.mean(_wpp_rows(ss, st, p))), None
    cs = basis.project_symmetric(source_logs)
    order_s = np.argsort(cs, axis=-1)
    ss = np.take_along_axis(cs, order_s, axis=-1)
    loss = float(np.mean(_wpp_rows(ss, st, p)))
    n, m = ss.shape[-1], st.shape[-1]
    if n == m:
        diff = ss - st
        g_sorted = (p / n) * np.abs(diff) ** (p - 1.0) * np.sign(diff)
    else:
        lens, ix, iy = _merged_quantile_grid(n, m)
        diff = ss[:, ix] - st[:, iy]
        contrib = lens * p * np.abs(diff) ** (p - 1.0) * np.sign(diff)
        g_sorted = np.zeros_like(ss)
        rows = np.arange(ss.shape[0])[:, None]
        np.add.at(g_sorted, (rows, ix[None, :]), contrib)
    grad_coords = np.empty_like(g_sorted)
    np.put_along_axis(grad_coords, order_s, g_sorted, axis=-1)
    return loss, _scatter(grad_coords, basis)


def _oracle_transport_loss_grad(source_logs, target_logs, loss_kind, epsilon, want_grad):
    sq = pairwise_sq_dists(vech_isometric(source_logs), vech_isometric(target_logs))
    plan = _plan_for(CostMatrix(sq, "log_euclidean", 2.0), loss_kind, epsilon)
    loss = float(np.sum(plan * sq))
    if not want_grad:
        return loss, None
    pulled = (plan @ target_logs.reshape(len(target_logs), -1)).reshape(source_logs.shape)
    return loss, 2.0 * (plan.sum(axis=1)[:, None, None] * source_logs - pulled)


def _oracle_log_loss_grad(logs, target, basis, p, loss_kind, epsilon, want_grad):
    if loss_kind in ("spdsw", "logsw"):
        return _oracle_fixed_sliced_loss_grad(logs, target, basis, p, want_grad)
    return _oracle_transport_loss_grad(logs, target, loss_kind, epsilon, want_grad)


def _oracle_chain_matrices(generators):
    return [exp_stack(g[None])[0] for g in generators]


def _oracle_transform_loss_grad(generators, source, *args, contract=None):
    mats = _oracle_chain_matrices(generators)
    inputs = [source.points]
    for w in mats:
        inputs.append(w.T @ inputs[-1] @ w)
    w_eig, q_eig = eigh_stack(inputs[-1])
    loss, grad_logs = _oracle_log_loss_grad(reconstruct(np.log(w_eig), q_eig), *args, True)
    grad_pts = log_frechet_stack(w_eig, q_eig, grad_logs)
    grads = np.empty_like(generators)
    for k in (1, 0):
        x, w = inputs[k], mats[k]
        if contract is None:
            d = w.shape[0]
            grad_w = 2.0 * (np.swapaxes(x @ w, 0, 1).reshape(d, -1) @ grad_pts.reshape(-1, d))
        else:
            grad_w = contract(x, w, grad_pts)
        grads[k] = exp_frechet_adjoint(generators[k], grad_w)
        if k > 0:
            grad_pts = w @ grad_pts @ w.T
    return loss, project_like_chain_params(grads)


def _oracle_chain_loss_only(generators, source, *args):
    logs = log_stack(chain_images(_oracle_chain_matrices(generators), source.points)[-1])
    return _oracle_log_loss_grad(logs, *args, False)[0]


def _oracle_descend(state, loss_grad, loss_only, config, project=lambda cand: cand):
    # ``project`` restates what building a candidate did to it: transform
    # candidates were projected again, as chain parameter objects.
    def guarded_loss(candidate):
        if not config.safeguard:
            return loss_only(candidate)
        try:
            return loss_only(candidate)
        except (NotPositiveDefinite, OverflowError, FloatingPointError):
            return np.inf

    lr = config.learning_rate
    halvings = 0
    cur_loss = loss_only(state)
    losses = [cur_loss]
    for _ in range(config.epochs):
        _, grads = loss_grad(state)
        stepped = False
        while True:
            cand = project(state + -lr * grads)
            cand_loss = guarded_loss(cand)
            if not config.safeguard or cand_loss <= cur_loss:
                stepped = True
                break
            if halvings >= adaptation.MAX_HALVINGS:
                break
            lr *= 0.5
            halvings += 1
        if not stepped:
            losses.extend([cur_loss] * (config.epochs + 1 - len(losses)))
            break
        state = cand
        cur_loss = cand_loss
        losses.append(cur_loss)
    return state, np.array(losses), lr


def _oracle_run_adaptation(mode, source, target, config):
    """(losses, final learning rate, adapted points) of the two-evaluation
    descent."""
    measure = source.measure
    basis = _basis_for(config, measure.dim)
    args = (_fixed_target(target.logs, basis, config.loss_kind), basis, ORDER,
            config.loss_kind, config.epsilon)
    if mode == "particles":
        final, losses, lr = _oracle_descend(
            measure.logs.copy(),
            lambda s: _oracle_log_loss_grad(s, *args, True),
            lambda s: _oracle_log_loss_grad(s, *args, False)[0],
            config,
        )
        return losses, lr, EmpiricalSpdMeasure(exp_stack(final)).points
    final, losses, lr = _oracle_descend(
        np.zeros((2, measure.dim, measure.dim)),
        lambda gs: _oracle_transform_loss_grad(gs, measure, *args),
        lambda gs: _oracle_chain_loss_only(gs, measure, *args),
        config, project=project_like_chain_params,
    )
    mats = _oracle_chain_matrices(final)
    return losses, lr, EmpiricalSpdMeasure(chain_images(mats, measure.points)[-1]).points


def _assert_run_matches_oracle(mode, source, target, cfg):
    got = run_adaptation(mode, source, target, cfg)
    want_losses, want_lr, want_points = _oracle_run_adaptation(mode, source, target, cfg)
    assert np.array_equal(got.losses, want_losses)
    assert got.final_learning_rate == want_lr
    assert np.array_equal(got.final_source.measure.points, want_points)
    return got


class TestDescentMatchesTwoEvaluationOracle:
    @pytest.mark.parametrize("m", [10, 7], ids=["n-eq-m", "n-ne-m"])
    @pytest.mark.parametrize("mode", ["particles", "transform"])
    @pytest.mark.parametrize("kind", PARTICLE_LOSSES)
    def test_adapted_state(self, kind, mode, m):
        source = LabeledSpdDataset(wishart_measure(71, 10, 3), np.arange(10) % 2)
        target = wishart_measure(72, m, 3)
        cfg = AdaptationConfig(loss_kind=kind, epochs=8, num_projections=20,
                               learning_rate=_default_lr(mode, kind, 10, 3), seed=73,
                               epsilon=5.0)
        _assert_run_matches_oracle(mode, source, target, cfg)

    @pytest.mark.parametrize("mode, kind, lr, halvings", [
        ("particles", "spdsw", 5e4, None),
        ("transform", "lew", 50.0, None),
        ("particles", "les", 1e3, 2),
        ("transform", "logsw", 10.0, 3),
    ], ids=["particles-halves", "transform-halves", "particles-cap", "transform-cap"])
    def test_step_halving(self, mode, kind, lr, halvings, monkeypatch):
        source = LabeledSpdDataset(wishart_measure(74, 10, 3), np.arange(10) % 2)
        target = wishart_measure(75, 8, 3)
        if halvings is not None:
            monkeypatch.setattr(adaptation, "MAX_HALVINGS", halvings)
        cfg = AdaptationConfig(loss_kind=kind, epochs=8, num_projections=20, learning_rate=lr,
                               seed=76, epsilon=5.0)
        trace = _assert_run_matches_oracle(mode, source, target, cfg)
        assert trace.final_learning_rate < lr
        if halvings is not None:
            # Stopped at the cap: the loss is carried flat to the last epoch.
            assert trace.final_learning_rate == lr / 2**halvings
            assert trace.losses[-1] == trace.losses[-2]

    @pytest.mark.parametrize("mode, kind, lr", [("particles", "spdsw", 100.0),
                                                ("transform", "les", 0.01)])
    def test_without_safeguard(self, mode, kind, lr):
        source = LabeledSpdDataset(wishart_measure(77, 10, 3), np.arange(10) % 2)
        target = wishart_measure(78, 10, 3)
        cfg = AdaptationConfig(loss_kind=kind, epochs=8, num_projections=20, seed=79,
                               learning_rate=lr, safeguard=False)
        trace = _assert_run_matches_oracle(mode, source, target, cfg)
        assert trace.final_learning_rate == cfg.learning_rate

    @pytest.mark.parametrize("mode", ["particles", "transform"])
    @pytest.mark.parametrize("kind", PARTICLE_LOSSES)
    def test_overflowing_step_halves_or_raises(self, kind, mode, monkeypatch):
        # A step so large that the state or the cost overflows is "too
        # large" under the safeguard, and an OverflowError without it.
        source = LabeledSpdDataset(wishart_measure(80, 10, 3), np.arange(10) % 2)
        target = wishart_measure(81, 10, 3)
        monkeypatch.setattr(adaptation, "MAX_HALVINGS", 4)
        cfg = AdaptationConfig(loss_kind=kind, epochs=3, num_projections=20, seed=82,
                               learning_rate=1e300)
        trace = run_adaptation(mode, source, target, cfg)
        assert trace.final_learning_rate == 1e300 / 2**4
        assert np.all(trace.losses == trace.losses[0])
        with pytest.raises(OverflowError):
            run_adaptation(mode, source, target, replace(cfg, safeguard=False))

    @pytest.mark.parametrize("kind", PARTICLE_LOSSES)
    def test_overflowing_congruence_halves_without_warning(self, kind):
        # At this step exp(S) is finite for some losses but W^T C W is not:
        # the safeguard halves, and numpy's overflow stays silent.
        source = LabeledSpdDataset(wishart_measure(80, 10, 3), np.arange(10) % 2)
        target = wishart_measure(81, 10, 3)
        cfg = AdaptationConfig(loss_kind=kind, epochs=3, num_projections=20, seed=82,
                               learning_rate=1e6, epsilon=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = run_adaptation("transform", source, target, cfg)
        assert trace.final_learning_rate < cfg.learning_rate
        assert np.all(np.diff(trace.losses) <= 0.0)


# -- p = 2 runs on squares; the sort order is one flat index --------------------
#
# At p = 2 the loss squares each gap and the gradient is the gap itself,
# where the float powers |d|**2.0 and |d|**1.0 * sign(d) ran a pow loop for
# the same bits.  One exception: where ss - st is -0.0, the gradient entry
# is -0.0 and the float power's (sign(-0.0) = 0.0) was +0.0.  The two are
# equal as numbers and no state can tell them apart.

_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1.4e154, -1.4e154])


def _edge_rows(rng, rows, cols):
    # Random values across exponents, one in five replaced by an edge value:
    # +-0, the smallest subnormal and 1.4e154, whose square overflows.
    vals = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-320, 300, (rows, cols))
    edge = rng.random((rows, cols)) < 0.2
    vals[edge] = rng.choice(_EDGE_VALUES, int(edge.sum()))
    return vals


def _float_power_wpp_rows(xs, ys, p):
    from spdsliced.sliced import _merged_quantile_grid

    n, m = xs.shape[-1], ys.shape[-1]
    if n == m:
        return np.mean(np.abs(xs - ys) ** p, axis=-1)
    lens, ix, iy = _merged_quantile_grid(n, m)
    return (np.abs(xs[..., ix] - ys[..., iy]) ** p) @ lens


def _float_power_gradient(order_s, ss, st, basis, p):
    # The gradient through the float power and put_along_axis, from the
    # row-wise sort order.
    from spdsliced.sliced import _merged_quantile_grid

    n, m = ss.shape[-1], st.shape[-1]
    if n == m:
        diff = ss - st
        g_sorted = (p / n) * np.abs(diff) ** (p - 1.0) * np.sign(diff)
    else:
        lens, ix, iy = _merged_quantile_grid(n, m)
        diff = ss[:, ix] - st[:, iy]
        contrib = lens * p * np.abs(diff) ** (p - 1.0) * np.sign(diff)
        g_sorted = np.zeros_like(ss)
        np.add.at(g_sorted, (np.arange(ss.shape[0])[:, None], ix), contrib)
    grad_coords = np.empty_like(g_sorted)
    np.put_along_axis(grad_coords, order_s, g_sorted, axis=-1)
    return _scatter(grad_coords, basis)


def _same_bits(got, want):
    return np.array_equal(got.view(np.int64), want.view(np.int64))


_SHAPES = pytest.mark.parametrize("n, m", [(1, 1), (4, 4), (4, 3)],
                                  ids=["single", "n-eq-m", "n-ne-m"])


class TestSquareKernelsMatchFloatPower:
    @_SHAPES
    def test_wpp_rows(self, n, m):
        from spdsliced.sliced import _wpp_rows

        rng = np.random.default_rng(91)
        xs = np.sort(_edge_rows(rng, 25_000, n), axis=-1)  # 10^5 values at n = 4
        ys = np.sort(_edge_rows(rng, 25_000, m), axis=-1)
        with np.errstate(over="ignore"):
            got, want = _wpp_rows(xs, ys, 2.0), _float_power_wpp_rows(xs, ys, 2.0)
        assert np.isinf(want).any() and np.isfinite(want).any()
        assert (want == 0.0).any() and (want < 1e-300).sum() > (want == 0.0).sum()
        assert _same_bits(got, want)

    @_SHAPES
    def test_sliced_gradient(self, n, m):
        # A basis of one direction per coordinate (the identity, its count 1)
        # hands the scattered coordinates through unsummed: each entry is
        # compared, not a sum over the slices that could absorb it.
        from types import SimpleNamespace

        d = 10
        basis = SimpleNamespace(flat=np.eye(d * d), dim=d, count=1)
        rng = np.random.default_rng(92)
        cs = _edge_rows(rng, d * d, 1000 * n)
        st = np.sort(_edge_rows(rng, d * d, 1000 * m), axis=-1)
        order_s = np.argsort(cs, axis=-1)
        ss = np.take_along_axis(cs, order_s, axis=-1)
        flat = order_s + np.arange(0, cs.size, cs.shape[-1])[:, None]
        got = _sliced_gradient((flat, ss), st, basis, 2.0)
        want = _float_power_gradient(order_s, ss, st, basis, 2.0)
        assert np.array_equal(got, want)
        # The bits differ only at zeros (the sign-of-zero exception above).
        assert np.all((got.view(np.int64) == want.view(np.int64)) | (want == 0.0))
        tiny = np.abs(want) < 1e-300
        assert tiny.sum() > (want == 0.0).sum() and (np.abs(want) > 1e290).any()

    @pytest.mark.parametrize("m", [10, 7], ids=["n-eq-m", "n-ne-m"])
    @pytest.mark.parametrize("kind", sorted(_SLICED_KINDS))
    def test_order_three_matches_oracle(self, kind, m):
        basis = build_projection_basis(RngState(94), 3, 24, _SLICED_KINDS[kind])
        state = wishart_measure(95, 10, 3).logs.copy()
        fixed = _fixed_target(wishart_measure(96, m, 3).logs, basis, kind)
        loss, grads = _sliced_evaluate_and_gradient(state, fixed, basis, 3.0)
        want_loss, want = _oracle_fixed_sliced_loss_grad(state, fixed, basis, 3.0, True)
        assert loss == want_loss
        assert _same_bits(grads, want)


# -- each matmul contraction against the einsum it replaced ---------------------
#
# The matmul forms sum in another order than the einsums, so they agree to a
# tolerance, not bit for bit: 1e-13 relative to the largest entry.  Inputs
# have the shapes of the learning benchmark (L = 500, n = 200, d = 5).


def _assert_matches(got, want, tol=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _pull_einsum(plan, target_logs):
    return np.einsum("ij,jab->iab", plan, target_logs)


def _hessian_einsum(probs, x):
    n, k = probs.shape
    dplus = x.shape[1]
    hess = -np.einsum("nk,nl,na,nb->kalb", probs, probs, x, x) / n
    diag_blocks = np.einsum("nk,na,nb->kab", probs, x, x) / n
    for kk in range(k):
        hess[kk, :, kk, :] += diag_blocks[kk]
    return hess.reshape(k * dplus, k * dplus)


def _oracle_transform_grads(params, source, fixed, basis, loss_kind):
    # The transform gradient with the parameter contraction as its einsum.
    return _oracle_transform_loss_grad(
        params, source, fixed, basis, 2.0, loss_kind, 10.0,
        contract=lambda x, w, g: 2.0 * np.einsum("nab,bc,ncd->ad", x, w, g),
    )[1]


class TestContractionsMatchEinsumOracles:
    @pytest.mark.parametrize("m", [200, 150], ids=["n-eq-m", "n-ne-m"])
    @pytest.mark.parametrize("kind", sorted(_SLICED_KINDS))
    def test_sliced_gradient_scatter(self, kind, m):
        basis = build_projection_basis(RngState(51), 5, 500, _SLICED_KINDS[kind])
        state = wishart_measure(52, 200, 5, dof=40).logs
        target = wishart_measure(53, m, 5, dof=40, scale=2.0 * np.eye(5))
        fixed = _fixed_target(target.logs, basis, kind)
        loss, grads = _sliced_evaluate_and_gradient(state, fixed, basis)
        want_loss, want = _oracle_sliced_loss_grad(state, target.logs, basis, 2.0, True,
                                                   scatter=_scatter_einsum)
        assert loss == want_loss
        _assert_matches(grads, want)

    @pytest.mark.parametrize("kind", ["lew", "les"])
    def test_transport_pull(self, kind):
        source = wishart_measure(54, 200, 5, dof=40).logs
        target = wishart_measure(55, 200, 5, dof=40, scale=2.0 * np.eye(5)).logs
        loss, plan = _transport_evaluate(source, target, kind, 10.0)
        grads = _transport_gradient(source, plan, target)
        sq = pairwise_sq_dists(vech_isometric(source), vech_isometric(target))
        plan = _plan_for(CostMatrix(sq, "log_euclidean", 2.0), kind, 10.0)
        want = 2.0 * (plan.sum(axis=1)[:, None, None] * source - _pull_einsum(plan, target))
        assert loss == float(np.sum(plan * sq))
        _assert_matches(grads, want)

    @pytest.mark.parametrize("kind", sorted(_SLICED_KINDS))
    def test_transform_gradient(self, kind):
        rng = np.random.default_rng(56)
        basis = build_projection_basis(RngState(57), 5, 500, _SLICED_KINDS[kind])
        source = wishart_measure(58, 200, 5, dof=40)
        fixed = _fixed_target(wishart_measure(59, 200, 5, dof=40).logs, basis, kind)
        params = np.stack([0.1 * random_sym(rng, 5), skew(0.1 * rng.standard_normal((5, 5)))])
        evaluate, gradient = _transform_loss(
            source, *_log_loss(kind, fixed, basis, 2.0, 10.0)
        )
        grads = gradient(params, evaluate(params)[1])
        for got, want in zip(grads, _oracle_transform_grads(params, source, fixed, basis, kind)):
            _assert_matches(got, want)

    @pytest.mark.parametrize("k", [2, 3])
    def test_classifier_hessian(self, k):
        rng = np.random.default_rng(60 + k)
        feats = vech_isometric(wishart_measure(61, 200, 5, dof=40).logs)
        x = np.hstack([feats, np.ones((200, 1))])
        probs = _softmax(x @ rng.standard_normal((k, x.shape[1])).T)
        _assert_matches(_multinomial_hessian(probs, x), _hessian_einsum(probs, x))
