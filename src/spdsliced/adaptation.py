"""Domain adaptation on distributions of SPD matrices.

A source distribution is aligned onto a target by minimizing a transport
discrepancy, either over the source particles themselves (in log
coordinates) or over a chain of structured transformations C -> W^T C W.
The descent evaluates each state once: the projection and sort, the
transport plan and, in transform mode, the eigendecomposition computed to
score an accepted step are reused for the gradient at it.
A log-linear classifier trained on the (adapted) source then measures
transfer to the target.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingLabels,
    NotConverged,
    NotPositiveDefinite,
    SingularFeatures,
)
from .baselines import CostMatrix, exact_wasserstein, sinkhorn
from .linalg import (
    eigh_stack,
    exp_frechet_sym,
    exp_stack,
    log_frechet_stack,
    pairwise_sq_dists,
    reconstruct,
    symmetrize,
    vech_isometric,
)
from .sampling import ProjectionBasis, RngState, build_projection_basis
from .sliced import (
    SLICED_ESTIMATORS,
    EmpiricalSpdMeasure,
    _merged_quantile_grid,
    _wpp_rows,
)

PARTICLE_LOSSES = ("spdsw", "logsw", "lew", "les")


@dataclass(frozen=True)
class LabeledSpdDataset:
    """An empirical SPD measure with optional integer class labels."""

    measure: EmpiricalSpdMeasure
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (len(self.measure),):
                raise ValueError("labels must have one entry per point")
            if np.any(lab < 0):
                raise ValueError("labels must be nonnegative integers")
            lab.flags.writeable = False
            object.__setattr__(self, "labels", lab)


# Unconstrained chain parametrization: translations through the matrix
# exponential of a symmetric matrix, rotations through the exponential of
# a skew-symmetric one.  Both maps are onto, and gradients live in plain
# Euclidean coordinates.


@dataclass(frozen=True)
class ChainParam:
    kind: str  # "translation" | "rotation"
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in ("translation", "rotation"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        m = np.asarray(self.matrix, dtype=float)
        m = symmetrize(m) if self.kind == "translation" else 0.5 * (m - m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def materialize(self) -> np.ndarray:
        if self.kind == "translation":
            return exp_stack(self.matrix[None])[0]
        from scipy.linalg import expm  # scipy loads only where a command runs it

        return expm(self.matrix)


def identity_chain_params(d: int, kinds=("translation", "rotation")) -> list[ChainParam]:
    return [ChainParam(kind, np.zeros((d, d))) for kind in kinds]


def apply_chain_matrices(mats: list[np.ndarray], points: np.ndarray) -> np.ndarray:
    out = points
    for w in mats:
        out = w.T @ out @ w
    return out


# -- loss/gradient building blocks -------------------------------------------
#
# Each loss is a pair: ``evaluate(state)`` returns the loss and a context of
# what it computed (sort order, transport plan, eigendecomposition), and
# ``gradient(state, ctx)`` finishes the gradient from that context, so a
# state that is both scored and differentiated is evaluated once.


def _finite(x):
    """``x`` itself, or OverflowError when it holds a non-finite value: a
    step overflowed, which the safeguard treats as "too large"."""
    if not np.all(np.isfinite(x)):
        raise OverflowError("adaptation step overflowed to non-finite values")
    return x


def _sorted_coords(logs: np.ndarray, basis: ProjectionBasis) -> np.ndarray:
    """Projected coordinates of a log stack, sorted along each slice: (L, n)."""
    return np.sort(basis.project_symmetric(logs), axis=-1)


def _fixed_target(target_logs: np.ndarray, basis: ProjectionBasis | None, loss_kind: str):
    """What a loss reads of the fixed target, computed once per run: the
    sorted projected coordinates (L, m) for a sliced loss, the log stack
    itself for a transport loss."""
    if loss_kind in ("spdsw", "logsw"):
        return _sorted_coords(target_logs, basis)
    return target_logs


def _sliced_evaluate(logs: np.ndarray, st: np.ndarray, basis: ProjectionBasis, p: float):
    """Sliced loss between a source log stack and the target's sorted
    projected coordinates ``st`` (L, m); the context is the source's sort
    order and sorted coordinates (L, n)."""
    cs = basis.project_symmetric(logs)
    ss = np.sort(cs, axis=-1)
    with np.errstate(over="ignore"):  # an overflow is reported by _finite
        loss = float(np.mean(_wpp_rows(ss, st, p)))
    return _finite(loss), (np.argsort(cs, axis=-1), ss)


def _sliced_gradient(ctx, st: np.ndarray, basis: ProjectionBasis, p: float) -> np.ndarray:
    """Gradient of the sliced loss with respect to each source log matrix.

    The per-slice 1D gradient is exact almost everywhere: each sorted
    matching term |s_(k) - t_(k)|^p differentiates to the usual signed
    power, scattered back through the sort and chained through the linear
    projection S -> <A_l, S>.
    """
    order_s, ss = ctx
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
    return (grad_coords.T @ basis.flat).reshape(n, basis.dim, basis.dim) / basis.count


def _plan_for(cost: CostMatrix, loss_kind: str, epsilon: float):
    if loss_kind == "lew":
        return exact_wasserstein(cost).plan
    result, converged = sinkhorn(cost, epsilon=epsilon)
    if not converged:
        raise NotConverged("inner Sinkhorn loop did not converge")
    return result.plan


def _transport_evaluate(logs, target_logs, loss_kind, epsilon):
    """Squared log-Euclidean transport loss through the exact plan
    (``lew``) or the converged Sinkhorn plan (``les``); the context is the
    plan."""
    sq = _finite(pairwise_sq_dists(vech_isometric(logs), vech_isometric(target_logs)))
    cost = CostMatrix(entries=sq, ground_metric="log_euclidean", power=2.0)
    plan = _plan_for(cost, loss_kind, epsilon)
    return float(np.sum(plan * sq)), plan


def _transport_gradient(logs, plan, target_logs) -> np.ndarray:
    """Gradient of the transport loss per source log, with the plan held
    constant (envelope theorem)."""
    pulled = (plan @ target_logs.reshape(len(target_logs), -1)).reshape(logs.shape)
    return 2.0 * (plan.sum(axis=1)[:, None, None] * logs - pulled)


def _log_loss(loss_kind, target, basis, p, epsilon):
    """``(evaluate, gradient)`` of the loss of a source log stack against
    the target as :func:`_fixed_target` gives it."""
    if loss_kind in ("spdsw", "logsw"):
        return (lambda logs: _sliced_evaluate(logs, target, basis, p),
                lambda logs, ctx: _sliced_gradient(ctx, target, basis, p))
    if loss_kind in ("lew", "les"):
        return (lambda logs: _transport_evaluate(logs, target, loss_kind, epsilon),
                lambda logs, plan: _transport_gradient(logs, plan, target))
    raise ValueError(f"unknown loss kind {loss_kind!r}")


def _transform_loss(source: EmpiricalSpdMeasure, evaluate_logs, gradient_logs):
    """``(evaluate, gradient)`` over chain parameters, built on those of the
    log loss.

    ``evaluate`` materializes the chain and runs one eigendecomposition of
    the transformed stack.  ``gradient`` runs the chain rule log ->
    congruence steps -> exponential parametrization; the first factor uses
    the Daleckii-Krein derivative of the matrix log at the transformed
    points.
    """

    def evaluate(params):
        mats = [prm.materialize() for prm in params]
        inputs = [source.points]
        for w in mats:
            inputs.append(w.T @ inputs[-1] @ w)
        w_eig, q_eig = eigh_stack(_finite(inputs[-1]))
        logs = reconstruct(np.log(w_eig), q_eig)
        loss, inner = evaluate_logs(logs)
        return loss, (mats, inputs, w_eig, q_eig, logs, inner)

    def gradient(params, ctx):
        mats, inputs, w_eig, q_eig, logs, inner = ctx
        grad_pts = log_frechet_stack(w_eig, q_eig, gradient_logs(logs, inner))
        param_grads: list[np.ndarray | None] = [None] * len(params)
        for k in range(len(params) - 1, -1, -1):
            x, w = inputs[k], mats[k]
            # sum_n X_n W G_n as one (d, n*d) @ (n*d, d) product
            d = w.shape[0]
            grad_w = 2.0 * (np.swapaxes(x @ w, 0, 1).reshape(d, -1) @ grad_pts.reshape(-1, d))
            if params[k].kind == "translation":
                param_grads[k] = exp_frechet_sym(params[k].matrix, symmetrize(grad_w)).array
            else:
                from scipy.linalg import expm_frechet

                full = expm_frechet(params[k].matrix.T, grad_w, compute_expm=False)
                param_grads[k] = 0.5 * (full - full.T)
            if k > 0:
                grad_pts = w @ grad_pts @ w.T
        return param_grads

    return evaluate, gradient


def loss_and_gradient_particles(
    source_logs,
    target: EmpiricalSpdMeasure,
    basis: ProjectionBasis,
    p: float = 2.0,
) -> tuple[float, np.ndarray]:
    """Sliced loss between the source particles (symmetric log
    coordinates) and the log-pushforward of the target, with exact-a.e.
    gradients for each source log."""
    logs = np.asarray(
        source_logs.points if hasattr(source_logs, "points") else source_logs, dtype=float
    )
    if logs.shape[-1] != target.dim:
        raise DimensionMismatch(f"dimensions differ: {logs.shape[-1]} vs {target.dim}")
    st = _sorted_coords(target.logs, basis)
    loss, ctx = _sliced_evaluate(logs, st, basis, p)
    return loss, _sliced_gradient(ctx, st, basis, p)


def loss_and_gradient_transform(
    params: list[ChainParam],
    source: EmpiricalSpdMeasure,
    target: EmpiricalSpdMeasure,
    basis: ProjectionBasis | None,
    p: float = 2.0,
    loss_kind: str = "spdsw",
    epsilon: float = 10.0,
) -> tuple[float, list[np.ndarray]]:
    """Loss of the transformed source against the target and Euclidean
    gradients of the unconstrained chain parameters (see
    :func:`_transform_loss`)."""
    if source.dim != target.dim:
        raise DimensionMismatch(f"dimensions differ: {source.dim} vs {target.dim}")
    evaluate, gradient = _transform_loss(source, *_log_loss(
        loss_kind, _fixed_target(target.logs, basis, loss_kind), basis, p, epsilon
    ))
    loss, ctx = evaluate(params)
    return loss, gradient(params, ctx)


# -- descent driver -----------------------------------------------------------


@dataclass(frozen=True)
class AdaptationConfig:
    """Descent configuration; defaults mirror the reference protocol
    (500 projections drawn once, 500 epochs)."""

    loss_kind: str = "spdsw"
    num_projections: int = 500
    epochs: int = 500
    learning_rate: float = 1.0
    seed: int = 0
    p: float = 2.0
    safeguard: bool = True
    max_halvings: int = 20
    epsilon: float = 10.0


@dataclass(frozen=True)
class AdaptationTrace:
    """Per-epoch losses, the adapted source, and the configuration echo."""

    losses: np.ndarray
    final_source: LabeledSpdDataset
    mode: str
    config: dict
    wall_time_seconds: float
    final_learning_rate: float

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        if losses.size < 1 or not np.all(np.isfinite(losses)) or np.any(losses < 0.0):
            raise ValueError("losses must be finite and nonnegative")
        losses.flags.writeable = False
        object.__setattr__(self, "losses", losses)


def _basis_for(config: AdaptationConfig, d: int) -> ProjectionBasis | None:
    if config.loss_kind not in SLICED_ESTIMATORS:
        return None
    kind = SLICED_ESTIMATORS[config.loss_kind][1] or "eig_uniform"
    return build_projection_basis(RngState(config.seed), d, config.num_projections, kind)


def _descend(state, evaluate, gradient, config: AdaptationConfig, scale_step, add_step):
    """Fixed-step descent from ``state``, halving the step while a candidate
    does not lower the loss (under the safeguard).

    Each state is evaluated once: ``evaluate(state)`` returns the loss and
    a context, and the accepted candidate's context feeds the next
    ``gradient(state, ctx)``.
    """

    def guarded(candidate):
        # A wild candidate step can push a matrix outside the PD cone
        # numerically, or overflow; under the safeguard that just means
        # "too large".
        if not config.safeguard:
            return evaluate(candidate)
        try:
            return evaluate(candidate)
        except (NotPositiveDefinite, OverflowError, FloatingPointError):
            return math.inf, None

    lr = config.learning_rate
    halvings = 0
    cur_loss, ctx = evaluate(state)
    losses = [cur_loss]
    for _ in range(config.epochs):
        grads = gradient(state, ctx)
        stepped = False
        while True:
            cand = add_step(state, scale_step(grads, -lr))
            cand_loss, cand_ctx = guarded(cand)
            if not config.safeguard or cand_loss <= cur_loss:
                stepped = True
                break
            if halvings >= config.max_halvings:
                break
            lr *= 0.5
            halvings += 1
        if not stepped:
            # The safeguarded step can no longer decrease the loss.
            losses.extend([cur_loss] * (config.epochs + 1 - len(losses)))
            break
        state, cur_loss, ctx = cand, cand_loss, cand_ctx
        losses.append(cur_loss)
    return state, np.array(losses), lr


def run_adaptation(
    mode: str,
    source: LabeledSpdDataset,
    target: EmpiricalSpdMeasure,
    config: AdaptationConfig,
) -> AdaptationTrace:
    """Fixed-step (optionally safeguarded) gradient descent aligning the
    source onto the target.  Projections are drawn, and the target is
    projected and sorted, only once up front."""
    t0 = time.perf_counter()
    if mode not in ("particles", "transform"):
        raise ValueError(f"unknown adaptation mode {mode!r}")
    if config.loss_kind not in PARTICLE_LOSSES:
        raise ValueError(f"unknown loss kind {config.loss_kind!r}")
    measure = source.measure
    if measure.dim != target.dim:
        raise DimensionMismatch(f"dimensions differ: {measure.dim} vs {target.dim}")
    basis = _basis_for(config, measure.dim)
    evaluate, gradient = _log_loss(
        config.loss_kind, _fixed_target(target.logs, basis, config.loss_kind), basis,
        config.p, config.epsilon,
    )

    if mode == "particles":
        final_state, losses, lr = _descend(
            measure.logs.copy(), evaluate, gradient, config,
            scale_step=lambda g, a: a * g,
            add_step=lambda s, delta: s + delta,
        )
        adapted = EmpiricalSpdMeasure(exp_stack(final_state))
    else:
        final_params, losses, lr = _descend(
            identity_chain_params(measure.dim), *_transform_loss(measure, evaluate, gradient),
            config,
            scale_step=lambda gs, a: [a * g for g in gs],
            add_step=lambda ps, deltas: [
                replace(p, matrix=p.matrix + d) for p, d in zip(ps, deltas)
            ],
        )
        mats = [prm.materialize() for prm in final_params]
        adapted = EmpiricalSpdMeasure(apply_chain_matrices(mats, measure.points))

    return AdaptationTrace(
        losses=losses,
        final_source=LabeledSpdDataset(measure=adapted, labels=source.labels),
        mode=mode,
        config=asdict(config),
        wall_time_seconds=time.perf_counter() - t0,
        final_learning_rate=lr,
    )


# -- downstream classifier -----------------------------------------------------


@dataclass(frozen=True)
class LogLinearClassifier:
    """Multinomial logistic regression on isometric vectorizations of the
    matrix logs."""

    weights: np.ndarray  # (K, n_kept + 1), bias last
    kept_columns: np.ndarray
    classes: np.ndarray
    dim: int

    def _design(self, measure: EmpiricalSpdMeasure) -> np.ndarray:
        if measure.dim != self.dim:
            raise DimensionMismatch(f"dimensions differ: {measure.dim} vs {self.dim}")
        feats = vech_isometric(measure.logs)[:, self.kept_columns]
        return np.hstack([feats, np.ones((feats.shape[0], 1))])

    def predict_proba(self, measure: EmpiricalSpdMeasure) -> np.ndarray:
        return _softmax(self._design(measure) @ self.weights.T)

    def predict(self, measure: EmpiricalSpdMeasure) -> np.ndarray:
        return self.classes[np.argmax(self.predict_proba(measure), axis=1)]


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of logits (n, K), shifted by the row maximum."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _multinomial_hessian(probs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hessian of the mean multinomial negative log-likelihood in the
    flattened weights (K*D, K*D), from the probabilities (n, K) and the
    design (n, D): blocks (1/n) sum_i (diag(p_i) - p_i p_i^T)[k, l] x_i x_i^T."""
    n, k = probs.shape
    dplus = x.shape[1]
    px = probs[:, :, None] * x[:, None, :]
    flat = px.reshape(n, k * dplus)
    hess = -(flat.T @ flat) / n
    blocks = hess.reshape(k, dplus, k, dplus)
    diag_blocks = px.transpose(1, 2, 0) @ x / n
    for kk in range(k):
        blocks[kk, :, kk, :] += diag_blocks[kk]
    return hess


def _multinomial_objective(w, x, y_onehot, l2, n):
    z = x @ w.T
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    nll = float(np.mean(log_norm - np.sum(z * y_onehot, axis=1)))
    penalty = 0.5 * l2 * float(np.sum(w[:, :-1] ** 2))
    return nll + penalty


def train_log_linear_classifier(
    train: LabeledSpdDataset,
    l2_penalty: float = 1e-3,
    grad_tol: float = 1e-6,
    max_iter: int = 200,
) -> LogLinearClassifier:
    """Fit the multinomial logistic model by damped Newton iterations until
    the gradient norm falls below ``grad_tol``."""
    if train.labels is None:
        raise MissingLabels("training requires labels")
    measure = train.measure
    classes, y_idx = np.unique(train.labels, return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    feats = vech_isometric(measure.logs)
    spread = np.ptp(feats, axis=0)
    kept = np.flatnonzero(spread > 1e-12 * np.maximum(1.0, np.abs(feats).max(axis=0)))
    if kept.size < feats.shape[1]:
        warnings.warn(
            f"dropping {feats.shape[1] - kept.size} constant feature column(s)",
            SingularFeatures,
        )
    x = np.hstack([feats[:, kept], np.ones((feats.shape[0], 1))])
    n, dplus = x.shape
    k = classes.size
    y_onehot = np.zeros((n, k))
    y_onehot[np.arange(n), y_idx] = 1.0

    w = np.zeros((k, dplus))
    penalty_mask = np.ones((k, dplus))
    penalty_mask[:, -1] = 0.0  # bias unpenalized
    objective = _multinomial_objective(w, x, y_onehot, l2_penalty, n)
    converged = False
    for _ in range(max_iter):
        probs = _softmax(x @ w.T)
        grad = (probs - y_onehot).T @ x / n + l2_penalty * w * penalty_mask
        if np.linalg.norm(grad) <= grad_tol:
            converged = True
            break
        hess = _multinomial_hessian(probs, x)
        hess += np.diag((l2_penalty * penalty_mask).ravel())
        hess += 1e-10 * np.eye(k * dplus)
        step = np.linalg.solve(hess, grad.ravel()).reshape(k, dplus)
        scale = 1.0
        cand, cand_obj = w, objective
        for _ in range(50):
            cand = w - scale * step
            cand_obj = _multinomial_objective(cand, x, y_onehot, l2_penalty, n)
            if cand_obj <= objective + 1e-15:
                break
            scale *= 0.5
        w, objective = cand, cand_obj
    if not converged:
        raise NotConverged("Newton iterations did not reach the gradient tolerance")
    return LogLinearClassifier(weights=w, kept_columns=kept, classes=classes, dim=measure.dim)


def evaluate_transfer(classifier: LogLinearClassifier, target: LabeledSpdDataset) -> float:
    """Plain accuracy of the classifier on a labeled target dataset."""
    if target.labels is None:
        raise MissingLabels("target dataset carries no labels")
    predictions = classifier.predict(target.measure)
    return float(np.mean(predictions == target.labels))
