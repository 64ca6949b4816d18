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
import warnings
from dataclasses import dataclass

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
    _finite,
    eigh_stack,
    exp_frechet_adjoint,
    exp_stack,
    log_frechet_stack,
    pairwise_sq_dists,
    reconstruct,
    vech_isometric,
)
from .sampling import ProjectionBasis, RngState, build_projection_basis
from .sliced import (
    SLICED_ESTIMATORS,
    EmpiricalSpdMeasure,
    _mean_wpp,
    _merged_quantile_grid,
)

PARTICLE_LOSSES = ("spdsw", "logsw", "lew", "les")

# Order p of every adaptation loss, and the run-wide cap on step halvings.
ORDER = 2.0
MAX_HALVINGS = 20

# Log-linear classifier: L2 penalty on the weights (bias unpenalized), and
# the gradient-norm tolerance and iteration cap of its Newton solve.
_L2_PENALTY = 1e-3
_GRAD_TOL = 1e-6
_NEWTON_MAX_ITER = 200


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


# Unconstrained chain parametrization: a generator stack [S, K] (2, d, d),
# S symmetric and K skew-symmetric, gives the translation exp(S) and then the
# rotation exp(K), each by :func:`linalg.exp_stack`.  Both maps are onto, and
# gradients live in plain Euclidean coordinates.  The identity chain is zeros.

_GENERATOR_SIGNS = np.array([1.0, -1.0])[:, None, None]


def _project_generators(g: np.ndarray) -> np.ndarray:
    """A (2, d, d) stack projected onto [symmetric, skew-symmetric]."""
    return 0.5 * (g + _GENERATOR_SIGNS * np.swapaxes(g, -2, -1))


def chain_matrices(generators: np.ndarray) -> list[np.ndarray]:
    """The congruence matrix W of each generator, in chain order."""
    return [exp_stack(g[None])[0] for g in generators]


def chain_images(mats: list[np.ndarray], points: np.ndarray) -> list[np.ndarray]:
    """``points`` and their image after each congruence C -> W^T C W of the chain."""
    images = [points]
    for w in mats:
        images.append(w.T @ images[-1] @ w)
    return images


# -- loss/gradient building blocks -------------------------------------------
#
# Each loss is a pair: ``evaluate(state)`` returns the loss and a context of
# what it computed (sort order, transport plan, eigendecomposition), and
# ``gradient(state, ctx)`` finishes the gradient from that context, so a
# state that is both scored and differentiated is evaluated once.


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
    order, as flat indices into the (L, n) coordinates, and its sorted coordinates."""
    cs = basis.project_symmetric(logs)
    order = np.argsort(cs, axis=-1)
    order += np.arange(0, cs.size, cs.shape[-1])[:, None]
    ss = np.take(cs, order)
    return _mean_wpp(ss, st, p), (order, ss)


def _sliced_gradient(ctx, st: np.ndarray, basis: ProjectionBasis, p: float) -> np.ndarray:
    """Gradient of the sliced loss with respect to each source log matrix.

    The per-slice 1D gradient is exact almost everywhere: each sorted
    matching term |s_(k) - t_(k)|^p differentiates to the usual signed
    power (at p = 2 the difference), scattered back through the sort and
    chained through the linear projection S -> <A_l, S>.
    """
    order, ss = ctx
    n, m = ss.shape[-1], st.shape[-1]
    if n == m:
        diff = ss - st
        g_sorted = (p / n) * (diff if p == 2.0 else np.abs(diff) ** (p - 1.0) * np.sign(diff))
    else:
        lens, ix, iy = _merged_quantile_grid(n, m)
        diff = ss[:, ix] - st[:, iy]
        contrib = lens * p * (diff if p == 2.0 else np.abs(diff) ** (p - 1.0) * np.sign(diff))
        g_sorted = np.zeros_like(ss)
        rows = np.arange(ss.shape[0])[:, None]
        np.add.at(g_sorted, (rows, ix[None, :]), contrib)
    grad_coords = np.empty_like(g_sorted)
    grad_coords.reshape(-1)[order] = g_sorted  # a view of the fresh array
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
    sq = _finite(pairwise_sq_dists(vech_isometric(logs), vech_isometric(target_logs)),
                 "adaptation step")
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
    """``(evaluate, gradient)`` over the chain's generator stack, built on
    those of the log loss.

    ``evaluate`` exponentiates the generators and runs one
    eigendecomposition of the transformed stack.  ``gradient`` runs the
    chain rule log -> congruence steps -> exponential parametrization; the
    first factor uses the Daleckii-Krein derivative of the matrix log at the
    transformed points.
    """

    def evaluate(generators):
        mats = chain_matrices(generators)
        with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects what overflows
            inputs = chain_images(mats, source.points)
        w_eig, q_eig = eigh_stack(_finite(inputs[-1], "adaptation step"))
        logs = reconstruct(np.log(w_eig), q_eig)
        loss, inner = evaluate_logs(logs)
        return loss, (mats, inputs, w_eig, q_eig, logs, inner)

    def gradient(generators, ctx):
        mats, inputs, w_eig, q_eig, logs, inner = ctx
        grad_pts = log_frechet_stack(w_eig, q_eig, gradient_logs(logs, inner))
        grads = np.empty_like(generators)
        for k in range(len(generators) - 1, -1, -1):
            x, w = inputs[k], mats[k]
            # sum_n X_n W G_n as one (d, n*d) @ (n*d, d) product
            d = w.shape[0]
            grad_w = 2.0 * (np.swapaxes(x @ w, 0, 1).reshape(d, -1) @ grad_pts.reshape(-1, d))
            grads[k] = exp_frechet_adjoint(generators[k], grad_w)
            if k > 0:
                grad_pts = w @ grad_pts @ w.T
        return _project_generators(grads)

    return evaluate, gradient


def loss_and_gradient_particles(
    source_logs,
    target: EmpiricalSpdMeasure,
    basis: ProjectionBasis,
    p: float = ORDER,
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
    generators: np.ndarray,
    source: EmpiricalSpdMeasure,
    target: EmpiricalSpdMeasure,
    basis: ProjectionBasis | None,
    p: float = ORDER,
    loss_kind: str = "spdsw",
    epsilon: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Loss of the transformed source against the target and the Euclidean
    gradient (2, d, d) of the chain's generator stack [S, K], whose
    symmetric and skew parts are read (see :func:`_transform_loss`)."""
    if source.dim != target.dim:
        raise DimensionMismatch(f"dimensions differ: {source.dim} vs {target.dim}")
    generators = np.asarray(generators, dtype=float)
    if generators.shape != (2, source.dim, source.dim):
        raise DimensionMismatch(f"generators of shape {generators.shape}, not (2, d, d)")
    generators = _project_generators(generators)
    evaluate, gradient = _transform_loss(source, *_log_loss(
        loss_kind, _fixed_target(target.logs, basis, loss_kind), basis, p, epsilon
    ))
    loss, ctx = evaluate(generators)
    return loss, gradient(generators, ctx)


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
    safeguard: bool = True
    epsilon: float = 1.0


@dataclass(frozen=True)
class AdaptationTrace:
    """Per-epoch losses, the adapted source and the final step."""

    losses: np.ndarray
    final_source: LabeledSpdDataset
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


def _descend(state: np.ndarray, evaluate, gradient, config: AdaptationConfig):
    """Fixed-step descent from the float array ``state``, halving the step
    while a candidate does not lower the loss (under the safeguard).

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
            cand = state + -lr * grads
            cand_loss, cand_ctx = guarded(cand)
            if not config.safeguard or cand_loss <= cur_loss:
                stepped = True
                break
            if halvings >= MAX_HALVINGS:
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
        ORDER, config.epsilon,
    )

    if mode == "particles":
        final_state, losses, lr = _descend(measure.logs.copy(), evaluate, gradient, config)
        adapted = EmpiricalSpdMeasure(exp_stack(final_state))
    else:
        final_state, losses, lr = _descend(
            np.zeros((2, measure.dim, measure.dim)),
            *_transform_loss(measure, evaluate, gradient), config,
        )
        adapted = EmpiricalSpdMeasure(chain_images(chain_matrices(final_state), measure.points)[-1])

    return AdaptationTrace(
        losses=losses,
        final_source=LabeledSpdDataset(measure=adapted, labels=source.labels),
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


def _multinomial_objective(w, x, y_onehot, n):
    z = x @ w.T
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    nll = float(np.mean(log_norm - np.sum(z * y_onehot, axis=1)))
    penalty = 0.5 * _L2_PENALTY * float(np.sum(w[:, :-1] ** 2))
    return nll + penalty


def train_log_linear_classifier(train: LabeledSpdDataset) -> LogLinearClassifier:
    """Fit the multinomial logistic model by damped Newton iterations until
    the gradient norm falls below ``_GRAD_TOL``."""
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
    objective = _multinomial_objective(w, x, y_onehot, n)
    converged = False
    for _ in range(_NEWTON_MAX_ITER):
        probs = _softmax(x @ w.T)
        grad = (probs - y_onehot).T @ x / n + _L2_PENALTY * w * penalty_mask
        if np.linalg.norm(grad) <= _GRAD_TOL:
            converged = True
            break
        hess = _multinomial_hessian(probs, x)
        hess += np.diag((_L2_PENALTY * penalty_mask).ravel())
        hess += 1e-10 * np.eye(k * dplus)
        step = np.linalg.solve(hess, grad.ravel()).reshape(k, dplus)
        scale = 1.0
        cand, cand_obj = w, objective
        for _ in range(50):
            cand = w - scale * step
            cand_obj = _multinomial_objective(cand, x, y_onehot, n)
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
