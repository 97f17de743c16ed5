"""Linear SVM training by ADMM with a cached inverse of the system matrix.

The solver takes the signed rows w_i = y_i x_i and the labels y. Since
y_i^2 = 1, W_tilde = [w, y] is the label-weighted design Y [x, 1] of the
textbook iteration. Each pass solves A beta_tilde = W_tilde^T (u + rho - a_hat)
for beta_tilde = (beta, beta0), with the fixed system matrix
A = lambda*diag(1, ..., 1, 0) + rho*W_tilde^T W_tilde, soft-thresholds the
hinge auxiliary a, kept scaled as a_hat = rho * a, then steps the
multiplier u. A^(-1) is formed once, from the Cholesky factor of A (Boyd
et al. 2011, section 4.2), so a pass is two thin matrix-vector products
with W_tilde, one with A^(-1) and element-wise work. The step is
over-relaxed (Boyd et al. 2011, section 3.4.3): in the auxiliary and
multiplier updates the margins are replaced by
h = alpha * margins + (1 - alpha) * (1 - a) with alpha = ``_RELAX``, and
alpha = 1 gives the plain iteration. The multiplier step
u = theta - S(theta, 1), with S the soft threshold at 1, is the projection
of theta onto the dual box [0, 1], so it is written as
u = clip(theta, 0, 1) and a_hat = theta - u, which equals the
soft-threshold form bit for bit.

The loop stops on a relative duality gap, checked every ``_GAP_EVERY``
steps and at the iteration cap. The primal objective
P = sum max(0, 1 - margins) + lambda/2 ||beta||^2 is that of the step's
iterate beta_tilde. The dual point is alpha = u, feasible once the larger
class is scaled down so that y^T alpha = 0, with
D = sum alpha - ||w^T alpha||^2 / (2 lambda), so D costs one more product
with the design. Weak duality gives D <= P, and the loop stops when
(P - D) / P is at most epsilon.

A solve holds one N x (p+1) design-sized array and only reads it:
:func:`solve_linear` copies its inputs into a fresh [w, y] buffer, and
nonlinear training hands the solve core the [V, y] buffer of its Nystrom
factor V.

The product W_tilde beta_tilde that each pass forms is the vector of
margins y_i * (x_i . beta + beta0) of the current iterate, so the decision
value of training row i is y_i times its margin, and the training accuracy
of every iterate costs O(N).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteError,
    RankDeficientError,
    SingleClassError,
)

# over-relaxation factor alpha of the step; 1 is the plain iteration
_RELAX = 1.8
# steps between duality-gap checks; the cap step is checked too
_GAP_EVERY = 5


@dataclass(frozen=True)
class AdmmConfig:
    """Solver hyperparameters; ``epsilon`` bounds the relative duality gap at the stop."""

    lambda_: float = 10.0
    rho: float = 1.0
    epsilon: float = 1e-3
    max_iters: int = 500

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.lambda_, self.rho, self.epsilon)):
            raise ValueError("lambda_, rho and epsilon must all be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class AdmmState:
    """Per-iteration solver variables: scaled auxiliary, multiplier, iterate and its margins.

    After a step, u lies in [0, 1], and a_hat is 0 where 0 < u < 1, at
    least 0 where u = 1 and at most 0 where u = 0.
    """

    a_hat: np.ndarray
    u: np.ndarray
    beta_tilde: np.ndarray | None = None
    margins: np.ndarray | None = None


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    u_residual: float | None = None
    gap: float | None = None
    train_accuracy: float | None = None
    elapsed_ms: float | None = None
    objective: float | None = None


@dataclass
class ConvergenceTrace:
    """Append-only per-iteration history of residuals, gaps, accuracy and timing."""

    rows: list = field(default_factory=list)

    def append(self, row):
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Trained hyperplane weights, their training accuracy and the convergence history.

    ``final_gap`` is the relative duality gap at the last check, the last step.
    """

    beta: np.ndarray
    beta0: float
    trace: ConvergenceTrace
    converged: bool
    iterations: int
    train_accuracy: float
    final_gap: float


def build_system_matrix(w, y, lambda_, rho):
    """Assemble the fixed (p+1)x(p+1) system matrix of the beta update.

    The matrix is lambda*diag(1, ..., 1, 0) + rho*W_tilde^T W_tilde with
    W_tilde = [w, y]: top-left block lambda*I + rho*w^T w, border
    rho*w^T y, corner rho*N. The ridge term applies to the p feature rows
    only, never the bias row. Returns the array.
    """
    p = w.shape[1]
    a = np.empty((p + 1, p + 1))
    a[:p, :p] = lambda_ * np.eye(p) + rho * (w.T @ w)
    border = rho * (w.T @ y)
    a[:p, p] = border
    a[p, :p] = border
    a[p, p] = rho * w.shape[0]
    return a


def _system_factor(a):
    """Lower Cholesky factor L of the system matrix A = L L^T.

    Raises :class:`~admmsvm.errors.RankDeficientError` when it fails or when
    its pivots, the eigenvalues of L, prove cond(A) = cond(L)^2 >= 1/eps.
    """
    message = "system matrix is numerically singular; lambda and rho are too far apart in scale"
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(message) from exc
    pivots = np.diagonal(chol)
    if not pivots.min() > np.sqrt(np.finfo(float).eps) * pivots.max():  # NaN included
        raise RankDeficientError(message)
    return chol


def admm_step(wy, a_inv, state, rho):
    """Advance one over-relaxed iteration on the design ``wy`` = W_tilde.

    In order: s = W_tilde^T (u + rho*1 - a_hat); beta_tilde = A^(-1) s,
    with ``a_inv`` = A^(-1); margins = W_tilde beta_tilde;
    theta = u + rho*alpha*(1 - margins) - (alpha - 1)*a_hat with
    alpha = ``_RELAX``; new u = clip(theta, 0, 1), the projection onto the
    dual box; new a_hat = theta - u. The iterate and its margins are kept
    on the state. Raises :class:`~admmsvm.errors.NonFiniteError` when s is
    not finite: the last column of W_tilde is y = +-1, so a non-finite u,
    a_hat or theta reaches s within one step, and the check costs O(p).
    """
    s = wy.T @ (state.u + rho - state.a_hat)
    if not np.isfinite(s).all():
        raise NonFiniteError("ADMM iterates diverged; check lambda and rho")
    beta_tilde = a_inv @ s
    margins = wy @ beta_tilde
    theta = state.u + rho * _RELAX * (1.0 - margins) - (_RELAX - 1.0) * state.a_hat
    u = np.clip(theta, 0.0, 1.0)
    return AdmmState(a_hat=theta - u, u=u, beta_tilde=beta_tilde, margins=margins)


def primal_objective(X, y, beta, beta0, lambda_):
    """Hinge loss plus ridge penalty at the given hyperplane."""
    x = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    margins = y * (x @ beta + beta0)
    return float(np.sum(np.maximum(1.0 - margins, 0.0)) + 0.5 * lambda_ * np.dot(beta, beta))


def _check_two_classes(y):
    if np.all(y > 0) or np.all(y < 0):
        raise SingleClassError("training data contains a single class")


def accuracy(values, y):
    """Fraction of labels matched by the sign of the decision values; ties go to +1."""
    return float(np.mean(np.where(values >= 0.0, 1.0, -1.0) == y))


def solve_linear(w, y, cfg, track_accuracy=False):
    """Train a linear SVM by ADMM on the signed rows ``w`` and labels ``y``.

    Row i of ``w`` is y_i x_i; the returned (beta, beta0) is the
    hyperplane in x. The inputs are checked and copied into one
    N x (p+1) buffer W_tilde = [w, y], so ``w`` is never written to. See
    :func:`_solve` for the iteration.
    """
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.ndim != 2 or y.shape != (w.shape[0],):
        raise ValueError(f"rows shape {w.shape} incompatible with labels shape {y.shape}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    wy = np.empty((w.shape[0], w.shape[1] + 1))
    wy[:, :-1] = w
    wy[:, -1] = y
    return _solve(wy, cfg, track_accuracy)


def _solve(wy, cfg, track_accuracy):
    """The ADMM solve on the design ``wy`` = W_tilde = [w, y] of signed rows and labels.

    Labels must be -1 or +1, and ``wy`` is only read. Set-up builds the
    system matrix A and its Cholesky factor L of :func:`_system_factor`,
    and caches A^(-1) = L^(-T) L^(-1); each pass is one :func:`admm_step`.
    Every ``_GAP_EVERY`` steps, and at the iteration cap, a check step
    forms the relative duality gap of :func:`_relative_gap`; the loop
    stops at the first check whose gap is at most epsilon. Each step gets
    one trace row. A check row carries the gap and the norm of the change
    in u since the previous check; other rows leave both empty. The
    training accuracy of an iterate is that of the decision values
    y * margins; with ``track_accuracy`` it is recorded in every trace row
    (outside the timed solver work), and the returned model always carries
    it for the final iterate. Returns the model flagged ``converged=False``
    when the iteration cap is reached before the gap falls to epsilon.
    """
    n = wy.shape[0]
    if not np.all(np.isfinite(wy)):
        raise NonFiniteError("features contain NaN or Inf")
    y = wy[:, -1].copy()  # contiguous: the loop reads it faster than the strided column
    _check_two_classes(y)
    setup_start = time.perf_counter()
    chol = _system_factor(build_system_matrix(wy[:, :-1], y, cfg.lambda_, cfg.rho))
    chol_inv = np.linalg.inv(chol)
    a_inv = chol_inv.T @ chol_inv  # A^(-1) = L^(-T) L^(-1)
    state = AdmmState(a_hat=np.zeros(n), u=np.zeros(n))
    setup_ms = (time.perf_counter() - setup_start) * 1e3

    trace = ConvergenceTrace()
    u_checked = state.u
    converged = False
    for k in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        state = admm_step(wy, a_inv, state, cfg.rho)
        u_res = gap = None
        if k % _GAP_EVERY == 0 or k == cfg.max_iters:
            gap = _relative_gap(wy, y, state, cfg.lambda_)
            u_res = float(np.linalg.norm(state.u - u_checked))
            u_checked = state.u
            converged = gap <= cfg.epsilon
        elapsed_ms = (time.perf_counter() - tic) * 1e3
        if k == 1:
            elapsed_ms += setup_ms

        acc = accuracy(y * state.margins, y) if track_accuracy else None
        trace.append(TraceRow(k, u_res, gap, acc, elapsed_ms))
        if converged:
            break

    return LinearModel(
        beta=state.beta_tilde[:-1],
        beta0=float(state.beta_tilde[-1]),
        trace=trace,
        converged=converged,
        iterations=k,
        train_accuracy=accuracy(y * state.margins, y),
        final_gap=gap,
    )


def _relative_gap(wy, y, state, lambda_):
    """Relative duality gap (P - D) / P of the step's iterate and multiplier u.

    P and D are those of the module docstring, with w^T alpha formed from
    the design ``wy``. The class totals of u are (sum u +- y^T u) / 2;
    scaling the larger class's entries to the smaller total makes sum alpha
    twice the smaller. P > 0 on two classes.
    """
    beta = state.beta_tilde[:-1]
    primal = float(np.maximum(1.0 - state.margins, 0.0).sum() + 0.5 * lambda_ * (beta @ beta))
    total, signed = float(state.u.sum()), float(y @ state.u)
    pos, neg = (total + signed) / 2.0, (total - signed) / 2.0
    small = min(pos, neg)
    alpha = state.u * np.where(y > 0, small / pos if pos else 0.0, small / neg if neg else 0.0)
    w_alpha = wy[:, :-1].T @ alpha
    dual = 2.0 * small - float(w_alpha @ w_alpha) / (2.0 * lambda_)
    return (primal - dual) / primal
