"""Linear SVM training by ADMM around the pre-computed matrix Z.

The solver takes the signed rows w_i = y_i x_i and the labels y. Since
y_i^2 = 1, W_tilde = [w, y] is the label-weighted design Y [x, 1] of the
textbook iteration, which solves the regularized normal equations for
beta_tilde = (beta, beta0), soft-thresholds the hinge auxiliary a, then
steps the multiplier u. Here it is restated around Z = W_tilde L^(-T),
for the Cholesky factor L of the fixed system matrix A = L L^T, with the
scaled auxiliary a_hat = rho * a and the shared intermediate theta, so
each pass is two thin matrix-vector products plus element-wise work. The
step is over-relaxed (Boyd et al. 2011, section 3.4.3): in the auxiliary
and multiplier updates the margins are replaced by
h = alpha * margins + (1 - alpha) * (1 - a) with alpha = ``_RELAX``, and
alpha = 1 gives the plain iteration. The multiplier iterates are the
textbook ones. Their step u = theta - S(theta, 1), with S the soft
threshold at 1, is the projection of theta onto the dual box [0, 1], so
it is written as u = clip(theta, 0, 1) and a_hat = theta - u, which
equals the soft-threshold form bit for bit.

The loop stops on a relative duality gap, checked every ``_GAP_EVERY``
steps and at the iteration cap. The primal objective
P = sum max(0, 1 - margins) + lambda/2 ||beta||^2 is that of the iterate
beta_tilde = L^(-T) S, which is formed only on these check steps. The
dual point is alpha = u, feasible once the larger class is scaled down so
that y^T alpha = 0, with D = sum alpha - ||w^T alpha||^2 / (2 lambda).
Weak duality gives D <= P, and the loop stops when (P - D) / P is at most
epsilon. The design is gone by then, overwritten by Z, but
W_tilde^T alpha = L Z^T alpha, so D costs one more product with Z.

Z has the shape of W_tilde and is formed in place over it, so a solve
holds one N x (p+1) design-sized array: :func:`solve_linear` copies its
inputs into a fresh [w, y] buffer, and nonlinear training hands the solve
core the [V, y] buffer that its Nystrom factor V was written into.

The product Z S that each pass forms is still the vector of margins
w_tilde_i . beta_tilde = y_i * (x_i . beta + beta0) of the current
iterate, so the decision value of training row i is y_i times its margin,
and the training accuracy of every iterate costs O(N).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteError,
    RankDeficientError,
    SingleClassError,
)

# bytes of one row block of Z, formed in a scratch block then added over its rows of [w, y];
# much smaller blocks cost time in per-block overhead
_Z_BLOCK_BYTES = 64 * 1024
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
    """Per-iteration solver variables: scaled auxiliary, multiplier, S = Z^T B, margins Z S.

    After a step, u lies in [0, 1], and a_hat is 0 where 0 < u < 1, at
    least 0 where u = 1 and at most 0 where u = 0.
    """

    a_hat: np.ndarray
    u: np.ndarray
    s: np.ndarray | None = None
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


def precompute_z(wy, basis):
    """Overwrite W_tilde = [w, y] in ``wy`` with Z = W_tilde R, and return it.

    ``basis`` is any (p+1)x(p+1) R with R R^T = A^(-1), so that Z Z^T equals
    W_tilde A^(-1) W_tilde^T, the constant matrix the iteration applies each
    pass. Each row block of about ``_Z_BLOCK_BYTES`` takes w times the first
    p rows of the basis in one scratch block, which is added over y times
    the last row (exact, as y = +-1), so no second N x (p+1) array is formed.
    """
    n, cols = wy.shape
    rows = max(1, _Z_BLOCK_BYTES // (8 * cols))
    scratch = np.empty((min(rows, n), cols))
    for i in range(0, n, rows):
        block = wy[i:i + rows]
        z = np.matmul(block[:, :-1], basis[:-1], out=scratch[:block.shape[0]])
        np.multiply(block[:, -1:], basis[-1], out=block)  # exactly +-basis[-1]
        block += z
    return wy


def admm_step(z, state, rho):
    """Advance one over-relaxed iteration.

    In order: B = u + rho*1 - a_hat; S = Z^T B; margins = Z S;
    theta = u + rho*alpha*(1 - margins) - (alpha - 1)*a_hat with
    alpha = ``_RELAX``; new u = clip(theta, 0, 1), the projection onto the
    dual box; new a_hat = theta - u. The margins are
    w_tilde_i . beta_tilde at the iterate beta_tilde = R S, for the basis R
    of :func:`precompute_z`, and are kept on the state. Raises
    :class:`~admmsvm.errors.NonFiniteError` when S is not finite: Z is
    bounded (||Z||_2 <= 1/sqrt(rho)), so a non-finite u, a_hat or theta
    reaches S within one step, and the check costs O(p).
    """
    s = z.T @ (state.u + rho - state.a_hat)
    if not np.isfinite(s).all():
        raise NonFiniteError("ADMM iterates diverged; check lambda and rho")
    margins = z @ s
    theta = state.u + rho * _RELAX * (1.0 - margins) - (_RELAX - 1.0) * state.a_hat
    u = np.clip(theta, 0.0, 1.0)
    return AdmmState(a_hat=theta - u, u=u, s=s, margins=margins)


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
    N x (p+1) buffer [w, y], which the solve overwrites with Z, so ``w``
    is never written to. See :func:`_solve` for the iteration.
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
    """The ADMM solve on the buffer ``wy`` = [w, y] of signed rows and labels.

    Labels must be -1 or +1. Set-up builds the system matrix A, its
    Cholesky factor L of :func:`_system_factor` and the basis L^(-T), then
    overwrites ``wy`` with Z by :func:`precompute_z`; each pass is one
    :func:`admm_step`. Every ``_GAP_EVERY`` steps, and at the iteration
    cap, a check step forms beta_tilde = L^(-T) S and the relative duality
    gap of :func:`_relative_gap`; the loop stops at the first check whose
    gap is at most epsilon. Each step gets one trace row.
    A check row carries the gap and the norm of the change in u since the
    previous check; other rows leave both empty. The training accuracy of
    an iterate is that of the decision values y * margins, where
    margins = Z S; with ``track_accuracy`` it is recorded in every trace
    row (outside the timed solver work), and the returned model always
    carries it for the final iterate. Returns the model flagged
    ``converged=False`` when the iteration cap is reached before the gap
    falls to epsilon.
    """
    n = wy.shape[0]
    if not np.all(np.isfinite(wy)):
        raise NonFiniteError("features contain NaN or Inf")
    y = wy[:, -1].copy()
    _check_two_classes(y)
    setup_start = time.perf_counter()
    lift = _system_factor(build_system_matrix(wy[:, :-1], y, cfg.lambda_, cfg.rho))
    basis = np.linalg.inv(lift).T  # L^(-T); W_tilde^T alpha = lift Z^T alpha
    z = precompute_z(wy, basis)
    state = AdmmState(a_hat=np.zeros(n), u=np.zeros(n))
    setup_ms = (time.perf_counter() - setup_start) * 1e3

    trace = ConvergenceTrace()
    u_checked = state.u
    converged = False
    for k in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        state = admm_step(z, state, cfg.rho)
        u_res = gap = None
        if k % _GAP_EVERY == 0 or k == cfg.max_iters:
            beta_tilde = basis @ state.s
            gap = _relative_gap(z, lift, y, state, beta_tilde[:-1], cfg.lambda_)
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
        beta=beta_tilde[:-1],
        beta0=float(beta_tilde[-1]),
        trace=trace,
        converged=converged,
        iterations=k,
        train_accuracy=accuracy(y * state.margins, y),
        final_gap=gap,
    )


def _relative_gap(z, lift, y, state, beta, lambda_):
    """Relative duality gap (P - D) / P of the step's iterate and multiplier u.

    P and D are those of the module docstring. The class totals of u are
    (sum u +- y^T u) / 2; scaling the larger class's entries to the smaller
    total makes sum alpha twice the smaller. P > 0 on two classes.
    """
    primal = float(np.maximum(1.0 - state.margins, 0.0).sum() + 0.5 * lambda_ * (beta @ beta))
    total, signed = float(state.u.sum()), float(y @ state.u)
    pos, neg = (total + signed) / 2.0, (total - signed) / 2.0
    small = min(pos, neg)
    alpha = state.u * np.where(y > 0, small / pos if pos else 0.0, small / neg if neg else 0.0)
    w_alpha = (lift @ (z.T @ alpha))[:-1]
    dual = 2.0 * small - float(w_alpha @ w_alpha) / (2.0 * lambda_)
    return (primal - dual) / primal
