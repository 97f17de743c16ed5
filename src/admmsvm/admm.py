"""Linear SVM training by ADMM around the pre-computed matrix Z.

The solver takes the signed rows w_i = y_i x_i and the labels y. Since
y_i^2 = 1, W_tilde = [w, y] is the label-weighted design Y [x, 1] of the
textbook iteration, which solves the regularized normal equations for
beta_tilde = (beta, beta0), soft-thresholds the hinge auxiliary a, then
steps the multiplier u. Here it is restated around Z = W_tilde Q D^(-1/2),
where Q D Q^T is the symmetric eigendecomposition of the fixed system
matrix, with the scaled auxiliary a_hat = rho * a and the shared
intermediate theta, so each pass is two thin matrix-vector products plus
element-wise work. The multiplier iterates are the textbook ones. Their
step u = theta - S(theta, 1), with S the soft threshold at 1, is the
projection of theta onto the dual box [0, 1], so it is written as
u = clip(theta, 0, 1) and a_hat = theta - u, which equals the
soft-threshold form bit for bit. The basis Q D^(-1/2) is formed once per
solve: it folds into Z, and beta_tilde = Q D^(-1/2) S is formed from it
only for the stop test.

The product Z S that each pass forms is still the vector of margins
w_tilde_i . beta_tilde = y_i * (x_i . beta + beta0) of the current
iterate, so the decision value of training row i is y_i times its margin,
and the training accuracy of every iterate costs O(N).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .eigen import symmetric_evd, truncate_spectrum
from .errors import (
    NonFiniteError,
    RankDeficientError,
    SingleClassError,
)


@dataclass(frozen=True)
class AdmmConfig:
    """Solver hyperparameters; defaults follow the evaluated settings."""

    lambda_: float = 10.0
    rho: float = 1.0
    epsilon: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if self.lambda_ <= 0 or self.rho <= 0 or self.epsilon <= 0:
            raise ValueError("lambda_, rho and epsilon must all be positive")
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
    beta_residual: float | None = None
    train_accuracy: float | None = None
    elapsed_ms: float | None = None
    objective: float | None = None


@dataclass
class ConvergenceTrace:
    """Append-only per-iteration history of residuals, accuracy and timing."""

    rows: list = field(default_factory=list)

    def append(self, row):
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def reach_accuracy(self, target):
        """(iteration, cumulative solver ms) at the first row reaching ``target``.

        Returns (None, None) when no row reaches it.
        """
        cum = 0.0
        for r in self.rows:
            cum += r.elapsed_ms or 0.0
            if r.train_accuracy is not None and r.train_accuracy >= target:
                return r.iteration, cum
        return None, None


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Trained hyperplane weights, their training accuracy and the convergence history."""

    beta: np.ndarray
    beta0: float
    trace: ConvergenceTrace
    converged: bool
    iterations: int
    train_accuracy: float


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


def precompute_z(w, y, basis):
    """Fold the signed rows and the inverted system matrix into Z = W_tilde Q D^(-1/2).

    ``basis`` is Q D^(-1/2) from :func:`admmsvm.eigen.truncate_spectrum`.
    Z Z^T then equals W_tilde A^(-1) W_tilde^T, the constant matrix the
    iteration applies each pass, but only N x (p+1) numbers are stored.
    Z is w times the first p rows of the basis, plus its last row on the
    rows where y = +1 and minus it where y = -1; both are done in place,
    so Z is the only N x (p+1) array formed. Raises
    :class:`~admmsvm.errors.RankDeficientError` when the basis has fewer
    than p+1 columns, that is when the system matrix is singular.
    """
    if basis.shape[1] < w.shape[1] + 1:
        raise RankDeficientError(
            "system matrix is numerically singular; increase lambda or rho"
        )
    z = w @ basis[:-1]
    positive = (y > 0)[:, None]
    np.add(z, basis[-1], out=z, where=positive)
    np.subtract(z, basis[-1], out=z, where=~positive)
    return z


def admm_step(z, state, rho):
    """Advance one iteration.

    In order: B = u + rho*1 - a_hat; S = Z^T B; margins = Z S;
    theta = rho*1 + u - rho*margins; new u = clip(theta, 0, 1), the
    projection onto the dual box; new a_hat = theta - u. The margins are
    w_tilde_i . beta_tilde at the iterate beta_tilde = Q D^(-1/2) S and are
    kept on the state. Raises :class:`~admmsvm.errors.NonFiniteError` when
    S is not finite: Z is bounded (||Z||_2 <= 1/sqrt(rho)), so a non-finite
    u, a_hat or theta reaches S within one step, and the check costs O(p).
    """
    s = z.T @ (state.u + rho - state.a_hat)
    if not np.isfinite(s).all():
        raise NonFiniteError("ADMM iterates diverged; check lambda and rho")
    margins = z @ s
    theta = rho + state.u - rho * margins
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
    hyperplane in x.
    Set-up builds the system matrix, its eigendecomposition, the basis
    Q D^(-1/2) and Z once; each pass is one :func:`admm_step`. The loop
    stops when the squared change of beta_tilde = (beta, beta0) between
    consecutive iterations is at most epsilon. The training accuracy of an
    iterate is that of the decision values y * margins, where
    margins = Z S; with ``track_accuracy`` it is recorded in every trace
    row (outside the timed solver work), and the returned model always
    carries it for the final iterate. Returns the model flagged ``converged=False`` when the
    iteration cap is reached before the stop test passes.
    """
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.ndim != 2 or y.shape != (w.shape[0],):
        raise ValueError(f"rows shape {w.shape} incompatible with labels shape {y.shape}")
    if not np.all(np.isfinite(w)):
        raise NonFiniteError("features contain NaN or Inf")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    n, p = w.shape
    if n < 2:
        raise ValueError("need at least two training samples")
    _check_two_classes(y)
    setup_start = time.perf_counter()
    q, d = symmetric_evd(build_system_matrix(w, y, cfg.lambda_, cfg.rho))
    basis = truncate_spectrum(q, d, r=p + 1, eig_tol=0.0)
    z = precompute_z(w, y, basis)
    state = AdmmState(a_hat=np.zeros(n), u=np.zeros(n))
    setup_ms = (time.perf_counter() - setup_start) * 1e3

    trace = ConvergenceTrace()
    beta_tilde_prev = np.zeros(p + 1)
    converged = False
    for k in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        u_prev = state.u
        state = admm_step(z, state, cfg.rho)
        beta_tilde = basis @ state.s
        u_res = float(np.linalg.norm(state.u - u_prev))
        beta_res, converged = _beta_stop_test(beta_tilde, beta_tilde_prev, cfg.epsilon)
        elapsed_ms = (time.perf_counter() - tic) * 1e3
        if k == 1:
            elapsed_ms += setup_ms

        acc = accuracy(y * state.margins, y) if track_accuracy else None
        trace.append(TraceRow(k, u_res, beta_res, acc, elapsed_ms))
        beta_tilde_prev = beta_tilde
        if converged:
            break

    return LinearModel(
        beta=beta_tilde[:-1],
        beta0=float(beta_tilde[-1]),
        trace=trace,
        converged=converged,
        iterations=k,
        train_accuracy=accuracy(y * state.margins, y),
    )


def _beta_stop_test(beta_tilde, beta_tilde_prev, epsilon):
    """Squared step ||beta_tilde - beta_tilde_prev||_2^2 and whether it is <= epsilon."""
    residual = float(np.sum((beta_tilde - beta_tilde_prev) ** 2))
    return residual, residual <= epsilon
