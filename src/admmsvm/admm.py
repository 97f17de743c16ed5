"""Linear SVM training by ADMM around the pre-computed matrix Z.

The textbook iteration solves the regularized normal equations for
beta_tilde = (beta, beta0), soft-thresholds the hinge auxiliary a, then
steps the multiplier u. Here it is restated around
Z = Y X_tilde Q D^(-1/2), where Q D Q^T is the symmetric eigendecomposition
of the fixed system matrix, with the scaled auxiliary a_hat = rho * a and
the shared intermediate theta, so each pass is two thin matrix-vector
products plus element-wise work. The multiplier iterates are the textbook
ones, and beta_tilde = Q D^(-1/2) S is formed only for the stop test.

The product Z S that each pass forms is also the vector of margins
y_i * (x_tilde_i . beta_tilde) of the current iterate, so the decision
value of training row i is y_i times its margin, and the training accuracy
of every iterate costs O(N).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .eigen import SymmetricMatrix, symmetric_evd, truncate_spectrum
from .errors import (
    NonFiniteError,
    RankDeficientError,
    SingleClassError,
)

DIVERGENCE_LIMIT = 1e12


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
class AugmentedDesign:
    """Feature matrix with an appended ones column, plus the +-1 labels."""

    x_tilde: np.ndarray
    y: np.ndarray

    @classmethod
    def from_features(cls, X, y):
        x = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError(f"X shape {x.shape} incompatible with labels shape {y.shape}")
        if not np.all(np.isfinite(x)):
            raise NonFiniteError("features contain NaN or Inf")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        x_tilde = np.hstack([x, np.ones((x.shape[0], 1))])
        x_tilde.flags.writeable = False
        y = y.copy()
        y.flags.writeable = False
        return cls(x_tilde=x_tilde, y=y)

    @property
    def n(self):
        return self.x_tilde.shape[0]

    @property
    def p(self):
        return self.x_tilde.shape[1] - 1


@dataclass(frozen=True, eq=False)
class AdmmState:
    """Per-iteration solver variables: scaled auxiliary, multiplier, S = Z^T B, margins Z S."""

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

    def time_to_accuracy_ms(self, target):
        """Cumulative solver time at the first trace row reaching ``target``."""
        cum = 0.0
        for r in self.rows:
            cum += r.elapsed_ms or 0.0
            if r.train_accuracy is not None and r.train_accuracy >= target:
                return cum
        return None


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Trained hyperplane weights, their training accuracy and the convergence history."""

    beta: np.ndarray
    beta0: float
    trace: ConvergenceTrace
    converged: bool
    iterations: int
    train_accuracy: float


def soft_threshold(theta, delta):
    """Piecewise shrinkage: theta-delta above delta, 0 on [0, delta], theta below 0.

    Accepts scalars or arrays (applied element-wise in theta); delta is a
    non-negative scalar.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    th = np.asarray(theta, dtype=float)
    out = np.where(th > delta, th - delta, np.where(th < 0.0, th, 0.0))
    if th.ndim == 0:
        return float(out)
    return out


def build_system_matrix(design, lambda_, rho):
    """Assemble the fixed (p+1)x(p+1) system matrix of the beta update.

    Top-left block lambda*I + rho*X^T X, border rho*X^T 1, corner rho*N.
    The ridge term applies to the p feature rows only, never the bias row.
    """
    x = design.x_tilde[:, :-1]
    p = x.shape[1]
    a = np.empty((p + 1, p + 1))
    a[:p, :p] = lambda_ * np.eye(p) + rho * (x.T @ x)
    border = rho * x.sum(axis=0)
    a[:p, p] = border
    a[p, :p] = border
    a[p, p] = rho * design.n
    return SymmetricMatrix.from_array(a)


def precompute_z(design, evd, trunc):
    """Fold labels, design and the inverted system matrix into Z = Y X~ Q D^(-1/2).

    Z Z^T then equals Y X~ A^(-1) X~^T Y, the constant matrix the iteration
    applies each pass, but only N x (p+1) numbers are stored. The rows of
    X~ Q D^(-1/2) are sign-flipped by y in place, which is exact, so no
    second N x (p+1) array is formed.
    """
    width = design.x_tilde.shape[1]
    if trunc.rank_kept < width:
        raise RankDeficientError(
            "system matrix is numerically singular; increase lambda or rho"
        )
    scaled_q = evd.q[:, :width] * trunc.inv_sqrt[None, :]
    z = design.x_tilde @ scaled_q
    z *= design.y[:, None]
    return z


def initialize_state(n):
    """Cold start: zero scaled auxiliary and zero multiplier."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return AdmmState(a_hat=np.zeros(n), u=np.zeros(n))


def admm_step(z, state, rho):
    """Advance one iteration.

    In order: B = u + rho*1 - a_hat; S = Z^T B; margins = Z S;
    theta = rho*1 + u - rho*margins; new a_hat = soft-threshold of theta
    at 1; new u = theta - a_hat. The margins are y_i * (x_tilde_i . beta_tilde)
    at the iterate beta_tilde = Q D^(-1/2) S and are kept on the state.
    """
    b_vec = state.u + rho - state.a_hat
    s = z.T @ b_vec
    margins = z @ s
    theta = rho + state.u - rho * margins
    a_hat = soft_threshold(theta, 1.0)
    u = theta - a_hat
    _check_diverged(u)
    return AdmmState(a_hat=a_hat, u=u, s=s, margins=margins)


def _check_diverged(u):
    if not np.all(np.isfinite(u)) or np.abs(u).max() > DIVERGENCE_LIMIT:
        raise NonFiniteError("ADMM iterates diverged; check lambda and rho")


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


def solve_linear(design, cfg, track_accuracy=False):
    """Train a linear SVM by ADMM on ``design``.

    Set-up builds the system matrix, its eigendecomposition and Z once;
    each pass is one :func:`admm_step`. The loop stops when the squared
    change of beta_tilde = (beta, beta0) between consecutive iterations is
    at most epsilon. The training accuracy of an iterate is that of the
    decision values y * margins; with ``track_accuracy`` it is recorded in
    every trace row (outside the timed solver work), and the returned
    model always carries it for the final iterate. Returns the model
    flagged ``converged=False`` when the iteration cap is reached before
    the stop test passes.
    """
    if design.n < 2:
        raise ValueError("need at least two training samples")
    _check_two_classes(design.y)
    y = design.y
    setup_start = time.perf_counter()
    a = build_system_matrix(design, cfg.lambda_, cfg.rho)
    evd = symmetric_evd(a)
    trunc = truncate_spectrum(evd, r=a.n, eig_tol=0.0)
    z = precompute_z(design, evd, trunc)
    recover = evd.q[:, : trunc.rank_kept] * trunc.inv_sqrt[None, :]
    state = initialize_state(design.n)
    setup_ms = (time.perf_counter() - setup_start) * 1e3

    trace = ConvergenceTrace()
    beta_tilde_prev = np.zeros(design.p + 1)
    converged = False
    for k in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        u_prev = state.u
        state = admm_step(z, state, cfg.rho)
        beta_tilde = recover @ state.s
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
