"""Sequential minimal optimization for the dual soft-margin SVM.

Solves max sum(alpha) - 1/2 alpha^T Q alpha subject to 0 <= alpha <= C and
y^T alpha = 0, where Q holds y_i y_j k(x_i, x_j). Serves as the correctness
oracle for small instances and as the exact-kernel baseline of the
benchmark harness and of ``admmsvm approx-study``.

Pair selection follows LIBSVM: i is the maximal violator argmax -y_t G_t
over I_up, and j is chosen from I_low by the second-order gain -b^2/a
(Fan, Chen & Lin 2005, "WSS2"), where G = Q alpha - e is kept up to date
from two rows of Q per step. The solver stops once the maximal violating
pair's gap m(alpha) - M(alpha) falls below ``kkt_tol``. A pass is at most
N pair updates.

Q is never built. One ``kernel_rows`` source per run checks the inputs and
computes the row norms once; row t comes from it the first time a step
selects t and is kept for the rest of the run, as LIBSVM's row cache does.
Most runs read a small share of the N rows. The rows equal the rows of
``build_kernel_matrix`` bitwise, and its unit diagonal makes Q_ii + Q_jj
exactly 2. A pass costs O(N) per pair update besides its row fetches.
"""

import time
from dataclasses import dataclass

import numpy as np

from .admm import ConvergenceTrace, TraceRow, _check_two_classes, accuracy
from .errors import NonFiniteError
from .kernel import _check_samples, kernel_rows

TAU = 1e-12  # replaces a non-positive curvature a_ij, as in LIBSVM


@dataclass(frozen=True)
class SmoConfig:
    c_box: float = 10.0
    kkt_tol: float = 1e-3
    max_passes: int = 200

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.c_box, self.kkt_tol)) or self.max_passes < 1:
            raise ValueError("c_box and kkt_tol must be finite and positive, max_passes at least 1")


@dataclass(frozen=True, eq=False)
class SmoResult:
    alpha: np.ndarray
    b: float
    trace: ConvergenceTrace
    converged: bool
    passes: int
    pair_updates: int  # LIBSVM's #iter
    kernel_rows: int  # distinct rows of Q evaluated


def _pair_update(ai, aj, yi, yj, gi, gj, a, c):
    """LIBSVM's clipped two-variable step on (alpha_i, alpha_j) along y^T alpha = 0."""
    if yi != yj:
        delta = (-gi - gj) / a
        diff = ai - aj
        ai += delta
        aj += delta
        if diff > 0:
            if aj < 0:
                aj, ai = 0.0, diff
            if ai > c:
                ai, aj = c, c - diff
        else:
            if ai < 0:
                ai, aj = 0.0, -diff
            if aj > c:
                aj, ai = c, c + diff
    else:
        delta = (gi - gj) / a
        total = ai + aj
        ai -= delta
        aj += delta
        if total > c:
            if ai > c:
                ai, aj = c, total - c
            if aj > c:
                aj, ai = c, total - c
        else:
            if aj < 0:
                aj, ai = 0.0, total
            if ai < 0:
                ai, aj = 0.0, total
    return ai, aj


def _bias(v, alpha, c, m, big_m):
    """Mean of -y_t G_t over free multipliers; the midpoint of [M, m] if none is free."""
    free = (alpha > 0) & (alpha < c)
    if np.any(free):
        return float(np.mean(v[free]))
    return float(0.5 * (m + big_m))


def _solve(row, y, cfg):
    """The WSS2 pass loop on Q given by rows: ``row(t)`` returns Q[t].

    Q must have a unit diagonal. Returns alpha, the bias, the trace, whether
    the gap closed, the number of passes and the number of pair updates.
    v = -y * G and the masks of I_up and I_low are kept up to date between
    steps: a step changes G everywhere but alpha only at i and j.
    """
    n = y.shape[0]
    c = cfg.c_box
    alpha = np.zeros(n)
    grad = -np.ones(n)
    neg_y = -y
    v = neg_y * grad
    pos = y > 0
    up = pos.copy()  # at alpha = 0, I_up holds the positives and I_low the negatives
    low = ~pos
    trace = ConvergenceTrace()
    converged = False
    passes = updates = 0
    while passes < cfg.max_passes and not converged:
        tic = time.perf_counter()
        for _ in range(n):
            i = int(np.argmax(np.where(up, v, -np.inf)))
            m = v[i]
            if m - np.where(low, v, np.inf).min() < cfg.kkt_tol:
                break
            b = m - v
            q_i = row(i)
            a = 2.0 - (2.0 * y[i]) * y * q_i
            a[a <= 0] = TAU
            gain = np.where(low & (b > 0), b * b / a, -np.inf)
            j = int(np.argmax(gain))
            ai, aj = _pair_update(alpha[i], alpha[j], y[i], y[j], grad[i], grad[j], a[j], c)
            updates += 1
            grad += (ai - alpha[i]) * q_i + (aj - alpha[j]) * row(j)
            np.multiply(neg_y, grad, out=v)
            alpha[i], alpha[j] = ai, aj
            for t in (i, j):
                up[t] = alpha[t] < c if pos[t] else alpha[t] > 0
                low[t] = alpha[t] > 0 if pos[t] else alpha[t] < c
        elapsed_ms = (time.perf_counter() - tic) * 1e3
        passes += 1

        m, big_m = np.where(up, v, -np.inf).max(), np.where(low, v, np.inf).min()
        converged = bool(m - big_m < cfg.kkt_tol)
        bias = _bias(v, alpha, c, m, big_m)
        trace.append(
            TraceRow(
                iteration=passes,
                train_accuracy=accuracy(y * (grad + 1.0) + bias, y),
                elapsed_ms=elapsed_ms,
                objective=float(0.5 * alpha.sum() - 0.5 * alpha @ grad),
            )
        )
    return alpha, bias, trace, converged, passes, updates


def smo_train(X, y, kernel, cfg):
    """Solve the dual SVM by SMO; returns multipliers, bias and a trace.

    One trace row is recorded per pass with the dual objective and the
    training accuracy of the decisions y * (G + 1) + b; instrumentation is
    excluded from the recorded pass times, and kernel rows are evaluated
    inside them. Raises :class:`~admmsvm.errors.NonFiniteError` for NaN or
    Inf features, checked once here rather than on each row fetch.
    """
    x, y = _check_samples(X, y)
    _check_two_classes(y)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("features contain NaN or Inf")
    fetch = kernel_rows(x, y, kernel)
    rows = {}

    def row(t):
        if t not in rows:
            rows[t] = fetch(t)
        return rows[t]

    alpha, bias, trace, converged, passes, updates = _solve(row, y, cfg)
    return SmoResult(alpha=alpha, b=bias, trace=trace, converged=converged, passes=passes,
                     pair_updates=updates, kernel_rows=len(rows))
