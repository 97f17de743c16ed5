"""Sequential minimal optimization for the dual soft-margin SVM.

Solves max sum(alpha) - 1/2 alpha^T Q alpha subject to 0 <= alpha <= C and
y^T alpha = 0, where Q holds y_i y_j k(x_i, x_j). Serves as the correctness
oracle for small instances and as the convergence-speed baseline in the
benchmark harness.

Pair selection follows LIBSVM: i is the maximal violator argmax -y_t G_t
over I_up, and j is chosen from I_low by the second-order gain -b^2/a
(Fan, Chen & Lin 2005, "WSS2"), where G = Q alpha - e is kept up to date
from two rows of Q per step. The solver stops once the maximal violating
pair's gap m(alpha) - M(alpha) falls below ``kkt_tol``. A pass is at most
N pair updates.

Q is never built. Row t comes from ``kernel_columns`` the first time a step
selects t and is kept for the rest of the run, as LIBSVM's row cache does;
most runs read a small share of the N rows. Q is exactly symmetric and
equals those columns bitwise, so the rows are the rows of
``build_kernel_matrix`` and its unit diagonal makes Q_ii + Q_jj exactly 2.
"""

import time
from dataclasses import dataclass

import numpy as np

from .admm import ConvergenceTrace, TraceRow, _check_two_classes, accuracy
from .kernel import _check_samples, kernel_columns

TAU = 1e-12  # replaces a non-positive curvature a_ij, as in LIBSVM


@dataclass(frozen=True)
class SmoConfig:
    c_box: float = 10.0
    kkt_tol: float = 1e-3
    max_passes: int = 200

    def __post_init__(self):
        if self.c_box <= 0 or self.kkt_tol <= 0 or self.max_passes < 1:
            raise ValueError("c_box, kkt_tol and max_passes must be positive")


@dataclass(frozen=True, eq=False)
class SmoResult:
    alpha: np.ndarray
    b: float
    trace: ConvergenceTrace
    converged: bool
    passes: int
    kernel_rows: int  # distinct rows of Q evaluated


def _violations(y, alpha, grad, c):
    """-y_t G_t, with the masks of I_up and I_low."""
    v = -y * grad
    up = np.where(y > 0, alpha < c, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < c)
    return v, up, low


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


def _solve(row, y, cfg, accuracy_target=None):
    """The WSS2 pass loop on Q given by rows: ``row(t)`` returns Q[t].

    Q must have a unit diagonal. Returns alpha, the bias, the trace, whether
    the gap closed and the number of passes.
    """
    n = y.shape[0]
    c = cfg.c_box
    alpha = np.zeros(n)
    grad = -np.ones(n)
    trace = ConvergenceTrace()
    converged = False
    passes = 0
    while passes < cfg.max_passes and not converged:
        tic = time.perf_counter()
        for _ in range(n):
            v, up, low = _violations(y, alpha, grad, c)
            i = int(np.argmax(np.where(up, v, -np.inf)))
            m = v[i]
            if m - np.min(v[low]) < cfg.kkt_tol:
                break
            b = m - v
            q_i = row(i)
            a = 2.0 - (2.0 * y[i]) * y * q_i
            a[a <= 0] = TAU
            gain = np.where(low & (b > 0), b * b / a, -np.inf)
            j = int(np.argmax(gain))
            ai, aj = _pair_update(alpha[i], alpha[j], y[i], y[j], grad[i], grad[j], a[j], c)
            grad += (ai - alpha[i]) * q_i + (aj - alpha[j]) * row(j)
            alpha[i], alpha[j] = ai, aj
        elapsed_ms = (time.perf_counter() - tic) * 1e3
        passes += 1

        v, up, low = _violations(y, alpha, grad, c)
        m, big_m = np.max(v[up]), np.min(v[low])
        converged = bool(m - big_m < cfg.kkt_tol)
        bias = _bias(v, alpha, c, m, big_m)
        acc = accuracy(y * (grad + 1.0) + bias, y)
        trace.append(
            TraceRow(
                iteration=passes,
                train_accuracy=acc,
                elapsed_ms=elapsed_ms,
                objective=float(0.5 * alpha.sum() - 0.5 * alpha @ grad),
            )
        )
        if accuracy_target is not None and acc >= accuracy_target:
            break
    return alpha, bias, trace, converged, passes


def smo_train(X, y, kernel, cfg, accuracy_target=None):
    """Solve the dual SVM by SMO; returns multipliers, bias and a trace.

    One trace row is recorded per pass with the dual objective and the
    training accuracy of the decisions y * (G + 1) + b; instrumentation is
    excluded from the recorded pass times, and kernel rows are evaluated
    inside them. ``accuracy_target`` stops the solver after the first pass
    whose training accuracy reaches the target (the result is then not
    marked converged unless the gap also closed).
    """
    y = np.asarray(y, dtype=float)
    _check_two_classes(y)
    x, y = _check_samples(X, y)
    rows = {}

    def row(t):
        if t not in rows:
            rows[t] = np.ascontiguousarray(kernel_columns(x, y, kernel, [t])[:, 0])
        return rows[t]

    alpha, bias, trace, converged, passes = _solve(row, y, cfg, accuracy_target)
    return SmoResult(alpha=alpha, b=bias, trace=trace, converged=converged, passes=passes,
                     kernel_rows=len(rows))
