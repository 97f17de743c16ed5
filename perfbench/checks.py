"""Correctness checks made apart from the program.

Every check returns ``None`` when the output passes and a one-line reason
when it does not. The computations here use numpy and scipy directly and
never call into ``admmsvm``, except ``check_roundtrip``, whose subject is
the program's own model file format.
"""

import os

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

ACCURACY_SLACK = 0.02  # the paper's bound: at most 2% below the exact kernel
REFERENCE_RIDGE = 1.0


def rbf_decisions(features, weights, bias, x, gamma):
    """sum_j weights_j exp(gamma ||x - features_j||^2) + bias, for every row of x."""
    if features.shape[0] == 0:
        return np.full(x.shape[0], float(bias))
    return np.exp(gamma * cdist(x, features, "sqeuclidean")) @ weights + bias


def accuracy(values, y):
    return float(np.mean(np.where(values >= 0.0, 1.0, -1.0) == y))


def _sqdist_gemm(a, b):
    d2 = a @ b.T
    d2 *= -2.0
    d2 += (a * a).sum(1)[:, None]
    d2 += (b * b).sum(1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def reference_accuracy(x, y, x_test, y_test, gamma, ridge=REFERENCE_RIDGE):
    """Held-out accuracy of an exact-kernel least-squares SVM fitted on all of x.

    Solves [K + ridge*I, 1; 1^T, 0] [a; b] = [y; 0] through one Cholesky
    factor of K + ridge*I. The fit runs in single precision, which halves
    the cost of the N=8192 factor; the ridge keeps K + ridge*I far from
    singular at that precision.
    """
    x32 = x.astype(np.float32)
    k = _sqdist_gemm(x32, x32)
    k *= gamma
    np.exp(k, out=k)
    k[np.diag_indices_from(k)] += ridge
    factor = cho_factor(k, overwrite_a=True)
    sol = cho_solve(factor, np.column_stack([y, np.ones_like(y)]).astype(np.float32))
    del k, factor
    sol = sol.astype(float)
    b = sol[:, 0].sum() / sol[:, 1].sum()
    a = sol[:, 0] - b * sol[:, 1]
    return accuracy(np.exp(gamma * _sqdist_gemm(x_test, x)) @ a + b, y_test)


def check_decisions(model, x, values, gamma):
    """The program's decision values equal an independent RBF evaluation."""
    if model.kernel.gamma != gamma:
        return f"model stores gamma {model.kernel.gamma}, workload uses {gamma}"
    own = rbf_decisions(model.features, model.alpha_weighted, model.bias, x, gamma)
    values = np.asarray(values)
    if values.shape != own.shape:
        return f"decision values have shape {values.shape}, expected {own.shape}"
    scale = 1.0 + np.abs(model.alpha_weighted).sum() + abs(model.bias)
    err = float(np.max(np.abs(values - own)))
    if not err <= 1e-9 * scale:
        return f"decision values differ from the independent RBF evaluation by {err:.3e}"
    return None


def check_heldout_accuracy(values, y, reference):
    acc = accuracy(values, y)
    if not acc >= reference - ACCURACY_SLACK:
        return f"held-out accuracy {acc:.4f} is more than {ACCURACY_SLACK} below exact-kernel {reference:.4f}"
    return None


def check_train_accuracy(model, x, y, reported, gamma):
    """The program's reported training accuracy matches the returned model's."""
    own = accuracy(rbf_decisions(model.features, model.alpha_weighted, model.bias, x, gamma), y)
    if not abs(own - reported) <= 1.0 / y.shape[0]:
        return f"reported training accuracy {reported:.4f}, model scores {own:.4f}"
    return None


def check_trace_accuracy(last_row_accuracy, train_accuracy, n):
    """Psi[:, M] alpha_M = V eta, so the last traced accuracy is the model's."""
    if last_row_accuracy is None or not abs(last_row_accuracy - train_accuracy) <= 1.0 / n:
        return f"trace ends at training accuracy {last_row_accuracy}, model scores {train_accuracy:.4f}"
    return None


def check_dual(alpha, y, c_box):
    """SMO multipliers lie in the box [0, C] and satisfy sum(alpha * y) = 0.

    Both hold up to rounding: the pair update a1 + s (a2 - a2_new) can land
    a few ulps outside the box.
    """
    if not np.all(np.isfinite(alpha)):
        return "multipliers are not finite"
    slack = 1e-9 * c_box
    if alpha.min() < -slack or alpha.max() > c_box + slack:
        return f"multipliers leave the box [0, {c_box}]: [{alpha.min()}, {alpha.max()}]"
    balance = float(alpha @ y)
    if not abs(balance) <= 1e-8 * max(1.0, float(alpha.sum())):
        return f"sum(alpha * y) = {balance:.3e}, expected 0"
    return None


def check_kernel_columns(x, y, m, cols, gamma):
    """Psi[:, M] against a cdist evaluation of y_i y_j exp(gamma ||x_i - x_j||^2)."""
    m = np.asarray(m)
    own = np.exp(gamma * cdist(x, x[m], "sqeuclidean")) * y[:, None] * y[None, m]
    if cols.shape != own.shape:
        return f"kernel columns have shape {cols.shape}, expected {own.shape}"
    err = float(np.max(np.abs(cols - own)))
    if not err <= 1e-12:
        return f"kernel columns differ from cdist by {err:.3e}"
    return None


def check_factor(cols, m, v, effective_rank):
    """V_M V_M^T reproduces Psi_MM up to the eigenvalues the truncation dropped."""
    psi_mm = cols[np.asarray(m), :]
    eig = np.linalg.eigvalsh(psi_mm)[::-1]
    dropped = float(np.abs(eig[effective_rank:]).sum())
    v_m = v[np.asarray(m), :]
    err = float(np.max(np.abs(v_m @ v_m.T - psi_mm)))
    if not err <= 1e-8 + dropped:
        return f"V_M V_M^T differs from Psi_MM by {err:.3e} (dropped spectrum {dropped:.3e})"
    return None


def check_roundtrip(svm, model, directory):
    """save_model -> load_model -> save_model gives the same bytes and arrays."""
    first = os.path.join(directory, "roundtrip-a.bin")
    second = os.path.join(directory, "roundtrip-b.bin")
    svm.save_model(model, first)
    loaded = svm.load_model(first)
    svm.save_model(loaded, second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        if fa.read() != fb.read():
            return "model file bytes change across a save/load/save round trip"
    for field in ("indices", "alpha_weighted", "labels", "features"):
        if not np.array_equal(getattr(model, field), getattr(loaded, field)):
            return f"model field {field} changes across a save/load round trip"
    if loaded.bias != model.bias or loaded.kernel.gamma != model.kernel.gamma:
        return "model bias or gamma changes across a save/load round trip"
    return None
