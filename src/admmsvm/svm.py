"""Nonlinear SVM training via the rank-reduced reformulation.

Training builds the Nystrom factor V of the label-weighted kernel matrix,
solves the induced linear problem on Y V with the ADMM solver, then
recovers the sparse dual weights on the sampled subset. Inference sums the
RBF kernel over the stored support entries only.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

from .admm import ConvergenceTrace, solve_linear
from .admm import accuracy  # noqa: F401  (re-exported as svm.accuracy)
from .errors import DimensionMismatchError, MalformedModelFileError
from .kernel import KernelParams, _rbf_sums, build_kernel_matrix
from .nystrom import approximation_mse, nystrom_factor

SUPPORT_DROP_TOL = 1e-12

_MAGIC = b"ADMMSVM\x00"
_VERSION = 1
_HEAD_FORMAT = "<8sIddII"
_JSON_FORMAT = "admmsvm-model"


@dataclass(frozen=True, eq=False)
class NonlinearModel:
    """Support entries (index, alpha*y, label, features), bias and kernel.

    ``alpha_weighted`` stores the products alpha_i * y_i that the decision
    function sums; the raw multiplier is ``alpha_weighted * label``.
    """

    indices: np.ndarray
    alpha_weighted: np.ndarray
    labels: np.ndarray
    features: np.ndarray
    bias: float
    kernel: KernelParams

    @property
    def n_support(self):
        return self.indices.shape[0]

    @property
    def p(self):
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class TrainReport:
    model: NonlinearModel
    trace: ConvergenceTrace
    train_accuracy: float
    converged: bool
    effective_rank: int
    nystrom_mse: float | None = None


def train_nonlinear(X, y, kernel, nys, admm, subset=None, compute_mse=False,
                    track_accuracy=False):
    """Train a nonlinear SVM through the low-rank linear reformulation.

    Steps: Nystrom factor V; linear ADMM solve on the design Y V, whose
    signed rows y_i (y_i v_i) are V itself, so V is passed with no copy;
    recovery of the dual weights on the sampled subset as
    Q_r D_r^(-1/2) beta; support entries below ``SUPPORT_DROP_TOL`` in
    magnitude are dropped.

    Psi[:, M] alpha_M = V eta, so the decision value at training sample i
    is y_i (V eta)_i + bias, which is y_i times the solver's margin. The
    reported training accuracy is the solver's, from those margins;
    ``track_accuracy`` also records it at every iteration of the trace.
    """
    x = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    factor = nystrom_factor(x, y, kernel, nys, subset=subset)
    linear = solve_linear(factor.v, y, admm, track_accuracy=track_accuracy)

    alpha_subset = factor.q_r @ (linear.beta / np.sqrt(factor.d_r))
    keep = np.abs(alpha_subset) > SUPPORT_DROP_TOL
    idx = factor.m[keep]
    labels = y[idx]
    model = NonlinearModel(
        indices=idx.copy(),
        alpha_weighted=alpha_subset[keep] * labels,
        labels=labels.copy(),
        features=x[idx].copy(),
        bias=linear.beta0,
        kernel=kernel,
    )

    mse = None
    if compute_mse:
        mse = approximation_mse(build_kernel_matrix(x, y, kernel), factor)
    return TrainReport(
        model=model,
        trace=linear.trace,
        train_accuracy=linear.train_accuracy,
        converged=linear.converged,
        effective_rank=factor.effective_rank,
        nystrom_mse=mse,
    )


def decision_values(model, X):
    """Raw margins of the rows of X: sum of alpha_i y_i k(x_i, x) over the support, plus bias.

    Each margin is within 4 * eps * (1 + |gamma| * S) * sum_i |alpha_i| of
    the exact sum, where eps is the float64 machine epsilon and
    S = max ||x - mu||^2 + max ||x_i - mu||^2 over the query rows and the
    support rows, centred on the support centroid mu (see
    :mod:`admmsvm.kernel`). The bound stays below 1e-12 * sum_i |alpha_i|
    while |gamma| * S < 1e3. Calls on the same rows give the same bits.
    """
    x = np.asarray(X, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.p:
        raise DimensionMismatchError(
            f"query matrix shape {x.shape} does not match model dimension {model.p}"
        )
    if model.n_support == 0:
        return np.full(x.shape[0], model.bias)
    return _rbf_sums(x, model.features, model.alpha_weighted, model.kernel.gamma) + model.bias


def kernel_objective(X, y, kernel, alpha, b, lambda_):
    """Hinge-plus-penalty objective of the kernel formulation at (alpha, b)."""
    psi = build_kernel_matrix(X, y, kernel).entries
    y = np.asarray(y, dtype=float)
    margins = psi @ alpha + y * b
    hinge = np.sum(np.maximum(1.0 - margins, 0.0))
    return float(hinge + 0.5 * lambda_ * alpha @ psi @ alpha)


def alpha_vector(model, n):
    """Dense length-n multiplier vector (zeros off the support)."""
    alpha = np.zeros(n)
    alpha[model.indices] = model.alpha_weighted * model.labels
    return alpha


def save_model(model, sink, fmt="binary"):
    """Persist a model to ``sink`` (a path) in binary or JSON form."""
    if fmt == "binary":
        blob = _to_binary(model)
        with open(sink, "wb") as fh:
            fh.write(blob)
    elif fmt == "json":
        with open(sink, "w", encoding="utf-8") as fh:
            json.dump(_to_json_dict(model), fh)
    else:
        raise ValueError(f"unknown model format {fmt!r}")


def load_model(source):
    """Load a model saved by :func:`save_model`; sniffs binary vs JSON."""
    with open(source, "rb") as fh:
        blob = fh.read()
    if blob[:1] == b"{":
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise MalformedModelFileError(f"invalid JSON model file: {exc}") from exc
        return _from_json_dict(payload)
    return _from_binary(blob)


def _entry_dtype(p):
    """One packed support entry: index, alpha*y, label (1 for +1) and p features."""
    return np.dtype([("index", "<u4"), ("alpha_weighted", "<f8"), ("label", "u1"),
                     ("features", "<f8", (p,))])


def _to_binary(model):
    head = struct.pack(
        _HEAD_FORMAT,
        _MAGIC,
        _VERSION,
        model.kernel.gamma,
        model.bias,
        model.n_support,
        model.p,
    )
    entries = np.empty(model.n_support, dtype=_entry_dtype(model.p))
    entries["index"] = model.indices
    entries["alpha_weighted"] = model.alpha_weighted
    entries["label"] = model.labels > 0
    entries["features"] = model.features
    return head + entries.tobytes()


def _from_binary(blob):
    head_size = struct.calcsize(_HEAD_FORMAT)
    if len(blob) < head_size:
        raise MalformedModelFileError("model file truncated in header")
    magic, version, gamma, bias, n_support, p = struct.unpack_from(_HEAD_FORMAT, blob)
    if magic != _MAGIC:
        raise MalformedModelFileError("bad magic header; not an admmsvm model file")
    if version != _VERSION:
        raise MalformedModelFileError(f"unsupported model format version {version}")
    try:
        kernel = KernelParams(gamma=gamma)
    except ValueError as exc:
        raise MalformedModelFileError(f"model file holds a bad kernel: {exc}") from None
    try:
        entry = _entry_dtype(p)
    except ValueError:
        raise MalformedModelFileError(f"model file declares {p} features") from None
    expected = head_size + n_support * entry.itemsize
    if len(blob) != expected:
        raise MalformedModelFileError(
            f"model file has {len(blob)} bytes, expected {expected}"
        )
    entries = np.frombuffer(blob, dtype=entry, count=n_support, offset=head_size)
    return NonlinearModel(
        indices=entries["index"].astype(int),
        alpha_weighted=entries["alpha_weighted"].astype(float),
        labels=np.where(entries["label"] != 0, 1.0, -1.0),
        features=entries["features"].astype(float, order="C"),
        bias=bias,
        kernel=kernel,
    )


def _to_json_dict(model):
    return {
        "format": _JSON_FORMAT,
        "version": _VERSION,
        "gamma": model.kernel.gamma,
        "bias": model.bias,
        "p": model.p,
        "support": [
            {
                "index": int(model.indices[i]),
                "alpha_weighted": float(model.alpha_weighted[i]),
                "label": int(model.labels[i]),
                "features": [float(v) for v in model.features[i]],
            }
            for i in range(model.n_support)
        ],
    }


def _from_json_dict(payload):
    try:
        if payload["format"] != _JSON_FORMAT:
            raise MalformedModelFileError(f"unknown model format {payload['format']!r}")
        if payload["version"] != _VERSION:
            raise MalformedModelFileError(f"unsupported model version {payload['version']}")
        support = payload["support"]
        n = len(support)
        if "p" in payload:
            p = payload["p"]
        else:  # files written before "p" was stored
            p = len(support[0]["features"]) if n else 0
        if type(p) is not int or not 0 <= p < 2 ** 31:
            raise MalformedModelFileError(f"model JSON declares {p!r} features")
        if any(len(e["features"]) != p for e in support):
            raise MalformedModelFileError(f"model JSON has an entry without {p} features")
        indices = np.array([e["index"] for e in support], dtype=int)
        alpha_weighted = np.array([e["alpha_weighted"] for e in support], dtype=float)
        labels = np.array([float(e["label"]) for e in support])
        features = np.array([e["features"] for e in support], dtype=float).reshape(n, p)
        return NonlinearModel(
            indices=indices,
            alpha_weighted=alpha_weighted,
            labels=labels,
            features=features,
            bias=float(payload["bias"]),
            kernel=KernelParams(gamma=float(payload["gamma"])),
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise MalformedModelFileError(f"model JSON missing or malformed field: {exc}") from exc
