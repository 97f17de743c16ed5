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

from .admm import ConvergenceTrace, _solve
from .admm import accuracy  # noqa: F401  (re-exported as svm.accuracy)
from .errors import DimensionMismatchError, MalformedModelFileError
from .kernel import KernelParams, _check_samples, _rbf_sums
from .nystrom import _design

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
    final_gap: float


def train_nonlinear(X, y, kernel, nys, admm, track_accuracy=False):
    """Train a nonlinear SVM through the low-rank linear reformulation.

    Steps: the Nystrom design [V, y], one N x (r+1) buffer from
    :func:`admmsvm.nystrom._design` (the same V that
    :func:`admmsvm.nystrom.nystrom_factor` returns); the linear ADMM solve
    on Y V, which only reads the buffer, so training holds one
    design-sized array; recovery of the label-weighted dual weights on the
    sampled subset as y_M * alpha_M = W beta, with the factor's landmark
    weights W = y_M * Q_k D_k^(-1/2); support entries below
    ``SUPPORT_DROP_TOL`` in magnitude are dropped.

    Psi[:, M] alpha_M = V beta, so the decision value at training sample i
    is y_i (V beta)_i + bias, which is y_i times the solver's margin. The
    reported training accuracy is the solver's, from those margins;
    ``track_accuracy`` also records it at every iteration of the trace.
    """
    x, y = _check_samples(X, y)
    m, weights, wy = _design(x, y, kernel, nys)
    linear = _solve(wy, admm, track_accuracy)
    model = support_model(x, y, m, weights @ linear.beta, linear.beta0, kernel)
    return TrainReport(
        model=model,
        trace=linear.trace,
        train_accuracy=linear.train_accuracy,
        converged=linear.converged,
        effective_rank=weights.shape[1],
        final_gap=linear.final_gap,
    )


def support_model(x, y, indices, alpha_weighted, bias, kernel):
    """The model over the rows ``indices`` of ``x`` whose weight alpha_i * y_i is kept.

    Entries whose |alpha_weighted| is at most ``SUPPORT_DROP_TOL`` are
    dropped; the rest keep their index, weight, label and features.
    """
    keep = np.abs(alpha_weighted) > SUPPORT_DROP_TOL
    idx = indices[keep]
    return NonlinearModel(
        indices=idx,
        alpha_weighted=alpha_weighted[keep],
        labels=y[idx],
        features=x[idx],
        bias=bias,
        kernel=kernel,
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
    """Load a model saved by :func:`save_model`; sniffs binary vs JSON.

    Raises :class:`~admmsvm.errors.MalformedModelFileError` for a file that
    does not decode, or whose bias, weights or features are not all finite.
    """
    with open(source, "rb") as fh:
        blob = fh.read()
    if blob[:1] == b"{":
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise MalformedModelFileError(f"invalid JSON model file: {exc}") from exc
        model = _from_json_dict(payload)
    else:
        model = _from_binary(blob)
    if not (np.isfinite(model.bias) and np.isfinite(model.alpha_weighted).all()
            and np.isfinite(model.features).all()):
        raise MalformedModelFileError("model file holds a non-finite bias, weight or feature")
    return model


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
