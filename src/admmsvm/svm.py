"""Nonlinear SVM training via the rank-reduced reformulation.

Training builds the Nystrom factor V of the label-weighted kernel matrix,
solves the induced linear problem on Y V with the ADMM solver, then
recovers the sparse dual weights on the sampled subset. Inference sums the
RBF kernel over the stored support entries only.

Model file, little-endian: the header ``_HEAD_FORMAT`` (magic, version,
gamma, bias, support count n, feature count p, scaling width w); when w is
p, the scaling record's p offsets then p scales as float64; then n packed
support entries (:func:`_entry_dtype`). w is 0 for a model without a
record. Version-1 files have no width field and no record.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .admm import ConvergenceTrace, _solve
from .data_io import ScalingRecord
from .errors import DataError, DimensionMismatchError, MalformedModelFileError
from .kernel import KernelParams, _check_samples, _rbf_sums, _sums_operand
from .nystrom import _design

SUPPORT_DROP_TOL = 1e-12

_MAGIC = b"ADMMSVM\x00"
_VERSION = 2
_HEAD_FORMAT = "<8sIddIII"
_V1_HEAD_FORMAT = "<8sIddII"


@dataclass(frozen=True, eq=False)
class NonlinearModel:
    """Support entries (index, alpha*y, label, features), bias, kernel and scaling.

    ``alpha_weighted`` stores the products alpha_i * y_i that the decision
    function sums; the raw multiplier is ``alpha_weighted * label``. A model
    trained on scaled rows holds their ``scaling`` record, and its support
    features are scaled rows; query rows stay raw.
    """

    indices: np.ndarray
    alpha_weighted: np.ndarray
    labels: np.ndarray
    features: np.ndarray
    bias: float
    kernel: KernelParams
    scaling: ScalingRecord | None = None

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

    The rows are raw; a model with a scaling record maps them through it
    first, and raises ``DataError`` naming the first row that the record
    maps to a value that is not finite.

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
    if model.scaling is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            x = model.scaling.apply(x)
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise DataError(f"query row {np.argmin(finite)} (0-based) is not finite "
                            "under the model's scaling record")
    if model.n_support == 0:
        return np.full(x.shape[0], model.bias)
    operand = _sums_operand(model.features)
    return _rbf_sums(x, operand, model.alpha_weighted, model.kernel.gamma) + model.bias


def save_model(model, sink):
    """Write a model to the path ``sink`` in the binary format of the module docstring."""
    with open(sink, "wb") as fh:
        fh.write(_to_binary(model))


def load_model(source):
    """Load a model file of either version; a version-1 file has no scaling record.

    Raises :class:`~admmsvm.errors.MalformedModelFileError` for a file that
    does not decode; whose bias, weights or features are not all finite;
    whose scaling offsets are not finite or scales not finite and positive;
    or that is a version-1 file with a ``<source>.scaling.json`` sidecar
    beside it, since that model was trained on scaled rows it cannot map.
    """
    with open(source, "rb") as fh:
        blob = fh.read()
    model = _from_binary(blob)
    if not (np.isfinite(model.bias) and np.isfinite(model.alpha_weighted).all()
            and np.isfinite(model.features).all()):
        raise MalformedModelFileError("model file holds a non-finite bias, weight or feature")
    scaling = model.scaling
    if scaling is not None and not (np.isfinite(scaling.offset).all()
                                    and np.isfinite(scaling.scale).all()
                                    and (scaling.scale > 0).all()):
        raise MalformedModelFileError(
            "model file holds a non-finite scaling offset or a scale that is not finite and > 0")
    sidecar = f"{os.fspath(source)}.scaling.json"
    if struct.unpack_from("<I", blob, 8) == (1,) and os.path.exists(sidecar):
        raise MalformedModelFileError(
            f"{sidecar} holds the scaling of this version-1 model, which is no longer read; "
            "retrain the model to store its scaling in the model file")
    return model


def _entry_dtype(p):
    """One packed support entry: index, alpha*y, label (1 for +1) and p features."""
    return np.dtype([("index", "<u4"), ("alpha_weighted", "<f8"), ("label", "u1"),
                     ("features", "<f8", (p,))])


def _to_binary(model):
    width = 0 if model.scaling is None else model.p
    head = struct.pack(
        _HEAD_FORMAT,
        _MAGIC,
        _VERSION,
        model.kernel.gamma,
        model.bias,
        model.n_support,
        model.p,
        width,
    )
    record = b""
    if width:
        record = np.stack([model.scaling.offset, model.scaling.scale]).astype("<f8").tobytes()
    entries = np.empty(model.n_support, dtype=_entry_dtype(model.p))
    entries["index"] = model.indices
    entries["alpha_weighted"] = model.alpha_weighted
    entries["label"] = model.labels > 0
    entries["features"] = model.features
    return head + record + entries.tobytes()


def _from_binary(blob):
    if len(blob) < struct.calcsize(_V1_HEAD_FORMAT):
        raise MalformedModelFileError("model file truncated in header")
    magic, version, gamma, bias, n_support, p = struct.unpack_from(_V1_HEAD_FORMAT, blob)
    if magic != _MAGIC:
        raise MalformedModelFileError("bad magic header; not an admmsvm model file")
    if version == 1:
        head_size, width = struct.calcsize(_V1_HEAD_FORMAT), 0
    elif version == _VERSION:
        head_size = struct.calcsize(_HEAD_FORMAT)
        if len(blob) < head_size:
            raise MalformedModelFileError("model file truncated in header")
        width = struct.unpack_from(_HEAD_FORMAT, blob)[-1]
    else:
        raise MalformedModelFileError(f"unsupported model format version {version}")
    if width not in (0, p):
        raise MalformedModelFileError(f"scaling record has {width} features, model has {p}")
    try:
        kernel = KernelParams(gamma=gamma)
    except ValueError as exc:
        raise MalformedModelFileError(f"model file holds a bad kernel: {exc}") from None
    try:
        entry = _entry_dtype(p)
    except ValueError:
        raise MalformedModelFileError(f"model file declares {p} features") from None
    expected = head_size + 16 * width + n_support * entry.itemsize
    if len(blob) != expected:
        raise MalformedModelFileError(
            f"model file has {len(blob)} bytes, expected {expected}"
        )
    scaling = None
    if width:
        record = np.frombuffer(blob, dtype="<f8", count=2 * width, offset=head_size)
        scaling = ScalingRecord(offset=record[:width].astype(float),
                                scale=record[width:].astype(float))
    entries = np.frombuffer(blob, dtype=entry, count=n_support, offset=head_size + 16 * width)
    return NonlinearModel(
        indices=entries["index"].astype(int),
        alpha_weighted=entries["alpha_weighted"].astype(float),
        labels=np.where(entries["label"] != 0, 1.0, -1.0),
        features=entries["features"].astype(float, order="C"),
        bias=bias,
        kernel=kernel,
        scaling=scaling,
    )
