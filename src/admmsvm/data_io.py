"""Dataset ingestion, label normalization, feature scaling and splitting.

Delimited text has one parser: :func:`load_delimited_features` is
:func:`load_delimited` with no label column. Blank lines are dropped, the
header is detected from the first row alone, and the body is parsed in one
``np.loadtxt`` call over its full width, so a ragged row fails there. Raw
labels are cut from each line with one ``split``. The per-cell ``float``
loop runs only when the block parse rejects the body or finds a NaN or Inf:
it raises the typed error of the first bad row or cell (``ParseError`` or
``MissingValueError``, with its line and column), or returns the values of
cells that ``float`` accepts and ``loadtxt`` does not, such as ``"1_0"``.
Wherever both accept a cell they give the same bits, so the result never
depends on the path taken.

The sparse "label idx:val" text format has 1-based ascending indices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DimensionMismatchError,
    InsufficientClassSamplesError,
    MissingValueError,
    NonAscendingIndexError,
    NotBinaryError,
    ParseError,
)

SCALE_MINMAX = "minmax"
SCALE_ZSCORE = "zscore"
SCALE_NONE = "none"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with +-1 labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.x.shape[0] < 1 or self.x.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-D matrix, got {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("label count does not match sample count")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features contain NaN or Inf")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def p(self):
        return self.x.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


@dataclass(frozen=True, eq=False)
class ScalingRecord:
    """Per-feature affine transform x' = (x - offset) / scale, fitted on the training rows.

    A model trained on scaled rows carries its record (see
    :class:`admmsvm.svm.NonlinearModel`), and ``decision_values`` applies it
    to raw query rows.
    """

    offset: np.ndarray
    scale: np.ndarray

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.offset.shape[0]:
            raise DimensionMismatchError(
                f"scaling record has {self.offset.shape[0]} features, data has shape {x.shape}"
            )
        return (x - self.offset) / self.scale


def _normalize_labels(raw):
    """Map two distinct raw label values onto -1/+1 (smaller raw value -> -1).

    Labels that all parse as numbers are keyed by value, so ``1`` and
    ``1.0`` name one class; otherwise (or with a NaN, which equals nothing)
    they are keyed by their text and ordered lexicographically.
    """
    try:
        keys = [float(v) for v in raw]
    except ValueError:
        keys = raw
    if any(k != k for k in keys):
        keys = raw
    distinct = sorted(set(keys))
    if len(distinct) > 2:
        raise NotBinaryError(f"expected at most 2 label values, found {len(distinct)}")
    if len(distinct) == 1:
        if distinct[0] in (-1.0, 1.0):
            return np.full(len(raw), distinct[0])
        raise NotBinaryError("a single non +-1 label value cannot be normalized")
    mapping = {distinct[0]: -1.0, distinct[1]: 1.0}
    return np.array([mapping[k] for k in keys])


def load_delimited(path, label_column, delimiter=","):
    """Parse a delimited text file into a dataset.

    ``label_column`` indexes the label cell of each row (negative indices
    count from the end). A first row whose feature cells do not all parse
    as numbers is a header and is skipped.
    """
    x, raw_labels = _parse_delimited(path, delimiter, label_column)
    y = _normalize_labels(raw_labels)
    if x.shape[1] == 0:
        raise ParseError(f"{path}: no feature columns")
    return Dataset(x=x, y=y)


def load_delimited_features(path, delimiter=","):
    """Parse a label-free delimited file into a plain feature matrix."""
    return _parse_delimited(path, delimiter, None)[0]


def _parse_delimited(path, delimiter, label_column):
    """Features and stripped raw labels (None without a label column)."""
    rows = _data_lines(path)
    first = rows[0][1].split(delimiter)
    width = len(first)
    label_idx = None
    if label_column is not None:
        label_idx = label_column if label_column >= 0 else width + label_column
        if not 0 <= label_idx < width:
            raise ParseError(f"{path}: label column {label_column} outside row width {width}")

    if not _feature_cells_numeric(first, label_idx):
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    x = _parse_block(rows, delimiter, width, label_idx)
    if x is None:
        x = _parse_cells(path, rows, delimiter, width, label_idx)
    if label_idx is None:
        return x, None
    if label_idx == width - 1:
        raw_labels = [line.rsplit(delimiter, 1)[-1].strip() for _, line in rows]
    else:
        raw_labels = [line.split(delimiter, label_idx + 1)[label_idx].strip() for _, line in rows]
    return x, raw_labels


def _data_lines(path):
    """(line number, text) of each non-blank line of a UTF-8 text file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def _parse_block(rows, delimiter, width, label_idx):
    """All feature cells in one ``np.loadtxt`` call over the full width.

    Returns None when loadtxt rejects a cell, a row's width or the
    delimiter (TypeError: several characters or a newline), or when a value
    is NaN or Inf; :func:`_parse_cells` then names the error. The label
    column is read as 0.0, so labels need not be numeric.
    """
    converters = None if label_idx is None else {label_idx: lambda cell: 0.0}
    try:
        block = np.loadtxt([line for _, line in rows], delimiter=delimiter, dtype=float,
                           comments=None, ndmin=2, converters=converters)
    except (ValueError, TypeError):
        return None
    if block.shape != (len(rows), width) or not np.isfinite(block).all():
        return None
    return block if label_idx is None else np.delete(block, label_idx, axis=1)


def _parse_cells(path, rows, delimiter, width, label_idx):
    """Per-cell ``float`` parse: the typed error of the first bad row or cell, else the values."""
    features = []
    for lineno, line in rows:
        cells = line.split(delimiter)
        if len(cells) != width:
            raise ParseError(f"{path}: inconsistent column count", line=lineno)
        row = []
        for j, cell in enumerate(cells):
            if j == label_idx:
                continue
            cell = cell.strip()
            if not cell:
                raise MissingValueError(f"{path}: empty feature cell", line=lineno, column=j)
            try:
                row.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric feature value {cell!r}", line=lineno, column=j
                ) from None
        features.append(row)
    x = np.array(features, dtype=float)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.shape[0]:
        raise ParseError(f"{path}: non-finite feature value", line=rows[bad[0]][0])
    return x


def _feature_cells_numeric(cells, label_idx):
    for j, cell in enumerate(cells):
        if j == label_idx:
            continue
        try:
            float(cell)
        except ValueError:
            return False
    return True


def load_sparse_text(path):
    """Parse "<label> <idx>:<val> ..." lines with 1-based ascending indices."""
    raw_labels = []
    sparse_rows = []
    max_idx = 0
    for lineno, line in _data_lines(path):
        tokens = line.split()
        raw_labels.append(tokens[0])
        pairs = []
        prev = 0
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ParseError(f"{path}: expected idx:val, got {tok!r}", line=lineno)
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"{path}: bad idx:val pair {tok!r}", line=lineno) from None
            if not np.isfinite(val):
                raise ParseError(f"{path}: non-finite value {tok!r}", line=lineno)
            if idx < 1:
                raise ParseError(f"{path}: indices are 1-based, got {idx}", line=lineno)
            if idx <= prev:
                raise NonAscendingIndexError(
                    f"{path}: index {idx} after {prev} at line {lineno}"
                )
            prev = idx
            pairs.append((idx, val))
            max_idx = max(max_idx, idx)
        sparse_rows.append(pairs)
    if max_idx == 0:
        raise ParseError(f"{path}: no feature indices found")

    try:
        x = np.zeros((len(sparse_rows), max_idx))
    except (ValueError, MemoryError):
        raise ParseError(f"{path}: feature index {max_idx} too large to hold densely") from None
    for i, pairs in enumerate(sparse_rows):
        for idx, val in pairs:
            x[i, idx - 1] = val
    try:
        y = _normalize_labels([repr(float(v)) for v in raw_labels])
    except ValueError:
        raise ParseError(f"{path}: non-numeric label") from None
    return Dataset(x=x, y=y)


def scale_features(ds, mode):
    """Apply a per-feature affine transform; constant features map to 0.

    Returns the transformed dataset and the record needed to apply the same
    transform at inference time, or ``ds`` itself and None for ``"none"``.
    Raises ``DataError`` naming the first column whose offset, scale or
    scaled values overflow to a value that is not finite.
    """
    if mode == SCALE_NONE:
        return ds, None
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == SCALE_MINMAX:
            lo = ds.x.min(axis=0)
            span = ds.x.max(axis=0) - lo
            record = ScalingRecord(lo, np.where(span > 0.0, span, 1.0))
        elif mode == SCALE_ZSCORE:
            std = ds.x.std(axis=0)
            record = ScalingRecord(ds.x.mean(axis=0), np.where(std > 0.0, std, 1.0))
        else:
            raise ValueError(f"unknown scaling mode {mode!r}")
        x = record.apply(ds.x)
    # a non-finite offset leaves its column's scaled values non-finite too
    finite = np.isfinite(record.scale) & np.isfinite(x).all(axis=0)
    if not finite.all():
        raise DataError(f"{mode} scaling overflows in feature column {np.argmin(finite)} "
                        "(0-based): its offset, scale or scaled values are not finite")
    return Dataset(x=x, y=ds.y), record


def split(ds, spec):
    """Deterministic train/test partition drawn per class; both sides keep every class.

    The train fraction is drawn within each class (ratio preserved to
    within one sample per class), which requires at least two samples per
    class so the test side retains one of each.
    """
    rng = np.random.default_rng(spec.seed)
    class_counts = {label: int(np.sum(ds.y == label)) for label in (-1.0, 1.0)}
    for label, count in class_counts.items():
        if count < 1:
            raise InsufficientClassSamplesError(f"class {label:+.0f} has no samples")
        if count < 2:
            raise InsufficientClassSamplesError(
                f"class {label:+.0f} needs at least 2 samples to appear in both sides"
            )

    train_idx = []
    test_idx = []
    for label in (-1.0, 1.0):
        members = np.flatnonzero(ds.y == label)
        members = members[rng.permutation(members.shape[0])]
        n_train = int(round(spec.train_fraction * members.shape[0]))
        n_train = min(max(n_train, 1), members.shape[0] - 1)
        train_idx.append(members[:n_train])
        test_idx.append(members[n_train:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))

    train = Dataset(x=ds.x[train_idx], y=ds.y[train_idx])
    test = Dataset(x=ds.x[test_idx], y=ds.y[test_idx])
    return train, test
