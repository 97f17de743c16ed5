"""Model files: byte layout of both versions, round trips, and typed errors on bad files."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from admmsvm import svm
from admmsvm.admm import AdmmConfig
from admmsvm.data_io import ScalingRecord, scale_features
from admmsvm.errors import AdmmSvmError, DataError, MalformedModelFileError
from admmsvm.kernel import KernelParams
from admmsvm.nystrom import NystromConfig
from admmsvm.svm import NonlinearModel, decision_values, load_model, save_model, train_nonlinear
from admmsvm.synthetic import mnist_like


def _entry_bytes(model):
    return b"".join(struct.pack(f"<IdB{model.p}d", int(model.indices[i]),
                                float(model.alpha_weighted[i]),
                                1 if model.labels[i] > 0 else 0, *model.features[i])
                    for i in range(model.n_support))


def _struct_bytes(model):
    """The version-1 layout written one field at a time with struct."""
    return struct.pack("<8sIddII", b"ADMMSVM\x00", 1, model.kernel.gamma, model.bias,
                       model.n_support, model.p) + _entry_bytes(model)


def _struct_bytes_v2(model):
    """The version-2 layout: the version-1 header and the scaling width, record, entries."""
    record, width = b"", 0
    if model.scaling is not None:
        width = model.p
        record = struct.pack(f"<{2 * width}d", *model.scaling.offset, *model.scaling.scale)
    return struct.pack("<8sIddIII", b"ADMMSVM\x00", 2, model.kernel.gamma, model.bias,
                       model.n_support, model.p, width) + record + _entry_bytes(model)


def _model(n, p, seed=0, scaled=False):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    features = rng.standard_normal((n, p))
    if n and p:
        features[0, 0] = -0.0
        features[-1, -1] = 5e-324
    scaling = None
    if scaled:
        offset = rng.standard_normal(p)
        offset[0] = -0.0
        scaling = ScalingRecord(offset=offset, scale=rng.random(p) + 5e-324)
    return NonlinearModel(indices=np.sort(rng.choice(4 * n + 1, n, replace=False)),
                          alpha_weighted=rng.standard_normal(n) * labels, labels=labels,
                          features=features, bias=-0.125, kernel=KernelParams(gamma=-0.75),
                          scaling=scaling)


def _assert_same_model(a, b):
    for name in ("indices", "alpha_weighted", "labels", "features"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.shape == right.shape
        assert left.tobytes() == right.tobytes()
    assert (a.bias, a.kernel) == (b.bias, b.kernel)
    assert (a.scaling is None) == (b.scaling is None)
    if a.scaling is not None:
        for name in ("offset", "scale"):
            left, right = getattr(a.scaling, name), getattr(b.scaling, name)
            assert left.dtype == right.dtype and left.tobytes() == right.tobytes()


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("n, p", [(0, 3), (1, 1), (7, 5), (40, 784)])
def test_binary_bytes_match_the_struct_layout(n, p, scaled):
    model = _model(n, p, scaled=scaled)
    blob = svm._to_binary(model)
    assert blob == _struct_bytes_v2(model)
    loaded = svm._from_binary(blob)
    _assert_same_model(model, loaded)
    assert svm._to_binary(loaded) == blob


@pytest.fixture(scope="module")
def trained():
    """A model trained on z-scored rows, with its scaling record, and the raw rows."""
    ds = mnist_like(256)
    scaled, record = scale_features(ds, "zscore")
    report = train_nonlinear(scaled.x, scaled.y, KernelParams(gamma=-1.0),
                             NystromConfig(c=32, r=32), AdmmConfig())
    return dataclasses.replace(report.model, scaling=record), ds.x


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_save_load_round_trip(tmp_path, trained, scaled):
    model, x = trained
    if not scaled:
        model = dataclasses.replace(model, scaling=None)
    path = tmp_path / "model"
    save_model(model, path)
    loaded = load_model(path)
    _assert_same_model(model, loaded)
    assert loaded.features.flags.c_contiguous
    assert decision_values(loaded, x).tobytes() == decision_values(model, x).tobytes()
    again = tmp_path / "again"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_scaled_model_maps_raw_rows_through_its_record(trained):
    model, x = trained
    unscaled = dataclasses.replace(model, scaling=None)
    assert np.array_equal(decision_values(model, x),
                          decision_values(unscaled, model.scaling.apply(x)))


@pytest.mark.parametrize("value", [1e308, -1e308, np.inf, np.nan])
def test_a_query_row_that_is_not_finite_under_the_record_is_a_data_error(trained, value):
    model, x = trained
    queries = x[:6].copy()
    queries[3, 1] = value
    with pytest.raises(DataError, match=r"query row 3 \(0-based\)"):
        decision_values(model, queries)
    assert np.isfinite(decision_values(model, x[:6])).all()


def test_version_1_file_loads_without_scaling_and_predicts_as_before(tmp_path, trained):
    model, x = trained
    model = dataclasses.replace(model, scaling=None)
    path = tmp_path / "v1.svm"
    path.write_bytes(_struct_bytes(model))
    loaded = load_model(path)
    assert loaded.scaling is None
    _assert_same_model(model, loaded)
    assert decision_values(loaded, x).tobytes() == decision_values(model, x).tobytes()
    save_model(loaded, tmp_path / "v2.svm")
    assert (tmp_path / "v2.svm").read_bytes() == _struct_bytes_v2(model)


@pytest.mark.parametrize("blob", [svm._to_binary(_model(3, 4)),
                                  svm._to_binary(_model(3, 4, scaled=True)),
                                  _struct_bytes(_model(3, 4))],
                         ids=["v2-unscaled", "v2-scaled", "v1"])
def test_every_truncation_is_malformed(blob):
    for size in range(len(blob)):
        with pytest.raises(MalformedModelFileError):
            svm._from_binary(blob[:size])
    with pytest.raises(MalformedModelFileError):
        svm._from_binary(blob + b"\x00")


@pytest.mark.parametrize("blob", [
    b"",
    b"not a model file at all, just some text",
    b"ADMMSVM\x00" + struct.pack("<IddII", 3, -1.0, 0.0, 0, 3),
    b"ADMMSVM\x00" + struct.pack("<IddIII", 2, -1.0, 0.0, 0, 3, 2) + bytes(32),
    # a one-wide record would broadcast against any width
    b"ADMMSVM\x00" + struct.pack("<IddIII", 2, -1.0, 0.0, 0, 3, 1) + struct.pack("<2d", 0.0, 1.0),
    b"ADMMSVM\x00" + struct.pack("<IddII", 1, -1.0, 0.0, 0, 2 ** 32 - 1),
    b"ADMMSVM\x00" + struct.pack("<IddII", 1, -1.0, 0.0, 2 ** 32 - 1, 2 ** 32 - 1),
    b"{",
    b"{\"support\": " + b"[" * 100_000,
    b"{\"format\": \"admmsvm-model\"}",
    b"ADMMSVM\x00" + struct.pack("<IddII", 1, 0.5, 0.0, 0, 3),
    json.dumps({"format": "admmsvm-model", "version": 1, "gamma": 0.5, "bias": 0.0,
                "support": []}).encode(),
    json.dumps({"format": "admmsvm-model", "version": 1, "gamma": -1.0, "bias": "x",
                "support": []}).encode(),
    json.dumps({"format": "admmsvm-model", "version": 1, "gamma": -1.0, "bias": 0.0,
                "support": [{"index": 0, "alpha_weighted": 1.0, "label": 1, "features": [1.0]},
                            {"index": 1, "alpha_weighted": 1.0, "label": -1,
                             "features": [1.0, 2.0]}]}).encode(),
    json.dumps({"format": "admmsvm-model", "version": 1, "gamma": -1.0, "bias": 0.0,
                "support": [{"index": 10 ** 30, "alpha_weighted": 1.0, "label": 1,
                             "features": ["a"]}]}).encode(),
    # decodable, but a non-finite bias, weight or feature would make every prediction NaN
    b"ADMMSVM\x00" + struct.pack("<IddII", 1, -1.0, float("nan"), 0, 3),
    b"ADMMSVM\x00" + struct.pack("<IddII", 1, -1.0, 0.0, 1, 1)
    + struct.pack("<IdBd", 0, 1.0, 1, float("-inf")),
    json.dumps({"format": "admmsvm-model", "version": 1, "gamma": -1.0, "bias": 0.0,
                "support": [{"index": 0, "alpha_weighted": float("inf"), "label": 1,
                             "features": [1.0]}]}).encode(),
    json.dumps({"format": "admmsvm-model", "version": 1, "gamma": -1.0, "bias": float("nan"),
                "support": []}).encode(),
])
def test_garbage_files_are_malformed(tmp_path, blob):
    path = tmp_path / "bad.svm"
    path.write_bytes(blob)
    with pytest.raises(MalformedModelFileError):
        load_model(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_load_model_loads_or_raises_typed_error(tmp_path, data):
    valid = data.draw(st.sampled_from([svm._to_binary(_model(2, 3)),
                                       svm._to_binary(_model(2, 3, scaled=True))]))
    blob = data.draw(st.one_of(
        st.binary(max_size=120),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda edit: valid[:edit[0]] + bytes([edit[1]]) + valid[edit[0] + 1:]),
    ))
    path = tmp_path / "fuzz.svm"
    path.write_bytes(blob)
    try:
        load_model(path)
    except AdmmSvmError as err:
        assert isinstance(err, MalformedModelFileError)
