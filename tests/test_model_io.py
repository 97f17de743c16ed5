"""Model files: byte layout, binary and JSON round trips, and typed errors on bad files."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from admmsvm import svm
from admmsvm.admm import AdmmConfig
from admmsvm.errors import AdmmSvmError, MalformedModelFileError
from admmsvm.kernel import KernelParams
from admmsvm.nystrom import NystromConfig
from admmsvm.svm import NonlinearModel, decision_values, load_model, save_model, train_nonlinear
from admmsvm.synthetic import mnist_like


def _struct_bytes(model):
    """The binary layout written one field at a time with struct."""
    parts = [struct.pack("<8sIddII", b"ADMMSVM\x00", 1, model.kernel.gamma, model.bias,
                         model.n_support, model.p)]
    for i in range(model.n_support):
        parts.append(struct.pack(f"<IdB{model.p}d", int(model.indices[i]),
                                 float(model.alpha_weighted[i]),
                                 1 if model.labels[i] > 0 else 0, *model.features[i]))
    return b"".join(parts)


def _model(n, p, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    features = rng.standard_normal((n, p))
    if n and p:
        features[0, 0] = -0.0
        features[-1, -1] = 5e-324
    return NonlinearModel(indices=np.sort(rng.choice(4 * n + 1, n, replace=False)),
                          alpha_weighted=rng.standard_normal(n) * labels, labels=labels,
                          features=features, bias=-0.125, kernel=KernelParams(gamma=-0.75))


def _assert_same_model(a, b):
    for name in ("indices", "alpha_weighted", "labels", "features"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.shape == right.shape
        assert left.tobytes() == right.tobytes()
    assert (a.bias, a.kernel) == (b.bias, b.kernel)


@pytest.mark.parametrize("n, p", [(0, 3), (1, 1), (7, 5), (40, 784)])
def test_binary_bytes_match_the_struct_layout(n, p):
    model = _model(n, p)
    assert svm._to_binary(model) == _struct_bytes(model)


@pytest.fixture(scope="module")
def trained():
    ds = mnist_like(256)
    report = train_nonlinear(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=32, r=32),
                             AdmmConfig())
    return report.model, ds.x


@pytest.mark.parametrize("fmt", ["binary", "json"])
def test_save_load_round_trip(tmp_path, trained, fmt):
    model, x = trained
    path = tmp_path / "model"
    save_model(model, path, fmt=fmt)
    loaded = load_model(path)
    _assert_same_model(model, loaded)
    assert loaded.features.flags.c_contiguous
    assert decision_values(loaded, x).tobytes() == decision_values(model, x).tobytes()
    again = tmp_path / "again"
    save_model(loaded, again, fmt=fmt)
    assert again.read_bytes() == path.read_bytes()


def test_every_truncation_is_malformed(tmp_path):
    blob = svm._to_binary(_model(3, 4))
    for size in range(len(blob)):
        with pytest.raises(MalformedModelFileError):
            svm._from_binary(blob[:size])
    with pytest.raises(MalformedModelFileError):
        svm._from_binary(blob + b"\x00")


@pytest.mark.parametrize("blob", [
    b"",
    b"not a model file at all, just some text",
    b"ADMMSVM\x00" + struct.pack("<IddII", 2, -1.0, 0.0, 0, 3),
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
    valid = svm._to_binary(_model(2, 3))
    blob = data.draw(st.one_of(
        st.binary(max_size=120),
        st.binary(max_size=40).map(lambda tail: b"{" + tail),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda edit: valid[:edit[0]] + bytes([edit[1]]) + valid[edit[0] + 1:]),
    ))
    path = tmp_path / "fuzz.svm"
    path.write_bytes(blob)
    try:
        load_model(path)
    except AdmmSvmError as err:
        assert isinstance(err, MalformedModelFileError)


def test_empty_json_model_keeps_its_feature_width(tmp_path):
    model = _model(0, 5)
    path = tmp_path / "empty.json"
    save_model(model, path, fmt="json")
    loaded = load_model(path)
    assert loaded.features.shape == (0, 5)
    _assert_same_model(model, loaded)
    again = tmp_path / "again.json"
    save_model(loaded, again, fmt="json")
    assert again.read_bytes() == path.read_bytes()


def test_json_model_without_p_takes_the_width_from_its_entries(tmp_path):
    model = _model(3, 4)
    payload = svm._to_json_dict(model)
    del payload["p"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_same_model(model, load_model(path))


@pytest.mark.parametrize("p", [2, 4, -1, 1.5, True, "3", None, 2 ** 31])
def test_json_model_whose_entries_differ_from_p_is_malformed(tmp_path, p):
    payload = svm._to_json_dict(_model(2, 3))
    payload["p"] = p
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(MalformedModelFileError):
        load_model(path)
