"""The typed JSON reader behind the run config, the manifest and the checkpoint spec.

The property tests feed each reader random JSON values: a reader either
returns dataclasses whose every field has its annotated type, or raises an
IalError subclass.
"""

import base64
import dataclasses
import functools
import json
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ial.config import RunConfig, config_hash, load_run_config
from ial.data import (
    ManifestEntry, SyntheticConfig, generate_synthetic_stream, load_dataset, write_labels, write_manifest, write_stream,
)
from ial.errors import ConfigError, IalError
from ial.net import ModelSpec, build_network, load_checkpoint, save_checkpoint

CLASS_NAMES = ["swipe_left", "swipe_right", "wave", "circle_cw", "circle_ccw"]


def json_values(ints=st.integers()):
    """Any JSON value, with ints drawn from ``ints``."""
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=4)
    nested = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["wave", "t", "x"]), inner, max_size=3),
        max_leaves=8,
    )
    # values that some field accepts, so that valid documents are drawn too
    return nested | st.sampled_from([1, 3, 0.5, 2.0, "vector", "fc", "iou", "center-window", [1, 3], {"wave": [1, 2]}])


def flatten(doc, where=""):
    """Every dotted key of a JSON object, with its value; sections are keys too."""
    for key, value in doc.items():
        yield where + key, value
        if isinstance(value, dict):
            yield from flatten(value, f"{where}{key}.")


# each override key with its default value, which the reader must accept
DEFAULTS = dict(flatten(json.loads(json.dumps(dataclasses.asdict(RunConfig())))))
OVERRIDES = st.sampled_from(list(DEFAULTS.items())) | st.tuples(
    st.sampled_from([*DEFAULTS, "bogus", "train.bogus"]), json_values()
)
SPEC_KEYS = [f.name for f in dataclasses.fields(ModelSpec)] + ["bogus"]
ENTRY_KEYS = [f.name for f in dataclasses.fields(ManifestEntry)] + ["bogus"]


def assert_typed(value, tp):
    """Check ``value`` against annotation ``tp`` with plain isinstance tests."""
    if dataclasses.is_dataclass(tp):
        assert isinstance(value, tp)
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            assert_typed(getattr(value, f.name), hints[f.name])
        return
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        if value is not None:
            assert_typed(value, next(a for a in args if a is not type(None)))
    elif origin is tuple:
        assert isinstance(value, tuple)
        for item, item_tp in zip(value, args[:1] * len(value) if args[-1] is Ellipsis else args, strict=True):
            assert_typed(item, item_tp)
    elif origin is dict:
        assert isinstance(value, dict)
        for key, item in value.items():
            assert isinstance(key, args[0])
            assert_typed(item, args[1])
    else:
        assert isinstance(value, tp) and not (tp is int and isinstance(value, bool))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(OVERRIDES, max_size=4).map(dict))
def test_random_overrides_give_a_typed_config_or_a_config_error(overrides):
    try:
        cfg = load_run_config(overrides=overrides)
    except ConfigError:
        return
    assert_typed(cfg, RunConfig)


def test_bad_values_name_their_dotted_path():
    with pytest.raises(ConfigError, match=r"^train\.epochs must be int, got 1\.5$"):
        load_run_config(overrides={"train.epochs": 1.5})
    with pytest.raises(ConfigError, match=r"^seed must be int, got '3'$"):
        load_run_config(overrides={"seed": "3"})
    with pytest.raises(ConfigError, match=r"^unknown key train\.bogus$"):
        load_run_config(overrides={"train.bogus": 1})
    with pytest.raises(ConfigError, match=r"event_duration_range\[1\] must be float"):
        load_run_config(overrides={"synthetic.event_duration_range": [1.0, True]})


# one value of the right type that each section's own check refuses
@pytest.mark.parametrize("key, value, message", [
    ("eval.match_rule", "nearest", "unknown match_rule 'nearest'"),
    ("eval.iou_threshold", 0.0, "iou_threshold must be in"),
    ("feature_kind", "spectrogram", "unknown feature_kind 'spectrogram'"),
    ("model", "rnn", "unknown model 'rnn'"),
    ("threads", 0, "threads must be >= 1"),
    ("synthetic.seed", -1, "seed must be non-negative"),
    ("synthetic.stream_duration_s", 0.0, "duration and sample rate must be positive"),
    ("synthetic.event_duration_range", [2.0, 1.0], "event_duration_range must satisfy"),
    ("synthetic.amplitude_range.wave", [0.0, 1.0], "amplitude range for wave"),
    ("synthetic.n_streams", 0, "n_subjects and n_streams must be >= 1"),
    ("synthetic.stream_duration_s", 1e18, r"is 5e\+19 frames, over 2\*\*53"),
    ("synthetic.sample_rate_hz", 1e300, r"is 1\.2e\+302 frames, over 2\*\*53"),
    ("synthetic.stream_duration_s", 1.7e308, r"is inf frames, over 2\*\*53"),
    ("synthetic.sample_rate_hz", 1e-300, r"is 1\.2e-298 frames, under 1"),
    ("synthetic.stream_duration_s", 0.01, r"is 0\.5 frames, under 1"),
    ("synthetic.sample_rate_hz", 0.01, r"^synthetic\.stream_duration_s \* synthetic\.sample_rate_hz is 1\.2 frames, "
                                       r"under 150 \(one window\)$"),
    ("synthetic.stream_duration_s", 2.98, r"is 149 frames, under 150 \(one window\)$"),
    ("detector.interest_threshold", 1.0, "interest_threshold must be in"),
    ("detector.min_event_windows", 0, "min_event_windows must be >= 1"),
    ("detector.merge_gap_windows", -1, "merge_gap_windows must be >= 0"),
    ("detector.stride_frames", 0, "stride_frames must be >= 1"),
    ("detector.classification_mode", "vote", "unknown classification_mode 'vote'"),
    ("train.batch_size", 1, "batch_size must be >= 2"),
    ("train.epochs", -1, "epochs must be >= 0"),
    ("train.seed", -1, "seed must be non-negative"),
    ("train.bn_eps", -1.0, "bn_eps must be > 0"),
    ("train.bn_eps", 0.0, "bn_eps must be > 0"),
])
def test_each_section_check_refuses_its_value(key, value, message):
    with pytest.raises(ConfigError, match=message):
        load_run_config(overrides={key: value})


def test_run_config_refuses_a_negative_seed():
    # load_run_config hands the top-level seed to train and synthetic, whose checks fire first
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        RunConfig(seed=-1)


def test_an_int_in_a_float_field_becomes_a_float():
    as_int = load_run_config(overrides={"synthetic.stream_duration_s": 30})
    assert type(as_int.synthetic.stream_duration_s) is float
    assert config_hash(as_int) == config_hash(load_run_config(overrides={"synthetic.stream_duration_s": 30.0}))


def test_amplitude_range_is_a_partial_map_by_class_name():
    cfg = load_run_config(overrides={"synthetic.amplitude_range.wave": [1, 2]})
    assert cfg.synthetic.amplitude_range == {n: (1.0, 2.0) if n == "wave" else (2.0, 4.0) for n in CLASS_NAMES}
    assert cfg.synthetic == SyntheticConfig(amplitude_range={"wave": (1.0, 2.0)})
    with pytest.raises(ConfigError, match="unknown action class 'blob'"):
        load_run_config(overrides={"synthetic.amplitude_range.blob": [1, 2]})


# narrow networks keep each example's checkpoint small
SPECS = {"fc": ModelSpec("fc", 2, (16,), hidden_units=4), "cnn": ModelSpec("cnn", 2, (50, 8, 1), conv_filters=(2, 2, 2))}


@functools.cache
def checkpoint_doc(kind):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_checkpoint(build_network(SPECS[kind]), path)
        return json.loads(path.read_text())


def array_values():
    """JSON values, shapes and base64 text for a field of a checkpoint array entry."""
    b64 = st.binary(max_size=40).map(lambda b: base64.b64encode(b).decode("ascii"))
    shapes = st.lists(st.integers(-2, 6) | st.just(10**400), max_size=3)
    return json_values() | shapes | b64 | b64.map(lambda s: s[:-1]) | st.just("DELETE")


# an array mutation: which entry, which field (None replaces the whole entry) and the new value
ARRAY_MUTATIONS = st.tuples(st.integers(0, 20), st.sampled_from(["shape", "f64le", "bogus", None]), array_values())


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(SPECS)), key=st.sampled_from(SPEC_KEYS), value=json_values(),
       array=st.none() | ARRAY_MUTATIONS)
def test_mutated_checkpoint_spec_raises_only_ial_errors(tmp_path, kind, key, value, array):
    """Mutate one spec value or, if ``array`` is drawn, one entry of the stored arrays."""
    doc = checkpoint_doc(kind)
    if array is None:
        doc = {**doc, "spec": {**doc["spec"], key: value}}
    else:
        i, field, new = array
        name = sorted(doc["state"])[i % len(doc["state"])]
        entry = dict(doc["state"][name])
        if field is None:
            entry = new
        elif new == "DELETE":
            entry.pop(field, None)
        else:
            entry[field] = new
        doc = {**doc, "state": {**doc["state"], name: entry}}
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc))
    try:
        net = load_checkpoint(path)
    except IalError:
        return
    assert_typed(net.spec, ModelSpec)
    assert all(arr.dtype == np.float64 for _, arr in net.arrays())


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    stream, events = generate_synthetic_stream(SyntheticConfig(stream_duration_s=12.0, events_per_stream=1))
    write_stream(stream, root / "a.csv")
    write_labels(events, root / "a.labels.txt")
    write_manifest(root / "manifest.json", [ManifestEntry(1, 1, "a.csv", "a.labels.txt")])
    return root


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    target=st.sampled_from(["entry", "document"]),
    key=st.sampled_from(ENTRY_KEYS + ["sample_rate_hz", "version", "config_hash", "streams"]),
    value=json_values() | st.just("DELETE"),
)
def test_mutated_manifest_raises_only_ial_errors(manifest_dir, target, key, value):
    doc = json.loads((manifest_dir / "manifest.json").read_text())
    node = doc["streams"][0] if target == "entry" else doc
    if value == "DELETE":
        node.pop(key, None)
    else:
        node[key] = value
    path = manifest_dir / "mutated.json"
    path.write_text(json.dumps(doc))
    try:
        pairs = load_dataset(path)
    except IalError:
        return
    assert len(pairs) == len(doc["streams"])
