"""Golden pins for the window path: the exact dataset bytes both builders
produce and the exact events ``detect`` returns on seeded synthetic streams.

The values were captured from the per-window implementation (one
``make_window`` + ``image_feature`` call per window) before the windowing was
batched per stream, so they prove the batched path changed nothing.  The
event pins depend on training arithmetic and may need recapturing on a numpy
or BLAS build that rounds matrix products differently; the dataset pins do
not involve a matrix product.
"""

import hashlib

import numpy as np
import pytest

from ial.data import ActionClass, SyntheticConfig, generate_synthetic_stream
from ial.detector import DetectorConfig, build_phase1_dataset, build_phase2_dataset, detect
from ial.net import TrainConfig, image_model_spec, train, vector_model_spec

SYNTH = SyntheticConfig(
    seed=11,
    stream_duration_s=40.0,
    events_per_stream=3,
    noise_std=0.2,
    amplitude_range={cls: (4.0, 6.0) for cls in ActionClass if cls.value > 0},
)
TRAIN_EPOCHS = {"image": 4, "vector": 100}

# sha256 of (x1, y1, x2, y2): phase-1 then phase-2 dataset
DATASET_DIGESTS = {
    "image": [
        "a5c22882497ef2ce7e4be11cb5caeed2916ca8b3eabf33f097bfc6413452cdff",
        "0868b590c7831249d2bc8a19a17d0a9413f114a40ac1d652c27ad0b0060d077b",
        "3a7614559fc8bd52b7f50c59baa74ca8817c820b831898bd05a7b4e2abbdb1f7",
        "edbdd0f9c936cf257b7ebfd4668854325203bdcd1dab575270a1fac3c93a38ba",
    ],
    "vector": [
        "a3dbf6006051518bedf739f528efc3e1bc53e22998f55e2eaeebc65b44099d48",
        "0868b590c7831249d2bc8a19a17d0a9413f114a40ac1d652c27ad0b0060d077b",
        "00b1bd73be8d527fe09676ba4ef7f057f0f3bba201cbbc5c7dc9efafdfa31f06",
        "edbdd0f9c936cf257b7ebfd4668854325203bdcd1dab575270a1fac3c93a38ba",
    ],
}
EVENT_REPRS = {
    "image": [
        "[DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=2.4, end=6.0, confidence=0.48894214201786823), "
        "DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=13.2, end=18.0, confidence=0.505543788267869), "
        "DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=24.3, end=28.5, confidence=0.4783692059309427)]",
        "[DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=7.5, end=11.1, confidence=0.4720399023298806), "
        "DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=27.6, end=31.5, confidence=0.4945044988776962)]",
    ],
    "vector": [
        "[DetectedEvent(label=<ActionClass.WAVE: 3>, start=2.1, end=6.6, confidence=0.5842870792511256), "
        "DetectedEvent(label=<ActionClass.WAVE: 3>, start=12.3, end=18.6, confidence=0.4070161376328763), "
        "DetectedEvent(label=<ActionClass.SWIPE_RIGHT: 2>, start=23.4, end=29.4, confidence=0.7674877432089228)]",
        "[DetectedEvent(label=<ActionClass.SWIPE_LEFT: 1>, start=6.3, end=12.3, confidence=0.6776311857756119), "
        "DetectedEvent(label=<ActionClass.SWIPE_LEFT: 1>, start=26.4, end=32.7, confidence=0.5848844594429888)]",
    ],
}


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype}{a.shape}".encode() + a.tobytes()).hexdigest()


def train_pairs():
    return [generate_synthetic_stream(SYNTH, 1, i) for i in (1, 2, 3)]


def datasets(kind):
    pairs = train_pairs()
    x1, y1 = build_phase1_dataset(pairs, kind, DetectorConfig(), seed=5)
    x2, y2 = build_phase2_dataset(pairs, kind, DetectorConfig())
    return x1, y1, x2, y2


@pytest.mark.parametrize("kind", ["image", "vector"])
def test_dataset_bytes_match_the_per_window_path(kind):
    assert [digest(a) for a in datasets(kind)] == DATASET_DIGESTS[kind]


@pytest.mark.parametrize("kind", ["image", "vector"])
def test_detected_events_match_the_per_window_path(kind):
    x1, y1, x2, y2 = datasets(kind)
    spec = image_model_spec if kind == "image" else vector_model_spec
    tcfg = TrainConfig(learning_rate=0.02, epochs=TRAIN_EPOCHS[kind], seed=5, dropout_rate=0.0)
    net1, _ = train(spec(2, 0.0), x1, y1, tcfg)
    net2, _ = train(spec(5, 0.0), x2, y2, tcfg)
    got = []
    for stream_id in (1, 2):
        stream, _ = generate_synthetic_stream(SYNTH, 2, stream_id)
        got.append(repr(detect(stream, net1, net2, DetectorConfig(), kind)))
    assert all(r != "[]" for r in got)
    assert got == EVENT_REPRS[kind]
