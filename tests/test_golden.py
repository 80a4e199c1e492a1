"""Golden pins for the window path: the exact dataset bytes both builders
produce, the exact events ``detect`` returns and the exact reports
``evaluate_run`` gives on seeded synthetic streams.

The values were captured from the per-window implementation (one
``make_window`` + ``image_feature`` call per window) before the windowing was
batched per stream, so they prove the batched path changed nothing.  The
image event pins were recaptured when the conv biases, which BatchNorm
cancels, were removed: the bias gradients were rounding noise of about 1e-16,
so training moved in the last digits; labels and intervals stayed identical
and every confidence moved by less than 1e-15.  They were recaptured again
when CNN inference began to fold each BatchNorm into the kernels of its
convolution (now ``net.FoldedBlock``), which reassociates the products: labels
and intervals stayed identical and the largest confidence move was 5.6e-17,
one confidence in its last digit.  The image event and array pins were
recaptured once more when BatchNorm's training reductions became BLAS
products (``ones @ x`` with ones = 1/m, the mean corrected by a second pass)
and its backward the closed form ``(inv * gamma) * (dy - mean(dy) - xhat *
mean(dy * xhat))``, which reassociates training: labels and intervals stayed
identical, the window probabilities moved by at most 4.5e-14, and the largest
confidence move was 1.2e-15.  The event pins depend on
training arithmetic and may need recapturing on a numpy or BLAS build that
rounds matrix products differently; the dataset pins do not involve a matrix
product.  The report pins were captured from the per-window window table
(one ``WindowScore`` object per window) and the per-class walks of the
matches, before both became arrays and one confusion table.

The image event and array pins were recaptured once more when the conv
layers moved to row bands (``net._row_bands`` times ``net._band_weights``),
whose kernel gradient sums over the output columns and over fixed row slices
(``net.GRAD_ROWS``): labels and intervals stayed identical, and the window
probabilities moved by at most 1.04e-14 in phase one and 4.4e-16 in phase two
from those of the networks trained before, and the largest confidence move was
1.7e-16.  The slices are what make the pins
hold at every OpenBLAS thread count; before them, the image pins held only at
2 threads.  The vector pins hold at any count.
The array pins hash every ``Network.arrays()`` entry of the trained networks,
so an exact change to the network code must leave checkpoints byte-identical.
Training each CNN block pool-first (Conv2D, BatchNorm, MaxPool2, ReLU) left
every pin unchanged.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from ial.data import ActionClass, SyntheticConfig, generate_synthetic_stream
from ial import signal
from ial.detector import (
    DetectorConfig,
    _batched_proba,
    build_phase1_dataset,
    build_phase2_dataset,
    detect,
    featurize_stream,
    train_detector,
)
from ial.evaluation import evaluate_run
from ial.net import TrainConfig, load_checkpoint, save_checkpoint, softmax

SYNTH = SyntheticConfig(
    seed=11,
    stream_duration_s=40.0,
    events_per_stream=3,
    noise_std=0.2,
    amplitude_range={cls.name.lower(): (4.0, 6.0) for cls in ActionClass if cls.value > 0},
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
        "[DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=2.4, end=6.0, confidence=0.48894214201786773), "
        "DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=13.2, end=18.0, confidence=0.5055437882678686), "
        "DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=24.3, end=28.5, confidence=0.4783692059309422)]",
        "[DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=7.5, end=11.1, confidence=0.4720399023298802), "
        "DetectedEvent(label=<ActionClass.CIRCLE_CCW: 5>, start=27.6, end=31.5, confidence=0.49450449887769593)]",
    ],
    "vector": [
        "[DetectedEvent(label=<ActionClass.WAVE: 3>, start=2.1, end=6.6, confidence=0.5842870792511256), "
        "DetectedEvent(label=<ActionClass.WAVE: 3>, start=12.3, end=18.6, confidence=0.4070161376328763), "
        "DetectedEvent(label=<ActionClass.SWIPE_RIGHT: 2>, start=23.4, end=29.4, confidence=0.7674877432089228)]",
        "[DetectedEvent(label=<ActionClass.SWIPE_LEFT: 1>, start=6.3, end=12.3, confidence=0.6776311857756119), "
        "DetectedEvent(label=<ActionClass.SWIPE_LEFT: 1>, start=26.4, end=32.7, confidence=0.5848844594429888)]",
    ],
}

# sha256 over the names and digests of net.arrays(): phase-1 then phase-2 network
ARRAY_DIGESTS = {
    "image": [
        "2353e4253c6be2756ba9014ca9add598dc54a883410047250c5a302a4fad164b",
        "24066dfd355bd31b24fa686705bd07fba7101d46587df1cb7b0e8812e02b6b7f",
    ],
    "vector": [
        "7ca6182a58b1b4853e71589f33c33aaf69ad887c0492c515a5c9fa4e00596e33",
        "65596823ea9c322175ba5b875524c7420a23a1e6cd3aa35a5c57b3c1870964fc",
    ],
}

# sha256 over the digests of ``_batched_proba`` on a 120 s eval stream's image windows,
# split into batches of each size in INFER_BATCHES: phase-1 then phase-2 network
INFER_BATCHES = (*range(1, 41), 64, 100, 391)
PROBA_DIGESTS = [
    "15d86ff562eb21d6fb9ee801dacd6e3532b7ac3fb0a54729c24909a9d0ac101a",
    "276cb9498ff607d09def73f620971e0fa0a6345cb5b013a0fc00c7e0c6e23c8c",
]

# digest of each phase-2 ``predict_proba`` result that ``detect`` averages, one
# per event, over the two eval streams and the 120 s one, with the image networks
PHASE2_EVENT_DIGESTS = [
    "80d6825cf1d6d1a6825953de6ec6435175ed1155b9d426398795d6334d35bf9a",
    "4ea0926e5ea8dbba6f7a2760158d77845b591024b65d29aee8cd0ccfbf9f3719",
    "95f85945229221b861e3f39015956e1f5c73acf1010dbc1e8fae9f0adf2162e7",
    "5db2b93e432556025d91976f7f8d507f02e7cb9a12d07088306b90ea5da3e2ea",
    "be7db46ea47d34329045432fac6a5e6aa0897931807e5fbde0451d6b00a71b4c",
    "80be858c37251f796d3fd8863ca5d3d695f5c0c5689c0e0b50e135b48ef578ad",
    "ebf87f252990568faf67d80738625c6a82141ce37c407ccc3df2114fcc387407",
    "50c328e82e65529a16649e59fb28125cb13e207638d6185a065294fdf41a9802",
]

# json.dumps of report1.to_dict() and report2.to_dict() over the two test streams
REPORT_JSON = {
    "image": [
        (
            '{"phase": "one", "counts": {"tp": 5, "fp": 0, "fn": 1, "tn": 0}, "precision": 1.0, '
            '"recall": 0.8333333333333334, "f1": 0.9090909090909091, "per_class": {}, '
            '"window_diagnostics": {"tp": 23, "fp": 1, "fn": 16, "tn": 208}}'
        ),
        (
            '{"phase": "two", "counts": {"tp": 0, "fp": 5, "fn": 6, "tn": 0}, "precision": 0.0, '
            '"recall": 0.0, "f1": 0.0, "per_class": {"SWIPE_LEFT": {"tp": 0, "fp": 0, "fn": 2, '
            '"precision": 0.0, "recall": 0.0, "f1": 0.0}, "SWIPE_RIGHT": {"tp": 0, "fp": 0, '
            '"fn": 2, "precision": 0.0, "recall": 0.0, "f1": 0.0}, "WAVE": {"tp": 0, "fp": 0, '
            '"fn": 1, "precision": 0.0, "recall": 0.0, "f1": 0.0}, "CIRCLE_CW": {"tp": 0, "fp": 0, '
            '"fn": 1, "precision": 0.0, "recall": 0.0, "f1": 0.0}, "CIRCLE_CCW": {"tp": 0, '
            '"fp": 5, "fn": 0, "precision": 0.0, "recall": 0.0, "f1": 0.0}, '
            '"confusion": {"SWIPE_LEFT": {"SWIPE_LEFT": 0, "SWIPE_RIGHT": 0, "WAVE": 0, '
            '"CIRCLE_CW": 0, "CIRCLE_CCW": 2}, "SWIPE_RIGHT": {"SWIPE_LEFT": 0, "SWIPE_RIGHT": 0, '
            '"WAVE": 0, "CIRCLE_CW": 0, "CIRCLE_CCW": 1}, "WAVE": {"SWIPE_LEFT": 0, '
            '"SWIPE_RIGHT": 0, "WAVE": 0, "CIRCLE_CW": 0, "CIRCLE_CCW": 1}, '
            '"CIRCLE_CW": {"SWIPE_LEFT": 0, "SWIPE_RIGHT": 0, "WAVE": 0, "CIRCLE_CW": 0, '
            '"CIRCLE_CCW": 1}, "CIRCLE_CCW": {"SWIPE_LEFT": 0, "SWIPE_RIGHT": 0, "WAVE": 0, '
            '"CIRCLE_CW": 0, "CIRCLE_CCW": 0}}}, "window_diagnostics": {}}'
        ),
    ],
    "vector": [
        (
            '{"phase": "one", "counts": {"tp": 5, "fp": 0, "fn": 1, "tn": 0}, "precision": 1.0, '
            '"recall": 0.8333333333333334, "f1": 0.9090909090909091, "per_class": {}, '
            '"window_diagnostics": {"tp": 33, "fp": 20, "fn": 6, "tn": 189}}'
        ),
        (
            '{"phase": "two", "counts": {"tp": 4, "fp": 1, "fn": 2, "tn": 0}, "precision": 0.8, '
            '"recall": 0.6666666666666666, "f1": 0.7272727272727272, '
            '"per_class": {"SWIPE_LEFT": {"tp": 2, "fp": 0, "fn": 0, "precision": 1.0, '
            '"recall": 1.0, "f1": 1.0}, "SWIPE_RIGHT": {"tp": 1, "fp": 0, "fn": 1, '
            '"precision": 1.0, "recall": 0.5, "f1": 0.6666666666666666}, "WAVE": {"tp": 1, '
            '"fp": 1, "fn": 0, "precision": 0.5, "recall": 1.0, "f1": 0.6666666666666666}, '
            '"CIRCLE_CW": {"tp": 0, "fp": 0, "fn": 1, "precision": 0.0, "recall": 0.0, "f1": 0.0}, '
            '"CIRCLE_CCW": {"tp": 0, "fp": 0, "fn": 0, "precision": 0.0, "recall": 0.0, '
            '"f1": 0.0}, "confusion": {"SWIPE_LEFT": {"SWIPE_LEFT": 2, "SWIPE_RIGHT": 0, '
            '"WAVE": 0, "CIRCLE_CW": 0, "CIRCLE_CCW": 0}, "SWIPE_RIGHT": {"SWIPE_LEFT": 0, '
            '"SWIPE_RIGHT": 1, "WAVE": 0, "CIRCLE_CW": 0, "CIRCLE_CCW": 0}, '
            '"WAVE": {"SWIPE_LEFT": 0, "SWIPE_RIGHT": 0, "WAVE": 1, "CIRCLE_CW": 0, '
            '"CIRCLE_CCW": 0}, "CIRCLE_CW": {"SWIPE_LEFT": 0, "SWIPE_RIGHT": 0, "WAVE": 1, '
            '"CIRCLE_CW": 0, "CIRCLE_CCW": 0}, "CIRCLE_CCW": {"SWIPE_LEFT": 0, "SWIPE_RIGHT": 0, '
            '"WAVE": 0, "CIRCLE_CW": 0, "CIRCLE_CCW": 0}}}, "window_diagnostics": {}}'
        ),
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


@lru_cache(maxsize=None)
def trained(kind):
    """The phase-1 and phase-2 networks of a short seeded training."""
    tcfg = TrainConfig(learning_rate=0.02, epochs=TRAIN_EPOCHS[kind], seed=5, dropout_rate=0.0)
    return train_detector(train_pairs(), kind, DetectorConfig(), tcfg)[:2]


def arrays_digest(net) -> str:
    h = hashlib.sha256()
    for name, arr in net.arrays():
        h.update(name.encode() + digest(arr).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind", ["image", "vector"])
def test_trained_arrays_match_the_pinned_bytes(kind):
    assert [arrays_digest(net) for net in trained(kind)] == ARRAY_DIGESTS[kind]


def test_trained_image_arrays_do_not_depend_on_the_blas_thread_count():
    """The phase-1 image network trains to the same bytes at 1 and at 2
    OpenBLAS threads, each in a fresh process (the count is read at load)."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = "import test_golden as g; print(g.arrays_digest(g.trained('image')[0]))"
    digests = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1] != ""


@pytest.mark.parametrize("kind", ["image", "vector"])
def test_checkpoint_round_trip_keeps_the_trained_bytes(kind, tmp_path):
    for phase, net in enumerate(trained(kind), 1):
        save_checkpoint(net, tmp_path / f"phase{phase}.json")
        assert arrays_digest(load_checkpoint(tmp_path / f"phase{phase}.json")) == arrays_digest(net)


def eval_pairs():
    return [generate_synthetic_stream(SYNTH, 2, i) for i in (1, 2)]


@pytest.mark.parametrize("kind", ["image", "vector"])
def test_detected_events_match_the_per_window_path(kind):
    net1, net2 = trained(kind)
    got = [repr(detect(stream, net1, net2, DetectorConfig(), kind)[1]) for stream, _ in eval_pairs()]
    assert all(r != "[]" for r in got)
    assert got == EVENT_REPRS[kind]


def test_folded_inference_matches_the_layer_walk():
    for net in trained("image"):
        for stream, _ in eval_pairs():
            x = featurize_stream(stream, "image", DetectorConfig().stride_frames)
            logits = net.forward(x)  # each layer's own inference forward
            assert np.abs(net.fold().predict_proba(x) - softmax(logits)).max() <= 1e-12


def test_phase1_probabilities_do_not_depend_on_the_chunk_size(monkeypatch):
    """Phase one scores a stream in chunks of ``signal.CHUNK`` windows; the
    golden phase-1 network gives the same bytes at that size and at 256,
    where each eval stream is one chunk.

    Phase two keeps one ``predict_proba`` call per event instead of one
    batched call per stream.  The 5-class network's probabilities move in
    their last bits with the composition of the batch (by up to 1.7e-16 on
    three seeded 120 s streams), which would move the event confidences, and
    one batched call saved little: over 6-7 events it took 12.0-14.7 ms
    against 10.7-14.3 ms per event at one BLAS thread, and about 1 ms less
    at two (2 vCPU).
    """
    net1, _ = trained("image")
    xs = [featurize_stream(stream, "image", DetectorConfig().stride_frames) for stream, _ in eval_pairs()]
    assert all(len(x) > signal.CHUNK for x in xs)
    got = [_batched_proba(net1, x).tobytes() for x in xs]
    monkeypatch.setattr(signal, "CHUNK", 256)
    assert got == [_batched_proba(net1, x).tobytes() for x in xs]


@pytest.mark.parametrize("kind", ["image", "vector"])
def test_evaluation_report_matches_the_per_window_path(kind):
    net1, net2 = trained(kind)
    report1, report2 = evaluate_run(eval_pairs(), net1, net2, DetectorConfig(), kind)
    assert [json.dumps(report1.to_dict()), json.dumps(report2.to_dict())] == REPORT_JSON[kind]


def long_eval_stream():
    """A 120 s stream of an eval subject: 6,000 frames, 391 windows."""
    return generate_synthetic_stream(replace(SYNTH, stream_duration_s=120.0), 2, 3)[0]


def batched_digest(net, x) -> str:
    h = hashlib.sha256()
    for b in INFER_BATCHES:
        h.update(digest(np.concatenate([_batched_proba(net, x[lo : lo + b]) for lo in range(0, len(x), b)])).encode())
    return h.hexdigest()


def test_image_inference_bytes_match_the_pins_at_every_batch_size():
    """Both golden image networks give the pinned probability bytes at every
    batch size in ``INFER_BATCHES``, so an inference refactor that claims to
    change no byte proves it here."""
    x = featurize_stream(long_eval_stream(), "image", DetectorConfig().stride_frames)
    assert len(x) == max(INFER_BATCHES)
    assert [batched_digest(net, x) for net in trained("image")] == PROBA_DIGESTS


def test_phase2_event_probabilities_match_the_pins(monkeypatch):
    """The bytes of each per-event phase-2 ``predict_proba`` call of ``detect``,
    which runs on the fold of the phase-2 network."""
    net1, net2 = trained("image")
    got, fold = [], net2.fold

    def recording_fold():
        folded = fold()
        predict = folded.predict_proba

        def recording(x):
            p = predict(x)
            got.append(digest(p))
            return p

        folded.predict_proba = recording
        return folded

    monkeypatch.setattr(net2, "fold", recording_fold)
    for stream in [stream for stream, _ in eval_pairs()] + [long_eval_stream()]:
        detect(stream, net1, net2, DetectorConfig(), "image")
    assert got == PHASE2_EVENT_DIGESTS
