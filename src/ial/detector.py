"""Two-phase continuous detection.

Each stream is windowed and featurized once into one window table
(``WindowScores``).  Phase one scores every sliding window with a binary
interest model; runs of positive windows become candidate intervals.  Phase
two classifies each interval with a 5-class model on the same window features.
``detect`` runs both phases and returns the table with the events.  This
module also assembles the per-window training sets for both phases from
labeled streams.

The window rules, each written once: a window spans ``WINDOW_FRAMES`` samples
(``_window_times``); its centre is its start plus half that span
(``_centers``) and lies inside an interval when start <= centre <= end
(``_centered_in``); it is positive when its interest probability reaches the
threshold (``WindowScores.positive``); and it is an interest window when at
least half of it overlaps a truth event (``window_labels``).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import INTEREST_CLASSES, ActionClass, GroundTruthEvent, Stream, write_lines
from .errors import ConfigError, DataError
from .features import vector_batch
from .net import CNN_KIND, FC_KIND, Network
from .signal import WINDOW_FRAMES, window_images, window_starts

IMAGE_KIND = "image"
VECTOR_KIND = "vector"

MODEL_FOR_FEATURE = {IMAGE_KIND: CNN_KIND, VECTOR_KIND: FC_KIND}

# phase-1 class indices
NON_INTEREST_IDX = 0
INTEREST_IDX = 1

# Windows per predict_proba call; with threads > 1 the chunks run in parallel.
# Sized to the cache: at 32 windows block 2's im2col columns, a chunk's largest
# CNN array, take 3.5 MB (28.3 MB at 256).  Phase-1 scoring of a 391-window
# stream (BLAS at 1 thread, median of 20 interleaved rounds) took 48 ms at 32
# against 50-80 ms at 16/64/128/256; with pool-cell-order columns, 38-39 ms at
# every multiple of 8 from 16 to 64.  Probabilities were byte-equal to 256's.
PROBA_CHUNK = 32


@dataclass(frozen=True, eq=False)
class WindowScores:
    """Every window of one stream, as arrays in window order: start time (s),
    phase-one interest probability and model input row (phase two reuses the
    rows), plus the window span ``window_s`` (s)."""

    start_t: np.ndarray
    interest_prob: np.ndarray
    x: np.ndarray
    window_s: float

    def __len__(self) -> int:
        return len(self.start_t)

    @cached_property
    def centers(self) -> np.ndarray:
        return _centers(self.start_t, self.window_s)

    def positive(self, threshold: float) -> np.ndarray:
        return self.interest_prob >= threshold


@dataclass(frozen=True)
class DetectedEvent:
    label: ActionClass
    start: float
    end: float
    confidence: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.start + self.end)


@dataclass(frozen=True)
class DetectorConfig:
    interest_threshold: float = 0.5
    min_event_windows: int = 3
    merge_gap_windows: int = 2
    stride_frames: int = 15
    classification_mode: str = "mean-probability"  # or "center-window"

    def __post_init__(self):
        if not 0.0 < self.interest_threshold < 1.0:
            raise ConfigError("interest_threshold must be in (0, 1)")
        if self.min_event_windows < 1:
            raise ConfigError("min_event_windows must be >= 1")
        if self.merge_gap_windows < 0:
            raise ConfigError("merge_gap_windows must be >= 0")
        if self.stride_frames < 1:
            raise ConfigError("stride_frames must be >= 1")
        if self.classification_mode not in ("mean-probability", "center-window"):
            raise ConfigError(f"unknown classification_mode {self.classification_mode!r}")


def _window_times(stream: Stream, stride_frames: int) -> tuple[np.ndarray, float]:
    """Every window's start time and the window span, in seconds."""
    starts = np.asarray(window_starts(len(stream), stride_frames))
    return stream.t[starts], WINDOW_FRAMES / stream.sample_rate_hz


def _centers(start_t: np.ndarray, window_s: float) -> np.ndarray:
    return start_t + 0.5 * window_s


def _centered_in(centers: np.ndarray, start: float, end: float) -> np.ndarray:
    """Which window centres lie inside the closed interval [start, end]."""
    return (start <= centers) & (centers <= end)


def featurize_stream(stream: Stream, feature_kind: str, stride_frames: int) -> np.ndarray:
    """Every window of the stream as one model input batch, of shape
    (n, 50, 8, 1) or (n, 16)."""
    if feature_kind not in MODEL_FOR_FEATURE:
        raise ConfigError(f"unknown feature kind {feature_kind!r}")
    _, images = window_images(stream, stride_frames)
    return images[..., None] if feature_kind == IMAGE_KIND else vector_batch(images)


def _check_model(model: Network, feature_kind: str, n_classes: int) -> None:
    want_kind = MODEL_FOR_FEATURE.get(feature_kind)
    if want_kind is None:
        raise ConfigError(f"unknown feature kind {feature_kind!r}")
    if model.spec.kind != want_kind:
        raise DataError(f"{feature_kind} features need a {want_kind} model, got {model.spec.kind}")
    if model.spec.n_classes != n_classes:
        raise DataError(f"expected a {n_classes}-class model, got {model.spec.n_classes}")


def _batched_proba(model: Network, x: np.ndarray, threads: int = 1) -> np.ndarray:
    chunks = [x[lo : lo + PROBA_CHUNK] for lo in range(0, len(x), PROBA_CHUNK)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.concatenate(list(pool.map(model.predict_proba, chunks)))
    return np.concatenate([model.predict_proba(chunk) for chunk in chunks])


def score_windows(
    stream: Stream,
    phase1_model: Network,
    feature_kind: str,
    cfg: DetectorConfig,
    threads: int = 1,
) -> WindowScores:
    """The stream's window table: one interest probability per sliding window."""
    _check_model(phase1_model, feature_kind, 2)
    x = featurize_stream(stream, feature_kind, cfg.stride_frames)
    probs = _batched_proba(phase1_model, x, threads)
    start_t, window_s = _window_times(stream, cfg.stride_frames)
    return WindowScores(start_t, probs[:, INTEREST_IDX], x, window_s)


def segment_events(scores: WindowScores, cfg: DetectorConfig) -> list[tuple[float, float]]:
    """Turn window scores into disjoint candidate intervals.

    Runs of positive windows separated by at most ``merge_gap_windows``
    negatives merge; merged runs with fewer than ``min_event_windows``
    positive windows are discarded.  A surviving run spans [first window
    start, last window start + window span]; when that overruns the next
    run's interval it is clipped to keep the output disjoint.
    """
    positives = np.flatnonzero(scores.positive(cfg.interest_threshold))
    # a positive opens a run when more than merge_gap_windows negatives precede it
    opens_run = np.diff(positives, prepend=-np.inf) - 1 > cfg.merge_gap_windows
    first = np.flatnonzero(opens_run)  # position in ``positives`` of each run's first window
    size = np.diff(first, append=len(positives))
    kept = size >= cfg.min_event_windows
    first, size = first[kept], size[kept]
    starts = scores.start_t[positives[first]]
    ends = scores.start_t[positives[first + size - 1]] + scores.window_s
    ends[:-1] = np.minimum(ends[:-1], starts[1:])
    return list(zip(starts.tolist(), ends.tolist()))


def detect(
    stream: Stream,
    phase1_model: Network,
    phase2_model: Network,
    cfg: DetectorConfig,
    feature_kind: str,
    threads: int = 1,
) -> tuple[WindowScores, list[DetectedEvent]]:
    """Full two-phase pass over one stream: its window table and its events.

    Phase one scores the table and segments it into intervals, each clipped
    to the stream's last timestamp.  Phase two classifies each interval on the
    table's feature rows: center-window mode takes the single window whose
    center is nearest the interval midpoint; mean-probability mode averages
    the softmax vectors of all windows whose center falls inside the interval
    (falling back to the center window when none does).  Argmax ties go to the
    lowest class index.  Events come out sorted by start and pairwise disjoint.
    """
    scores = score_windows(stream, phase1_model, feature_kind, cfg, threads)
    _check_model(phase2_model, feature_kind, len(INTEREST_CLASSES))
    stream_end = float(stream.t[-1])
    events = []
    for start, end in segment_events(scores, cfg):
        end = min(end, stream_end)
        chosen = np.flatnonzero(_centered_in(scores.centers, start, end))
        if cfg.classification_mode == "center-window" or not len(chosen):
            chosen = [int(np.argmin(np.abs(scores.centers - 0.5 * (start + end))))]
        mean_probs = phase2_model.predict_proba(scores.x[chosen]).mean(axis=0)
        idx = int(np.argmax(mean_probs))
        events.append(DetectedEvent(INTEREST_CLASSES[idx], start, end, float(mean_probs[idx])))
    return scores, events


# ---------------------------------------------------------------------------
# training-set assembly
# ---------------------------------------------------------------------------


def window_labels(
    start_t: np.ndarray, window_s: float, truth: Sequence[GroundTruthEvent]
) -> np.ndarray:
    """Interest label per window: True iff at least half of the window span
    [start_t, start_t + window_s] overlaps one truth interval."""
    labels = np.zeros(len(start_t), dtype=bool)
    for ev in truth:
        overlap = np.minimum(start_t + window_s, ev.end) - np.maximum(start_t, ev.start)
        labels |= overlap >= 0.5 * window_s
    return labels


def build_phase1_dataset(
    pairs: Sequence[tuple[Stream, Sequence[GroundTruthEvent]]],
    feature_kind: str,
    cfg: DetectorConfig,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Window features labeled interest (1) / non-interest (0).

    Positives are windows whose span overlaps a truth interval by >= 50%; the
    remaining windows are undersampled (seeded) to the positive count.  Rows
    are all positives, then the kept negatives, each in stream order.
    """
    labels = [
        window_labels(*_window_times(stream, cfg.stride_frames), truth) for stream, truth in pairs
    ]
    positive = np.concatenate(labels) if labels else np.zeros(0, dtype=bool)
    negative = ~positive
    n_pos, n_neg = int(positive.sum()), int(negative.sum())
    rng = np.random.default_rng([seed, 4])
    if n_neg > n_pos:
        neg_idx = np.flatnonzero(negative)
        negative[:] = False
        negative[neg_idx[rng.choice(n_neg, size=n_pos, replace=False)]] = True
        n_neg = n_pos
    # featurize one stream at a time and keep only its chosen rows
    bounds = np.cumsum([len(lab) for lab in labels])[:-1]
    pos_rows, neg_rows = [], []
    for (stream, _), pos, neg in zip(pairs, np.split(positive, bounds), np.split(negative, bounds)):
        if pos.any() or neg.any():
            x = featurize_stream(stream, feature_kind, cfg.stride_frames)
            pos_rows.append(x[pos])
            neg_rows.append(x[neg])
    x = np.concatenate(pos_rows + neg_rows) if pos_rows else np.empty((0,))
    y = np.array([INTEREST_IDX] * n_pos + [NON_INTEREST_IDX] * n_neg)
    return x, y


def build_phase2_dataset(
    pairs: Sequence[tuple[Stream, Sequence[GroundTruthEvent]]],
    feature_kind: str,
    cfg: DetectorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Windows centered inside a truth interval, labeled by the interval's class."""
    feats, labels = [], []
    for stream, truth in pairs:
        start_t, window_s = _window_times(stream, cfg.stride_frames)
        centers = _centers(start_t, window_s)
        label = np.full(len(centers), -1)
        for ev in truth:  # a centre inside two truth events goes to the first
            inside = (label < 0) & _centered_in(centers, ev.start, ev.end)
            label[inside] = INTEREST_CLASSES.index(ev.label)
        chosen = label >= 0
        if chosen.any():
            feats.append(featurize_stream(stream, feature_kind, cfg.stride_frames)[chosen])
            labels.extend(label[chosen].tolist())
    x = np.concatenate(feats) if feats else np.empty((0,))
    return x, np.array(labels)


# ---------------------------------------------------------------------------
# event output files
# ---------------------------------------------------------------------------


def write_events_tsv(events: Sequence[DetectedEvent], path, comments: Sequence[str] = ()) -> None:
    """One ``label start_s end_s confidence`` line per event, tab-separated."""
    lines = [f"{ev.label.name}\t{ev.start!r}\t{ev.end!r}\t{ev.confidence!r}" for ev in events]
    write_lines(path, lines, comments)


def write_events_json(
    events: Sequence[DetectedEvent], path, config_hash: str | None = None
) -> None:
    doc = {
        "config_hash": config_hash,
        "events": [
            {"label": ev.label.name, "start": ev.start, "end": ev.end, "confidence": ev.confidence}
            for ev in events
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
