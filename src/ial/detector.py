"""Two-phase continuous detection.

Each stream is windowed and featurized once.  Phase one scores every
sliding window with a binary interest model; runs of positive windows become
candidate intervals.  Phase two classifies each interval with a 5-class model
on the same window features.  This module also assembles the per-window
training sets for both phases from labeled streams.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import INTEREST_CLASSES, ActionClass, GroundTruthEvent, Stream
from .errors import (
    ConfigError,
    IntervalOutsideStreamError,
    ModelFeatureMismatchError,
)
from .features import vector_batch
from .net import CNN_KIND, FC_KIND, Network
from .signal import WINDOW_FRAMES, window_images, window_starts

IMAGE_KIND = "image"
VECTOR_KIND = "vector"

MODEL_FOR_FEATURE = {IMAGE_KIND: CNN_KIND, VECTOR_KIND: FC_KIND}

# phase-1 class indices
NON_INTEREST_IDX = 0
INTEREST_IDX = 1


@dataclass(frozen=True)
class WindowScore:
    """One scored window; ``features`` is its model input row, which phase two reuses."""

    start_t: float
    interest_prob: float
    features: np.ndarray | None = field(default=None, compare=False, repr=False)


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


def featurize_stream(
    stream: Stream, feature_kind: str, stride_frames: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every window of the stream as one model input batch: ``(start_frames, x)``
    with x of shape (n, 50, 8, 1) or (n, 16)."""
    if feature_kind not in MODEL_FOR_FEATURE:
        raise ConfigError(f"unknown feature kind {feature_kind!r}")
    starts, images = window_images(stream, stride_frames)
    if feature_kind == IMAGE_KIND:
        return starts, images[..., None]
    return starts, vector_batch(images)


def _check_model(model: Network, feature_kind: str, n_classes: int) -> None:
    want_kind = MODEL_FOR_FEATURE.get(feature_kind)
    if want_kind is None:
        raise ConfigError(f"unknown feature kind {feature_kind!r}")
    if model.spec.kind != want_kind:
        raise ModelFeatureMismatchError(
            f"{feature_kind} features need a {want_kind} model, got {model.spec.kind}"
        )
    if model.spec.n_classes != n_classes:
        raise ModelFeatureMismatchError(
            f"expected a {n_classes}-class model, got {model.spec.n_classes}"
        )


def _batched_proba(model: Network, x: np.ndarray, threads: int = 1, chunk: int = 256) -> np.ndarray:
    spans = [(lo, min(lo + chunk, len(x))) for lo in range(0, len(x), chunk)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda s: model.predict_proba(x[s[0] : s[1]]), spans))
    else:
        parts = [model.predict_proba(x[lo:hi]) for lo, hi in spans]
    return np.concatenate(parts) if parts else np.empty((0, model.spec.n_classes))


def score_windows(
    stream: Stream,
    phase1_model: Network,
    feature_kind: str,
    cfg: DetectorConfig,
    threads: int = 1,
) -> list[WindowScore]:
    """One interest probability per sliding window."""
    _check_model(phase1_model, feature_kind, 2)
    starts, x = featurize_stream(stream, feature_kind, cfg.stride_frames)
    probs = _batched_proba(phase1_model, x, threads)
    return [
        WindowScore(float(stream.t[start]), float(p[INTEREST_IDX]), row)
        for start, p, row in zip(starts, probs, x)
    ]


def segment_events(
    scores: Sequence[WindowScore], cfg: DetectorConfig, window_seconds: float = 3.0
) -> list[tuple[float, float]]:
    """Turn window scores into disjoint candidate intervals.

    Windows with interest_prob >= threshold are positive.  Runs of positives
    separated by at most ``merge_gap_windows`` negatives merge; merged runs
    with fewer than ``min_event_windows`` positive windows are discarded.  A
    surviving run spans [first window start, last window start + window
    length]; when that overruns the next run's interval it is clipped to keep
    the output disjoint.
    """
    positives = [i for i, s in enumerate(scores) if s.interest_prob >= cfg.interest_threshold]
    runs: list[list[int]] = []
    for i in positives:
        if runs and i - runs[-1][-1] - 1 <= cfg.merge_gap_windows:
            runs[-1].append(i)
        else:
            runs.append([i])
    kept = [run for run in runs if len(run) >= cfg.min_event_windows]
    intervals = [
        (scores[run[0]].start_t, scores[run[-1]].start_t + window_seconds) for run in kept
    ]
    for i in range(len(intervals) - 1):
        if intervals[i][1] > intervals[i + 1][0]:
            intervals[i] = (intervals[i][0], intervals[i + 1][0])
    return intervals


def classify_event(
    stream: Stream,
    scores: Sequence[WindowScore],
    interval: tuple[float, float],
    phase2_model: Network,
    cfg: DetectorConfig,
    feature_kind: str,
) -> tuple[ActionClass, float]:
    """Assign one of the 5 classes to a candidate interval.

    ``scores`` are the stream's phase-one window scores; phase two classifies
    their feature rows.  center-window mode classifies the single window whose
    center is nearest the interval midpoint; mean-probability mode averages
    the softmax vectors of all windows whose center falls inside the interval
    (falling back to the center window when none does).  Argmax ties go to the
    lowest class index.
    """
    _check_model(phase2_model, feature_kind, len(INTEREST_CLASSES))
    start, end = interval
    if end <= float(stream.t[0]) or start >= float(stream.t[-1]):
        raise IntervalOutsideStreamError(f"[{start}, {end}] outside stream span")
    half_span = 0.5 * WINDOW_FRAMES / stream.sample_rate_hz
    centers = np.array([s.start_t + half_span for s in scores])
    if cfg.classification_mode == "center-window":
        chosen = [int(np.argmin(np.abs(centers - 0.5 * (start + end))))]
    else:
        chosen = [i for i, c in enumerate(centers) if start <= c <= end]
        if not chosen:
            chosen = [int(np.argmin(np.abs(centers - 0.5 * (start + end))))]
    x = np.stack([scores[i].features for i in chosen])
    mean_probs = phase2_model.predict_proba(x).mean(axis=0)
    idx = int(np.argmax(mean_probs))
    return INTEREST_CLASSES[idx], float(mean_probs[idx])


def detect(
    stream: Stream,
    phase1_model: Network,
    phase2_model: Network,
    cfg: DetectorConfig,
    feature_kind: str,
    threads: int = 1,
) -> list[DetectedEvent]:
    """Full two-phase pass: score, segment, classify.  Events come out sorted
    by start and pairwise disjoint."""
    scores = score_windows(stream, phase1_model, feature_kind, cfg, threads)
    return _events_from_scores(stream, scores, phase2_model, cfg, feature_kind)


def _events_from_scores(
    stream: Stream,
    scores: Sequence[WindowScore],
    phase2_model: Network,
    cfg: DetectorConfig,
    feature_kind: str,
) -> list[DetectedEvent]:
    window_seconds = WINDOW_FRAMES / stream.sample_rate_hz
    stream_end = float(stream.t[-1])
    intervals = [
        (s, min(e, stream_end)) for s, e in segment_events(scores, cfg, window_seconds)
    ]
    events = []
    for interval in intervals:
        label, confidence = classify_event(stream, scores, interval, phase2_model, cfg, feature_kind)
        events.append(DetectedEvent(label, interval[0], interval[1], confidence))
    return events


# ---------------------------------------------------------------------------
# training-set assembly
# ---------------------------------------------------------------------------


def overlap_seconds(a_start: float, a_end: float, b_start: float, b_end: float) -> float:
    return max(0.0, min(a_end, b_end) - max(a_start, b_start))


def window_labels(
    start_t: Sequence[float], window_seconds: float, truth: Sequence[GroundTruthEvent]
) -> np.ndarray:
    """Interest label per window: True iff at least half of the window span
    [start_t, start_t + window_seconds] overlaps one truth interval."""
    return np.array(
        [
            any(
                overlap_seconds(t, t + window_seconds, ev.start, ev.end) >= 0.5 * window_seconds
                for ev in truth
            )
            for t in start_t
        ],
        dtype=bool,
    )


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
        window_labels(
            stream.t[list(window_starts(len(stream), cfg.stride_frames))],
            WINDOW_FRAMES / stream.sample_rate_hz,
            truth,
        )
        for stream, truth in pairs
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
            _, x = featurize_stream(stream, feature_kind, cfg.stride_frames)
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
        half_span = 0.5 * WINDOW_FRAMES / stream.sample_rate_hz
        chosen, chosen_labels = [], []
        for i, start in enumerate(window_starts(len(stream), cfg.stride_frames)):
            center = float(stream.t[start]) + half_span
            for ev in truth:
                if ev.start <= center <= ev.end:
                    chosen.append(i)
                    chosen_labels.append(INTEREST_CLASSES.index(ev.label))
                    break
        if chosen:
            _, x = featurize_stream(stream, feature_kind, cfg.stride_frames)
            feats.append(x[chosen])
            labels.extend(chosen_labels)
    x = np.concatenate(feats) if feats else np.empty((0,))
    return x, np.array(labels)


# ---------------------------------------------------------------------------
# event output files
# ---------------------------------------------------------------------------


def write_events_tsv(events: Sequence[DetectedEvent], path, comments: Sequence[str] = ()) -> None:
    """One ``label start_s end_s confidence`` line per event, tab-separated."""
    lines = [f"# {c}" for c in comments]
    for ev in events:
        lines.append(f"{ev.label.name}\t{ev.start!r}\t{ev.end!r}\t{ev.confidence!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
