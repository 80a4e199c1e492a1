"""Event-level matching and precision/recall/F1 reports.

A detection matches a truth event when its midpoint lies inside the truth
interval (an IoU rule is available as an alternative).  Matching is greedy
one-to-one in time order: each truth event is consumed by the earliest
matching detection, later detections on the same truth count as false
positives.  Phase one scores any matched pair as a true positive; phase two
additionally requires label agreement, a mislabeled match costs both a false
positive and a false negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .data import INTEREST_CLASSES, GroundTruthEvent, Stream
from .detector import (
    DetectedEvent,
    DetectorConfig,
    _events_from_scores,
    overlap_seconds,
    score_windows,
    window_labels,
)
from .errors import ConfigError, UnsortedInputError
from .net import Network
from .signal import WINDOW_FRAMES

PHASE_ONE = "one"
PHASE_TWO = "two"

MIDPOINT_RULE = "midpoint"
IOU_RULE = "iou"


@dataclass
class ConfusionCounts:
    n_tp: int = 0
    n_fp: int = 0
    n_fn: int = 0
    n_tn: int = 0

    def __post_init__(self):
        if min(self.n_tp, self.n_fp, self.n_fn, self.n_tn) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.n_tp + other.n_tp,
            self.n_fp + other.n_fp,
            self.n_fn + other.n_fn,
            self.n_tn + other.n_tn,
        )


@dataclass
class MetricsReport:
    phase: str
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    per_class: dict = field(default_factory=dict)
    window_diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "counts": {
                "tp": self.counts.n_tp,
                "fp": self.counts.n_fp,
                "fn": self.counts.n_fn,
                "tn": self.counts.n_tn,
            },
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "per_class": self.per_class,
            "window_diagnostics": self.window_diagnostics,
        }


def _interval_iou(a_start, a_end, b_start, b_end) -> float:
    inter = overlap_seconds(a_start, a_end, b_start, b_end)
    union = max(a_end, b_end) - min(a_start, b_start)
    return inter / union if union > 0 else 0.0


def _check_sorted_disjoint(items, what: str) -> None:
    for prev, nxt in zip(items, items[1:]):
        if nxt.start < prev.start:
            raise UnsortedInputError(f"{what} not sorted by start")
        if nxt.start < prev.end:
            raise UnsortedInputError(f"{what} intervals overlap")


def match_events(
    detected: Sequence[DetectedEvent],
    truth: Sequence[GroundTruthEvent],
    phase: str = PHASE_ONE,
    *,
    rule: str = MIDPOINT_RULE,
    iou_threshold: float = 0.5,
) -> tuple[ConfusionCounts, list[tuple[int, int]]]:
    """Greedy one-to-one matching in time order; returns counts and the
    matched (detected_idx, truth_idx) pairs (label agreement not required
    for a pair to appear in the list)."""
    if phase not in (PHASE_ONE, PHASE_TWO):
        raise ConfigError(f"unknown phase {phase!r}")
    _check_sorted_disjoint(detected, "detected")
    _check_sorted_disjoint(truth, "truth")

    taken = [False] * len(truth)
    matches: list[tuple[int, int]] = []
    n_fp = 0
    for i, det in enumerate(detected):
        j_hit = None
        for j, ev in enumerate(truth):
            if taken[j]:
                continue
            if rule == MIDPOINT_RULE:
                hit = ev.start <= det.midpoint <= ev.end
            elif rule == IOU_RULE:
                hit = _interval_iou(det.start, det.end, ev.start, ev.end) >= iou_threshold
            else:
                raise ConfigError(f"unknown matching rule {rule!r}")
            if hit:
                j_hit = j
                break
        if j_hit is None:
            n_fp += 1
        else:
            taken[j_hit] = True
            matches.append((i, j_hit))

    if phase == PHASE_ONE:
        n_tp = len(matches)
        n_fn = len(truth) - len(matches)
    else:
        n_tp = sum(1 for i, j in matches if detected[i].label is truth[j].label)
        wrong = len(matches) - n_tp
        n_fp += wrong
        n_fn = (len(truth) - len(matches)) + wrong
    return ConfusionCounts(n_tp, n_fp, n_fn), matches


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    return 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0


def precision_recall_f1(
    counts: ConfusionCounts, phase: str = PHASE_ONE, per_class: dict | None = None
) -> MetricsReport:
    """Recall = TP/(TP+FN), Precision = TP/(TP+FP), F1 their harmonic mean;
    zero denominators give 0."""
    precision = counts.n_tp / (counts.n_tp + counts.n_fp) if counts.n_tp + counts.n_fp else 0.0
    recall = counts.n_tp / (counts.n_tp + counts.n_fn) if counts.n_tp + counts.n_fn else 0.0
    return MetricsReport(phase, counts, precision, recall, f1_score(precision, recall), per_class or {})


def per_class_counts(
    detected: Sequence[DetectedEvent],
    truth: Sequence[GroundTruthEvent],
    matches: Sequence[tuple[int, int]],
) -> dict[str, ConfusionCounts]:
    """Phase-two counts broken down by class, plus the matched-pair confusion."""
    by_class = {cls.name: ConfusionCounts() for cls in INTEREST_CLASSES}
    matched_det = {i for i, _ in matches}
    matched_truth = {j for _, j in matches}
    for i, j in matches:
        det, ev = detected[i], truth[j]
        if det.label is ev.label:
            by_class[ev.label.name].n_tp += 1
        else:
            by_class[det.label.name].n_fp += 1
            by_class[ev.label.name].n_fn += 1
    for i, det in enumerate(detected):
        if i not in matched_det:
            by_class[det.label.name].n_fp += 1
    for j, ev in enumerate(truth):
        if j not in matched_truth:
            by_class[ev.label.name].n_fn += 1
    return by_class


def confusion_pairs(
    detected: Sequence[DetectedEvent],
    truth: Sequence[GroundTruthEvent],
    matches: Sequence[tuple[int, int]],
) -> dict[str, dict[str, int]]:
    """Truth-class -> predicted-class counts over matched pairs."""
    table = {t.name: {p.name: 0 for p in INTEREST_CLASSES} for t in INTEREST_CLASSES}
    for i, j in matches:
        table[truth[j].label.name][detected[i].label.name] += 1
    return table


def _window_diagnostics(
    stream: Stream,
    truth: Sequence[GroundTruthEvent],
    scores,
    cfg: DetectorConfig,
) -> ConfusionCounts:
    """Window-level confusion (including TN) of thresholded interest scores
    against the >= 50%-overlap window labeling; diagnostic only."""
    window_seconds = WINDOW_FRAMES / stream.sample_rate_hz
    labels = window_labels([s.start_t for s in scores], window_seconds, truth)
    counts = ConfusionCounts()
    for s, actual in zip(scores, labels):
        predicted = s.interest_prob >= cfg.interest_threshold
        if actual and predicted:
            counts.n_tp += 1
        elif actual:
            counts.n_fn += 1
        elif predicted:
            counts.n_fp += 1
        else:
            counts.n_tn += 1
    return counts


def aggregate_run(
    detections_per_stream: Sequence[Sequence[DetectedEvent]],
    truths_per_stream: Sequence[Sequence[GroundTruthEvent]],
    *,
    rule: str = MIDPOINT_RULE,
    iou_threshold: float = 0.5,
) -> tuple[MetricsReport, MetricsReport]:
    """Micro-average counts over streams, then compute both phase reports."""
    counts1 = ConfusionCounts()
    counts2 = ConfusionCounts()
    by_class = {cls.name: ConfusionCounts() for cls in INTEREST_CLASSES}
    confusion = {t.name: {p.name: 0 for p in INTEREST_CLASSES} for t in INTEREST_CLASSES}
    for detected, truth in zip(detections_per_stream, truths_per_stream):
        c1, _ = match_events(detected, truth, PHASE_ONE, rule=rule, iou_threshold=iou_threshold)
        c2, matches = match_events(detected, truth, PHASE_TWO, rule=rule, iou_threshold=iou_threshold)
        counts1 += c1
        counts2 += c2
        for name, c in per_class_counts(detected, truth, matches).items():
            by_class[name] += c
        for t_name, row in confusion_pairs(detected, truth, matches).items():
            for p_name, n in row.items():
                confusion[t_name][p_name] += n

    per_class = {
        name: {
            "tp": c.n_tp,
            "fp": c.n_fp,
            "fn": c.n_fn,
            "precision": precision_recall_f1(c).precision,
            "recall": precision_recall_f1(c).recall,
            "f1": precision_recall_f1(c).f1,
        }
        for name, c in by_class.items()
    }
    per_class["confusion"] = confusion
    report1 = precision_recall_f1(counts1, PHASE_ONE)
    report2 = precision_recall_f1(counts2, PHASE_TWO, per_class)
    return report1, report2


def evaluate_run(
    pairs: Sequence[tuple[Stream, Sequence[GroundTruthEvent]]],
    phase1_model: Network,
    phase2_model: Network,
    cfg: DetectorConfig,
    feature_kind: str,
    *,
    rule: str = MIDPOINT_RULE,
    iou_threshold: float = 0.5,
    threads: int = 1,
) -> tuple[MetricsReport, MetricsReport]:
    """Detect on every test stream and micro-average the event counts."""
    detections, truths = [], []
    window_counts = ConfusionCounts()
    for stream, truth in pairs:
        scores = score_windows(stream, phase1_model, feature_kind, cfg, threads)
        detections.append(_events_from_scores(stream, scores, phase2_model, cfg, feature_kind))
        truths.append(list(truth))
        window_counts += _window_diagnostics(stream, truth, scores, cfg)
    report1, report2 = aggregate_run(detections, truths, rule=rule, iou_threshold=iou_threshold)
    report1.window_diagnostics = {
        "tp": window_counts.n_tp,
        "fp": window_counts.n_fp,
        "fn": window_counts.n_fn,
        "tn": window_counts.n_tn,
    }
    return report1, report2


def render_report(report1: MetricsReport, report2: MetricsReport, model_name: str) -> str:
    """Two small fixed-width tables, one per phase."""

    def pct(v: float) -> str:
        return f"{100.0 * v:5.1f}%"

    def table(title: str, rep: MetricsReport) -> list[str]:
        out = [title, f"{'Model':<34}{'Precision':>10}{'Recall':>10}{'F1':>10}"]
        out.append(f"{model_name:<34}{pct(rep.precision):>10}{pct(rep.recall):>10}{pct(rep.f1):>10}")
        c = rep.counts
        out.append(f"  counts: TP={c.n_tp} FP={c.n_fp} FN={c.n_fn}")
        return out

    lines = table("Phase one (detection)", report1)
    lines.append("")
    lines += table("Phase two (detection + classification)", report2)
    return "\n".join(lines) + "\n"
