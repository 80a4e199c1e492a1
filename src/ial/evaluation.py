"""Event-level matching and precision/recall/F1 reports.

A detection matches a truth event when its midpoint lies inside the truth
interval (an IoU rule is available as an alternative).  Matching is greedy
one-to-one in time order: each truth event is consumed by the earliest
matching detection, later detections on the same truth count as false
positives.  Phase one scores any matched pair as a true positive; phase two
additionally requires label agreement.  Every count follows one rule
(``_counts``): a detection that is not a true positive is a false positive, a
truth event that is not one is a false negative, so a mislabeled match costs
one of each.

``aggregate_run`` matches each stream once and counts the outcome of every
event in one confusion table over the 5 classes plus "none": a matched pair
counts at (truth class, predicted class), an unmatched detection at ("none",
predicted class), an unmatched truth event at (truth class, "none").  Both
phase reports, the per-class counts and the confusion dict are read off it.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field
from typing import Sequence

import numpy as np

from .data import INTEREST_CLASSES, GroundTruthEvent, Stream
from .detector import DetectedEvent, DetectorConfig, WindowScores, detect, window_labels
from .errors import ConfigError, DataError
from .net import Network

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
        return ConfusionCounts(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def to_dict(self) -> dict:
        """The JSON form of the counts."""
        return {"tp": self.n_tp, "fp": self.n_fp, "fn": self.n_fn, "tn": self.n_tn}


def _counts(tp, n_detected, n_truth) -> ConfusionCounts:
    """The one event-count rule: every detection that is not a true positive
    is a false positive, every truth event that is not one a false negative."""
    return ConfusionCounts(int(tp), int(n_detected - tp), int(n_truth - tp))


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
        return {**asdict(self), "counts": self.counts.to_dict()}


def _interval_iou(a_start, a_end, b_start, b_end) -> float:
    inter = max(0.0, min(a_end, b_end) - max(a_start, b_start))
    union = max(a_end, b_end) - min(a_start, b_start)
    return inter / union if union > 0 else 0.0


def _check_sorted_disjoint(items, what: str) -> None:
    for prev, nxt in zip(items, items[1:]):
        if nxt.start < prev.start:
            raise DataError(f"{what} not sorted by start")
        if nxt.start < prev.end:
            raise DataError(f"{what} intervals overlap")


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
    rules = {
        MIDPOINT_RULE: lambda det, ev: ev.start <= det.midpoint <= ev.end,
        IOU_RULE: lambda det, ev: _interval_iou(det.start, det.end, ev.start, ev.end) >= iou_threshold,
    }
    if rule not in rules:
        raise ConfigError(f"unknown matching rule {rule!r}")
    hits = rules[rule]
    _check_sorted_disjoint(detected, "detected")
    _check_sorted_disjoint(truth, "truth")

    taken = [False] * len(truth)
    matches: list[tuple[int, int]] = []
    for i, det in enumerate(detected):
        for j, ev in enumerate(truth):
            if not taken[j] and hits(det, ev):
                taken[j] = True
                matches.append((i, j))
                break

    tp = sum(1 for i, j in matches if phase == PHASE_ONE or detected[i].label is truth[j].label)
    return _counts(tp, len(detected), len(truth)), matches


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


def _window_diagnostics(
    truth: Sequence[GroundTruthEvent], scores: WindowScores, cfg: DetectorConfig
) -> ConfusionCounts:
    """Window-level confusion (including TN) of thresholded interest scores
    against the >= 50%-overlap window labeling; diagnostic only."""
    actual = window_labels(scores.start_t, scores.window_s, truth)
    predicted = scores.positive(cfg.interest_threshold)
    counts = _counts(np.sum(actual & predicted), np.sum(predicted), np.sum(actual))
    counts.n_tn = int(np.sum(~actual & ~predicted))
    return counts


def aggregate_run(
    detections_per_stream: Sequence[Sequence[DetectedEvent]],
    truths_per_stream: Sequence[Sequence[GroundTruthEvent]],
    *,
    rule: str = MIDPOINT_RULE,
    iou_threshold: float = 0.5,
) -> tuple[MetricsReport, MetricsReport]:
    """Micro-average counts over streams, then compute both phase reports."""
    n = len(INTEREST_CLASSES)  # row and column n of the table is "none"
    index = {cls: k for k, cls in enumerate(INTEREST_CLASSES)}
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    for detected, truth in zip(detections_per_stream, truths_per_stream):
        _, matches = match_events(detected, truth, rule=rule, iou_threshold=iou_threshold)
        truth_of = dict(matches)  # detection index -> truth index
        for i, d in enumerate(detected):
            row = index[truth[truth_of[i]].label] if i in truth_of else n
            table[row, index[d.label]] += 1
        for j in set(range(len(truth))) - set(truth_of.values()):
            table[index[truth[j].label], n] += 1

    pairs = table[:n, :n]
    detected, truths = table[:, :n].sum(axis=0), table[:n].sum(axis=1)  # per class
    counts1 = _counts(pairs.sum(), detected.sum(), truths.sum())
    counts2 = _counts(np.trace(pairs), detected.sum(), truths.sum())
    per_class = {}
    for k, cls in enumerate(INTEREST_CLASSES):
        rep = precision_recall_f1(_counts(pairs[k, k], detected[k], truths[k]))
        tp_fp_fn = {key: v for key, v in rep.counts.to_dict().items() if key != "tn"}
        per_class[cls.name] = {**tp_fp_fn, "precision": rep.precision, "recall": rep.recall, "f1": rep.f1}
    per_class["confusion"] = {
        t.name: {p.name: int(pairs[a, b]) for b, p in enumerate(INTEREST_CLASSES)}
        for a, t in enumerate(INTEREST_CLASSES)
    }
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
        scores, events = detect(stream, phase1_model, phase2_model, cfg, feature_kind, threads)
        detections.append(events)
        truths.append(list(truth))
        window_counts += _window_diagnostics(truth, scores, cfg)
    report1, report2 = aggregate_run(detections, truths, rule=rule, iou_threshold=iou_threshold)
    report1.window_diagnostics = window_counts.to_dict()
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
