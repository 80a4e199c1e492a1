from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from ial.data import ActionClass, GroundTruthEvent, INTEREST_CLASSES, Stream
from ial.detector import DetectedEvent, DetectorConfig
from ial.errors import ConfigError, DataError
from ial.evaluation import (
    ConfusionCounts,
    aggregate_run,
    evaluate_run,
    match_events,
    precision_recall_f1,
    render_report,
)
from ial.net import image_model_spec, vector_model_spec


def det(label, start, end, conf=0.9):
    return DetectedEvent(label, start, end, conf)


def gt(label, start, end):
    return GroundTruthEvent(label, start, end)


L = ActionClass.SWIPE_LEFT
R = ActionClass.SWIPE_RIGHT
W = ActionClass.WAVE
CW = ActionClass.CIRCLE_CW
CCW = ActionClass.CIRCLE_CCW


# ---------------------------------------------------------------------------
# match_events examples
# ---------------------------------------------------------------------------


def test_match_midpoint_inside():
    counts1, matches = match_events([det(L, 10, 13)], [gt(L, 9, 14)], "one")
    assert (counts1.n_tp, counts1.n_fp, counts1.n_fn) == (1, 0, 0)
    counts2, _ = match_events([det(L, 10, 13)], [gt(L, 9, 14)], "two")
    assert (counts2.n_tp, counts2.n_fp, counts2.n_fn) == (1, 0, 0)
    assert matches == [(0, 0)]


def test_match_no_detections():
    counts, matches = match_events([], [gt(L, 1, 2), gt(W, 3, 4), gt(R, 5, 6)], "one")
    assert (counts.n_tp, counts.n_fp, counts.n_fn) == (0, 0, 3)
    assert matches == []


def test_match_wrong_label_phase_two():
    counts, matches = match_events([det(W, 10, 13)], [gt(L, 9, 14)], "two")
    assert (counts.n_tp, counts.n_fp, counts.n_fn) == (0, 1, 1)
    assert matches == [(0, 0)]  # the pair matched, the label did not


def test_match_extra_detection_same_truth_is_fp():
    detections = [det(L, 9.5, 10.5), det(L, 11, 12)]
    counts, matches = match_events(detections, [gt(L, 9, 14)], "one")
    assert (counts.n_tp, counts.n_fp, counts.n_fn) == (1, 1, 0)
    assert matches == [(0, 0)]


def test_match_unsorted_rejected():
    with pytest.raises(DataError, match=r"^detected not sorted by start$"):
        match_events([det(L, 5, 6), det(L, 1, 2)], [], "one")
    with pytest.raises(DataError, match=r"^truth intervals overlap$"):
        match_events([], [gt(L, 1, 5), gt(W, 2, 6)], "one")


def test_match_iou_rule():
    # IoU of [10, 13] vs [9, 14] is 3/5
    counts, _ = match_events([det(L, 10, 13)], [gt(L, 9, 14)], "one", rule="iou", iou_threshold=0.5)
    assert counts.n_tp == 1
    counts, _ = match_events([det(L, 10, 13)], [gt(L, 9, 14)], "one", rule="iou", iou_threshold=0.7)
    assert counts.n_tp == 0 and counts.n_fp == 1 and counts.n_fn == 1


@pytest.mark.parametrize("call", [
    lambda: match_events([], [gt(L, 1, 2)], rule="bogus"),
    lambda: match_events([det(L, 1, 2)], [], rule="bogus"),
    lambda: match_events([det(L, 1, 2)], [gt(L, 1, 2)], "three"),
    lambda: aggregate_run([[]], [[gt(L, 1, 2)]], rule="bogus"),
], ids=["rule-no-detections", "rule-no-truth", "phase", "aggregate-rule"])
def test_unknown_rule_or_phase_raises_on_every_input(call):
    with pytest.raises(ConfigError):
        call()


# ---------------------------------------------------------------------------
# brute-force oracle for the greedy rule
# ---------------------------------------------------------------------------


def oracle_counts(detected, truth, phase):
    """Independent enumeration of the documented matching rule.

    Feasible pairs come from scanning every (detection, truth) combination for
    midpoint containment; all one-to-one assignments are enumerated, and the
    greedy-by-time rule selects the assignment where each truth takes the
    earliest feasible detection.  Counts then follow the phase rules.
    """
    feasible = [
        (i, j)
        for i in range(len(detected))
        for j in range(len(truth))
        if truth[j].start <= 0.5 * (detected[i].start + detected[i].end) <= truth[j].end
    ]
    assignments = []
    for r in range(len(feasible) + 1):
        for combo in combinations(feasible, r):
            if len({i for i, _ in combo}) == r and len({j for _, j in combo}) == r:
                assignments.append(frozenset(combo))
    maximal = [a for a in assignments if not any(a < b for b in assignments)]

    chosen = set()
    used_truth = set()
    for i in range(len(detected)):  # detections in time order
        for ii, j in feasible:
            if ii == i and j not in used_truth:
                chosen.add((i, j))
                used_truth.add(j)
                break
    assert frozenset(chosen) in maximal

    if phase == "one":
        tp = len(chosen)
        fp = len(detected) - len(chosen)
        fn = len(truth) - len(chosen)
    else:
        agree = sum(1 for i, j in chosen if detected[i].label is truth[j].label)
        tp = agree
        fp = (len(detected) - len(chosen)) + (len(chosen) - agree)
        fn = (len(truth) - len(chosen)) + (len(chosen) - agree)
    return tp, fp, fn, chosen


def random_disjoint_intervals(rng, n, label_pool):
    items = []
    cursor = 0.0
    for _ in range(n):
        cursor += float(rng.uniform(0.0, 4.0))
        dur = float(rng.uniform(0.5, 3.0))
        items.append((label_pool[rng.integers(0, len(label_pool))], cursor, cursor + dur))
        cursor += dur
    return items


def test_match_events_equals_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for trial in range(1200):
        truth = [gt(l, s, e) for l, s, e in random_disjoint_intervals(rng, rng.integers(0, 6), INTEREST_CLASSES)]
        detected = [det(l, s, e) for l, s, e in random_disjoint_intervals(rng, rng.integers(0, 6), INTEREST_CLASSES)]
        for phase in ("one", "two"):
            counts, matches = match_events(detected, truth, phase)
            tp, fp, fn, chosen = oracle_counts(detected, truth, phase)
            assert (counts.n_tp, counts.n_fp, counts.n_fn) == (tp, fp, fn)
            assert set(matches) == chosen


def test_phase_two_tp_never_exceeds_phase_one():
    rng = np.random.default_rng(43)
    for _ in range(300):
        truth = [gt(l, s, e) for l, s, e in random_disjoint_intervals(rng, rng.integers(0, 6), INTEREST_CLASSES)]
        detected = [det(l, s, e) for l, s, e in random_disjoint_intervals(rng, rng.integers(0, 6), INTEREST_CLASSES)]
        c1, _ = match_events(detected, truth, "one")
        c2, _ = match_events(detected, truth, "two")
        assert c2.n_tp <= c1.n_tp


# ---------------------------------------------------------------------------
# precision / recall / F1
# ---------------------------------------------------------------------------


def test_f1_from_printed_precision_recall_pairs():
    # derived purely from the P/R columns of the result tables
    cases = [
        (0.488, 0.620, 0.546, 0.0005),
        (0.457, 0.580, 0.511, 0.0005),
        (0.051, 0.060, 0.055, 0.0005),
        (0.368, 0.430, 0.396, 0.001),
    ]
    for p, r, f1, tol in cases:
        got = 2 * p * r / (p + r)
        assert abs(got - f1) <= tol


def test_metrics_zero_tp():
    rep = precision_recall_f1(ConfusionCounts(0, 4, 7))
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0


def test_metrics_direct():
    rep = precision_recall_f1(ConfusionCounts(3, 1, 2))
    assert rep.precision == 0.75
    assert rep.recall == 0.6
    assert rep.f1 == pytest.approx(2 / 3, rel=1e-12)


def test_f1_between_min_and_max():
    rng = np.random.default_rng(44)
    for _ in range(200):
        c = ConfusionCounts(int(rng.integers(0, 20)), int(rng.integers(0, 20)), int(rng.integers(0, 20)))
        rep = precision_recall_f1(c)
        assert min(rep.precision, rep.recall) - 1e-12 <= rep.f1 <= max(rep.precision, rep.recall) + 1e-12
        if rep.precision == rep.recall:
            assert rep.f1 == pytest.approx(rep.precision, abs=1e-12)


def test_counts_add():
    a = ConfusionCounts(1, 2, 3, 4)
    b = ConfusionCounts(5, 6, 7, 8)
    s = a + b
    assert (s.n_tp, s.n_fp, s.n_fn, s.n_tn) == (6, 8, 10, 12)


def test_counts_refuse_a_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionCounts(1, -1, 0)


def test_micro_aggregation_matches_concatenation():
    rng = np.random.default_rng(45)
    for _ in range(50):
        t1 = [gt(l, s, e) for l, s, e in random_disjoint_intervals(rng, 3, INTEREST_CLASSES)]
        d1 = [det(l, s, e) for l, s, e in random_disjoint_intervals(rng, 3, INTEREST_CLASSES)]
        t2 = [gt(l, s, e) for l, s, e in random_disjoint_intervals(rng, 3, INTEREST_CLASSES)]
        d2 = [det(l, s, e) for l, s, e in random_disjoint_intervals(rng, 3, INTEREST_CLASSES)]
        c1, _ = match_events(d1, t1, "one")
        c2, _ = match_events(d2, t2, "one")
        rep1, _ = aggregate_run([d1, d2], [t1, t2])
        summed = c1 + c2
        assert (rep1.counts.n_tp, rep1.counts.n_fp, rep1.counts.n_fn) == (
            summed.n_tp, summed.n_fp, summed.n_fn,
        )


# ---------------------------------------------------------------------------
# aggregate_run / evaluate_run
# ---------------------------------------------------------------------------


def test_aggregate_hand_built_two_streams():
    # 4 truth events, 3 detections: 2 correct label, 1 wrong label, 1 truth missed
    truths = [
        [gt(L, 10, 14), gt(W, 20, 24)],
        [gt(R, 5, 9), gt(CCW, 30, 34)],
    ]
    detections = [
        [det(L, 10.5, 13.0), det(CW, 20.5, 23.0)],
        [det(R, 5.0, 8.0)],
    ]
    rep1, rep2 = aggregate_run(detections, truths)
    assert rep1.precision == 1.0
    assert rep1.recall == 0.75
    assert rep2.precision == pytest.approx(2 / 3)
    assert rep2.recall == 0.5
    assert rep2.per_class["WAVE"]["fn"] == 1
    assert rep2.per_class["CIRCLE_CW"]["fp"] == 1
    assert rep2.per_class["confusion"]["WAVE"]["CIRCLE_CW"] == 1


def test_aggregate_per_class_and_confusion_equal_oracle():
    rng = np.random.default_rng(47)
    for _ in range(100):
        streams = [
            [[make(*x) for x in random_disjoint_intervals(rng, rng.integers(0, 5), INTEREST_CLASSES)]
             for make in (det, gt)]
            for _ in range(3)
        ]
        detections, truths = [d for d, _ in streams], [t for _, t in streams]
        want = {c.name: [0, 0, 0] for c in INTEREST_CLASSES}
        confusion = {t.name: {p.name: 0 for p in INTEREST_CLASSES} for t in INTEREST_CLASSES}
        phase1, phase2 = np.zeros(3, dtype=int), np.zeros(3, dtype=int)
        for detected, truth in zip(detections, truths):
            phase1 += oracle_counts(detected, truth, "one")[:3]
            tp, fp, fn, chosen = oracle_counts(detected, truth, "two")
            phase2 += (tp, fp, fn)
            correct = {(i, j) for i, j in chosen if detected[i].label is truth[j].label}
            for i, j in chosen:
                confusion[truth[j].label.name][detected[i].label.name] += 1
            for i, d in enumerate(detected):
                want[d.label.name][0 if any(i == ci for ci, _ in correct) else 1] += 1
            for j, ev in enumerate(truth):
                if not any(j == cj for _, cj in correct):
                    want[ev.label.name][2] += 1
        rep1, rep2 = aggregate_run(detections, truths)
        assert [rep1.counts.n_tp, rep1.counts.n_fp, rep1.counts.n_fn] == phase1.tolist()
        assert [rep2.counts.n_tp, rep2.counts.n_fp, rep2.counts.n_fn] == phase2.tolist()
        per_class = dict(rep2.per_class)
        assert per_class.pop("confusion") == confusion
        assert {name: [c["tp"], c["fp"], c["fn"]] for name, c in per_class.items()} == want
        assert all(type(c[k]) is int for c in per_class.values() for k in ("tp", "fp", "fn"))


def test_aggregate_perfect_detector():
    truths = [[gt(L, 1, 3), gt(W, 5, 7)], [gt(CW, 2, 4)]]
    detections = [[det(L, 1, 3), det(W, 5, 7)], [det(CW, 2, 4)]]
    rep1, rep2 = aggregate_run(detections, truths)
    assert rep1.precision == rep1.recall == rep1.f1 == 1.0
    assert rep2.precision == rep2.recall == rep2.f1 == 1.0


def silent_model(kind, n_classes):
    spec = vector_model_spec(n_classes) if kind == "fc" else image_model_spec(n_classes)
    probs = np.zeros(n_classes)
    probs[0] = 1.0
    model = SimpleNamespace(spec=spec, fold=lambda: model, predict_proba=lambda x: np.tile(probs, (len(x), 1)))
    return model


def test_evaluate_run_silent_detector():
    rng = np.random.default_rng(46)
    t = np.arange(500) / 50.0
    stream = Stream(1, 10, t, rng.normal(0, 1, (500, 6)), 50.0)
    truth = [gt(L, 1, 3), gt(W, 5, 7)]
    rep1, rep2 = evaluate_run(
        [(stream, truth)], silent_model("fc", 2), silent_model("fc", 5), DetectorConfig(), "vector"
    )
    assert rep1.precision == rep1.recall == rep1.f1 == 0.0
    assert rep1.counts.n_fn == 2
    assert rep2.counts.n_fn == 2
    assert rep1.window_diagnostics["tn"] > 0  # TN only exists at window level


def test_render_report_contains_tables():
    rep1 = precision_recall_f1(ConfusionCounts(3, 1, 2), "one")
    rep2 = precision_recall_f1(ConfusionCounts(2, 2, 3), "two")
    text = render_report(rep1, rep2, "Convolution Neural Network")
    assert "Phase one" in text and "Phase two" in text
    assert "Convolution Neural Network" in text
    assert "75.0%" in text
