from types import SimpleNamespace

import numpy as np
import pytest

import ial.detector
from ial.data import ActionClass, GroundTruthEvent, Stream, SyntheticConfig, generate_synthetic_stream
from ial.detector import (
    DetectorConfig,
    WindowScores,
    build_phase1_dataset,
    build_phase2_dataset,
    detect,
    featurize_stream,
    score_windows,
    segment_events,
    window_labels,
    write_events_json,
    write_events_tsv,
)
from ial.errors import ConfigError, DataError
from ial.evaluation import evaluate_run
from ial.net import TrainConfig, build_network, image_model_spec, train, vector_model_spec


def make_stream(n=400, rate=50.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    return Stream(1, 1, t, rng.normal(0, 1, (n, 6)), rate)


def constant_model(spec_kind, n_classes, probs):
    """Duck-typed model: fixed class distribution for every input row."""
    if spec_kind == "fc":
        spec = vector_model_spec(n_classes)
    else:
        spec = image_model_spec(n_classes)
    probs = np.asarray(probs, dtype=np.float64)

    def predict_proba(x):
        return np.tile(probs, (len(x), 1))

    return SimpleNamespace(spec=spec, predict_proba=predict_proba)


def scripted_model(n_classes, rows):
    """Returns preset probability rows in order, one batch per call."""
    spec = vector_model_spec(n_classes)
    queue = [np.asarray(r, dtype=np.float64) for r in rows]

    def predict_proba(x):
        out = np.stack(queue[: len(x)])
        del queue[: len(x)]
        return out

    return SimpleNamespace(spec=spec, predict_proba=predict_proba)


# ---------------------------------------------------------------------------
# score_windows
# ---------------------------------------------------------------------------


def test_score_windows_count_and_range():
    stream = make_stream(n=6000)
    model = build_network(vector_model_spec(2), seed=0)
    scores = score_windows(stream, model, "vector", DetectorConfig(stride_frames=15))
    assert len(scores) == 391
    assert scores.x.shape == (391, 16) and scores.window_s == 3.0
    assert np.all((0.0 <= scores.interest_prob) & (scores.interest_prob <= 1.0))


def test_score_windows_short_stream():
    stream = make_stream(n=100)
    model = build_network(vector_model_spec(2), seed=0)
    with pytest.raises(DataError, match=r"^100 frames < 150$"):
        score_windows(stream, model, "vector", DetectorConfig())


def test_score_windows_feature_mismatch():
    stream = make_stream(n=200)
    fc_binary = build_network(vector_model_spec(2), seed=0)
    with pytest.raises(DataError, match=r"^image features need a cnn model, got fc$"):
        score_windows(stream, fc_binary, "image", DetectorConfig())
    five_class = build_network(vector_model_spec(5), seed=0)
    with pytest.raises(DataError, match=r"^expected a 2-class model, got 5$"):
        score_windows(stream, five_class, "vector", DetectorConfig())


def test_score_windows_unknown_kind():
    with pytest.raises(ConfigError, match="unknown feature kind 'bogus'"):
        score_windows(make_stream(n=200), build_network(vector_model_spec(2), seed=0), "bogus", DetectorConfig())


def test_score_windows_threads_match_sequential():
    stream = make_stream(n=3000)
    model = build_network(image_model_spec(2), seed=1)
    seq = score_windows(stream, model, "image", DetectorConfig(), threads=1)
    par = score_windows(stream, model, "image", DetectorConfig(), threads=4)
    assert np.array_equal(seq.start_t, par.start_t)
    assert np.array_equal(seq.interest_prob, par.interest_prob)


# ---------------------------------------------------------------------------
# segment_events
# ---------------------------------------------------------------------------


def scores_from(probs, stride_s=0.3):
    return WindowScores(np.arange(len(probs)) * stride_s, np.asarray(probs, dtype=float), None, 3.0)


def test_segment_all_negative():
    cfg = DetectorConfig()
    assert segment_events(scores_from([0.0] * 10), cfg) == []


def test_segment_three_positives():
    cfg = DetectorConfig(min_event_windows=3)
    out = segment_events(scores_from([0.9, 0.9, 0.9]), cfg)
    assert out == [(0.0, 0.6 + 3.0)]


def test_segment_gap_merging_hand_trace():
    probs = [0.9, 0.9, 0.0, 0.9, 0.9]
    merged = segment_events(scores_from(probs), DetectorConfig(merge_gap_windows=1, min_event_windows=3))
    assert len(merged) == 1
    assert merged[0] == (0.0, 1.2 + 3.0)
    split = segment_events(scores_from(probs), DetectorConfig(merge_gap_windows=0, min_event_windows=3))
    assert split == []  # both runs have only 2 positives


def test_segment_short_runs_dropped():
    cfg = DetectorConfig(min_event_windows=3, merge_gap_windows=0)
    out = segment_events(scores_from([0.9, 0.9, 0.0, 0.9, 0.9, 0.9]), cfg)
    assert out == [(3 * 0.3, 5 * 0.3 + 3.0)]


def test_segment_disjoint_property_random():
    rng = np.random.default_rng(23)
    for _ in range(300):
        probs = rng.random(rng.integers(1, 60))
        cfg = DetectorConfig(
            interest_threshold=float(rng.uniform(0.2, 0.8)),
            min_event_windows=int(rng.integers(1, 4)),
            merge_gap_windows=int(rng.integers(0, 4)),
        )
        intervals = segment_events(scores_from(probs), cfg)
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert s0 < s1
            assert e0 <= s1
        for s, e in intervals:
            assert s < e


def loop_segments(start_t, probs, window_s, cfg):
    """Per-window loop reference for segment_events."""
    runs = []
    for i, p in enumerate(probs):
        if p >= cfg.interest_threshold:
            if runs and i - runs[-1][-1] - 1 <= cfg.merge_gap_windows:
                runs[-1].append(i)
            else:
                runs.append([i])
    kept = [r for r in runs if len(r) >= cfg.min_event_windows]
    intervals = [(float(start_t[r[0]]), float(start_t[r[-1]]) + window_s) for r in kept]
    for i in range(len(intervals) - 1):
        if intervals[i][1] > intervals[i + 1][0]:
            intervals[i] = (intervals[i][0], intervals[i + 1][0])
    return intervals


def loop_window_labels(start_t, window_s, truth):
    """Per-window loop reference for window_labels."""
    return [
        any(max(0.0, min(t + window_s, ev.end) - max(t, ev.start)) >= 0.5 * window_s for ev in truth)
        for t in start_t.tolist()
    ]


def test_segment_and_window_labels_equal_the_loop_reference():
    rng = np.random.default_rng(25)
    for trial in range(500):
        n = int(rng.integers(1, 60))
        probs = np.round(rng.random(n), 1)  # ties at the threshold happen
        window_s = float(rng.choice([3.0, 150 / 49]))
        start_t = np.arange(n) * float(rng.choice([0.3, 0.02, 1 / 3]))
        cfg = DetectorConfig(
            interest_threshold=float(rng.choice([0.3, 0.5, 0.7])),
            min_event_windows=int(rng.integers(1, 4)),
            merge_gap_windows=int(rng.integers(0, 4)),
        )
        scores = WindowScores(start_t, probs, None, window_s)
        assert segment_events(scores, cfg) == loop_segments(start_t, probs, window_s, cfg)
        truth, cursor = [], float(rng.uniform(-2.0, 2.0))
        for _ in range(int(rng.integers(0, 4))):
            cursor += float(rng.uniform(0.0, 3.0))
            if trial % 2:  # start half a window into some window: a 50 % overlap, the edge case
                cursor = max(cursor, float(start_t[rng.integers(0, n)]) + 0.5 * window_s)
            end = cursor + float(rng.uniform(0.1, 4.0))
            truth.append(GroundTruthEvent(ActionClass.WAVE, cursor, end))
            cursor = end
        assert window_labels(start_t, window_s, truth).tolist() == loop_window_labels(start_t, window_s, truth)


def test_segment_threshold_monotonicity():
    rng = np.random.default_rng(24)
    probs = rng.random(80)
    counts = []
    for tau in (0.2, 0.4, 0.6, 0.8):
        counts.append(int((probs >= tau).sum()))
    assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# phase two inside detect
# ---------------------------------------------------------------------------


def positive_at(n_windows, chosen):
    """Phase-one stub: window i is positive iff i is in ``chosen``."""
    return scripted_model(2, [[0.0, 1.0] if i in chosen else [1.0, 0.0] for i in range(n_windows)])


def test_classify_constant_one_hot():
    stream = make_stream(n=400)  # 17 windows, starts 0.0, 0.3, .., 4.8 s
    model = constant_model("fc", 5, [0.0, 0.0, 1.0, 0.0, 0.0])
    _, events = detect(stream, positive_at(17, range(3, 10)), model, DetectorConfig(), "vector")
    assert [(ev.label, ev.confidence) for ev in events] == [(ActionClass.WAVE, 1.0)]  # class index 2


def test_classify_center_equals_mean_for_constant_probs():
    stream = make_stream(n=400)
    model = constant_model("fc", 5, [0.1, 0.2, 0.3, 0.25, 0.15])
    mean_cfg = DetectorConfig(classification_mode="mean-probability")
    center_cfg = DetectorConfig(classification_mode="center-window")
    # positives at starts 0.0-0.9 s: the interval [0.0, 3.9] centres the 9 windows at 0.0-2.4 s
    mean = detect(stream, positive_at(17, range(4)), model, mean_cfg, "vector")[1]
    center = detect(stream, positive_at(17, range(4)), model, center_cfg, "vector")[1]
    assert len(mean) == 1 and mean == center


def test_classify_tie_breaks_to_lowest_index():
    stream = make_stream(n=400)
    # positives at starts 0.0-0.6 s: the interval [0.0, 3.6] centres the 8 windows at 0.0-2.1 s,
    # whose rows alternate between favouring class 0 and class 1
    rows = [[0.75, 0.25, 0.0, 0.0, 0.0], [0.25, 0.75, 0.0, 0.0, 0.0]] * 4
    _, events = detect(stream, positive_at(17, range(3)), scripted_model(5, rows), DetectorConfig(), "vector")
    assert [(ev.label, ev.confidence) for ev in events] == [(ActionClass.SWIPE_LEFT, 0.5)]


def test_detect_checks_the_phase2_model_without_an_interval():
    stream = make_stream(n=400)
    with pytest.raises(DataError, match=r"^expected a 5-class model, got 2$"):
        detect(stream, positive_at(17, []), constant_model("fc", 2, [0.5, 0.5]), DetectorConfig(), "vector")


# ---------------------------------------------------------------------------
# detect end to end
# ---------------------------------------------------------------------------


def synth_cfg(seed, **kw):
    defaults = dict(
        seed=seed,
        stream_duration_s=60.0,
        events_per_stream=4,
        noise_std=0.1,
        event_duration_range=(2.0, 2.5),
        amplitude_range={cls.name.lower(): (4.0, 6.0) for cls in ActionClass if cls.value > 0},
    )
    defaults.update(kw)
    return SyntheticConfig(**defaults)


def trained_fc_models(train_streams=4, seed=100):
    pairs = [generate_synthetic_stream(synth_cfg(seed), 1, i + 1) for i in range(train_streams)]
    det_cfg = DetectorConfig()
    x1, y1 = build_phase1_dataset(pairs, "vector", det_cfg, seed=7)
    x2, y2 = build_phase2_dataset(pairs, "vector", det_cfg)
    tcfg = TrainConfig(learning_rate=0.02, epochs=300, seed=7, dropout_rate=0.0)
    net1, _ = train(vector_model_spec(2), x1, y1, tcfg)
    net2, _ = train(vector_model_spec(5), x2, y2, tcfg)
    return net1, net2, det_cfg


def test_detect_empty_when_phase1_negative():
    stream = make_stream(n=400)
    phase1 = constant_model("fc", 2, [1.0, 0.0])
    phase2 = constant_model("fc", 5, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert detect(stream, phase1, phase2, DetectorConfig(), "vector")[1] == []


def test_detect_finds_planted_gestures():
    net1, net2, det_cfg = trained_fc_models()
    stream, truth = generate_synthetic_stream(synth_cfg(100), 1, 9)
    events = detect(stream, net1, net2, det_cfg, "vector")[1]
    assert len(events) == len(truth)
    for ev, gt in zip(events, truth):
        assert gt.start <= ev.midpoint <= gt.end
    # deterministic rerun
    again = detect(stream, net1, net2, det_cfg, "vector")[1]
    assert events == again


def test_detect_events_sorted_disjoint_in_bounds():
    net1, net2, det_cfg = trained_fc_models()
    stream, _ = generate_synthetic_stream(synth_cfg(100), 1, 10)
    events = detect(stream, net1, net2, det_cfg, "vector")[1]
    assert events
    for a, b in zip(events, events[1:]):
        assert a.start < b.start and a.end <= b.start
    for ev in events:
        assert 0.0 <= ev.start < ev.end <= stream.t[-1] - stream.t[0]


# ---------------------------------------------------------------------------
# training-set builders
# ---------------------------------------------------------------------------


def stream_with_event(label=ActionClass.WAVE, start=2.0, end=4.0, n=400, seed=1):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 50.0
    return Stream(1, 1, t, rng.normal(0, 0.5, (n, 6)), 50.0), [GroundTruthEvent(label, start, end)]


def test_phase1_dataset_overlap_rule_and_balance():
    pair = stream_with_event()
    x, y = build_phase1_dataset([pair], "vector", DetectorConfig(stride_frames=15), seed=0)
    # positives: window starts in [0.5, 2.5] on the 0.3 s grid -> 0.6 .. 2.4
    assert int(y.sum()) == 7
    assert len(y) == 14  # negatives undersampled to the positive count
    assert x.shape == (14, 16)


def test_phase1_dataset_deterministic():
    pair = stream_with_event()
    x1, y1 = build_phase1_dataset([pair], "vector", DetectorConfig(), seed=3)
    x2, y2 = build_phase1_dataset([pair], "vector", DetectorConfig(), seed=3)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_phase2_dataset_center_rule():
    pair = stream_with_event(label=ActionClass.CIRCLE_CW)
    x, y = build_phase2_dataset([pair], "vector", DetectorConfig(stride_frames=15))
    # centers start_t + 1.5 inside [2, 4] -> starts 0.6 .. 2.4
    assert len(y) == 7
    assert all(label == 3 for label in y)  # CIRCLE_CW is class index 3
    assert x.shape == (7, 16)


def test_phase2_dataset_image_kind_shape():
    pair = stream_with_event()
    x, y = build_phase2_dataset([pair], "image", DetectorConfig(stride_frames=15))
    assert x.shape == (7, 50, 8, 1)


def test_featurize_unknown_kind():
    with pytest.raises(ConfigError):
        featurize_stream(make_stream(n=200), "spectrogram", 15)


# ---------------------------------------------------------------------------
# one featurizing pass per stream
# ---------------------------------------------------------------------------


@pytest.fixture
def featurized(monkeypatch):
    """Records the stream of every featurize_stream call."""
    calls = []
    real = ial.detector.featurize_stream

    def counting(stream, *args):
        calls.append(stream)
        return real(stream, *args)

    monkeypatch.setattr(ial.detector, "featurize_stream", counting)
    return calls


def test_detect_featurizes_the_stream_once(featurized):
    stream, _ = stream_with_event()
    phase1 = constant_model("fc", 2, [0.0, 1.0])  # every window positive: one event
    phase2 = constant_model("fc", 5, [0.0, 0.0, 1.0, 0.0, 0.0])
    _, events = detect(stream, phase1, phase2, DetectorConfig(), "vector")
    assert len(events) == 1
    assert featurized == [stream]


def test_evaluate_run_featurizes_each_stream_once(featurized):
    pairs = [stream_with_event(seed=1), stream_with_event(seed=2)]
    phase1 = constant_model("fc", 2, [0.0, 1.0])
    phase2 = constant_model("fc", 5, [0.0, 0.0, 1.0, 0.0, 0.0])
    report1, _ = evaluate_run(pairs, phase1, phase2, DetectorConfig(), "vector")
    assert report1.counts.n_tp == 2
    assert featurized == [stream for stream, _ in pairs]


# ---------------------------------------------------------------------------
# event files
# ---------------------------------------------------------------------------


def test_event_files(tmp_path):
    from ial.detector import DetectedEvent

    events = [
        DetectedEvent(ActionClass.WAVE, 1.0, 3.5, 0.9),
        DetectedEvent(ActionClass.SWIPE_LEFT, 10.0, 12.0, 0.8),
    ]
    tsv = tmp_path / "e.tsv"
    js = tmp_path / "e.json"
    write_events_tsv(events, tsv, ["config_hash=abc"])
    write_events_json(events, js, "abc")
    lines = tsv.read_text().splitlines()
    assert lines[0] == "# config_hash=abc"
    assert lines[1].split("\t")[0] == "WAVE"
    import json

    doc = json.loads(js.read_text())
    assert doc["config_hash"] == "abc"
    assert len(doc["events"]) == 2 and doc["events"][1]["label"] == "SWIPE_LEFT"
