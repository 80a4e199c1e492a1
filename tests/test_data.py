import numpy as np
import pytest

from ial.data import (
    ActionClass,
    GroundTruthEvent,
    INTEREST_CLASSES,
    ManifestEntry,
    Stream,
    SyntheticConfig,
    generate_synthetic_stream,
    ingest_stream,
    load_dataset,
    load_manifest,
    parse_labels,
    split_dataset,
    write_labels,
    write_manifest,
    write_stream,
)
from ial.errors import (
    ConfigError,
    InfeasiblePackingError,
    InvertedIntervalError,
    MalformedRowError,
    MissingFileError,
    NonMonotoneTimestampsError,
    OverlappingEventsError,
    UnknownLabelError,
)


def make_stream(values, rate=50.0, subject_id=1, stream_id=1):
    values = np.asarray(values, dtype=np.float64)
    t = np.arange(len(values)) / rate
    return Stream(subject_id, stream_id, t, values, rate)


# ---------------------------------------------------------------------------
# ingest_stream
# ---------------------------------------------------------------------------


def test_ingest_two_rows_bit_equal(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "t,ax,ay,az,gx,gy,gz\n"
        "0.0,0.1,0.2,0.3,0.4,0.5,0.6\n"
        "0.02,-1.5,2.25,0.125,9.5,-3.75,0.0625\n"
    )
    stream = ingest_stream(path)
    assert len(stream) == 2
    assert stream.t[0] == 0.0 and stream.t[1] == 0.02
    assert list(stream.values[1]) == [-1.5, 2.25, 0.125, 9.5, -3.75, 0.0625]


def test_ingest_nan_is_malformed_row_one(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,ax,ay,az,gx,gy,gz\n0.0,0.1,NaN,0.3,0.4,0.5,0.6\n")
    with pytest.raises(MalformedRowError) as info:
        ingest_stream(path)
    assert info.value.line_no == 1


def test_ingest_6000_rows_duration(tmp_path):
    rate = 50.0
    rows = ["t,ax,ay,az,gx,gy,gz"]
    for i in range(6000):
        rows.append(",".join([repr(i / rate)] + ["0.0"] * 6))
    path = tmp_path / "s.csv"
    path.write_text("\n".join(rows) + "\n")
    stream = ingest_stream(path)
    assert len(stream) == 6000
    assert stream.duration_s == pytest.approx(119.98, abs=1e-12)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        ingest_stream(tmp_path / "nope.csv")


def test_ingest_non_monotone_timestamps(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,ax,ay,az,gx,gy,gz\n1.0,0,0,0,0,0,0\n0.5,0,0,0,0,0,0\n")
    with pytest.raises(NonMonotoneTimestampsError):
        ingest_stream(path)


def test_ingest_short_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,ax,ay,az,gx,gy,gz\n0.0,1,2\n")
    with pytest.raises(MalformedRowError):
        ingest_stream(path)


def test_ingest_custom_schema(tmp_path):
    # columns shuffled: gz first, then t, then the rest
    path = tmp_path / "s.csv"
    path.write_text("9.0,0.0,1.0,2.0,3.0,4.0,5.0\n")
    schema = {"gz": 0, "t": 1, "ax": 2, "ay": 3, "az": 4, "gx": 5, "gy": 6}
    stream = ingest_stream(path, schema)
    assert stream.t[0] == 0.0
    assert list(stream.values[0]) == [1.0, 2.0, 3.0, 4.0, 5.0, 9.0]  # ax ay az gx gy gz


def test_ingest_headerless_and_comments(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# generated\n0.0,1,2,3,4,5,6\n0.02,1,2,3,4,5,6\n")
    assert len(ingest_stream(path)) == 2


def test_stream_write_ingest_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    stream = make_stream(rng.normal(0, 3, (40, 6)))
    path = tmp_path / "round.csv"
    write_stream(stream, path, ["config_hash=deadbeef"])
    back = ingest_stream(path)
    assert np.array_equal(back.t, stream.t)
    assert np.array_equal(back.values, stream.values)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_parse_labels_basic(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1 3.0 5.0\n")
    events = parse_labels(path)
    assert events == [GroundTruthEvent(ActionClass.SWIPE_LEFT, 3.0, 5.0)]


def test_parse_labels_unknown_label(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("7 1 2\n")
    with pytest.raises(UnknownLabelError):
        parse_labels(path)


def test_parse_labels_overlap(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1 2 4\n2 3 5\n")
    with pytest.raises(OverlappingEventsError):
        parse_labels(path)


def test_parse_labels_inverted(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1 5 5\n")
    with pytest.raises(InvertedIntervalError):
        parse_labels(path)


def test_parse_labels_sorted_and_touching_ok(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("2 6.0 8.0\n1 2.0 6.0\n")
    events = parse_labels(path)
    assert [ev.start for ev in events] == [2.0, 6.0]


def test_labels_round_trip(tmp_path):
    events = [
        GroundTruthEvent(ActionClass.WAVE, 1.25, 3.5),
        GroundTruthEvent(ActionClass.CIRCLE_CCW, 10.0, 12.75),
    ]
    path = tmp_path / "l.txt"
    write_labels(events, path, ["config_hash=deadbeef"])
    assert parse_labels(path) == events


# ---------------------------------------------------------------------------
# split_dataset
# ---------------------------------------------------------------------------


def test_split_one_subject():
    streams = [make_stream(np.zeros((1, 6)), stream_id=i) for i in range(1, 11)]
    train, test = split_dataset(streams)
    assert len(train) == 9 and len(test) == 1
    assert test[0].stream_id == 10


def test_split_empty():
    assert split_dataset([]) == ([], [])


def test_split_twelve_subjects():
    streams = [
        make_stream(np.zeros((1, 6)), subject_id=s, stream_id=i)
        for s in range(1, 13)
        for i in range(1, 11)
    ]
    train, test = split_dataset(streams)
    assert len(train) == 108 and len(test) == 12


def test_split_partitions():
    rng = np.random.default_rng(3)
    ids = rng.integers(1, 11, 25)
    streams = [make_stream(np.zeros((1, 6)), subject_id=k, stream_id=int(i)) for k, i in enumerate(ids)]
    train, test = split_dataset(streams)
    assert len(train) + len(test) == len(streams)
    assert set(id(s) for s in train).isdisjoint(id(s) for s in test)
    assert set(id(s) for s in train) | set(id(s) for s in test) == set(id(s) for s in streams)


def test_split_rejects_bad_id():
    with pytest.raises(ValueError):
        split_dataset([make_stream(np.zeros((1, 6)), stream_id=11)])


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synthetic_deterministic():
    cfg = SyntheticConfig(seed=1)
    s1, e1 = generate_synthetic_stream(cfg)
    s2, e2 = generate_synthetic_stream(cfg)
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(s1.t, s2.t)
    assert e1 == e2


def test_synthetic_zero_events_zero_noise():
    cfg = SyntheticConfig(seed=5, events_per_stream=0, noise_std=0.0)
    stream, events = generate_synthetic_stream(cfg)
    assert events == []
    assert np.all(stream.values == 0.0)


def test_synthetic_intervals_disjoint_with_gaps():
    cfg = SyntheticConfig(seed=1, events_per_stream=5, stream_duration_s=120.0)
    stream, events = generate_synthetic_stream(cfg)
    assert len(events) == 5
    # exhaustive pairwise interval scan
    for a in events:
        assert 0.0 <= a.start < a.end <= cfg.stream_duration_s
        for b in events:
            if a is b:
                continue
            gap = max(a.start, b.start) - min(a.end, b.end)
            assert gap >= 1.0


def test_synthetic_intervals_disjoint_many_seeds():
    for seed in range(8):
        cfg = SyntheticConfig(seed=seed, events_per_stream=6, stream_duration_s=90.0)
        _, events = generate_synthetic_stream(cfg)
        for a in events:
            assert 0.0 <= a.start < a.end <= cfg.stream_duration_s
        for a, b in zip(events, events[1:]):
            assert b.start - a.end >= 1.0


def test_synthetic_infeasible_packing():
    cfg = SyntheticConfig(seed=0, events_per_stream=10, stream_duration_s=5.0)
    with pytest.raises(InfeasiblePackingError):
        generate_synthetic_stream(cfg)


def test_synthetic_templates_raise_energy_inside_events():
    cfg = SyntheticConfig(seed=9, events_per_stream=4, noise_std=0.1)
    stream, events = generate_synthetic_stream(cfg)
    for ev in events:
        inside = (stream.t >= ev.start) & (stream.t <= ev.end)
        rms_in = float(np.sqrt((stream.values[inside] ** 2).mean()))
        rms_out = float(np.sqrt((stream.values[~inside] ** 2).mean()))
        assert rms_in > 2 * rms_out


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(min_gap_s=0.5)
    with pytest.raises(ConfigError):
        SyntheticConfig(events_per_stream=-1)
    with pytest.raises(ConfigError):
        SyntheticConfig(noise_std=-0.1)


def test_interest_classes_are_exactly_five():
    assert len(INTEREST_CLASSES) == 5
    assert ActionClass.NON_INTEREST not in INTEREST_CLASSES


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    cfg = SyntheticConfig(seed=2, events_per_stream=2, stream_duration_s=30.0)
    stream, events = generate_synthetic_stream(cfg)
    (tmp_path / "data").mkdir()
    write_stream(stream, tmp_path / "data" / "a.csv")
    write_labels(events, tmp_path / "data" / "a.labels.txt")
    entries = [ManifestEntry(1, 1, "data/a.csv", "data/a.labels.txt")]
    write_manifest(tmp_path / "manifest.json", entries, cfg.sample_rate_hz, "abc123")
    back, rate = load_manifest(tmp_path / "manifest.json")
    assert back == entries and rate == cfg.sample_rate_hz
    pairs = load_dataset(tmp_path / "manifest.json")
    assert len(pairs) == 1
    loaded_stream, loaded_events = pairs[0]
    assert np.array_equal(loaded_stream.values, stream.values)
    assert loaded_events == events
