import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ial.data as data_module
from ial.data import (
    AX,
    GX,
    GY,
    GZ,
    STREAM_FIELDS,
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
from ial.errors import ConfigError, DataError, MalformedRowError


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
    assert stream.t[-1] - stream.t[0] == pytest.approx(119.98, abs=1e-12)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(DataError, match=r"nope\.csv$"):
        ingest_stream(tmp_path / "nope.csv")


def test_ingest_non_monotone_timestamps(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,ax,ay,az,gx,gy,gz\n1.0,0,0,0,0,0,0\n0.5,0,0,0,0,0,0\n")
    with pytest.raises(DataError, match=r"s\.csv: data row 2: t = 0\.5 after 1$"):
        ingest_stream(path)


@pytest.mark.parametrize(
    "t, error",
    [
        (np.zeros(200), r"s\.csv: data row 2: t = 0 after 0$"),
        (np.delete(np.arange(201) / 50.0, 100), None),  # one dropped sample: accepted
        (np.insert(np.arange(200) / 50.0, 100, 99 / 50.0), r"s\.csv: data row 101: t = 1\.98 after 1\.98$"),
        # a 100 Hz stream read at 50 Hz
        (np.arange(200) / 100.0, r"s\.csv: timestamp steps \(median 0\.01 s, longest 0\.01 s\) do not fit 50 Hz$"),
        (np.concatenate([np.arange(100), np.arange(150, 250)]) / 50.0,  # a 1 s hole
         r"s\.csv: timestamp steps \(median 0\.02 s, longest 1\.02 s\) do not fit 50 Hz$"),
    ],
    ids=["all-zero", "one-dropped-sample", "one-duplicate", "100hz-at-50hz", "1s-hole"],
)
def test_ingest_rejects_timestamps_that_contradict_the_rate(tmp_path, t, error):
    path = tmp_path / "s.csv"
    path.write_text("t,ax,ay,az,gx,gy,gz\n" + "".join(f"{v!r},0,0,0,0,0,0\n" for v in t.tolist()))
    if error is None:
        assert np.array_equal(ingest_stream(path, sample_rate_hz=50.0).t, t)
    else:
        with pytest.raises(DataError, match=error):
            ingest_stream(path, sample_rate_hz=50.0)


def test_ingest_short_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,ax,ay,az,gx,gy,gz\n0.0,1,2\n")
    with pytest.raises(MalformedRowError):
        ingest_stream(path)


GOOD_ROW = "0.0,0.1,0.2,0.3,0.4,0.5,0.6"


@pytest.mark.parametrize(
    "bad_row, row_no, message",
    [
        ("0.0,0.1,NaN,0.3,0.4,0.5,0.6", 1, "non-finite value"),
        ("0.04,0.1,0.2,inf,0.4,0.5,0.6", 3, "non-finite value"),
        ("-0.02,0.1,0.2,0.3,0.4,0.5,0.6", 2, "negative timestamp"),
        ("0.06,0.1,0.2,abc,0.4,0.5,0.6", 4, "could not convert string to float: 'abc'"),
        ("0.02,0.1,0.2,0.3,0.4,0.5", 2, "expected >= 7 columns, got 6"),
    ],
    ids=["nan-row-1", "inf-row-3", "negative-t-row-2", "token-row-4", "short-row-2"],
)
def test_ingest_reports_the_first_bad_row(tmp_path, bad_row, row_no, message):
    rows = [GOOD_ROW] * 5
    rows[row_no - 1] = bad_row
    path = tmp_path / "s.csv"
    path.write_text("# comment\nt,ax,ay,az,gx,gy,gz\n" + "\n".join(rows) + "\n")
    with pytest.raises(MalformedRowError) as info:
        ingest_stream(path)
    assert info.value.line_no == row_no
    assert str(info.value) == f"data row {row_no}: {message}"


def test_ingest_custom_schema(tmp_path):
    # columns shuffled: gz first, then t, then the rest
    path = tmp_path / "s.csv"
    path.write_text("9.0,0.0,1.0,2.0,3.0,4.0,5.0\n")
    schema = {"gz": 0, "t": 1, "ax": 2, "ay": 3, "az": 4, "gx": 5, "gy": 6}
    stream = ingest_stream(path, schema)
    assert stream.t[0] == 0.0
    assert list(stream.values[0]) == [1.0, 2.0, 3.0, 4.0, 5.0, 9.0]  # ax ay az gx gy gz


def test_ingest_schema_column_past_the_index_range_is_a_row_error(tmp_path):
    # 10**20 does not fit numpy's index type: the bulk parse raises OverflowError, not ValueError
    path = tmp_path / "s.csv"
    path.write_text("t,ax,ay,az,gx,gy,gz\n" + GOOD_ROW + "\n")
    schema = dict(zip(STREAM_FIELDS, range(7))) | {"gz": 10**20}
    with pytest.raises(MalformedRowError, match=r"^data row 1: expected >= 100000000000000000001 columns, got 7$"):
        ingest_stream(path, schema)


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


def test_written_stream_bytes_are_pinned(tmp_path):
    """The CSV text of a seeded stream, with edge values appended, is fixed
    byte for byte: every float is written as its shortest round-trip repr."""
    stream, _ = generate_synthetic_stream(SyntheticConfig(seed=5, stream_duration_s=12.0, events_per_stream=1), 2, 3)
    edges = np.array([[-0.0, 0.0, 5e-324, -1e300, 1e16, 0.1], [1.0, -2.5, 123456789.0, 1e-7, 2.0**-1074, 3.0]])
    values = np.concatenate([stream.values, edges])
    t = np.concatenate([stream.t, [12.0, 12.02]])
    path = tmp_path / "pinned.csv"
    write_stream(Stream(2, 3, t, values), path, ["config_hash=deadbeef"])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "14a84a8032bed63d813d6c5f78c951993c729fe5fec577bb681fae7f136310c5"


# tokens at the edges of float parsing, as cells of a stream CSV: values loadtxt reads
# as float() does, tokens only float() reads (1_0, an Arabic-Indic or a fullwidth
# digit), padded cells, an inline comment, and tokens both reject
EDGE_TOKENS = ["-0.0", "5e-324", "2.5e-308", "1e300", "-1e300", "1e400", "0.1e-999", "1.", ".5", "+3", "1E5", "inf",
               "-Infinity", "nan", "1_0", "\u0661", "\uff11", "\xa02", " 7 ", "\t8", "\x0c9", "4\x85", "\u20285",
               "6 # note", "#7", "abc", "", "1e", "0x10", "nan(1)", '"2"']
CELL = st.sampled_from(EDGE_TOKENS) | st.floats(-1e6, 1e6).map(repr)


@st.composite
def stream_texts(draw):
    """A stream CSV text and a schema: rows of 7-9 cells, mostly floats with increasing
    timestamps, with edge tokens, ragged rows, blank and comment lines mixed in."""
    schema = dict(zip(STREAM_FIELDS, draw(st.permutations(range(9)))))
    width = max(schema.values()) + 1
    lines = [draw(st.sampled_from(["t,ax,ay,az,gx,gy,gz", "# made by hand", ""]))] if draw(st.booleans()) else []
    for k in range(draw(st.integers(1, 8))):
        cells = [repr(v) for v in draw(st.lists(st.floats(-1e3, 1e3), min_size=width, max_size=width + 2))]
        cells[schema["t"]] = repr(k / 50)
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CELL)
        if draw(st.integers(0, 9)) == 0:  # an inline comment after the last column read
            cells = cells[:width]
            cells[-1] += " # note"
        if draw(st.integers(0, 9)) == 0:
            cells = cells[: draw(st.integers(0, len(cells)))]
        lines.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# note, 1", " #x"])))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n", schema


def ingest_outcome(path, schema):
    try:
        stream = ingest_stream(path, schema)
    except DataError as exc:
        return type(exc), str(exc)
    return stream.t.dtype, stream.t.tobytes(), stream.values.tobytes(), stream.values.strides


def _no_loadtxt(*args, **kwargs):
    raise ValueError("bulk parse disabled")


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=stream_texts())
def test_bulk_parse_equals_the_row_loop(tmp_path, case):
    """Every file reads to the same bytes, or fails with the same error, as with the row loop alone."""
    text, schema = case
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    got = ingest_outcome(path, schema)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", _no_loadtxt)
        assert got == ingest_outcome(path, schema)


LINE_TEXT = st.lists(
    st.sampled_from(["\n", "\r\n", "\r", " ", "\t", "\x0b", "#", "\ufeff", "1", "a", ","]), max_size=40
).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=LINE_TEXT)
def test_data_lines_equal_the_walrus_filter(tmp_path, text):
    """Blank, whitespace-only and "#" lines go, after any line ending and with a BOM kept as text."""
    path = tmp_path / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    read = path.read_text(encoding="utf-8")
    expected = [line for raw in read.split("\n") if (line := raw.strip()) and not line.startswith("#")]
    assert data_module._data_lines(path) == expected


def test_written_streams_take_the_bulk_path(tmp_path, monkeypatch):
    stream, _ = generate_synthetic_stream(SyntheticConfig(seed=4, stream_duration_s=12.0, events_per_stream=1), 1, 2)
    path = tmp_path / "s.csv"
    write_stream(stream, path, ["config_hash=deadbeef", "second comment"])

    def row_loop(*args):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(data_module, "_parse_rows", row_loop)
    back = ingest_stream(path)
    assert back.t.tobytes() == stream.t.tobytes() and back.values.tobytes() == stream.values.tobytes()


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
    with pytest.raises(DataError, match=r"^label id 7 outside 1\.\.5$"):
        parse_labels(path)


def test_parse_labels_overlap(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1 2 4\n2 3 5\n")
    with pytest.raises(DataError, match=r"^\[2\.0, 4\.0\] overlaps \[3\.0, 5\.0\]$"):
        parse_labels(path)


def test_parse_labels_inverted(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1 5 5\n")
    with pytest.raises(DataError, match=r"^start 5\.0 >= end 5\.0$"):
        parse_labels(path)


@pytest.mark.parametrize("line", ["1 -inf 5.0", "2 10.0 inf", "3 nan 4.0", "4 1.0 -infinity"])
def test_parse_labels_rejects_non_finite_bounds(tmp_path, line):
    path = tmp_path / "l.txt"
    path.write_text(f"5 0.5 1.0\n{line}\n")
    with pytest.raises(MalformedRowError, match="^data row 2: non-finite value$"):
        parse_labels(path)


def test_parse_labels_sorted_and_touching_ok(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("2 6.0 8.0\n1 2.0 6.0\n")
    events = parse_labels(path)
    assert [ev.start for ev in events] == [2.0, 6.0]


@pytest.mark.parametrize("sep", ["\x85", "\u2028"], ids=["NEL", "LS"])
def test_labels_and_streams_end_lines_only_at_newlines(tmp_path, sep):
    # separators that str.splitlines() breaks at stay inside their line in both readers
    labels = tmp_path / "l.txt"
    labels.write_text(f"1 3.0{sep}5.0\n", encoding="utf-8")
    assert parse_labels(labels) == [GroundTruthEvent(ActionClass.SWIPE_LEFT, 3.0, 5.0)]
    stream = tmp_path / "s.csv"
    stream.write_text(f"t,ax,ay,az,gx,gy,gz\n0.0,1,2,3{sep},4,5,6\n0.02,1,2,3,4,5,6\n", encoding="utf-8")
    assert ingest_stream(stream).values.tolist() == [[1, 2, 3, 4, 5, 6]] * 2


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
    with pytest.raises(DataError, match=r"^stream_id 11 outside 1\.\.10$"):
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
    with pytest.raises(DataError, match=r"^10 events of at least 1\.5s and 3\.0s gaps exceed 5\.0s$"):
        generate_synthetic_stream(cfg)


def test_synthetic_packing_bound_is_checked_before_any_draw():
    # k events need at least k * 1.5 s + (k + 1) * 3 s, 16.5 s for k = 3; k = 1e14
    # would draw 728 TiB of class ids, more than a 64-bit process can map
    for k, duration in ((10**14, 120.0), (3, 16.4)):
        with pytest.raises(DataError, match=rf"^{k} events of at least 1\.5s and 3\.0s gaps exceed {duration}s$"):
            generate_synthetic_stream(SyntheticConfig(events_per_stream=k, stream_duration_s=duration))


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


def test_synthetic_packing_is_checked_again_after_the_duration_draw():
    # 3 events at the 1.5 s lower bound just fit 16.5 s; durations drawn up to 10 s cannot
    cfg = SyntheticConfig(events_per_stream=3, stream_duration_s=16.5, event_duration_range=(1.5, 10.0))
    with pytest.raises(DataError, match=r"^3 events of total \d+\.\d\ds with 3\.0s gaps do not fit in 16\.5s$"):
        generate_synthetic_stream(cfg)


def test_each_template_adds_its_waveform_on_its_channels():
    # noiseless streams at amplitude 3; phase runs 0..1 over each event
    flat = {c.name.lower(): (3.0, 3.0) for c in INTEREST_CLASSES}
    expected = {
        ActionClass.SWIPE_LEFT: lambda p: {AX: -3.0 * np.sin(np.pi * p)},
        ActionClass.SWIPE_RIGHT: lambda p: {AX: 3.0 * np.sin(np.pi * p)},
        ActionClass.WAVE: lambda p: {GZ: 3.0 * np.sin(6.0 * np.pi * p)},
        ActionClass.CIRCLE_CW: lambda p: {GX: 3.0 * np.sin(2.0 * np.pi * p), GY: 3.0 * np.cos(2.0 * np.pi * p)},
        ActionClass.CIRCLE_CCW: lambda p: {GX: 3.0 * np.cos(2.0 * np.pi * p), GY: 3.0 * np.sin(2.0 * np.pi * p)},
    }
    seen = set()
    for seed in range(4):
        cfg = SyntheticConfig(seed=seed, events_per_stream=8, stream_duration_s=60.0, noise_std=0.0, amplitude_range=flat)
        stream, events = generate_synthetic_stream(cfg)
        for ev in events:
            inside = (stream.t >= ev.start) & (stream.t <= ev.end)
            want = np.zeros((inside.sum(), 6))
            for channel, column in expected[ev.label]((stream.t[inside] - ev.start) / (ev.end - ev.start)).items():
                want[:, channel] = column
            np.testing.assert_allclose(stream.values[inside], want, rtol=0, atol=1e-12)
            seen.add(ev.label)
    assert seen == set(INTEREST_CLASSES)


def test_label_ids_are_the_action_class_values(tmp_path):
    path = tmp_path / "l.txt"
    write_labels([GroundTruthEvent(cls, 2.0 * cls.value, 2.0 * cls.value + 1.0) for cls in INTEREST_CLASSES], path)
    assert [line.split()[0] for line in path.read_text().splitlines()] == ["1", "2", "3", "4", "5"]
    assert [ev.label for ev in parse_labels(path)] == list(INTEREST_CLASSES)
    assert [cls.name for cls in INTEREST_CLASSES] == ["SWIPE_LEFT", "SWIPE_RIGHT", "WAVE", "CIRCLE_CW", "CIRCLE_CCW"]


def test_stream_and_truth_event_refuse_what_they_cannot_hold():
    with pytest.raises(ValueError, match="stream arrays"):
        Stream(1, 1, np.arange(4.0), np.zeros((4, 5)))
    with pytest.raises(DataError, match=r"^ActionClass\.NON_INTEREST is not an interest class$"):
        GroundTruthEvent(ActionClass.NON_INTEREST, 0.0, 1.0)


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
