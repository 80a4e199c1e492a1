"""Inertial stream ingestion, interval labels, splits, and seeded synthetic streams.

File formats understood here:

* stream CSV: optional leading ``#`` comment lines, one header line, then one
  row per sample holding a timestamp, 3-axis acceleration and 3-axis angular
  velocity.  Column order is configurable through a schema mapping; headerless
  files are tolerated (the first line is kept when it parses as numbers).
* label file: one ``label_id start_s end_s`` triple per non-empty line,
  label_id in 1..5, finite bounds.
* manifest: JSON document (``Manifest``) listing subject/stream ids and the
  stream/label file paths, relative to the manifest's directory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    InfeasiblePackingError,
    InvertedIntervalError,
    MalformedManifestError,
    MalformedRowError,
    MissingFileError,
    NonMonotoneTimestampsError,
    OutOfRangeError,
    OverlappingEventsError,
    TimestampRateError,
    UnknownLabelError,
)
from .typed import from_json, read_json

DEFAULT_SAMPLE_RATE_HZ = 50.0

# ingest_stream's rate checks: the median timestamp step lies within
# PERIOD_TOLERANCE of the sample period, and no step exceeds MAX_GAP_PERIODS
# periods (the 4 dropped samples that allows stretch a 150-frame window by 4/149)
PERIOD_TOLERANCE = 0.05
MAX_GAP_PERIODS = 5

STREAM_FIELDS = ("t", "ax", "ay", "az", "gx", "gy", "gz")
DEFAULT_SCHEMA: dict[str, int] = {name: i for i, name in enumerate(STREAM_FIELDS)}

# column indices inside Stream.values
AX, AY, AZ, GX, GY, GZ = range(6)


class ActionClass(Enum):
    """Gesture classes; a value is the class's id in label files.  NON_INTEREST
    marks background and is only used by phase one."""

    NON_INTEREST = 0
    SWIPE_LEFT = 1
    SWIPE_RIGHT = 2
    WAVE = 3
    CIRCLE_CW = 4
    CIRCLE_CCW = 5


INTEREST_CLASSES: tuple[ActionClass, ...] = tuple(ActionClass)[1:]  # in label-id order


def action_from_label_id(label_id: int) -> ActionClass:
    """Map a 1..5 label file id onto its ActionClass."""
    if not 1 <= label_id <= len(INTEREST_CLASSES):
        raise UnknownLabelError(f"label id {label_id} outside 1..{len(INTEREST_CLASSES)}")
    return ActionClass(label_id)


@dataclass(frozen=True, eq=False)
class Stream:
    """A continuous recording backed by numpy arrays.

    ``values`` holds one row per sample with columns ax, ay, az, gx, gy, gz.
    """

    subject_id: int
    stream_id: int
    t: np.ndarray
    values: np.ndarray
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self):
        if self.t.ndim != 1 or self.values.shape != (self.t.shape[0], 6):
            raise ValueError("stream arrays must be (n,) timestamps and (n, 6) channels")

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class GroundTruthEvent:
    """A labeled [start, end] interval on the stream time axis."""

    label: ActionClass
    start: float
    end: float

    def __post_init__(self):
        if self.label not in INTEREST_CLASSES:
            raise UnknownLabelError(f"{self.label} is not an interest class")
        if not self.start < self.end:
            raise InvertedIntervalError(f"start {self.start} >= end {self.end}")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the seeded synthetic stream generator.

    ``amplitude_range`` is keyed by lower-case class name; a class it omits keeps (2.0, 4.0).
    """

    seed: int = 0
    stream_duration_s: float = 120.0
    events_per_stream: int = 5
    noise_std: float = 0.3
    amplitude_range: dict[str, tuple[float, float]] = field(default_factory=dict)
    event_duration_range: tuple[float, float] = (1.5, 2.5)
    min_gap_s: float = 3.0
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    n_subjects: int = 1
    n_streams: int = 10

    def __post_init__(self):
        names = [cls.name.lower() for cls in INTEREST_CLASSES]
        unknown = [key for key in self.amplitude_range if key not in names]
        if unknown:
            raise ConfigError(f"unknown action class {unknown[0]!r} in amplitude_range")
        amplitudes = {name: self.amplitude_range.get(name, (2.0, 4.0)) for name in names}
        object.__setattr__(self, "amplitude_range", amplitudes)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.stream_duration_s <= 0 or self.sample_rate_hz <= 0:
            raise ConfigError("duration and sample rate must be positive")
        frames = self.stream_duration_s * self.sample_rate_hz
        if not frames <= 2**53:  # beyond it, float timestamps arange(n) / rate no longer tell frames apart
            raise ConfigError(
                f"synthetic.stream_duration_s * synthetic.sample_rate_hz is {frames:g} frames, over 2**53")
        if self.events_per_stream < 0:
            raise ConfigError("events_per_stream must be >= 0")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.min_gap_s < 1.0:
            raise ConfigError("min_gap_s must be >= 1.0 s")
        lo, hi = self.event_duration_range
        if not 0 < lo <= hi:
            raise ConfigError("event_duration_range must satisfy 0 < lo <= hi")
        for name, (a_lo, a_hi) in amplitudes.items():
            if not 0 < a_lo <= a_hi:
                raise ConfigError(f"amplitude range for {name} must satisfy 0 < lo <= hi")
        if self.n_subjects < 1 or self.n_streams < 1:
            raise ConfigError("n_subjects and n_streams must be >= 1")


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _data_lines(p: Path) -> list[str]:
    """The stripped lines of file ``p``, which must exist and be UTF-8, that are
    neither blank nor ``#`` comments.  Lines end only at "\n", "\r\n" or "\r"."""
    if not p.is_file():
        raise MissingFileError(str(p))
    try:
        text = p.read_text(encoding="utf-8")  # turns "\r\n" and "\r" into "\n"
    except UnicodeDecodeError as exc:
        raise DataError(f"{p}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    return [line for raw in text.split("\n") if (line := raw.strip()) and not line.startswith("#")]


def _parse_rows(lines: Sequence[str], cols: Sequence[int]) -> np.ndarray:
    """The row loop behind ``ingest_stream``: parse data ``lines`` one value at a time,
    raising MalformedRowError with the 1-based row number of the first that fails."""
    need = max(cols) + 1
    rows: list[list[float]] = []
    for row_no, line in enumerate(lines, 1):
        parts = [tok.strip() for tok in line.split(",")]
        if len(parts) < need:
            raise MalformedRowError(row_no, f"expected >= {need} columns, got {len(parts)}")
        try:
            rows.append([float(parts[c]) for c in cols])
        except ValueError as exc:
            raise MalformedRowError(row_no, str(exc)) from None
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(cols))


def _parse_bulk(lines: Sequence[str], cols: Sequence[int]) -> np.ndarray:
    """The data ``lines`` as an array in one loadtxt call, or by the row loop if that fails.

    loadtxt accepts no token that float() rejects and reads every other to the
    same value, so what it refuses (a malformed row, or a token such as 1_0
    that only float() reads) goes to the row loop, which alone reports errors.
    ``comments=None``: a ``#`` inside a row is an error, not a comment.
    """
    if lines:  # loadtxt warns when given no lines
        try:
            return np.loadtxt(lines, delimiter=",", comments=None, usecols=cols, ndmin=2)
        except ValueError:
            pass
    return _parse_rows(lines, cols)


def ingest_stream(
    path,
    schema: Mapping[str, int] | None = None,
    *,
    subject_id: int = 1,
    stream_id: int = 1,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
) -> Stream:
    """Read a stream CSV into a Stream.

    ``schema`` maps the 7 field names in STREAM_FIELDS to 0-based column
    indices; by default columns are assumed in that order.  The data rows are
    parsed in one bulk call, or by a row loop if that call fails.  Rows with
    missing, unparseable, or non-finite values, or a negative timestamp, raise
    MalformedRowError with the 1-based data-row number; a row that does not
    parse is reported before any non-finite or negative value.
    Then the timestamps must strictly increase (NonMonotoneTimestampsError)
    and agree with ``sample_rate_hz`` (TimestampRateError).
    """
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    if sorted(schema) != sorted(STREAM_FIELDS):
        raise ConfigError(f"schema must map exactly the fields {STREAM_FIELDS}")
    if len(set(schema.values())) != len(STREAM_FIELDS):
        raise ConfigError("schema assigns the same column to two fields")
    if min(schema.values()) < 0:
        raise ConfigError(f"schema columns must be >= 0, got {min(schema.values())}")

    p = Path(path)
    lines = _data_lines(p)
    # a header line has at least one non-numeric cell
    if lines and not all(_parses_as_float(tok.strip()) for tok in lines[0].split(",")):
        del lines[0]
    arr = _parse_bulk(lines, [schema[name] for name in STREAM_FIELDS])
    finite = np.isfinite(arr).all(axis=1)
    bad = ~finite | (arr[:, 0] < 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise MalformedRowError(i + 1, "negative timestamp" if finite[i] else "non-finite value")
    t = arr[:, 0]
    dt = np.diff(t)
    if np.any(dt <= 0):
        i = int(np.argmax(dt <= 0))
        raise NonMonotoneTimestampsError(f"{p}: data row {i + 2}: t = {t[i + 1]:.17g} after {t[i]:.17g}")
    period = 1.0 / sample_rate_hz
    if len(dt) and (
        abs(np.median(dt) - period) > PERIOD_TOLERANCE * period or dt.max() > MAX_GAP_PERIODS * period
    ):
        raise TimestampRateError(
            f"{p}: timestamp steps (median {np.median(dt):.6g} s, longest {dt.max():.6g} s) "
            f"do not fit {sample_rate_hz:g} Hz"
        )
    return Stream(subject_id, stream_id, t, arr[:, 1:], sample_rate_hz)


def write_lines(path, lines: Iterable[str], comments: Sequence[str] = ()) -> None:
    """Write one ``# comment`` line per comment, then ``lines``, each ending in
    a newline, as UTF-8."""
    text = "\n".join([*(f"# {c}" for c in comments), *lines])
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_stream(stream: Stream, path, comments: Sequence[str] = ()) -> None:
    """Write a stream in the ingestible CSV format; floats round-trip exactly."""
    rows = np.column_stack([stream.t, stream.values]).tolist()
    write_lines(path, [",".join(STREAM_FIELDS), *(",".join(map(repr, row)) for row in rows)], comments)


def parse_labels(path) -> list[GroundTruthEvent]:
    """Read ``label_id start_s end_s`` lines into events sorted by start."""
    events: list[GroundTruthEvent] = []
    for row_no, line in enumerate(_data_lines(Path(path)), 1):
        parts = line.split()
        if len(parts) != 3:
            raise MalformedRowError(row_no, f"expected 3 tokens, got {len(parts)}")
        try:
            label_id = int(parts[0])
            start, end = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MalformedRowError(row_no, str(exc)) from None
        if not np.isfinite([start, end]).all():
            raise MalformedRowError(row_no, "non-finite value")
        events.append(GroundTruthEvent(action_from_label_id(label_id), start, end))
    events.sort(key=lambda ev: ev.start)
    for prev, nxt in zip(events, events[1:]):
        if nxt.start < prev.end:
            raise OverlappingEventsError(f"[{prev.start}, {prev.end}] overlaps [{nxt.start}, {nxt.end}]")
    return events


def write_labels(events: Sequence[GroundTruthEvent], path, comments: Sequence[str] = ()) -> None:
    lines = [
        f"{ev.label.value} {ev.start!r} {ev.end!r}"
        for ev in sorted(events, key=lambda e: e.start)
    ]
    write_lines(path, lines, comments)


def split_dataset(streams: Sequence[Stream]) -> tuple[list[Stream], list[Stream]]:
    """Partition streams into train (ids 1..9) and test (id 10), per subject."""
    for s in streams:
        if not 1 <= s.stream_id <= 10:
            raise OutOfRangeError(f"stream_id {s.stream_id} outside 1..10")
    train = [s for s in streams if s.stream_id <= 9]
    test = [s for s in streams if s.stream_id == 10]
    return train, test


# each class's template: (channel, sign, waveform, cycles) terms, each adding
# sign * amp * waveform(2 pi cycles phase) over the event, phase running 0..1
_TEMPLATES = {
    ActionClass.SWIPE_LEFT: ((AX, -1.0, np.sin, 0.5),),
    ActionClass.SWIPE_RIGHT: ((AX, 1.0, np.sin, 0.5),),
    ActionClass.WAVE: ((GZ, 1.0, np.sin, 3.0),),
    ActionClass.CIRCLE_CW: ((GX, 1.0, np.sin, 1.0), (GY, 1.0, np.cos, 1.0)),
    ActionClass.CIRCLE_CCW: ((GX, 1.0, np.cos, 1.0), (GY, 1.0, np.sin, 1.0)),
}


def generate_synthetic_stream(
    cfg: SyntheticConfig, subject_id: int = 1, stream_id: int = 1
) -> tuple[Stream, list[GroundTruthEvent]]:
    """Generate one seeded stream with embedded gesture templates.

    Background is i.i.d. Gaussian noise per channel, and each event adds its
    class's ``_TEMPLATES`` terms.  Events keep at least ``min_gap_s`` between
    each other and from the stream edges; the returned ground truth intervals
    are the exact embedded ones.
    """
    rng = np.random.default_rng([cfg.seed, subject_id, stream_id])
    n = int(round(cfg.stream_duration_s * cfg.sample_rate_hz))
    t = np.arange(n, dtype=np.float64) / cfg.sample_rate_hz
    k = cfg.events_per_stream
    gap, lo = cfg.min_gap_s, cfg.event_duration_range[0]
    if k > 0 and k * lo + (k + 1) * gap > cfg.stream_duration_s:  # before any draw, however large k is
        raise InfeasiblePackingError(f"{k} events of at least {lo}s and {gap}s gaps exceed {cfg.stream_duration_s}s")

    class_ids = rng.integers(0, len(INTEREST_CLASSES), k)
    classes = [INTEREST_CLASSES[i] for i in class_ids]
    durations = rng.uniform(cfg.event_duration_range[0], cfg.event_duration_range[1], k)
    slack = cfg.stream_duration_s - float(durations.sum()) - (k + 1) * gap
    if k > 0 and slack < 0:
        raise InfeasiblePackingError(
            f"{k} events of total {durations.sum():.2f}s with {gap}s gaps do not fit in "
            f"{cfg.stream_duration_s}s"
        )
    offsets = np.sort(rng.uniform(0.0, max(slack, 0.0), k))
    amps = np.array([rng.uniform(*cfg.amplitude_range[c.name.lower()]) for c in classes])

    sig = rng.normal(0.0, cfg.noise_std, (n, 6))

    events: list[GroundTruthEvent] = []
    cursor = gap
    for i in range(k):
        start = cursor + float(offsets[i])
        end = start + float(durations[i])
        lo = int(np.searchsorted(t, start, "left"))
        hi = int(np.searchsorted(t, end, "right"))
        phase = (t[lo:hi] - start) / float(durations[i])
        for channel, sign, wave, cycles in _TEMPLATES[classes[i]]:
            sig[lo:hi, channel] += sign * float(amps[i]) * wave(2.0 * np.pi * cycles * phase)
        events.append(GroundTruthEvent(classes[i], start, end))
        cursor += float(durations[i]) + gap

    stream = Stream(subject_id, stream_id, t, sig, cfg.sample_rate_hz)
    return stream, events


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: int
    stream_id: int
    stream_path: str
    labels_path: str


@dataclass(frozen=True, kw_only=True)
class Manifest:
    """The manifest document, field for field in file order."""

    version: int = 1
    config_hash: str | None = None
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    streams: tuple[ManifestEntry, ...]


def write_manifest(
    path,
    entries: Sequence[ManifestEntry],
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
    config_hash: str | None = None,
) -> None:
    doc = Manifest(config_hash=config_hash, sample_rate_hz=sample_rate_hz, streams=tuple(entries))
    Path(path).write_text(json.dumps(asdict(doc), indent=2) + "\n", encoding="utf-8")


def load_manifest(path) -> tuple[list[ManifestEntry], float]:
    p = Path(path)
    doc = read_json(p, MalformedManifestError, MissingFileError)
    manifest = from_json(Manifest, doc, lambda message: MalformedManifestError(f"{p}: {message}"))
    if manifest.version != 1:
        raise MalformedManifestError(f"{p}: unsupported manifest version {manifest.version}")
    if not manifest.sample_rate_hz > 0:
        raise MalformedManifestError(f"{p}: sample_rate_hz must be > 0, got {manifest.sample_rate_hz}")
    return list(manifest.streams), manifest.sample_rate_hz


def load_dataset(
    manifest_path, schema: Mapping[str, int] | None = None
) -> list[tuple[Stream, list[GroundTruthEvent]]]:
    """Load every (stream, events) pair listed in a manifest."""
    base = Path(manifest_path).parent
    entries, rate = load_manifest(manifest_path)
    out = []
    for e in entries:
        stream = ingest_stream(
            base / e.stream_path,
            schema,
            subject_id=e.subject_id,
            stream_id=e.stream_id,
            sample_rate_hz=rate,
        )
        out.append((stream, parse_labels(base / e.labels_path)))
    return out
