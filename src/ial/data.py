"""Inertial stream ingestion, interval labels, splits, and seeded synthetic streams.

File formats understood here:

* stream CSV: optional leading ``#`` comment lines, one header line, then one
  row per sample holding a timestamp, 3-axis acceleration and 3-axis angular
  velocity.  Column order is configurable through a schema mapping; headerless
  files are tolerated (the first line is kept when it parses as numbers).
* label file: one ``label_id start_s end_s`` triple per non-empty line,
  label_id in 1..5.
* manifest: JSON document listing subject/stream ids and the stream/label
  file paths, relative to the manifest's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InfeasiblePackingError,
    InvertedIntervalError,
    MalformedRowError,
    MissingFileError,
    NonMonotoneTimestampsError,
    OverlappingEventsError,
    UnknownLabelError,
)

DEFAULT_SAMPLE_RATE_HZ = 50.0

STREAM_FIELDS = ("t", "ax", "ay", "az", "gx", "gy", "gz")
DEFAULT_SCHEMA: dict[str, int] = {name: i for i, name in enumerate(STREAM_FIELDS)}

# column indices inside Stream.values
AX, AY, AZ, GX, GY, GZ = range(6)


class ActionClass(Enum):
    """Gesture classes; NON_INTEREST marks background and is only used by phase one."""

    NON_INTEREST = 0
    SWIPE_LEFT = 1
    SWIPE_RIGHT = 2
    WAVE = 3
    CIRCLE_CW = 4
    CIRCLE_CCW = 5


INTEREST_CLASSES: tuple[ActionClass, ...] = (
    ActionClass.SWIPE_LEFT,
    ActionClass.SWIPE_RIGHT,
    ActionClass.WAVE,
    ActionClass.CIRCLE_CW,
    ActionClass.CIRCLE_CCW,
)


def action_from_label_id(label_id: int) -> ActionClass:
    """Map a 1..5 label file id onto its ActionClass."""
    if not 1 <= label_id <= len(INTEREST_CLASSES):
        raise UnknownLabelError(f"label id {label_id} outside 1..{len(INTEREST_CLASSES)}")
    return INTEREST_CLASSES[label_id - 1]


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

    @property
    def duration_s(self) -> float:
        return float(self.t[-1] - self.t[0]) if len(self) else 0.0


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

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.start + self.end)


def _default_amplitudes() -> dict[ActionClass, tuple[float, float]]:
    return {cls: (2.0, 4.0) for cls in INTEREST_CLASSES}


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the seeded synthetic stream generator."""

    seed: int = 0
    stream_duration_s: float = 120.0
    events_per_stream: int = 5
    noise_std: float = 0.3
    amplitude_range: Mapping[ActionClass, tuple[float, float]] = field(
        default_factory=_default_amplitudes
    )
    event_duration_range: tuple[float, float] = (1.5, 2.5)
    min_gap_s: float = 3.0
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    n_subjects: int = 1
    n_streams: int = 10

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.stream_duration_s <= 0 or self.sample_rate_hz <= 0:
            raise ConfigError("duration and sample rate must be positive")
        if self.events_per_stream < 0:
            raise ConfigError("events_per_stream must be >= 0")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.min_gap_s < 1.0:
            raise ConfigError("min_gap_s must be >= 1.0 s")
        lo, hi = self.event_duration_range
        if not 0 < lo <= hi:
            raise ConfigError("event_duration_range must satisfy 0 < lo <= hi")
        for cls in INTEREST_CLASSES:
            a_lo, a_hi = self.amplitude_range[cls]
            if not 0 < a_lo <= a_hi:
                raise ConfigError(f"amplitude range for {cls.name} must satisfy 0 < lo <= hi")
        if self.n_subjects < 1 or self.n_streams < 1:
            raise ConfigError("n_subjects and n_streams must be >= 1")


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


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
    indices; by default columns are assumed in that order.  Rows with missing,
    unparseable, or non-finite values raise MalformedRowError with the 1-based
    data-row number.
    """
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    if sorted(schema) != sorted(STREAM_FIELDS):
        raise ConfigError(f"schema must map exactly the fields {STREAM_FIELDS}")
    if len(set(schema.values())) != len(STREAM_FIELDS):
        raise ConfigError("schema assigns the same column to two fields")

    p = Path(path)
    if not p.is_file():
        raise MissingFileError(str(p))

    cols = [schema[name] for name in STREAM_FIELDS]
    need = max(cols) + 1
    rows: list[list[float]] = []
    row_no = 0
    first_content_line = True
    with open(p, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [tok.strip() for tok in line.split(",")]
            if first_content_line:
                first_content_line = False
                # a header line has at least one non-numeric cell
                if any(not _parses_as_float(tok) for tok in parts):
                    continue
            row_no += 1
            if len(parts) < need:
                raise MalformedRowError(row_no, f"expected >= {need} columns, got {len(parts)}")
            try:
                vals = [float(parts[c]) for c in cols]
            except ValueError as exc:
                raise MalformedRowError(row_no, str(exc)) from None
            if not all(np.isfinite(v) for v in vals):
                raise MalformedRowError(row_no, "non-finite value")
            if vals[0] < 0:
                raise MalformedRowError(row_no, "negative timestamp")
            rows.append(vals)

    arr = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(STREAM_FIELDS))
    t = arr[:, 0]
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise NonMonotoneTimestampsError(str(p))
    return Stream(subject_id, stream_id, t, arr[:, 1:], sample_rate_hz)


def write_stream(stream: Stream, path, comments: Sequence[str] = ()) -> None:
    """Write a stream in the ingestible CSV format; floats round-trip exactly."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(STREAM_FIELDS))
    for i in range(len(stream)):
        row = [stream.t[i], *stream.values[i]]
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_labels(path) -> list[GroundTruthEvent]:
    """Read ``label_id start_s end_s`` lines into events sorted by start."""
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(str(p))
    events: list[GroundTruthEvent] = []
    row_no = 0
    for raw in p.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row_no += 1
        parts = line.split()
        if len(parts) != 3:
            raise MalformedRowError(row_no, f"expected 3 tokens, got {len(parts)}")
        try:
            label_id = int(parts[0])
            start, end = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MalformedRowError(row_no, str(exc)) from None
        events.append(GroundTruthEvent(action_from_label_id(label_id), start, end))
    events.sort(key=lambda ev: ev.start)
    for prev, nxt in zip(events, events[1:]):
        if nxt.start < prev.end:
            raise OverlappingEventsError(f"[{prev.start}, {prev.end}] overlaps [{nxt.start}, {nxt.end}]")
    return events


def write_labels(events: Sequence[GroundTruthEvent], path, comments: Sequence[str] = ()) -> None:
    lines = [f"# {c}" for c in comments]
    for ev in sorted(events, key=lambda e: e.start):
        label_id = INTEREST_CLASSES.index(ev.label) + 1
        lines.append(f"{label_id} {ev.start!r} {ev.end!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def split_dataset(streams: Sequence[Stream]) -> tuple[list[Stream], list[Stream]]:
    """Partition streams into train (ids 1..9) and test (id 10), per subject."""
    for s in streams:
        if not 1 <= s.stream_id <= 10:
            raise ValueError(f"stream_id {s.stream_id} outside 1..10")
    train = [s for s in streams if s.stream_id <= 9]
    test = [s for s in streams if s.stream_id == 10]
    return train, test


def _add_template(block: np.ndarray, cls: ActionClass, t_rel: np.ndarray, dur: float, amp: float) -> None:
    """Add one gesture template in place onto a (k, 6) signal slice."""
    phase = t_rel / dur
    if cls is ActionClass.SWIPE_LEFT:
        block[:, AX] -= amp * np.sin(np.pi * phase)
    elif cls is ActionClass.SWIPE_RIGHT:
        block[:, AX] += amp * np.sin(np.pi * phase)
    elif cls is ActionClass.WAVE:
        block[:, GZ] += amp * np.sin(2.0 * np.pi * 3.0 * phase)
    elif cls is ActionClass.CIRCLE_CW:
        block[:, GX] += amp * np.sin(2.0 * np.pi * phase)
        block[:, GY] += amp * np.cos(2.0 * np.pi * phase)
    elif cls is ActionClass.CIRCLE_CCW:
        block[:, GX] += amp * np.cos(2.0 * np.pi * phase)
        block[:, GY] += amp * np.sin(2.0 * np.pi * phase)
    else:  # pragma: no cover - guarded by GroundTruthEvent
        raise UnknownLabelError(str(cls))


def generate_synthetic_stream(
    cfg: SyntheticConfig, subject_id: int = 1, stream_id: int = 1
) -> tuple[Stream, list[GroundTruthEvent]]:
    """Generate one seeded stream with embedded gesture templates.

    Background is i.i.d. Gaussian noise per channel.  Templates: swipe
    left/right puts a signed half-sine pulse on ax, wave a 3-cycle sinusoid
    on gz, circles quadrature sinusoids on gx/gy whose lead channel flips
    between clockwise and counterclockwise.  Events keep at least
    ``min_gap_s`` between each other and from the stream edges; the returned
    ground truth intervals are the exact embedded ones.
    """
    rng = np.random.default_rng([cfg.seed, subject_id, stream_id])
    n = int(round(cfg.stream_duration_s * cfg.sample_rate_hz))
    t = np.arange(n, dtype=np.float64) / cfg.sample_rate_hz
    k = cfg.events_per_stream

    class_ids = rng.integers(0, len(INTEREST_CLASSES), k)
    classes = [INTEREST_CLASSES[i] for i in class_ids]
    durations = rng.uniform(cfg.event_duration_range[0], cfg.event_duration_range[1], k)
    gap = cfg.min_gap_s
    slack = cfg.stream_duration_s - float(durations.sum()) - (k + 1) * gap
    if k > 0 and slack < 0:
        raise InfeasiblePackingError(
            f"{k} events of total {durations.sum():.2f}s with {gap}s gaps do not fit in "
            f"{cfg.stream_duration_s}s"
        )
    offsets = np.sort(rng.uniform(0.0, max(slack, 0.0), k))
    amps = np.array([rng.uniform(*cfg.amplitude_range[c]) for c in classes])

    sig = rng.normal(0.0, cfg.noise_std, (n, 6))

    events: list[GroundTruthEvent] = []
    cursor = gap
    for i in range(k):
        start = cursor + float(offsets[i])
        end = start + float(durations[i])
        lo = int(np.searchsorted(t, start, "left"))
        hi = int(np.searchsorted(t, end, "right"))
        _add_template(sig[lo:hi], classes[i], t[lo:hi] - start, float(durations[i]), float(amps[i]))
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


def write_manifest(
    path,
    entries: Sequence[ManifestEntry],
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
    config_hash: str | None = None,
) -> None:
    doc = {
        "version": 1,
        "config_hash": config_hash,
        "sample_rate_hz": sample_rate_hz,
        "streams": [
            {
                "subject_id": e.subject_id,
                "stream_id": e.stream_id,
                "stream_path": e.stream_path,
                "labels_path": e.labels_path,
            }
            for e in entries
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_manifest(path) -> tuple[list[ManifestEntry], float]:
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(str(p))
    doc = json.loads(p.read_text(encoding="utf-8"))
    entries = [
        ManifestEntry(e["subject_id"], e["stream_id"], e["stream_path"], e["labels_path"])
        for e in doc["streams"]
    ]
    return entries, float(doc.get("sample_rate_hz", DEFAULT_SAMPLE_RATE_HZ))


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
