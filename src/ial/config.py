"""Declarative run configuration: JSON file plus flat CLI overrides.

The feature kind fixes the model family (image -> cnn, vector -> fc); any
other pairing is rejected.  ``config_hash`` of the fully resolved
configuration is embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import INTEREST_CLASSES, ActionClass, SyntheticConfig
from .detector import IMAGE_KIND, MODEL_FOR_FEATURE, DetectorConfig
from .errors import ConfigConflictError, ConfigError, MissingFileError
from .net import CNN_KIND, FC_KIND, TrainConfig


@dataclass(frozen=True)
class EvalConfig:
    match_rule: str = "midpoint"
    iou_threshold: float = 0.5

    def __post_init__(self):
        if self.match_rule not in ("midpoint", "iou"):
            raise ConfigError(f"unknown match_rule {self.match_rule!r}")
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ConfigError("iou_threshold must be in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    manifest: str | None = None
    out_dir: str = "out"
    feature_kind: str = IMAGE_KIND
    model: str = CNN_KIND
    seed: int = 0
    threads: int = 1
    schema: dict | None = None  # stream-CSV column mapping; None = t,ax,ay,az,gx,gy,gz
    train: TrainConfig = field(default_factory=TrainConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.feature_kind not in MODEL_FOR_FEATURE:
            raise ConfigError(f"unknown feature_kind {self.feature_kind!r}")
        if self.model not in (CNN_KIND, FC_KIND):
            raise ConfigError(f"unknown model {self.model!r}")
        if MODEL_FOR_FEATURE[self.feature_kind] != self.model:
            raise ConfigConflictError(
                f"{self.feature_kind} features pair with the "
                f"{MODEL_FOR_FEATURE[self.feature_kind]} model, not {self.model}"
            )
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def to_dict(self) -> dict:
        amp = {cls.name.lower(): list(self.synthetic.amplitude_range[cls]) for cls in INTEREST_CLASSES}
        return {
            "manifest": self.manifest,
            "out_dir": self.out_dir,
            "feature_kind": self.feature_kind,
            "model": self.model,
            "seed": self.seed,
            "threads": self.threads,
            "schema": self.schema,
            "train": {
                "learning_rate": self.train.learning_rate,
                "momentum": self.train.momentum,
                "batch_size": self.train.batch_size,
                "epochs": self.train.epochs,
                "dropout_rate": self.train.dropout_rate,
                "seed": self.train.seed,
                "bn_eps": self.train.bn_eps,
            },
            "detector": {
                "interest_threshold": self.detector.interest_threshold,
                "min_event_windows": self.detector.min_event_windows,
                "merge_gap_windows": self.detector.merge_gap_windows,
                "stride_frames": self.detector.stride_frames,
                "classification_mode": self.detector.classification_mode,
            },
            "synthetic": {
                "seed": self.synthetic.seed,
                "stream_duration_s": self.synthetic.stream_duration_s,
                "events_per_stream": self.synthetic.events_per_stream,
                "noise_std": self.synthetic.noise_std,
                "amplitude_range": amp,
                "event_duration_range": list(self.synthetic.event_duration_range),
                "min_gap_s": self.synthetic.min_gap_s,
                "sample_rate_hz": self.synthetic.sample_rate_hz,
                "n_subjects": self.synthetic.n_subjects,
                "n_streams": self.synthetic.n_streams,
            },
            "eval": {
                "match_rule": self.eval.match_rule,
                "iou_threshold": self.eval.iou_threshold,
            },
        }


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _take(section: dict, allowed: set[str], where: str) -> dict:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return section


def _amplitude_map(raw: dict) -> dict[ActionClass, tuple[float, float]]:
    by_name = {cls.name.lower(): cls for cls in INTEREST_CLASSES}
    out = {cls: (2.0, 4.0) for cls in INTEREST_CLASSES}
    for key, pair in raw.items():
        if key not in by_name:
            raise ConfigError(f"unknown action class {key!r} in amplitude_range")
        out[by_name[key]] = (float(pair[0]), float(pair[1]))
    return out


def _build(doc: dict) -> RunConfig:
    top_allowed = {
        "manifest", "out_dir", "feature_kind", "model", "seed", "threads", "schema",
        "train", "detector", "synthetic", "eval",
    }
    _take(doc, top_allowed, "config")
    seed = int(doc.get("seed", 0))

    tr = dict(_take(doc.get("train", {}), {
        "learning_rate", "momentum", "batch_size", "epochs", "dropout_rate", "seed", "bn_eps",
    }, "train"))
    tr.setdefault("seed", seed)
    train = TrainConfig(**tr)

    det = _take(doc.get("detector", {}), {
        "interest_threshold", "min_event_windows", "merge_gap_windows",
        "stride_frames", "classification_mode",
    }, "detector")
    detector = DetectorConfig(**det)

    sy = dict(_take(doc.get("synthetic", {}), {
        "seed", "stream_duration_s", "events_per_stream", "noise_std", "amplitude_range",
        "event_duration_range", "min_gap_s", "sample_rate_hz", "n_subjects", "n_streams",
    }, "synthetic"))
    sy.setdefault("seed", seed)
    if "amplitude_range" in sy:
        sy["amplitude_range"] = _amplitude_map(sy["amplitude_range"])
    if "event_duration_range" in sy:
        sy["event_duration_range"] = tuple(sy["event_duration_range"])
    synthetic = SyntheticConfig(**sy)

    ev = _take(doc.get("eval", {}), {"match_rule", "iou_threshold"}, "eval")
    eval_cfg = EvalConfig(**ev)

    schema = doc.get("schema")
    if schema is not None:
        schema = {str(k): int(v) for k, v in schema.items()}

    feature_kind = doc.get("feature_kind", IMAGE_KIND)
    return RunConfig(
        manifest=doc.get("manifest"),
        out_dir=doc.get("out_dir", "out"),
        feature_kind=feature_kind,
        model=doc.get("model", MODEL_FOR_FEATURE.get(feature_kind, CNN_KIND)),
        seed=seed,
        threads=int(doc.get("threads", 1)),
        schema=schema,
        train=train,
        detector=detector,
        synthetic=synthetic,
        eval=eval_cfg,
    )


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus dotted overrides.

    Override keys are flat: top-level names ("seed") or dotted section paths
    ("train.epochs").  Values keep their JSON types.
    """
    doc: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise MissingFileError(str(p))
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{p}: config must be a JSON object")
    for key, value in (overrides or {}).items():
        parts = key.split(".")
        node = doc
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override {key}: {part} is not a section")
        node[parts[-1]] = value
    try:
        return _build(doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
