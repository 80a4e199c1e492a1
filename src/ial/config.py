"""Declarative run configuration: JSON file plus flat CLI overrides.

The feature kind fixes the model family (image -> cnn, vector -> fc); any
other pairing is rejected.  ``config_hash`` of the fully resolved
configuration is embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .data import SyntheticConfig
from .detector import IMAGE_KIND, MODEL_FOR_FEATURE, DetectorConfig
from .errors import ConfigError
from .net import CNN_KIND, FC_KIND, TrainConfig
from .typed import from_json, read_json


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
    schema: dict[str, int] | None = None  # stream-CSV column mapping; None = t,ax,ay,az,gx,gy,gz
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
            raise ConfigError(
                f"{self.feature_kind} features pair with the "
                f"{MODEL_FOR_FEATURE[self.feature_kind]} model, not {self.model}"
            )
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus dotted overrides.

    Override keys are flat: top-level names ("seed") or dotted section paths
    ("train.epochs").  Values keep their JSON types.  The top-level seed seeds
    ``train`` and ``synthetic`` unless they set their own, and ``model``
    defaults to the one ``feature_kind`` pairs with.
    """
    doc: dict = {}
    if path is not None:
        doc = read_json(Path(path), ConfigError)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    for key, value in (overrides or {}).items():
        parts = key.split(".")
        node = doc
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override {key}: {part} is not a section")
        node[parts[-1]] = value
    # the two defaults that span sections; from_json checks everything else
    for name in ("train", "synthetic"):
        section = doc.get(name, {})
        if "seed" in doc and type(section) is dict:
            doc[name] = {"seed": doc["seed"], **section}
    kind = doc.get("feature_kind")
    if type(kind) is str:
        doc.setdefault("model", MODEL_FOR_FEATURE.get(kind, CNN_KIND))
    return from_json(RunConfig, doc, ConfigError)
