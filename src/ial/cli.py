"""Command-line entry point: synth, train, detect, eval, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 verification
failure.  Every output file embeds the hash of the resolved configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as dat
from . import detector as det
from . import evaluation as ev
from . import net
from .config import RunConfig, config_hash, load_run_config
from .errors import ConfigError, DataError, EmptyDatasetError, IalError

ENV_CONFIG = "IAL_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _build_parser() -> _Parser:
    parser = _Parser(prog="ial", description=__doc__)
    parser.add_argument("--config", help=f"JSON config path (or ${ENV_CONFIG})")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument("--threads", type=int, help="worker threads; 1 = bit-reproducible")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config field, e.g. --set train.epochs=5",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="generate synthetic streams, labels, and a manifest")
    sub.add_parser("train", help="train the phase-1 and phase-2 models")
    p_detect = sub.add_parser("detect", help="run detection on one stream file")
    p_detect.add_argument("stream", help="stream CSV path")
    p_detect.add_argument("--dump-features", metavar="PATH", help="also dump per-window vectors")
    sub.add_parser("eval", help="evaluate on the test split of the manifest")
    sub.add_parser("gradcheck", help="verify backprop against finite differences")
    return parser


def _resolve_config(args) -> RunConfig:
    path = args.config or os.environ.get(ENV_CONFIG)
    overrides: dict[str, object] = {}
    for item in args.set:
        key, value = _parse_override(item)
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out_dir"] = args.out
    return load_run_config(path, overrides)


def _checkpoint_path(cfg: RunConfig, phase: int) -> Path:
    return Path(cfg.out_dir) / f"phase{phase}_{cfg.model}.json"


def _manifest_path(cfg: RunConfig) -> Path:
    # default to the manifest that `synth` writes under out_dir
    return Path(cfg.manifest) if cfg.manifest else Path(cfg.out_dir) / "manifest.json"


def cmd_synth(cfg: RunConfig) -> int:
    chash = config_hash(cfg)
    out = Path(cfg.out_dir)
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    sy = cfg.synthetic
    for subject in range(1, sy.n_subjects + 1):
        for stream_id in range(1, sy.n_streams + 1):
            stream, events = dat.generate_synthetic_stream(sy, subject, stream_id)
            stem = f"s{subject:02d}_r{stream_id:02d}"
            dat.write_stream(stream, data_dir / f"{stem}.csv", [f"config_hash={chash}"])
            dat.write_labels(events, data_dir / f"{stem}.labels.txt", [f"config_hash={chash}"])
            entries.append(
                dat.ManifestEntry(subject, stream_id, f"data/{stem}.csv", f"data/{stem}.labels.txt")
            )
    dat.write_manifest(out / "manifest.json", entries, sy.sample_rate_hz, chash)
    print(f"wrote {len(entries)} streams under {out} (config {chash})")
    return EXIT_OK


def _train_both(cfg: RunConfig, pairs) -> tuple[net.Network, net.Network, list, list]:
    if not pairs:
        raise EmptyDatasetError("no training streams in the manifest")
    x1, y1 = det.build_phase1_dataset(pairs, cfg.feature_kind, cfg.detector, seed=cfg.train.seed)
    x2, y2 = det.build_phase2_dataset(pairs, cfg.feature_kind, cfg.detector)
    if cfg.feature_kind == det.IMAGE_KIND:
        spec1 = net.image_model_spec(2, cfg.train.dropout_rate)
        spec2 = net.image_model_spec(len(dat.INTEREST_CLASSES), cfg.train.dropout_rate)
    else:
        spec1 = net.vector_model_spec(2, cfg.train.dropout_rate)
        spec2 = net.vector_model_spec(len(dat.INTEREST_CLASSES), cfg.train.dropout_rate)
    net1, losses1 = net.train(spec1, x1, y1, cfg.train)
    net2, losses2 = net.train(spec2, x2, y2, cfg.train)
    return net1, net2, losses1, losses2


def _write_loss_csv(path: Path, losses: list, chash: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for i, loss in enumerate(losses, start=1):
            writer.writerow([i, repr(float(loss))])


def cmd_train(cfg: RunConfig) -> int:
    chash = config_hash(cfg)
    pairs = dat.load_dataset(_manifest_path(cfg))
    streams = [s for s, _ in pairs]
    train_streams, _ = dat.split_dataset(streams)
    train_ids = {(s.subject_id, s.stream_id) for s in train_streams}
    train_pairs = [(s, t) for s, t in pairs if (s.subject_id, s.stream_id) in train_ids]
    net1, net2, losses1, losses2 = _train_both(cfg, train_pairs)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"seed": cfg.train.seed, "feature_kind": cfg.feature_kind}
    net.save_checkpoint(net1, _checkpoint_path(cfg, 1), config_hash=chash, meta=meta)
    net.save_checkpoint(net2, _checkpoint_path(cfg, 2), config_hash=chash, meta=meta)
    _write_loss_csv(out / "loss_phase1.csv", losses1, chash)
    _write_loss_csv(out / "loss_phase2.csv", losses2, chash)
    print(
        f"trained {cfg.model} models on {len(train_pairs)} streams; "
        f"final losses {losses1[-1]:.4f} / {losses2[-1]:.4f} (config {chash})"
    )
    return EXIT_OK


def _load_models(cfg: RunConfig) -> tuple[net.Network, net.Network]:
    return net.load_checkpoint(_checkpoint_path(cfg, 1)), net.load_checkpoint(_checkpoint_path(cfg, 2))


def cmd_detect(cfg: RunConfig, stream_path: str, dump_features: str | None) -> int:
    chash = config_hash(cfg)
    phase1, phase2 = _load_models(cfg)
    stream = dat.ingest_stream(stream_path, sample_rate_hz=cfg.synthetic.sample_rate_hz)
    events = det.detect(stream, phase1, phase2, cfg.detector, cfg.feature_kind, cfg.threads)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(stream_path).stem
    det.write_events_tsv(events, out / f"{stem}.events.tsv", [f"config_hash={chash}"])
    det.write_events_json(events, out / f"{stem}.events.json", chash)
    if dump_features:
        from .features import write_vector_csv

        starts, vectors = det.featurize_stream(stream, det.VECTOR_KIND, cfg.detector.stride_frames)
        write_vector_csv(stream.t[starts], vectors, dump_features, [f"config_hash={chash}"])
    print(f"{len(events)} events -> {out / (stem + '.events.tsv')} (config {chash})")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    chash = config_hash(cfg)
    phase1, phase2 = _load_models(cfg)
    pairs = dat.load_dataset(_manifest_path(cfg))
    _, test_streams = dat.split_dataset([s for s, _ in pairs])
    test_ids = {(s.subject_id, s.stream_id) for s in test_streams}
    test_pairs = [(s, t) for s, t in pairs if (s.subject_id, s.stream_id) in test_ids]
    report1, report2 = ev.evaluate_run(
        test_pairs, phase1, phase2, cfg.detector, cfg.feature_kind,
        rule=cfg.eval.match_rule, iou_threshold=cfg.eval.iou_threshold, threads=cfg.threads,
    )
    model_name = "Convolution Neural Network" if cfg.model == net.CNN_KIND else "Fully Connected Neural Network"
    text = ev.render_report(report1, report2, model_name)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(f"# config_hash={chash}\n{text}", encoding="utf-8")
    doc = {
        "config_hash": chash,
        "config": cfg.to_dict(),
        "phase_one": report1.to_dict(),
        "phase_two": report2.to_dict(),
    }
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig) -> int:
    rng = np.random.default_rng([cfg.seed, 5])
    checks = [
        ("fc", net.vector_model_spec(5, dropout_rate=0.0), rng.normal(0.5, 0.2, (4, 16))),
        ("cnn", net.image_model_spec(5, dropout_rate=0.0), rng.normal(0.5, 0.2, (4, 50, 8, 1))),
    ]
    worst = 0.0
    for name, spec, x in checks:
        network = net.build_network(spec, seed=cfg.seed)
        y = rng.integers(0, spec.n_classes, len(x))
        err = net.gradient_check(network, x, y, seed=cfg.seed)
        worst = max(worst, err)
        status = "pass" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name}: max relative error {err:.3e} [{status}]")
    if worst >= GRADCHECK_TOLERANCE:
        print(f"gradient check failed (worst {worst:.3e} >= {GRADCHECK_TOLERANCE})")
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or EXIT_OK)
    try:
        cfg = _resolve_config(args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "detect":
            return cmd_detect(cfg, args.stream, args.dump_features)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, IalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
