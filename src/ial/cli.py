"""Command-line entry point: synth, train, detect, eval, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 verification
failure.  Every output file embeds the hash of the resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data as dat
from . import detector as det
from . import evaluation as ev
from . import net
from .config import RunConfig, config_hash, load_run_config
from .errors import ConfigError, DataError, IalError

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
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return key, value


def _build_parser() -> _Parser:
    parser = _Parser(prog="ial", description=__doc__)
    parser.add_argument("--config", help=f"JSON config path (or ${ENV_CONFIG})")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument(
        "--threads", type=int, help="worker threads; 1 = bit-reproducible for a given BLAS thread count"
    )
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config field, e.g. --set train.epochs=5",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="generate synthetic streams, labels, and a manifest").set_defaults(run=cmd_synth)
    sub.add_parser("train", help="train the phase-1 and phase-2 models").set_defaults(run=cmd_train)
    p_detect = sub.add_parser("detect", help="run detection on one stream file")
    p_detect.add_argument("stream", help="stream CSV path")
    p_detect.add_argument("--dump-features", metavar="PATH", help="also dump per-window vectors")
    p_detect.set_defaults(run=cmd_detect)
    sub.add_parser("eval", help="evaluate on the test split of the manifest").set_defaults(run=cmd_eval)
    sub.add_parser("gradcheck", help="verify backprop against finite differences").set_defaults(run=cmd_gradcheck)
    return parser


def _resolve_config(args) -> RunConfig:
    path = args.config or os.environ.get(ENV_CONFIG)
    overrides = dict(_parse_override(item) for item in args.set)
    for key, value in (("seed", args.seed), ("threads", args.threads), ("out_dir", args.out)):
        if value is not None:
            overrides[key] = value
    return load_run_config(path, overrides)


def _checkpoint_path(cfg: RunConfig, phase: int) -> Path:
    return Path(cfg.out_dir) / f"phase{phase}_{cfg.model}.json"


def _manifest_path(cfg: RunConfig) -> Path:
    # default to the manifest that `synth` writes under out_dir
    return Path(cfg.manifest) if cfg.manifest else Path(cfg.out_dir) / "manifest.json"


def cmd_synth(cfg: RunConfig, args) -> int:
    chash = config_hash(cfg)
    out = Path(cfg.out_dir)
    data_dir = out / "data"
    entries = []
    sy = cfg.synthetic
    for subject in range(1, sy.n_subjects + 1):
        for stream_id in range(1, sy.n_streams + 1):
            stream, events = dat.generate_synthetic_stream(sy, subject, stream_id)
            data_dir.mkdir(parents=True, exist_ok=True)  # only once the first stream exists
            stem = f"s{subject:02d}_r{stream_id:02d}"
            dat.write_stream(stream, data_dir / f"{stem}.csv", [f"config_hash={chash}"])
            dat.write_labels(events, data_dir / f"{stem}.labels.txt", [f"config_hash={chash}"])
            entries.append(
                dat.ManifestEntry(subject, stream_id, f"data/{stem}.csv", f"data/{stem}.labels.txt")
            )
    dat.write_manifest(out / "manifest.json", entries, sy.sample_rate_hz, chash)
    print(f"wrote {len(entries)} streams under {out} (config {chash})")
    return EXIT_OK


def _load_split(cfg: RunConfig, test: bool) -> list:
    """The (stream, events) pairs of the manifest's train or test split; the
    streams of the other split are not read, but every stream id is checked."""
    path = _manifest_path(cfg)
    entries, rate = dat.load_manifest(path)
    return dat.load_entries(path.parent, dat.split_dataset(entries)[1 if test else 0], rate, cfg.schema)


def _train_both(cfg: RunConfig, pairs) -> tuple[net.Network, net.Network, list, list]:
    if not pairs:
        raise DataError("no training streams in the manifest")
    x1, y1 = det.build_phase1_dataset(pairs, cfg.feature_kind, cfg.detector, seed=cfg.train.seed)
    x2, y2 = det.build_phase2_dataset(pairs, cfg.feature_kind, cfg.detector)
    spec = net.image_model_spec if cfg.feature_kind == det.IMAGE_KIND else net.vector_model_spec
    # net.train sets the spec's dropout rate from cfg.train
    net1, losses1 = net.train(spec(2), x1, y1, cfg.train)
    net2, losses2 = net.train(spec(len(dat.INTEREST_CLASSES)), x2, y2, cfg.train)
    return net1, net2, losses1, losses2


def _write_loss_csv(path: Path, losses: list, chash: str) -> None:
    rows = [f"{i},{float(loss)!r}" for i, loss in enumerate(losses, start=1)]
    dat.write_lines(path, ["epoch,mean_loss", *rows], [f"config_hash={chash}"])


def cmd_train(cfg: RunConfig, args) -> int:
    chash = config_hash(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_pairs = _load_split(cfg, test=False)
    net1, net2, losses1, losses2 = _train_both(cfg, train_pairs)
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


def cmd_detect(cfg: RunConfig, args) -> int:
    chash = config_hash(cfg)
    phase1, phase2 = _load_models(cfg)
    stream = dat.ingest_stream(args.stream, cfg.schema, sample_rate_hz=cfg.synthetic.sample_rate_hz)
    scores, events = det.detect(stream, phase1, phase2, cfg.detector, cfg.feature_kind, cfg.threads)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.stream).stem
    if args.dump_features:  # first, so a dump that fails leaves no event files behind
        from .features import vector_batch, write_vector_csv

        vectors = scores.x if cfg.feature_kind == det.VECTOR_KIND else vector_batch(scores.x[..., 0])
        write_vector_csv(scores.start_t, vectors, args.dump_features, [f"config_hash={chash}"])
    det.write_events_tsv(events, out / f"{stem}.events.tsv", [f"config_hash={chash}"])
    det.write_events_json(events, out / f"{stem}.events.json", chash)
    print(f"{len(events)} events -> {out / (stem + '.events.tsv')} (config {chash})")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    chash = config_hash(cfg)
    test_pairs = _load_split(cfg, test=True)
    if not test_pairs:
        raise DataError("no test streams in the manifest")
    phase1, phase2 = _load_models(cfg)
    report1, report2 = ev.evaluate_run(
        test_pairs, phase1, phase2, cfg.detector, cfg.feature_kind,
        rule=cfg.eval.match_rule, iou_threshold=cfg.eval.iou_threshold, threads=cfg.threads,
    )
    model_name = "Convolution Neural Network" if cfg.model == net.CNN_KIND else "Fully Connected Neural Network"
    text = ev.render_report(report1, report2, model_name)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dat.write_lines(out / "report.txt", text.splitlines(), [f"config_hash={chash}"])
    doc = {
        "config_hash": chash,
        "config": asdict(cfg),
        "phase_one": report1.to_dict(),
        "phase_two": report2.to_dict(),
    }
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    rng = np.random.default_rng([cfg.seed, 5])
    checks = [
        ("fc", net.vector_model_spec(5), rng.normal(0.5, 0.2, (4, 16))),
        ("cnn", net.image_model_spec(5), rng.normal(0.5, 0.2, (4, 50, 8, 1))),
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
        return args.run(_resolve_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IalError, OSError, MemoryError) as exc:  # a path that cannot be opened; an array larger than memory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
