import hashlib
import json
import re
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ial.detector
from ial.cli import main
from ial.config import config_hash, load_run_config
from ial.data import (
    ManifestEntry, SyntheticConfig, generate_synthetic_stream, ingest_stream, load_entries, load_manifest,
    split_dataset, write_labels, write_manifest, write_stream,
)
from ial.detector import train_detector
from ial.features import image_feature, vector_feature
from ial.signal import make_window, window_images, window_starts
from ial.net import Dense, build_network, image_model_spec, save_checkpoint, vector_model_spec


def write_config(tmp_path, **extra):
    doc = {
        "out_dir": str(tmp_path / "out"),
        "feature_kind": "vector",
        "seed": 7,
        "synthetic": {
            "n_subjects": 1,
            "n_streams": 10,
            "stream_duration_s": 30.0,
            "events_per_stream": 2,
            "noise_std": 0.1,
            "event_duration_range": [2.0, 2.5],
            "amplitude_range": {c: [4.0, 6.0] for c in (
                "swipe_left", "swipe_right", "wave", "circle_cw", "circle_ccw")},
        },
        "train": {"learning_rate": 0.02, "epochs": 40, "dropout_rate": 0.0, "batch_size": 32},
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


def test_missing_command_exits_one():
    assert main([]) == 1


@pytest.mark.parametrize("argv, reason", [
    (["--bogus", "synth"], "ial: error: unrecognized arguments: --bogus"),
    (["detect"], "ial detect: error: the following arguments are required: stream"),
    (["frobnicate"], "ial: error: argument command: invalid choice: 'frobnicate'"),
], ids=["unknown-flag", "missing-stream", "unknown-command"])
def test_usage_error_says_what_was_wrong(capsys, argv, reason):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ial") and err.splitlines()[-1].startswith(reason)


def test_synth_refuses_streams_shorter_than_one_window(tmp_path, capsys):
    # 30 s at 1 Hz is 30 frames: no window to train or detect on
    cfg = write_config(tmp_path)
    capsys.readouterr()
    assert main(["--config", str(cfg), "--set", "synthetic.sample_rate_hz=1", "synth"]) == 1
    err = capsys.readouterr().err
    assert err == ("config error: synthetic.stream_duration_s * synthetic.sample_rate_hz is 30 frames, "
                   "under 150 (one window)\n")
    assert not (tmp_path / "out").exists()


def test_bad_config_key_exits_one(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"no_such_key": 1}))
    assert main(["--config", str(path), "synth"]) == 1
    path.write_text("[1, 2]")  # a config must be a JSON object
    assert main(["--config", str(path), "synth"]) == 1


def test_missing_config_file_exits_one_like_an_unreadable_one(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main(["--config", str(path), "synth"]) == 1
    assert capsys.readouterr().err == f"config error: {path}\n"
    path.write_text("{bad")
    assert main(["--config", str(path), "synth"]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}: invalid JSON (")


def test_config_that_names_the_model_exits_one(tmp_path, capsys):
    """The feature kind fixes the model family, so ``model`` is no config key."""
    cfg = write_config(tmp_path, feature_kind="image", model="cnn")
    assert main(["--config", str(cfg), "synth"]) == 1
    assert capsys.readouterr().err == "config error: unknown key model\n"
    assert main(["--out", str(tmp_path / "out"), "--set", "model=cnn", "synth"]) == 1
    assert capsys.readouterr().err == "config error: unknown key model\n"
    assert not (tmp_path / "out").exists()


def test_synth_writes_streams_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    out = tmp_path / "out"
    assert (out / "manifest.json").is_file()
    streams = sorted((out / "data").glob("*.csv"))
    labels = sorted((out / "data").glob("*.labels.txt"))
    assert len(streams) == 10 and len(labels) == 10
    doc = json.loads((out / "manifest.json").read_text())
    assert len(doc["streams"]) == 10
    assert doc["config_hash"]
    assert streams[0].read_text().startswith("# config_hash=")


def test_synth_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    first = tree_digest(tmp_path / "out")
    assert main(["--config", str(cfg), "synth"]) == 0
    assert tree_digest(tmp_path / "out") == first


def test_synth_infeasible_exits_two(tmp_path):
    cfg = write_config(tmp_path)
    code = main(["--config", str(cfg), "--set", "synthetic.events_per_stream=50", "synth"])
    assert code == 2


# sizes numpy refuses at once: 1e14 events are refused before any draw (728 TiB
# of class ids), and a 1e12 s stream's time axis would take 364 TiB, more than a
# 64-bit process can map, so `synth` ends in a MemoryError
@pytest.mark.parametrize("setting", ["synthetic.events_per_stream=100000000000000", "synthetic.stream_duration_s=1e12"])
def test_oversized_synth_config_exits_two_with_one_line(tmp_path, capsys, setting):
    cfg = write_config(tmp_path)
    capsys.readouterr()
    assert main(["--config", str(cfg), "--set", setting, "synth"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# a stream too long to allocate, and more events than any stream can hold
@pytest.mark.parametrize("setting", ["synthetic.stream_duration_s=1e12", "synthetic.events_per_stream=100"])
def test_synth_that_fails_on_its_first_stream_leaves_no_directory(tmp_path, setting):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "--set", setting, "synth"]) == 2
    assert not (tmp_path / "out").exists()


def test_full_pipeline_train_detect_eval(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "synth"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    assert (out / "phase1_fc.json").is_file() and (out / "phase2_fc.json").is_file()

    for phase in (1, 2):  # one line ending throughout
        assert b"\r" not in (out / f"loss_phase{phase}.csv").read_bytes()
    loss_lines = (out / "loss_phase1.csv").read_text().splitlines()
    assert loss_lines[0].startswith("# config_hash=")
    assert loss_lines[1] == "epoch,mean_loss"
    assert len(loss_lines) == 2 + 40  # one row per epoch

    ckpt, payload = out / "phase1_fc.json", out / "phase1_fc.f64"
    first_ckpt, first_payload = ckpt.read_bytes(), payload.read_bytes()
    assert main(["--config", str(cfg), "train"]) == 0
    assert ckpt.read_bytes() == first_ckpt  # reproducible checkpoints
    assert payload.read_bytes() == first_payload

    stream_path = out / "data" / "s01_r10.csv"
    dump = out / "features.csv"
    assert main(["--config", str(cfg), "detect", str(stream_path), "--dump-features", str(dump)]) == 0
    tsv = out / "s01_r10.events.tsv"
    assert tsv.is_file() and (out / "s01_r10.events.json").is_file()
    dump_lines = dump.read_text().splitlines()
    assert dump_lines[0].startswith("# config_hash=")
    stream = ingest_stream(stream_path)
    for line, start in zip(dump_lines[2:], window_starts(len(stream), 15), strict=True):
        vector = vector_feature(image_feature(make_window(stream, start))).values
        assert line == ",".join(repr(float(v)) for v in [stream.t[start], *vector])
    starts = [float(line.split("\t")[1]) for line in tsv.read_text().splitlines()[1:]]
    assert starts == sorted(starts)

    first = tsv.read_bytes()
    first_json = (out / "s01_r10.events.json").read_bytes()
    assert main(["--config", str(cfg), "detect", str(stream_path)]) == 0
    assert tsv.read_bytes() == first  # deterministic rerun
    # worker threads change the config hash that both files embed, and nothing else
    chash = json.loads(first_json)["config_hash"]
    assert main(["--config", str(cfg), "--threads", "2", "detect", str(stream_path)]) == 0
    chash2 = config_hash(load_run_config(cfg, {"threads": 2}))
    assert tsv.read_bytes() == first.replace(chash.encode(), chash2.encode())
    assert (out / "s01_r10.events.json").read_bytes() == first_json.replace(chash.encode(), chash2.encode())

    assert main(["--config", str(cfg), "eval"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config_hash"]
    assert report["config"]["feature_kind"] == "vector"
    assert set(report["phase_one"]["counts"]) == {"tp", "fp", "fn", "tn"}
    assert (out / "report.txt").read_text().startswith("# config_hash=")


def test_train_writes_what_train_detector_returns_at_any_thread_count(tmp_path):
    """``ial train`` writes the same payloads and losses at 1 and 2 threads, and
    they are those ``train_detector`` returns on the manifest's train split."""
    args = ["--config", str(write_config(tmp_path)), "--set", "train.epochs=3"]
    out = tmp_path / "out"
    assert main([*args, "synth"]) == 0
    runs = []
    for threads in ("1", "2"):
        assert main([*args, "--threads", threads, "train"]) == 0
        payloads = {p.name: p.read_bytes() for p in out.glob("*.f64")}
        losses = {p.name: p.read_text().splitlines()[1:] for p in out.glob("loss_*.csv")}  # after the config hash
        runs.append((payloads, losses))
    assert runs[0] == runs[1]

    cfg = load_run_config(tmp_path / "config.json", {"train.epochs": 3})
    entries, rate = load_manifest(out / "manifest.json")
    pairs = load_entries(out, split_dataset(entries)[0], rate)
    net1, net2, losses1, losses2 = train_detector(pairs, "vector", cfg.detector, cfg.train)
    payloads, losses = runs[0]
    for phase, network, phase_losses in ((1, net1, losses1), (2, net2, losses2)):
        assert payloads[f"phase{phase}_fc.f64"] == b"".join(a.astype("<f8").tobytes() for _, a in network.arrays())
        rows = [f"{i},{loss!r}" for i, loss in enumerate(phase_losses, start=1)]
        assert losses[f"loss_phase{phase}.csv"] == ["epoch,mean_loss", *rows]


@pytest.mark.parametrize("kind, model", [("vector", "fc"), ("image", "cnn")])
def test_eval_writes_the_same_reports_at_any_thread_count(tmp_path, capsys, kind, model):
    """``ial eval`` writes the same reports at 1 and 2 threads, apart from the
    config hash and the ``threads`` echo.  Test streams shorter than one window
    exit 2 with the first one's message at both counts."""
    args = ["--config", str(write_config(tmp_path, feature_kind=kind)),
            "--set", "synthetic.n_subjects=3", "--set", "train.epochs=3"]
    out = tmp_path / "out"
    assert main([*args, "synth"]) == 0
    assert main([*args, "train"]) == 0
    assert (out / f"phase1_{model}.json").is_file()  # named by the model the feature kind pairs with
    runs = []
    for threads in (1, 2):
        assert main([*args, "--threads", str(threads), "eval"]) == 0
        chash = config_hash(load_run_config(tmp_path / "config.json", {
            "synthetic.n_subjects": 3, "train.epochs": 3, "threads": threads}))
        txt, doc = (out / "report.txt").read_bytes(), (out / "report.json").read_bytes()
        assert json.loads(doc)["config"]["threads"] == threads and chash.encode() in txt
        runs.append((txt.replace(chash.encode(), b"HASH"),
                     doc.replace(chash.encode(), b"HASH").replace(f'"threads": {threads}'.encode(), b"THREADS")))
    assert runs[0] == runs[1]
    assert json.loads((out / "report.json").read_text())["phase_one"]["counts"]["tp"] > 0

    # the test streams of subjects 2 and 3 keep 100 and 120 of their frames
    for subject, frames in ((2, 100), (3, 120)):
        path = out / "data" / f"s{subject:02d}_r10.csv"
        path.write_text("\n".join(path.read_text().splitlines()[: 2 + frames]) + "\n")
    capsys.readouterr()
    errors = []
    for threads in ("1", "2"):
        assert main([*args, "--threads", threads, "eval"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: 100 frames < 150\n"] * 2


def test_train_of_zero_epochs_exits_zero_with_header_only_losses(tmp_path, capsys):
    # TrainConfig accepts epochs >= 0; the untrained models are written, and no traceback ends the run
    args = ["--config", str(write_config(tmp_path)), "--set", "train.epochs=0"]
    assert main([*args, "synth"]) == 0
    capsys.readouterr()
    assert main([*args, "train"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "final losses none / none" in out
    for phase in (1, 2):
        assert (tmp_path / "out" / f"phase{phase}_fc.f64").is_file()
        assert (tmp_path / "out" / f"loss_phase{phase}.csv").read_text().splitlines()[1:] == ["epoch,mean_loss"]


def test_eval_without_a_test_stream_exits_two(tmp_path, capsys):
    args = ["--config", str(write_config(tmp_path)), "--set", "synthetic.n_streams=9"]
    assert main([*args, "synth"]) == 0
    assert main([*args, "train"]) == 0
    capsys.readouterr()
    assert main([*args, "eval"]) == 2
    assert capsys.readouterr().err == "error: no test streams in the manifest\n"
    assert not (tmp_path / "out" / "report.json").exists()


def test_train_and_eval_read_only_the_streams_of_their_split(tmp_path, capsys):
    args = ["--config", str(write_config(tmp_path)), "--set", "train.epochs=2"]
    assert main([*args, "synth"]) == 0
    out = tmp_path / "out"
    test_stream, train_stream = out / "data" / "s01_r10.csv", out / "data" / "s01_r01.csv"
    good = test_stream.read_bytes()
    test_stream.write_text("t,ax,ay,az,gx,gy,gz\n0.0,not,a,row\n")
    assert main([*args, "train"]) == 0
    assert main([*args, "eval"]) == 2  # eval does read the test stream
    test_stream.write_bytes(good)
    train_stream.unlink()
    assert main([*args, "eval"]) == 0
    # every entry's stream id is still checked, in either split
    doc = json.loads((out / "manifest.json").read_text())
    doc["streams"][0]["stream_id"] = 11
    (out / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([*args, "eval"]) == 2
    assert capsys.readouterr().err == "error: stream_id 11 outside 1..10\n"


def test_detect_dump_windows_the_stream_once(tmp_path, monkeypatch):
    stream, _ = generate_synthetic_stream(SyntheticConfig(stream_duration_s=30.0, events_per_stream=2), 1, 10)
    write_stream(stream, tmp_path / "s.csv")
    calls = []
    monkeypatch.setattr(ial.detector, "window_images", lambda *a: calls.append(a) or window_images(*a))
    dumps = {}
    for kind, model, spec in (("vector", "fc", vector_model_spec), ("image", "cnn", image_model_spec)):
        (tmp_path / kind / "out").mkdir(parents=True)
        for phase, n_classes in ((1, 2), (2, 5)):
            save_checkpoint(build_network(spec(n_classes), seed=phase), tmp_path / kind / "out" / f"phase{phase}_{model}.json")
        cfg = write_config(tmp_path / kind, feature_kind=kind)
        calls.clear()
        assert main(["--config", str(cfg), "detect", str(tmp_path / "s.csv"), "--dump-features", str(tmp_path / kind / "d.csv")]) == 0
        assert len(calls) == 1, kind
        dumps[kind] = (tmp_path / kind / "d.csv").read_text().splitlines()[1:]  # after the config hash
    assert dumps["image"] == dumps["vector"]
    stream = ingest_stream(tmp_path / "s.csv")
    for line, start in zip(dumps["vector"][1:], window_starts(len(stream), 15), strict=True):
        vector = vector_feature(image_feature(make_window(stream, start))).values
        assert line == ",".join(repr(float(v)) for v in [stream.t[start], *vector])


def test_detect_missing_checkpoint_exits_two(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    stream_path = tmp_path / "out" / "data" / "s01_r01.csv"
    assert main(["--config", str(cfg), "detect", str(stream_path)]) == 2


def test_detect_corrupt_checkpoint_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    (tmp_path / "out" / "phase1_fc.json").write_text("{broken")
    stream_path = tmp_path / "out" / "data" / "s01_r01.csv"
    capsys.readouterr()
    assert main(["--config", str(cfg), "detect", str(stream_path)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("kind, model, spec, shape", [
    ("image", "cnn", image_model_spec, (51, 9, 1)),  # pools to the same dense size as 50x8, so it would run
    ("vector", "fc", vector_model_spec, (17,)),
])
def test_detect_refuses_a_model_declared_for_another_input_shape(tmp_path, capsys, kind, model, spec, shape):
    stream, _ = generate_synthetic_stream(SyntheticConfig(stream_duration_s=30.0, events_per_stream=2), 1, 10)
    write_stream(stream, tmp_path / "s.csv")
    out = tmp_path / "out"
    out.mkdir()
    for phase, n_classes in ((1, 2), (2, 5)):
        declared = replace(spec(n_classes), input_shape=shape)
        save_checkpoint(build_network(declared, seed=phase), out / f"phase{phase}_{model}.json")
    cfg = write_config(tmp_path, feature_kind=kind)
    capsys.readouterr()
    assert main(["--config", str(cfg), "detect", str(tmp_path / "s.csv")]) == 2
    feature_shape = spec(2).input_shape
    assert capsys.readouterr().err == f"error: {kind} features have shape {feature_shape}, the model takes {shape}\n"
    assert sorted(p.name for p in out.iterdir()) == [
        f"phase1_{model}.f64", f"phase1_{model}.json", f"phase2_{model}.f64", f"phase2_{model}.json"]


@pytest.mark.parametrize("text", ["t,ax,ay,az,gx,gy,gz\n", "# only\n# comments\n"], ids=["header-only", "comment-only"])
def test_detect_of_an_empty_stream_exits_two_without_a_warning(tmp_path, capsys, text):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for phase, n_classes in ((1, 2), (2, 5)):
        save_checkpoint(build_network(vector_model_spec(n_classes)), out / f"phase{phase}_fc.json")
    stream = tmp_path / "empty.csv"
    stream.write_text(text)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(ingest_stream(stream)) == 0
        assert main(["--config", str(cfg), "detect", str(stream)]) == 2
    assert capsys.readouterr().err == "error: 0 frames < 150\n"


def test_detect_reads_columns_through_the_schema(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "synth"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    stream_path = out / "data" / "s01_r10.csv"
    assert main(["--config", str(cfg), "detect", str(stream_path)]) == 0
    expected = json.loads((out / "s01_r10.events.json").read_text())["events"]
    assert expected

    # the same stream with the t and gz columns swapped
    rows = [line.split(",") for line in stream_path.read_text().splitlines() if not line.startswith("#")]
    swapped = tmp_path / "s01_r10.csv"
    swapped.write_text("".join(",".join([r[6], *r[1:6], r[0]]) + "\n" for r in rows))
    schema = {"gz": 0, "ax": 1, "ay": 2, "az": 3, "gx": 4, "gy": 5, "t": 6}
    code = main(["--config", str(cfg), "--set", f"schema={json.dumps(schema)}", "detect", str(swapped)])
    assert code == 0
    assert json.loads((out / "s01_r10.events.json").read_text())["events"] == expected


def test_detect_with_a_phase1_checkpoint_as_phase2_exits_two(tmp_path, capsys):
    # phase 2 is checked once per stream, so a stream with no interval catches it too
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    phase1 = build_network(vector_model_spec(2))
    phase1.layers[-1].b[:] = [100.0, -100.0]  # no window is ever positive
    save_checkpoint(phase1, out / "phase1_fc.json")
    for ext in ("json", "f64"):  # a checkpoint is a header and its payload
        shutil.copy(out / f"phase1_fc.{ext}", out / f"phase2_fc.{ext}")
    stream, _ = generate_synthetic_stream(SyntheticConfig(stream_duration_s=12.0, events_per_stream=0))
    write_stream(stream, tmp_path / "quiet.csv")
    capsys.readouterr()
    assert main(["--config", str(cfg), "detect", str(tmp_path / "quiet.csv")]) == 2
    assert capsys.readouterr().err == "error: expected a 5-class model, got 2\n"


def malformed_manifests(out):
    doc = json.loads((out / "manifest.json").read_text())
    no_labels = json.loads(json.dumps(doc))
    del no_labels["streams"][0]["labels_path"]
    cases = {
        "invalid-json": "{not json",
        "no-labels-path": json.dumps(no_labels),
        "rate-zero": json.dumps({**doc, "sample_rate_hz": 0}),
        "version-7": json.dumps({**doc, "version": 7}),
    }
    for case, key, value in [
        ("stream-id-11", "stream_id", 11),
        ("stream-id-string", "stream_id", "3"),
        ("stream-id-bool", "stream_id", True),
        ("stream-path-int", "stream_path", 5),
    ]:
        bad = json.loads(json.dumps(doc))
        bad["streams"][0][key] = value
        cases[case] = json.dumps(bad)
    cases["test-stream-only"] = json.dumps({**doc, "streams": [e for e in doc["streams"] if e["stream_id"] == 10]})
    return cases


@pytest.mark.parametrize(
    "case", ["invalid-json", "no-labels-path", "stream-id-11", "stream-id-string", "stream-id-bool",
             "stream-path-int", "rate-zero", "version-7", "test-stream-only"],
)
def test_malformed_manifest_exits_two(tmp_path, capsys, case):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    manifest = tmp_path / "out" / "bad_manifest.json"
    manifest.write_text(malformed_manifests(tmp_path / "out")[case])
    capsys.readouterr()
    assert main(["--config", str(cfg), "--set", f"manifest={manifest}", "train"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_detect_short_stream_exits_two(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    short = tmp_path / "short.csv"
    short.write_text("t,ax,ay,az,gx,gy,gz\n0.0,0,0,0,0,0,0\n")
    assert main(["--config", str(cfg), "detect", str(short)]) == 2


def test_detect_stream_off_the_sample_rate_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for phase, n_classes in ((1, 2), (2, 5)):
        save_checkpoint(build_network(vector_model_spec(n_classes)), out / f"phase{phase}_fc.json")
    stream = tmp_path / "100hz.csv"  # 30 s at 100 Hz, read at the configured 50 Hz
    stream.write_text("t,ax,ay,az,gx,gy,gz\n" + "".join(f"{i / 100.0!r},0,0,0,0,0,0\n" for i in range(3000)))
    capsys.readouterr()
    assert main(["--config", str(cfg), "detect", str(stream)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "50 Hz" in err


def test_detect_reads_a_recording_too_slow_to_synthesize(tmp_path, capsys):
    # 30 s at 1 Hz is under one window of synthetic frames, but detect synthesizes nothing
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for phase, n_classes in ((1, 2), (2, 5)):
        save_checkpoint(build_network(vector_model_spec(n_classes)), out / f"phase{phase}_fc.json")
    rows = np.column_stack([np.arange(200.0), np.random.default_rng(5).normal(0, 1, (200, 6))]).tolist()
    stream = tmp_path / "1hz.csv"
    stream.write_text("t,ax,ay,az,gx,gy,gz\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    assert main(["--config", str(cfg), "--set", "synthetic.sample_rate_hz=1", "detect", str(stream)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "1hz.events.tsv").is_file() and (out / "1hz.events.json").is_file()


BAD_INPUTS = [
    *(pytest.param("config", s, 1, id=s) for s in (
        "train.epochs=1.5", "train.batch_size=2.5", "synthetic.n_streams=2.0", 'threads="x"', "schema=[1,2]",
        "synthetic.amplitude_range=5", 'seed="3"', "seed=true",
        'schema={"t": -1, "ax": 1, "ay": 2, "az": 3, "gx": 4, "gy": 5, "gz": 0}', 'schema={"t": 0}',
        'schema={"t": 0, "ax": 0, "ay": 2, "az": 3, "gx": 4, "gy": 5, "gz": 6}', "train.epochs",
        "synthetic.stream_duration_s=1e18", "synthetic.sample_rate_hz=1e300", "synthetic.stream_duration_s=1.7e308",
        "synthetic.sample_rate_hz=1e-300", "synthetic.sample_rate_hz=1")),
    *(pytest.param("spec", kv, 2, id=f"spec.{kv[0]}={kv[1]!r}") for kv in (
        ("n_classes", 2.5), ("hidden_units", 2.0), ("dropout_rate", "x"), ("hidden_units", -1), ("input_shape", [-1]),
        ("bn_eps", -1.0), ("dropout_rate", 1.5))),
    pytest.param("version", ("version", 3), 2, id="version-3-document"),
    *(pytest.param("header", kv, 2, id=f"header.{kv[0]}={name}") for name, kv in (
        ("negative", ("arrays.7.b", [-1])), ("float", ("arrays.7.b", [2.0])), ("huge", ("arrays.7.b", [10**400])),
        ("too-many", ("arrays.7.b", [3])), ("unknown", ("bogus", 1)))),
    *(pytest.param("payload", (name, op), 2, id=f"payload-{op}") for name, op in (
        ("phase1_fc.f64", "missing"), ("phase1_fc.f64", "directory"), ("phase1_fc.f64", "short"),
        ("phase1_fc.f64", "long"), ("phase1_fc.f64", "flipped"), ("phase2_fc.f64", "phase-1-bytes"))),
    *(pytest.param("manifest", kv, 2, id=f"manifest.{kv[0]}={kv[1]!r}") for kv in (
        ("sample_rate_hz", "50"), ("sample_rate_hz", True), ("notes", "x"))),
    *(pytest.param("file", (name, b"\xff"), 2, id=f"non-utf8-{name}") for name in ("a.csv", "a.labels.txt")),
    *(pytest.param("output", (bad, args), 2, id=f"output-{command}") for command, bad, args in (
        ("synth", "blocker", ("--out", "{tmp}/blocker/out", "synth")),
        ("train", "blocker", ("--out", "{tmp}/blocker/out", "--set", "manifest={tmp}/out/manifest.json", "train")),
        ("detect", "no_such_dir", ("detect", "{tmp}/out/a.csv", "--dump-features", "{tmp}/no_such_dir/d.csv")))),
    pytest.param("stream", ("magnitude", 1e200), 2, id="stream-magnitude-overflows"),
]


@pytest.mark.parametrize("where, value, code", BAD_INPUTS)
def test_bad_input_exits_with_one_line(tmp_path, capsys, where, value, code):
    # each case fails as soon as its input is read: a config value, a checkpoint
    # spec, a version-3 document, a header value or a payload in
    # `detect` of a missing stream (a synthetic value in `synth`,
    # which checks the frame count as it makes streams), a manifest field or a stream or
    # labels file with a byte appended in `train`; or as soon as its output path is
    # written: under the regular file "blocker" or in a missing directory; or in
    # `detect` of a stream whose finite values are so large that |a| overflows
    args = ["--config", str(write_config(tmp_path))]
    out = tmp_path / "out"
    out.mkdir()
    for phase, n_classes in ((1, 2), (2, 5)):
        save_checkpoint(build_network(vector_model_spec(n_classes)), out / f"phase{phase}_fc.json")
    if where == "config":
        args += ["--set", value]
    elif where == "version":  # a version-3 file: one JSON document, each array base64 under "state"
        doc = json.loads((out / "phase1_fc.json").read_text())
        doc = {**{k: doc[k] for k in ("config_hash", "spec", "meta")}, "version": 3,
               "state": {"7.b": {"shape": [2], "f64le": "AAAAAAAAAAAAAAAAAAAAAA=="}}}
        (out / "phase1_fc.json").write_text(json.dumps(doc))
    elif where in ("spec", "header"):
        doc = json.loads((out / "phase1_fc.json").read_text())
        *outer, key = value[0].split(".", 1) if where == "header" else (where, value[0])
        (doc[outer[0]] if outer else doc)[key] = value[1]
        (out / "phase1_fc.json").write_text(json.dumps(doc))
    elif where == "payload":  # a payload changed, or phase 1's bytes put in phase 2's
        payload = out / value[0]
        data = (out / "phase1_fc.f64").read_bytes()
        if value[1] == "phase-1-bytes":
            payload.write_bytes(data)
        elif value[1] in ("missing", "directory"):
            payload.unlink()
            if value[1] == "directory":
                payload.mkdir()
        else:
            payload.write_bytes({"short": data[:-1], "long": data + b"\0", "flipped": bytes([data[0] ^ 1]) + data[1:]}[value[1]])
    elif where == "manifest":
        entry = {"subject_id": 1, "stream_id": 1, "stream_path": "a.csv", "labels_path": "a.labels.txt"}
        (out / "manifest.json").write_text(json.dumps({"streams": [entry], value[0]: value[1]}))
    else:
        stream, events = generate_synthetic_stream(SyntheticConfig(stream_duration_s=12.0, events_per_stream=1))
        if where == "stream":
            stream = replace(stream, values=stream.values * value[1])
        write_stream(stream, out / "a.csv")
        write_labels(events, out / "a.labels.txt")
        write_manifest(out / "manifest.json", [ManifestEntry(1, 1, "a.csv", "a.labels.txt")])
    if where == "file":
        with open(out / value[0], "ab") as fh:
            fh.write(value[1])
    if where == "output":
        (tmp_path / "blocker").write_text("")
        args += [arg.format(tmp=tmp_path) for arg in value[1]]
    elif where == "stream":
        args += ["detect", str(out / "a.csv")]
    elif where == "config" and value.startswith("synthetic."):
        args += ["synth"]
    else:
        args += ["train"] if where in ("manifest", "file") else ["detect", str(tmp_path / "missing.csv")]
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: " if code == 1 else "error: ")
    assert (value.split("=")[0] if where == "config" else value[0]) in err  # names the bad field
    assert not list(out.glob("a.events.*"))  # a failed run leaves no event files


def test_gradcheck_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "fc: max relative error" in out and "cnn: max relative error" in out


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_passes_at_every_seed(seed, capsys):
    assert main(["--seed", str(seed), "gradcheck"]) == 0
    cnn = re.search(r"cnn: max relative error (\S+)", capsys.readouterr().out)
    assert float(cnn.group(1)) <= 1e-5


def test_gradcheck_detects_corrupted_backward(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    original = Dense.backward

    def corrupted(self, dy):
        out = original(self, dy)
        self.d_w = self.d_w * 1.5
        return out

    monkeypatch.setattr(Dense, "backward", corrupted)
    assert main(["--config", str(cfg), "gradcheck"]) == 3


def test_env_var_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("IAL_CONFIG", str(cfg))
    assert main(["synth"]) == 0
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_seed_flag_changes_config_hash(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    h1 = json.loads((tmp_path / "out" / "manifest.json").read_text())["config_hash"]
    assert main(["--config", str(cfg), "--seed", "99", "synth"]) == 0
    h2 = json.loads((tmp_path / "out" / "manifest.json").read_text())["config_hash"]
    assert h1 != h2


def test_config_hash_is_stable():
    # every output file embeds this hash; validating the config must not move it
    assert config_hash(load_run_config()) == "2bbcb0a427a0"
    assert config_hash(load_run_config(overrides={"feature_kind": "vector"})) == "9d6226424afd"
