import hashlib
import json
from pathlib import Path

from ial.cli import main
from ial.config import config_hash, load_run_config
from ial.data import ingest_stream
from ial.features import image_feature, vector_feature
from ial.signal import make_window, window_starts
from ial.net import Dense


def write_config(tmp_path, **extra):
    doc = {
        "out_dir": str(tmp_path / "out"),
        "feature_kind": "vector",
        "model": "fc",
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


def test_bad_config_key_exits_one(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"no_such_key": 1}))
    assert main(["--config", str(path), "synth"]) == 1


def test_feature_model_conflict_exits_one(tmp_path):
    cfg = write_config(tmp_path, feature_kind="image", model="fc")
    assert main(["--config", str(cfg), "train"]) == 1


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


def test_full_pipeline_train_detect_eval(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "synth"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    assert (out / "phase1_fc.json").is_file() and (out / "phase2_fc.json").is_file()

    loss_lines = (out / "loss_phase1.csv").read_text().splitlines()
    assert loss_lines[0].startswith("# config_hash=")
    assert loss_lines[1] == "epoch,mean_loss"
    assert len(loss_lines) == 2 + 40  # one row per epoch

    ckpt = out / "phase1_fc.json"
    first_ckpt = ckpt.read_bytes()
    assert main(["--config", str(cfg), "train"]) == 0
    assert ckpt.read_bytes() == first_ckpt  # reproducible checkpoints

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
    assert main(["--config", str(cfg), "detect", str(stream_path)]) == 0
    assert tsv.read_bytes() == first  # deterministic rerun

    assert main(["--config", str(cfg), "eval"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config_hash"]
    assert report["config"]["feature_kind"] == "vector"
    assert set(report["phase_one"]["counts"]) == {"tp", "fp", "fn", "tn"}
    assert (out / "report.txt").read_text().startswith("# config_hash=")


def test_detect_missing_checkpoint_exits_two(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    stream_path = tmp_path / "out" / "data" / "s01_r01.csv"
    assert main(["--config", str(cfg), "detect", str(stream_path)]) == 2


def test_detect_short_stream_exits_two(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "synth"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    short = tmp_path / "short.csv"
    short.write_text("t,ax,ay,az,gx,gy,gz\n0.0,0,0,0,0,0,0\n")
    assert main(["--config", str(cfg), "detect", str(short)]) == 2


def test_gradcheck_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "fc: max relative error" in out and "cnn: max relative error" in out


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
    assert config_hash(load_run_config()) == "86733bd0b5c7"
    assert config_hash(load_run_config(overrides={"feature_kind": "vector"})) == "088ce0ff1bb1"
