"""The benchmark's workloads: CLI ``detect`` on CNN and FC checkpoints, and an
in-memory train-and-evaluate pipeline.

Each workload sets itself up several times (``setup_s`` is the median), then
runs operations in a closed loop with one caller, and checks every output.
The program only ever sees the generated streams and CSV files.

Every time is taken twice: as wall time, and scaled to a reference speed of
the machine (see ``timed``).  The metrics carry the scaled times; the ``info``
line carries the wall times beside them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from ial import cli
from ial import data as dat
from ial import detector as det
from ial import evaluation as ev
from ial import net
from ial.config import load_run_config

from tracer import Tracer, layer_metrics, targets

SETUP_REPEATS = 3
MIN_PIPELINES = 3
# A run stops starting operations after this long, whatever the minimums say,
# so that it ends well inside the time a run is allowed.
LOOP_CAP_S = 120.0
# The traced run passes over this many rounds of the three stream densities.
TRACE_ROUNDS = 3
# How many times a detect run repeats ``ial train`` inside its timed loop, at
# evenly spaced points, so that the train time is a median over the whole run
# and not over a few seconds of set-up.
LOOP_TRAINS = {"image": 3, "vector": 5}
# Times are scaled to a machine on which the reference kernel takes this long
# (about its median on the machine the first numbers in README.md come from).
REF_NOMINAL_S = 0.0025

# Detector training recipe shared by both detect workloads: one synthetic
# subject with 10 gestures per 120 s stream, trained at a fixed seed, so every
# run detects with the same checkpoints and only the streams vary with --seed.
TRAIN_SEED = 42
TRAIN_SYNTH = {"n_subjects": 1, "n_streams": 10, "events_per_stream": 10}
TRAIN_RECIPE = {
    "image": {"epochs": 1, "batch_size": 16, "learning_rate": 0.05},
    "vector": {"epochs": 30, "batch_size": 32, "learning_rate": 0.02},
}
# Detect streams: equal thirds of 0, 5 and 10 gestures per 120 s stream.
DENSITIES = (0, 5, 10)
STREAMS_PER_DENSITY = 15

# pipeline-cnn: acceptance criterion 6 scaled down to one subject.
PIPELINE_SYNTH = {"n_subjects": 1, "n_streams": 10, "events_per_stream": 10}
PIPELINE_TRAIN = {"epochs": 3, "batch_size": 32, "learning_rate": 0.05}

LABEL_NAMES = ("SWIPE_LEFT", "SWIPE_RIGHT", "WAVE", "CIRCLE_CW", "CIRCLE_CCW")


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


Event = tuple[str, float, float, float]  # label, start, end, confidence
Truth = tuple[str, float, float]


# ---------------------------------------------------------------------------
# output checks shared by the workloads
# ---------------------------------------------------------------------------


def parse_truth(path: Path) -> list[Truth]:
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            label_id, start, end = line.split()
            out.append((LABEL_NAMES[int(label_id) - 1], float(start), float(end)))
    return sorted(out, key=lambda t: t[1])


def read_events(tsv: Path, js: Path) -> list[Event]:
    """Parse both event files; raise ValueError unless they agree and are sorted and disjoint."""
    from_tsv = []
    for line in tsv.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        label, start, end, conf = line.split("\t")
        from_tsv.append((label, float(start), float(end), float(conf)))
    doc = json.loads(js.read_text(encoding="utf-8"))
    from_json = [(e["label"], e["start"], e["end"], e["confidence"]) for e in doc["events"]]
    if from_tsv != from_json:
        raise ValueError("TSV and JSON events differ")
    for label, start, end, conf in from_tsv:
        if label not in LABEL_NAMES or not start < end or not 0.0 <= conf <= 1.0:
            raise ValueError(f"bad event {label} {start} {end} {conf}")
    for prev, nxt in zip(from_tsv, from_tsv[1:]):
        if nxt[1] < prev[2]:
            raise ValueError("events not sorted and disjoint")
    return from_tsv


def match_counts(events: list[Event], truth: list[Truth]) -> tuple[int, int, int, int]:
    """Midpoint rule, greedy one-to-one in time order.

    Returns (phase-1 TP, phase-2 TP, detections, truths).  This is the rule
    the program's evaluation documents, written out again so the benchmark
    checks the program against an independent copy.
    """
    taken = [False] * len(truth)
    tp1 = tp2 = 0
    for label, start, end, _ in events:
        mid = 0.5 * (start + end)
        for j, (t_label, t_start, t_end) in enumerate(truth):
            if not taken[j] and t_start <= mid <= t_end:
                taken[j] = True
                tp1 += 1
                tp2 += label == t_label
                break
    return tp1, tp2, len(events), len(truth)


def f1(tp: int, n_detected: int, n_truth: int) -> float:
    return 2.0 * tp / (n_detected + n_truth) if n_detected + n_truth else 0.0


_REF_MATRIX = np.random.default_rng(0).random((120, 120))
_REF_VECTOR = np.random.default_rng(1).random(100_000)


def reference_s() -> float:
    """Median seconds of three passes of a fixed kernel: the machine's speed right now.

    The kernel mixes a Python loop, small matrix products and array passes,
    as the program does, and uses nothing of the program.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(15_000):
            x += i * i
        m = _REF_MATRIX
        for _ in range(3):
            m = _REF_MATRIX @ m
            m /= m.max()
        np.sort(_REF_VECTOR * 3.0 + 1.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass(frozen=True)
class Timing:
    wall: float  # seconds
    scaled: float  # seconds at the reference speed

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.wall + other.wall, self.scaled + other.scaled)


def timed(fn):
    """Run ``fn``; return its value and its Timing.

    A small shared machine can switch between a fast and a slow state for
    seconds at a time, about a third apart, so runs minutes apart differ by
    as much.  The reference kernel runs just before and just after
    ``fn``; the wall time is scaled by REF_NOMINAL_S over the mean of the two,
    which takes most of the machine's state out of the comparison between runs.
    """
    before = reference_s()
    t0 = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - t0
    ref = 0.5 * (before + reference_s())
    return value, Timing(wall, wall * REF_NOMINAL_S / ref)


def median_timing(timings: list[Timing]) -> Timing:
    return Timing(statistics.median(t.wall for t in timings),
                  statistics.median(t.scaled for t in timings))


def p50_p90_ms(seconds: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in ms, interpolated between the nearest samples."""
    deciles = statistics.quantiles(seconds, n=10, method="inclusive")
    return 1000.0 * deciles[4], 1000.0 * deciles[8]


def run_cli(args: list[str]) -> tuple[int, str]:
    """One in-process ``ial`` call; returns the exit code and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue() + err.getvalue()


def timed_setups(setup):
    """Run ``setup`` (returning a value and its Timing) several times.

    Returns the median Timing and every value.
    """
    timings, values = [], []
    for _ in range(SETUP_REPEATS):
        value, timing = setup()
        values.append(value)
        timings.append(timing)
    return median_timing(timings), values


def with_tracer(fn):
    """Run ``fn`` under a fresh tracer; return (tracer, fn's value)."""
    tracer = Tracer()
    tracer.install(targets())
    try:
        return tracer, fn()
    finally:
        tracer.uninstall()


def split_pairs(pairs):
    """(train, test) pairs by the program's own split of their streams."""
    train_streams, _ = dat.split_dataset([s for s, _ in pairs])
    train_ids = {id(s) for s in train_streams}
    return ([p for p in pairs if id(p[0]) in train_ids],
            [p for p in pairs if id(p[0]) not in train_ids])


def trained_samples(n: int, cfg: net.TrainConfig) -> int:
    """Samples through forward+backward over all epochs; a trailing batch of one is skipped."""
    return cfg.epochs * (n - (1 if n % cfg.batch_size == 1 else 0))


# ---------------------------------------------------------------------------
# detect-cnn, detect-fc
# ---------------------------------------------------------------------------


class DetectBench:
    """Checkpoints from ``ial synth`` + ``ial train``, then ``ial detect`` on a stream pool."""

    def __init__(self, work: Path, feature_kind: str, seed: int,
                 streams_per_density: int = STREAMS_PER_DENSITY):
        self.work = work
        self.feature_kind = feature_kind
        self.seed = seed
        self.streams_per_density = streams_per_density
        self.model_dir = work / "model"
        self.config = work / "run.json"
        self.pool: list[tuple[Path, list[Truth]]] = []

    def _ial(self, *args: str) -> None:
        code, text = run_cli(["--config", str(self.config), *args])
        if code != 0:
            raise RuntimeError(f"ial {' '.join(args)} exited {code}: {text.strip()}")

    def setup(self) -> tuple[tuple[dict[str, bytes], Timing], Timing]:
        """Synthesize the training set and train both phases.

        Returns the checkpoint files with the Timing of ``ial train``, and the
        Timing of the whole set-up.
        """
        doc = {
            "out_dir": str(self.model_dir),
            "feature_kind": self.feature_kind,
            "seed": TRAIN_SEED,
            "threads": 1,
            "synthetic": TRAIN_SYNTH,
            "train": TRAIN_RECIPE[self.feature_kind],
        }
        self.work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps(doc), encoding="utf-8")
        _, synth_t = timed(lambda: self._ial("synth"))
        _, train_t = timed(lambda: self._ial("train"))
        return (self.checkpoints(), train_t), synth_t + train_t

    def checkpoints(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.model_dir.glob("phase*.json"))}

    def train_samples(self) -> int:
        """Samples ``ial train`` pushes through both phases.

        The training streams are generated again in memory (the CSV round trip
        is exact) and go through the same dataset builders ``ial train`` uses.
        """
        cfg = load_run_config(self.config)
        sy = cfg.synthetic
        pairs, _ = split_pairs([
            dat.generate_synthetic_stream(sy, subject, stream_id)
            for subject in range(1, sy.n_subjects + 1)
            for stream_id in range(1, sy.n_streams + 1)
        ])
        x1, _ = det.build_phase1_dataset(pairs, cfg.feature_kind, cfg.detector, seed=cfg.train.seed)
        x2, _ = det.build_phase2_dataset(pairs, cfg.feature_kind, cfg.detector)
        return trained_samples(len(x1), cfg.train) + trained_samples(len(x2), cfg.train)

    def make_pool(self) -> None:
        """Seeded detect streams, interleaved by density so every third call is alike."""
        per_density = []
        for i, density in enumerate(DENSITIES):
            out = self.work / f"streams{density}"
            # The offset keeps pool seeds away from the training seed.
            pool_seed = 1000 + 3 * self.seed + i
            self._ial("--seed", str(pool_seed), "--out", str(out),
                      "--set", f"synthetic.events_per_stream={density}",
                      "--set", f"synthetic.n_streams={self.streams_per_density}", "synth")
            streams = sorted((out / "data").glob("*.csv"))
            per_density.append([(p, parse_truth(p.with_suffix(".labels.txt"))) for p in streams])
        self.pool = [s for group in zip(*per_density) for s in group]

    def one_call(self, i: int, res: Result, seen: dict[int, list[Event]]) -> Timing | None:
        """Detect on pool stream ``i``, check its output; return its Timing, or None on failure."""
        key = i % len(self.pool)
        stream = self.pool[key][0]
        res.attempted += 1
        (code, text), timing = timed(
            lambda: run_cli(["--config", str(self.config), "detect", str(stream)]))
        if code != 0:
            res.fail(f"detect {stream} exited {code}: {text.strip()[:200]}")
            return None
        try:
            events = read_events(self.model_dir / f"{stream.stem}.events.tsv",
                                 self.model_dir / f"{stream.stem}.events.json")
        except (OSError, ValueError, KeyError) as exc:
            res.fail(f"detect {stream}: {exc}")
            return None
        if seen.setdefault(key, events) != events:
            res.fail(f"detect {stream}: events differ from the first call on it")
            return None
        return timing

    def one_train(self, res: Result, checkpoints: dict[str, bytes]) -> Timing | None:
        """``ial train`` again on the set-up's data; return its Timing, or None on failure."""
        res.attempted += 1
        (code, text), timing = timed(lambda: run_cli(["--config", str(self.config), "train"]))
        if code != 0:
            res.fail(f"train exited {code}: {text.strip()[:200]}")
            return None
        if self.checkpoints() != checkpoints:
            res.fail("a repeated train wrote different checkpoints")
            return None
        return timing

    def quality(self, seen: dict[int, list[Event]]) -> tuple[float, float]:
        """Phase-1 and phase-2 F1 over every pool stream detected."""
        tp1 = tp2 = n_det = n_truth = 0
        for key, events in seen.items():
            a, b, c, d = match_counts(events, self.pool[key][1])
            tp1, tp2, n_det, n_truth = tp1 + a, tp2 + b, n_det + c, n_truth + d
        return f1(tp1, n_det, n_truth), f1(tp2, n_det, n_truth)

    def run(self, seconds: float) -> Result:
        res = Result()
        setup_t, setups = timed_setups(self.setup)
        checkpoints = setups[0][0]
        if len(checkpoints) != 2:
            res.fail(f"train wrote {len(checkpoints)} checkpoints, expected 2")
        if any(c != checkpoints for c, _ in setups):
            res.fail("repeated setups wrote different checkpoints")
        trains = [t for _, t in setups]
        samples = self.train_samples()
        t0 = time.perf_counter()
        self.make_pool()
        res.info["pool_s"] = time.perf_counter() - t0

        seen: dict[int, list[Event]] = {}
        latencies: list[Timing] = []
        loop_trains = LOOP_TRAINS[self.feature_kind]
        start = time.perf_counter()
        calls = trained = 0
        while True:
            elapsed = time.perf_counter() - start
            round_done = calls % len(DENSITIES) == 0
            enough = elapsed >= seconds and calls >= len(self.pool) and trained >= loop_trains
            # Stop only after whole rounds of the three densities.
            if (enough and round_done) or elapsed >= LOOP_CAP_S:
                break
            # Train k (from 0) runs at the first round boundary past (k + 1/2) / n of the loop.
            if round_done and trained < loop_trains and elapsed >= (trained + 0.5) * seconds / loop_trains:
                trained += 1
                t = self.one_train(res, checkpoints)
                if t is not None:
                    trains.append(t)
                continue
            t = self.one_call(calls, res, seen)
            if t is not None:
                latencies.append(t)
            calls += 1
        res.info["calls"] = calls
        res.info["trains"] = SETUP_REPEATS + trained
        res.info["train_s"] = [t.scaled for t in trains]
        if len(seen) < len(self.pool):
            res.fail("some pool streams were never detected successfully")
        if len(latencies) < 2:
            return res
        f1_1, f1_2 = self.quality(seen)
        p50, p90 = p50_p90_ms([t.scaled for t in latencies])
        train_t = median_timing(trains)
        res.metrics = {
            "setup_s": (setup_t.scaled, "s"),
            "detect_ms_p50": (p50, "ms"),
            "detect_ms_p90": (p90, "ms"),
            "pipeline_s": (train_t.scaled, "s"),
            "train_samples_per_s": (samples / train_t.scaled, "1/s"),
            "phase1_f1": (f1_1, "ratio"),
            "phase2_f1": (f1_2, "ratio"),
        }
        wall_p50, wall_p90 = p50_p90_ms([t.wall for t in latencies])
        res.info["wall"] = {"setup_s": setup_t.wall, "detect_ms_p50": wall_p50,
                            "detect_ms_p90": wall_p90, "pipeline_s": train_t.wall}
        return res

    def run_traced(self) -> Result:
        """An untraced, then a traced set-up and pass over the first pool streams; both must agree."""
        res = Result()
        (plain, _), _ = self.setup()
        self.make_pool()
        calls = range(min(TRACE_ROUNDS * len(DENSITIES), len(self.pool)))
        seen_plain: dict[int, list[Event]] = {}
        plain_s = [self.one_call(i, res, seen_plain) for i in calls]

        def traced_part():
            (checkpoints, _), _ = self.setup()
            seen: dict[int, list[Event]] = {}
            times = [self.one_call(i, res, seen) for i in calls]
            return checkpoints, seen, times

        tracer, (traced, seen_traced, traced_s) = with_tracer(traced_part)
        if traced != plain:
            res.fail("traced setup wrote different checkpoints")
        if seen_traced != seen_plain:
            res.fail("traced detect calls wrote different events")
        res.metrics = layer_metrics(tracer)
        res.metrics["trace.overhead_ms_per_op"] = (overhead_ms(plain_s, traced_s), "ms")
        res.info["absent"] = tracer.absent
        res.info["spans"] = tracer.dump()
        res.info["f1"] = {"plain": self.quality(seen_plain), "traced": self.quality(seen_traced)}
        return res


def overhead_ms(plain: list[Timing | None], traced: list[Timing | None]) -> float:
    """Median traced operation time minus median untraced, in ms at the reference speed."""
    p = [s.scaled for s in plain if s is not None]
    t = [s.scaled for s in traced if s is not None]
    return 1000.0 * (statistics.median(t) - statistics.median(p)) if p and t else 0.0


# ---------------------------------------------------------------------------
# pipeline-cnn
# ---------------------------------------------------------------------------


class PipelineBench:
    """Synthesize, build both datasets, train both CNN phases, evaluate; all in memory."""

    feature_kind = det.IMAGE_KIND

    def __init__(self, seed: int):
        self.seed = seed
        self.train_cfg = net.TrainConfig(seed=seed, **PIPELINE_TRAIN)
        self.det_cfg = det.DetectorConfig()

    def setup(self):
        """The seeded streams, split into train (ids 1..9) and test (id 10) pairs, with their Timing."""
        sy = dat.SyntheticConfig(seed=self.seed, **PIPELINE_SYNTH)
        return timed(lambda: split_pairs([
            dat.generate_synthetic_stream(sy, subject, stream_id)
            for subject in range(1, sy.n_subjects + 1)
            for stream_id in range(1, sy.n_streams + 1)
        ]))

    def one_pipeline(self, train_pairs, test_pairs) -> dict:
        """One pipeline, timed step by step so that each step is scaled by the speed around it."""
        (x1, y1), build1 = timed(lambda: det.build_phase1_dataset(
            train_pairs, self.feature_kind, self.det_cfg, seed=self.seed))
        (x2, y2), build2 = timed(lambda: det.build_phase2_dataset(
            train_pairs, self.feature_kind, self.det_cfg))
        (net1, losses1), train1 = timed(lambda: net.train(net.image_model_spec(2), x1, y1, self.train_cfg))
        (net2, losses2), train2 = timed(lambda: net.train(
            net.image_model_spec(len(dat.INTEREST_CLASSES)), x2, y2, self.train_cfg))
        (rep1, rep2), evaluate = timed(lambda: ev.evaluate_run(
            test_pairs, net1, net2, self.det_cfg, self.feature_kind))
        train = train1 + train2
        return {
            "timing": build1 + build2 + train + evaluate,
            "train": train,
            "detect": Timing(evaluate.wall / len(test_pairs), evaluate.scaled / len(test_pairs)),
            "samples": trained_samples(len(x1), self.train_cfg) + trained_samples(len(x2), self.train_cfg),
            "losses": losses1 + losses2,
            "f1": (rep1.f1, rep2.f1),
        }

    def check(self, out: dict, first: dict | None, res: Result) -> bool:
        res.attempted += 1
        if not all(math.isfinite(v) for v in out["losses"]):
            res.fail("non-finite training loss")
            return False
        if first is not None and (out["losses"], out["f1"]) != (first["losses"], first["f1"]):
            res.fail("a repeated pipeline gave different losses or F1")
            return False
        return True

    def run(self, seconds: float) -> Result:
        res = Result()
        setup_t, setups = timed_setups(self.setup)
        train_pairs, test_pairs = setups[-1]
        runs: list[dict] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            # Start another pipeline only if it should end within --seconds.
            next_end = elapsed + (runs[-1]["timing"].wall if runs else 0.0)
            if (next_end > seconds and len(runs) >= MIN_PIPELINES) or elapsed >= LOOP_CAP_S:
                break
            out = self.one_pipeline(train_pairs, test_pairs)
            if self.check(out, runs[0] if runs else None, res):
                runs.append(out)
        res.info["pipelines"] = len(runs)
        if len(runs) < 2:
            return res
        p50, p90 = p50_p90_ms([r["detect"].scaled for r in runs])
        pipeline_t = median_timing([r["timing"] for r in runs])
        res.metrics = {
            "setup_s": (setup_t.scaled, "s"),
            "detect_ms_p50": (p50, "ms"),
            "detect_ms_p90": (p90, "ms"),
            "pipeline_s": (pipeline_t.scaled, "s"),
            "train_samples_per_s": (statistics.median(r["samples"] / r["train"].scaled for r in runs), "1/s"),
            "phase1_f1": (runs[0]["f1"][0], "ratio"),
            "phase2_f1": (runs[0]["f1"][1], "ratio"),
        }
        wall_p50, wall_p90 = p50_p90_ms([r["detect"].wall for r in runs])
        res.info["wall"] = {"setup_s": setup_t.wall, "detect_ms_p50": wall_p50,
                            "detect_ms_p90": wall_p90, "pipeline_s": pipeline_t.wall}
        return res

    def run_traced(self) -> Result:
        """One untraced and one traced setup and pipeline; both must agree."""
        res = Result()
        plain = self.one_pipeline(*self.setup()[0])
        self.check(plain, None, res)
        tracer, traced = with_tracer(lambda: self.one_pipeline(*self.setup()[0]))
        self.check(traced, plain, res)
        res.metrics = layer_metrics(tracer)
        res.metrics["trace.overhead_ms_per_op"] = (
            overhead_ms([plain["timing"]], [traced["timing"]]), "ms")
        res.info["absent"] = tracer.absent
        res.info["spans"] = tracer.dump()
        res.info["f1"] = {"plain": plain["f1"], "traced": traced["f1"]}
        return res
