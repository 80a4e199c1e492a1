"""Tests of the benchmark itself: tracer arithmetic, wrapper installation and
transparency, and the output checks.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import ial.detector  # noqa: E402
import ial.evaluation  # noqa: E402
import ial.signal  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Span, Target, Tracer, layer_metrics, self_times, targets  # noqa: E402


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        Span("c", 9.0, 12.0, 0),  # only [9, 10] lies inside the parent
        Span("a.child", 2.0, 3.5, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 3.0, 1.5])


def test_install_reaches_names_imported_elsewhere_and_uninstall_restores():
    make_window = ial.signal.make_window
    score_windows = ial.detector.score_windows
    tracer = Tracer()
    tracer.install(targets() + [Target("ial.signal", "no_such_function", "signal.none")])
    try:
        # detector and evaluation bind these names with `from ... import`
        assert ial.detector.make_window.__wrapped__ is make_window
        assert ial.evaluation.score_windows.__wrapped__ is score_windows
        assert tracer.absent == ["ial.signal.no_such_function"]
    finally:
        tracer.uninstall()
    assert ial.detector.make_window is make_window
    assert ial.evaluation.score_windows is score_windows


def test_a_counter_that_no_longer_fits_is_listed_not_raised():
    tracer = Tracer()
    tracer.install([Target("ial.signal", "window_starts", "signal.window_starts",
                           lambda t, a, result: t.add("n", len(a["renamed"])))])
    try:
        assert list(ial.signal.window_starts(180, 15)) == [0, 15, 30]
        assert list(ial.signal.window_starts(180, 15)) == [0, 15, 30]
    finally:
        tracer.uninstall()
    assert tracer.absent == ["ial.signal.window_starts counters"]
    assert tracer.calls_by_name() == {"signal.window_starts": 2}


def test_traced_detect_writes_the_same_events_and_f1(tmp_path):
    bench = wl.DetectBench(tmp_path, "vector", seed=3, streams_per_density=1)
    res = bench.run_traced()
    assert res.failed == 0, res.problems
    assert res.attempted == 2 * len(wl.DENSITIES)
    assert res.info["f1"]["traced"] == res.info["f1"]["plain"]
    assert res.metrics["detector.windows_scored"][0] == 3 * 391
    assert res.metrics["cli.main.self_ms"][0] > 0


def test_traced_pipeline_gives_the_same_losses_and_f1():
    res = wl.PipelineBench(seed=3).run_traced()
    assert res.failed == 0, res.problems
    assert res.info["f1"]["traced"] == res.info["f1"]["plain"]
    assert res.metrics["net.train.samples"][0] > 0
    assert res.metrics["net.Conv2D.backward.self_ms"][0] > 0


@pytest.mark.parametrize(
    "tsv, events, problem",
    [
        ("WAVE\t1.0\t2.0\t0.9\n", [("WAVE", 1.0, 2.0, 0.8)], "differ"),
        ("WAVE\t3.0\t5.0\t0.9\nWAVE\t4.0\t6.0\t0.9\n",
         [("WAVE", 3.0, 5.0, 0.9), ("WAVE", 4.0, 6.0, 0.9)], "disjoint"),
        ("JUMP\t1.0\t2.0\t0.9\n", [("JUMP", 1.0, 2.0, 0.9)], "bad event"),
    ],
)
def test_read_events_rejects_bad_output(tmp_path, tsv, events, problem):
    import json

    (tmp_path / "e.tsv").write_text("# config_hash=x\n" + tsv, encoding="utf-8")
    doc = {"events": [dict(zip(("label", "start", "end", "confidence"), e)) for e in events]}
    (tmp_path / "e.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=problem):
        wl.read_events(tmp_path / "e.tsv", tmp_path / "e.json")


def test_timed_scales_wall_time_by_the_reference_speed(monkeypatch):
    refs = iter([0.002, 0.003])  # before and after: a mean of 0.0025 s
    monkeypatch.setattr(wl, "reference_s", lambda: next(refs))
    monkeypatch.setattr(wl, "REF_NOMINAL_S", 0.005)
    value, timing = wl.timed(lambda: "out")
    assert value == "out"
    assert timing.scaled == pytest.approx(2.0 * timing.wall)
    assert (timing + timing).wall == pytest.approx(2.0 * timing.wall)


def test_match_counts_follows_the_midpoint_rule():
    truth = [("WAVE", 10.0, 12.0), ("SWIPE_LEFT", 20.0, 22.0)]
    events = [("WAVE", 9.5, 12.5, 0.9), ("WAVE", 19.0, 23.0, 0.9), ("WAVE", 40.0, 41.0, 0.9)]
    # both truths found, the second with the wrong label; one false detection
    assert wl.match_counts(events, truth) == (2, 1, 3, 2)


def test_benchmark_json_lists_every_metric_the_traced_run_prints():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer"]]
    printed = list(layer_metrics(Tracer())) + ["trace.overhead_ms_per_op"]
    assert listed == printed
    assert all(len(n) <= 64 for n in listed + [m["name"] for m in spec["end_to_end"]])
