"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them live)."""

import os
import time
from itertools import combinations

import numpy as np
import pytest

from ial.data import (
    INTEREST_CLASSES,
    GroundTruthEvent,
    Stream,
    SyntheticConfig,
    generate_synthetic_stream,
    split_dataset,
)
from ial.detector import DetectedEvent, DetectorConfig, train_detector
from ial.evaluation import evaluate_run, f1_score, match_events
from ial.features import vector_feature, image_feature
from ial.net import (
    TrainConfig,
    build_network,
    conv2d,
    gradient_check,
    image_model_spec,
    maxpool2,
    relu,
    softmax,
    vector_model_spec,
)
from ial.signal import make_window, median_downsample


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. metric arithmetic reproduces the published tables
# ---------------------------------------------------------------------------


def test_criterion_1_metric_arithmetic():
    t0 = time.time()
    cases = [
        ("phase-1 cnn row", 0.488, 0.620, 0.546, 0.0005),
        ("phase-2 cnn row", 0.457, 0.580, 0.511, 0.0005),
        ("phase-2 fc row", 0.051, 0.060, 0.055, 0.0005),
        ("phase-1 fc row", 0.368, 0.430, 0.396, 0.001),
    ]
    worst = 0.0
    for name, p, r, expected, tol in cases:
        got = f1_score(p, r)
        err = abs(got - expected)
        worst = max(worst, err)
        assert err <= tol, f"{name}: F1({p}, {r}) = {got:.4f}, expected {expected} +/- {tol}"
    report(
        "criterion 1 (metric arithmetic)",
        True,
        f"4 printed P/R rows reproduced, worst gap {100 * worst:.3f} pp in {time.time() - t0:.3f}s",
    )


# ---------------------------------------------------------------------------
# 2. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name, spec, shape in [
        ("fc", vector_model_spec(5), (4, 16)),
        ("cnn", image_model_spec(5), (4, 50, 8, 1)),
    ]:
        net = build_network(spec, seed=2024)
        x = rng.normal(0.5, 0.2, shape)
        y = rng.integers(0, 5, shape[0])
        err = gradient_check(net, x, y, step=1e-5, seed=2024)
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: max relative error {err:.3e}"
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(
        "criterion 2 (gradient suite)",
        ok,
        f"max relative error {worst:.3e} < 1e-4 for both architectures in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. shape pipeline
# ---------------------------------------------------------------------------


def test_criterion_3_shape_pipeline():
    t0 = time.time()
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(150, 400))
        t_axis = np.arange(n) / 50.0
        stream = Stream(1, 1, t_axis, rng.normal(0, 3, (n, 6)), 50.0)
        start = int(rng.integers(0, n - 150 + 1))
        window = make_window(stream, start)
        image = median_downsample(window.frames, 3)
        assert image.shape == (50, 8)
        assert image.min() >= 0.0 and image.max() <= 1.0
        vec = vector_feature(image_feature(window))
        assert vec.values.shape == (16,)
        assert np.all(vec.values[8:] >= 0.0) and np.all(vec.values[8:] <= 0.25)
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    report(
        "criterion 3 (shape pipeline)",
        ok,
        f"100 random windows -> 50x8 in [0,1], 16-dim vectors with var <= 0.25 in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. oracle equivalence
# ---------------------------------------------------------------------------


def _median_oracle(mat):
    out = np.zeros((mat.shape[0] // 3, mat.shape[1]))
    for k in range(out.shape[0]):
        for c in range(mat.shape[1]):
            out[k, c] = sorted(mat[3 * k : 3 * k + 3, c])[1]
    return out


def _conv_oracle(x, kernels, bias):
    h, w, c_in = x.shape
    c_out, kh, kw, _ = kernels.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((h, w, c_out))
    for o in range(c_out):
        for i in range(h):
            for j in range(w):
                acc = bias[o]
                for di in range(kh):
                    for dj in range(kw):
                        si, sj = i + di - ph, j + dj - pw
                        if 0 <= si < h and 0 <= sj < w:
                            for c in range(c_in):
                                acc += x[si, sj, c] * kernels[o, di, dj, c]
                out[i, j, o] = acc
    return out


def _pool_oracle(x):
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, c))
    for i in range(h // 2):
        for j in range(w // 2):
            for k in range(c):
                out[i, j, k] = max(
                    x[2 * i, 2 * j, k],
                    x[2 * i, 2 * j + 1, k],
                    x[2 * i + 1, 2 * j, k],
                    x[2 * i + 1, 2 * j + 1, k],
                )
    return out


def _random_disjoint(rng, n, as_truth):
    items = []
    cursor = 0.0
    for _ in range(n):
        cursor += float(rng.uniform(0.0, 4.0))
        dur = float(rng.uniform(0.5, 3.0))
        label = INTEREST_CLASSES[rng.integers(0, 5)]
        if as_truth:
            items.append(GroundTruthEvent(label, cursor, cursor + dur))
        else:
            items.append(DetectedEvent(label, cursor, cursor + dur, 0.9))
        cursor += dur
    return items


def _match_oracle(detected, truth, phase):
    feasible = [
        (i, j)
        for i in range(len(detected))
        for j in range(len(truth))
        if truth[j].start <= 0.5 * (detected[i].start + detected[i].end) <= truth[j].end
    ]
    assignments = []
    for r in range(len(feasible) + 1):
        for combo in combinations(feasible, r):
            if len({i for i, _ in combo}) == r and len({j for _, j in combo}) == r:
                assignments.append(frozenset(combo))
    maximal = [a for a in assignments if not any(a < b for b in assignments)]
    chosen, used = set(), set()
    for i in range(len(detected)):
        for ii, j in feasible:
            if ii == i and j not in used:
                chosen.add((i, j))
                used.add(j)
                break
    assert frozenset(chosen) in maximal
    if phase == "one":
        return len(chosen), len(detected) - len(chosen), len(truth) - len(chosen)
    agree = sum(1 for i, j in chosen if detected[i].label is truth[j].label)
    return (
        agree,
        (len(detected) - len(chosen)) + (len(chosen) - agree),
        (len(truth) - len(chosen)) + (len(chosen) - agree),
    )


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(4)

    for _ in range(50):
        mat = rng.normal(0, 1, (int(rng.integers(1, 60)) * 3, 8))
        assert np.abs(median_downsample(mat, 3) - _median_oracle(mat)).max() <= 1e-12

    for _ in range(50):
        x = rng.normal(0, 1, (int(rng.integers(3, 8)), int(rng.integers(3, 8)), int(rng.integers(1, 3))))
        kernels = rng.normal(0, 1, (int(rng.integers(1, 4)), 3, 3, x.shape[2]))
        bias = rng.normal(0, 1, kernels.shape[0])
        assert np.abs(conv2d(x, kernels, bias) - _conv_oracle(x, kernels, bias)).max() <= 1e-12

    for _ in range(50):
        x = rng.normal(0, 1, (int(rng.integers(2, 10)), int(rng.integers(2, 10)), int(rng.integers(1, 4))))
        assert np.abs(maxpool2(x) - _pool_oracle(x)).max() <= 1e-12

    trials = 1000
    for _ in range(trials):
        truth = _random_disjoint(rng, int(rng.integers(0, 6)), as_truth=True)
        detected = _random_disjoint(rng, int(rng.integers(0, 6)), as_truth=False)
        for phase in ("one", "two"):
            counts, _ = match_events(detected, truth, phase)
            assert (counts.n_tp, counts.n_fp, counts.n_fn) == _match_oracle(detected, truth, phase)

    elapsed = time.time() - t0
    ok = elapsed < 60.0
    report(
        "criterion 4 (oracle equivalence)",
        ok,
        f"median/conv/pool vs nested-loop oracles (50 each, <= 1e-12) and greedy matcher vs "
        f"brute force ({trials} trials) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. softmax / relu contracts
# ---------------------------------------------------------------------------


def test_criterion_5_softmax_relu_contracts():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        z = rng.normal(0, 20, int(rng.integers(2, 12)))
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-9
        shift = float(rng.uniform(-100, 100))
        assert np.all(np.abs(softmax(z + shift) - p) < 1e-9)
    grid = np.array([-1e6, -3.5, -1.0, -1e-9, -0.0, 0.0, 1e-9, 1.0, 3.5, 1e6])
    out = relu(grid)
    for x, y in zip(grid, out):
        assert y == (x if x >= 0 else 0.0)
    report(
        "criterion 5 (softmax/relu contracts)",
        True,
        "1000 logit vectors sum to 1 and are shift-invariant within 1e-9; relu exact on grid incl. +/-0",
    )


# ---------------------------------------------------------------------------
# 6. end-to-end synthetic run, seed 42
# ---------------------------------------------------------------------------

E2E_SEED = 42


@pytest.fixture(scope="module")
def e2e_results():
    t0 = time.time()
    synth = SyntheticConfig(
        seed=E2E_SEED,
        stream_duration_s=120.0,
        events_per_stream=5,
        n_subjects=12,
        n_streams=10,
    )
    pairs = [
        generate_synthetic_stream(synth, subject, stream_id)
        for subject in range(1, synth.n_subjects + 1)
        for stream_id in range(1, synth.n_streams + 1)
    ]
    train_streams, _ = split_dataset([s for s, _ in pairs])
    train_keys = {(s.subject_id, s.stream_id) for s in train_streams}
    train_pairs = [(s, t) for s, t in pairs if (s.subject_id, s.stream_id) in train_keys]
    test_pairs = [(s, t) for s, t in pairs if (s.subject_id, s.stream_id) not in train_keys]

    det_cfg = DetectorConfig()
    tcfg = TrainConfig(learning_rate=0.02, momentum=0.9, batch_size=32, epochs=12, seed=E2E_SEED)

    results = {}
    for kind in ("image", "vector"):
        net1, net2, _, _ = train_detector(train_pairs, kind, det_cfg, tcfg)
        rep1, rep2 = evaluate_run(test_pairs, net1, net2, det_cfg, kind)
        results[kind] = (rep1, rep2)
    results["elapsed"] = time.time() - t0
    return results


def test_criterion_6_end_to_end_synthetic(e2e_results):
    cnn1, cnn2 = e2e_results["image"]
    fc1, fc2 = e2e_results["vector"]
    elapsed = e2e_results["elapsed"]
    ok = (
        cnn2.f1 >= 0.80
        and cnn2.f1 >= fc1.f1
        and cnn2.f1 >= fc2.f1
        and elapsed < 15 * 60
    )
    report(
        "criterion 6 (end-to-end synthetic, seed 42)",
        ok,
        f"image+cnn phase-2 F1 {cnn2.f1:.3f} (phase-1 {cnn1.f1:.3f}) vs vector+fc "
        f"phase-1 {fc1.f1:.3f} / phase-2 {fc2.f1:.3f}; 120 streams in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. optional real-data check (informational, non-blocking)
# ---------------------------------------------------------------------------


def test_criterion_7_real_data_informational():
    data_dir = os.environ.get("CMHAD_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 7 is informational: set CMHAD_DIR to a directory with a manifest.json "
            "of real TV-gesture inertial recordings to run it"
        )
    from ial.data import load_dataset

    pairs = load_dataset(os.path.join(data_dir, "manifest.json"))
    train_streams, _ = split_dataset([s for s, _ in pairs])
    train_keys = {(s.subject_id, s.stream_id) for s in train_streams}
    train_pairs = [(s, t) for s, t in pairs if (s.subject_id, s.stream_id) in train_keys]
    test_pairs = [(s, t) for s, t in pairs if (s.subject_id, s.stream_id) not in train_keys]
    det_cfg = DetectorConfig()
    tcfg = TrainConfig(seed=E2E_SEED)
    net1, net2, _, _ = train_detector(train_pairs, "image", det_cfg, tcfg)
    _, rep2 = evaluate_run(test_pairs, net1, net2, det_cfg, "image")
    gap = abs(rep2.f1 - 0.511)
    report(
        "criterion 7 (real data, informational)",
        True,  # non-blocking: recorded, never failed
        f"combined F1 {rep2.f1:.3f}; gap to 0.511 is {100 * gap:.1f} pp (within 10 pp: {gap <= 0.10})",
    )
