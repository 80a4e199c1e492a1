import numpy as np
import pytest

from ial.features import ImageFeature, image_feature, vector_feature, write_vector_csv
from ial.signal import SignalWindow, make_window
from ial.data import Stream


def window_from(frames):
    return SignalWindow(np.asarray(frames, dtype=np.float64), 0.0)


def random_window(rng):
    return window_from(rng.random((150, 8)))


def test_image_constant_window():
    img = image_feature(window_from(np.full((150, 8), 0.3)))
    assert img.pixels.shape == (50, 8)
    assert np.all(img.pixels == 0.3)


def test_image_ramp_column_medians():
    frames = np.zeros((150, 8))
    frames[:, 2] = np.arange(150.0) / 149.0
    img = image_feature(window_from(frames))
    expect = (np.arange(50) * 3 + 1) / 149.0  # middle of each consecutive triple
    assert np.allclose(img.pixels[:, 2], expect, atol=1e-15)


def test_image_matches_nested_loop_oracle():
    rng = np.random.default_rng(21)
    w = random_window(rng)
    got = image_feature(w).pixels
    for k in range(50):
        for c in range(8):
            vals = sorted([w.frames[3 * k, c], w.frames[3 * k + 1, c], w.frames[3 * k + 2, c]])
            assert got[k, c] == vals[1]


def test_vector_constant_image():
    img = ImageFeature(np.full((50, 8), 0.3), 0.0)
    v = vector_feature(img)
    assert v.values.shape == (16,)
    assert np.allclose(v.values[:8], 0.3, atol=1e-15)
    assert np.allclose(v.values[8:], 0.0, atol=1e-30)


def test_vector_alternating_channel():
    pixels = np.full((50, 8), 0.5)
    pixels[:, 0] = ([0.0, 1.0] * 25)[:50]
    v = vector_feature(ImageFeature(pixels, 0.0))
    assert v.values[0] == 0.5
    assert v.values[8] == 0.25


def test_vector_matches_two_pass_oracle():
    rng = np.random.default_rng(33)
    pixels = rng.random((50, 8))
    v = vector_feature(ImageFeature(pixels, 0.0))
    for c in range(8):
        total = 0.0
        for r in range(50):
            total += pixels[r, c]
        mean = total / 50.0
        sq = 0.0
        for r in range(50):
            sq += (pixels[r, c] - mean) ** 2
        var = sq / 50.0
        assert v.values[c] == pytest.approx(mean, rel=1e-12)
        assert v.values[8 + c] == pytest.approx(var, rel=1e-12)


def test_vector_bounds_for_unit_images():
    rng = np.random.default_rng(4)
    for _ in range(30):
        v = vector_feature(image_feature(random_window(rng)))
        assert np.all(v.values[:8] >= 0.0) and np.all(v.values[:8] <= 1.0)
        assert np.all(v.values[8:] >= 0.0) and np.all(v.values[8:] <= 0.25)


def test_vector_invariant_to_row_permutation():
    rng = np.random.default_rng(9)
    pixels = rng.random((50, 8))
    v1 = vector_feature(ImageFeature(pixels, 0.0))
    v2 = vector_feature(ImageFeature(pixels[rng.permutation(50)], 0.0))
    assert np.allclose(v1.values, v2.values, atol=1e-15)


def test_pipeline_shape_contract():
    rng = np.random.default_rng(12)
    t = np.arange(200) / 50.0
    stream = Stream(1, 1, t, rng.normal(0, 2, (200, 6)), 50.0)
    w = make_window(stream, 25)
    img = image_feature(w)
    assert img.pixels.shape == (50, 8)
    assert img.start_t == 0.5
    assert 0.0 <= img.pixels.min() and img.pixels.max() <= 1.0


def test_write_vector_csv(tmp_path):
    rng = np.random.default_rng(2)
    vectors = np.stack([vector_feature(image_feature(random_window(rng))).values for _ in range(3)])
    path = tmp_path / "f.csv"
    write_vector_csv([0.0, 0.3, 0.6], vectors, path, ["config_hash=abc"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc"
    assert lines[1].startswith("start_t,mean_0")
    assert len(lines) == 5
    assert lines[3].split(",") == ["0.3"] + [repr(float(v)) for v in vectors[1]]
