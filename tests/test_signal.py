import numpy as np
import pytest

from ial.data import Stream
from ial.errors import (
    LengthNotDivisibleError,
    NonFiniteInputError,
    OutOfRangeError,
    StreamTooShortError,
)
from ial.features import image_feature, vector_batch, vector_feature
from ial.signal import (
    WINDOW_FRAMES,
    eight_channels,
    make_window,
    median_downsample,
    window_images,
    window_starts,
)


def make_stream(values, rate=50.0):
    values = np.asarray(values, dtype=np.float64)
    t = np.arange(len(values)) / rate
    return Stream(1, 1, t, values, rate)


def random_stream(rng, n=200):
    return make_stream(rng.normal(0, 2, (n, 6)))


# ---------------------------------------------------------------------------
# magnitudes (eight_channels columns 3 and 7)
# ---------------------------------------------------------------------------


def magnitude(v):
    """|v| as eight_channels computes it, checked equal in the accel and gyro columns."""
    v = np.asarray(v, dtype=np.float64)
    row = eight_channels(np.concatenate([v, v])[None, :])[0]
    assert row[3] == row[7]
    return row[3]


def test_magnitude_pythagorean():
    assert magnitude((3.0, 4.0, 0.0)) == 5.0


def test_magnitude_zero():
    assert magnitude((0.0, 0.0, 0.0)) == 0.0


def test_magnitude_1_2_2():
    assert magnitude((1.0, 2.0, 2.0)) == 3.0


def test_magnitude_non_finite():
    with pytest.raises(NonFiniteInputError):
        magnitude((np.inf, 0.0, 0.0))


def test_magnitude_sign_and_permutation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(0, 5, 3)
        base = magnitude(v)
        assert magnitude(-v) == base
        assert magnitude(v[[2, 0, 1]]) == pytest.approx(base, rel=1e-15)
        assert magnitude(v * np.array([1, -1, 1])) == pytest.approx(base, rel=1e-15)


# ---------------------------------------------------------------------------
# per-window min-max, on both window paths
# ---------------------------------------------------------------------------


def ax_stream(column):
    """150 frames whose ax channel is ``column`` (tiled) and every other axis 0."""
    values = np.zeros((WINDOW_FRAMES, 6))
    values[:, 0] = np.resize(np.asarray(column, dtype=np.float64), WINDOW_FRAMES)
    return make_stream(values)


def test_minmax_basic():
    stream = ax_stream([2.0, 4.0, 6.0])
    assert list(make_window(stream, 0).frames[:3, 0]) == [0.0, 0.5, 1.0]
    _, images = window_images(stream, 1)
    assert np.all(images[0, :, 0] == 0.5)  # the median of each (2, 4, 6) triple


def test_minmax_constant_channel():
    stream = ax_stream([5.0])
    assert np.all(make_window(stream, 0).frames == 0.5)
    _, images = window_images(stream, 1)
    assert np.all(images == 0.5)


def test_minmax_full_span():
    stream = ax_stream([0.0, 10.0, 10.0])
    assert list(make_window(stream, 0).frames[:3, 0]) == [0.0, 1.0, 1.0]
    _, images = window_images(stream, 1)
    assert np.all(images[0, :, 0] == 1.0)


# ---------------------------------------------------------------------------
# median_downsample
# ---------------------------------------------------------------------------


def test_median_of_three():
    out = median_downsample(np.array([[1.0], [5.0], [3.0]]))
    assert out.shape == (1, 1) and out[0, 0] == 3.0


def test_median_two_groups():
    out = median_downsample(np.array([[1.0], [2.0], [3.0], [9.0], [4.0], [5.0]]))
    assert list(out[:, 0]) == [2.0, 5.0]


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(11)
    mat = rng.normal(0, 1, (150, 8))
    got = median_downsample(mat)
    for k in range(50):
        for c in range(8):
            triple = sorted(mat[3 * k : 3 * k + 3, c])
            assert got[k, c] == triple[1]


def test_median_indivisible_rows():
    with pytest.raises(LengthNotDivisibleError):
        median_downsample(np.zeros((149, 8)))


def test_median_constant_idempotent():
    out = median_downsample(np.full((150, 8), 0.37))
    assert np.all(out == 0.37)


# ---------------------------------------------------------------------------
# make_window
# ---------------------------------------------------------------------------


def test_make_window_all_zero_stream_gives_halves():
    stream = make_stream(np.zeros((160, 6)))
    w = make_window(stream, 0)
    assert w.frames.shape == (150, 8)
    assert np.all(w.frames == 0.5)


def test_make_window_ramp_normalizes_linearly():
    values = np.zeros((150, 6))
    values[:, 0] = np.arange(150.0)
    stream = make_stream(values)
    w = make_window(stream, 0)
    expect = np.arange(150.0) / 149.0
    assert np.allclose(w.frames[:, 0], expect, atol=1e-15)


def test_make_window_extrema_map_to_unit_interval():
    rng = np.random.default_rng(3)
    stream = random_stream(rng)
    w = make_window(stream, 17)
    raw_a = stream.values[17 : 17 + 150, 0:3]
    raw_g = stream.values[17 : 17 + 150, 3:6]
    raw = np.column_stack(
        [raw_a, np.linalg.norm(raw_a, axis=1), raw_g, np.linalg.norm(raw_g, axis=1)]
    )
    for c in range(8):
        lo_i, hi_i = int(np.argmin(raw[:, c])), int(np.argmax(raw[:, c]))
        assert w.frames[lo_i, c] == 0.0
        assert w.frames[hi_i, c] == 1.0
    assert w.frames.min() >= 0.0 and w.frames.max() <= 1.0


def test_make_window_out_of_range():
    stream = make_stream(np.zeros((200, 6)))
    with pytest.raises(OutOfRangeError):
        make_window(stream, 51)
    with pytest.raises(OutOfRangeError):
        make_window(stream, -1)


def test_make_window_deterministic():
    rng = np.random.default_rng(5)
    stream = random_stream(rng)
    a = make_window(stream, 10)
    b = make_window(stream, 10)
    assert np.array_equal(a.frames, b.frames)


# ---------------------------------------------------------------------------
# window_images
# ---------------------------------------------------------------------------


def test_slide_single_window():
    stream = make_stream(np.zeros((150, 6)))
    starts, images = window_images(stream, 40)
    assert list(starts) == [0] and images.shape == (1, 50, 8)


def test_slide_count_6000_stride_15():
    assert len(list(window_starts(6000, 15))) == 391


def test_slide_too_short():
    stream = make_stream(np.zeros((149, 6)))
    with pytest.raises(StreamTooShortError):
        window_images(stream, 15)


def test_slide_start_times():
    rng = np.random.default_rng(2)
    stream = random_stream(rng, n=320)
    starts, images = window_images(stream, 50)
    assert list(stream.t[starts]) == [0.0, 1.0, 2.0, 3.0]
    assert images.shape == (4, WINDOW_FRAMES // 3, 8)


def equivalence_streams():
    """Seeded streams with a channel constant over the whole stream and one
    constant inside some windows only."""
    rng = np.random.default_rng(2112)
    streams = []
    for n in (150, 151, 437, 1000):
        values = rng.normal(0, 3, (n, 6))
        values[:, 2] = 9.81  # az constant everywhere
        values[100:400, 4] = -1.5  # gx constant inside some windows
        streams.append(make_stream(values))
    gx_a_zero = np.zeros((600, 6))
    gx_a_zero[:, 3:6] = rng.normal(0, 1, (600, 3))  # accel and |a| constant 0
    streams.append(make_stream(gx_a_zero))
    return streams


@pytest.mark.parametrize("stride", [1, 7, 15, 40])
def test_window_images_equal_the_per_window_reference(stride):
    for stream in equivalence_streams():
        starts, images = window_images(stream, stride)
        assert list(starts) == list(window_starts(len(stream), stride))
        reference = [image_feature(make_window(stream, int(s))) for s in starts]
        assert np.array_equal(images, np.stack([img.pixels for img in reference]))
        vectors = [vector_feature(img).values for img in reference]
        assert np.array_equal(vector_batch(images), np.stack(vectors))
