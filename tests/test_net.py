import copy
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from ial.detector import PROBA_CHUNK, _batched_proba
from ial.errors import (
    BatchTooSmallError,
    CheckpointMismatchError,
    ConfigError,
    DataError,
    EmptyDatasetError,
    InputTooSmallError,
    InvalidRateError,
    LabelOutOfRangeError,
    MissingCheckpointError,
    ShapeMismatchError,
)
from ial.net import (
    SGD,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    MaxPool2,
    ModelSpec,
    ReLU,
    TrainConfig,
    _conv_forward,
    _folded_block,
    _pool_max,
    build_network,
    conv2d,
    gradient_check,
    image_model_spec,
    load_checkpoint,
    maxpool2,
    relu,
    save_checkpoint,
    softmax,
    softmax_cross_entropy,
    train,
    vector_model_spec,
)


def central_diff(f, x, h=1e-5):
    """Finite-difference gradient of scalar f over array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        up = f()
        x[idx] = orig - h
        down = f()
        x[idx] = orig
        g[idx] = (up - down) / (2 * h)
        it.iternext()
    return g


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------


def test_relu_piecewise():
    out = relu(np.array([-2.0, 3.0]))
    assert list(out) == [0.0, 3.0]


def test_relu_zeros():
    assert np.all(relu(np.zeros((4, 4))) == 0.0)


def test_relu_exact_on_grid():
    grid = np.array([-5.0, -1.0, -1e-12, -0.0, 0.0, 1e-12, 1.0, 5.0])
    out = relu(grid)
    for x, y in zip(grid, out):
        assert y == (x if x >= 0 else 0.0)


def test_relu_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (5, 7))
    x[np.abs(x) < 1e-3] += 0.01  # keep clear of the kink
    w = rng.normal(0, 1, (5, 7))
    layer = ReLU()

    def loss():
        return float((layer.forward(x, train=True) * w).sum())

    loss()
    analytic = layer.backward(w)
    numeric = central_diff(loss, x)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
    assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# softmax / cross-entropy
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    assert list(softmax(np.array([0.0, 0.0]))) == [0.5, 0.5]


def test_softmax_ln2():
    out = softmax(np.array([np.log(2.0), 0.0]))
    assert out[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_softmax_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_sums_and_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = rng.normal(0, 10, rng.integers(2, 9))
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(np.abs(softmax(z + 17.3) - p) < 1e-9)


def test_cross_entropy_uniform():
    for k in (2, 5, 10):
        loss, _ = softmax_cross_entropy(np.zeros((1, k)), np.array([0]))
        assert loss == pytest.approx(np.log(k), rel=1e-12)


def test_cross_entropy_perfect():
    # exp(-1000) underflows to 0, so the softmax is exactly [0, 1]
    assert softmax_cross_entropy(np.array([[-1000.0, 0.0]]), np.array([1]))[0] == 0.0
    # a true-class probability of 0 is clamped at 1e-12
    loss, _ = softmax_cross_entropy(np.array([[0.0, -1000.0]]), np.array([1]))
    assert loss == pytest.approx(-np.log(1e-12), rel=1e-12)


def test_softmax_ce_gradient_is_p_minus_y():
    rng = np.random.default_rng(2)
    logits = rng.normal(0, 2, (3, 5))
    labels = np.array([0, 3, 2])
    _, dlogits = softmax_cross_entropy(logits, labels)
    numeric = central_diff(lambda: softmax_cross_entropy(logits, labels)[0], logits)
    rel = np.abs(dlogits - numeric) / np.maximum(np.abs(numeric), 1e-8)
    assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def conv_oracle(x, kernels, bias):
    """Independent nested-loop same-padded cross-correlation."""
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


def test_conv_1x1_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (6, 4, 1))
    kernels = np.ones((1, 1, 1, 1))
    out = conv2d(x, kernels, np.zeros(1))
    assert np.allclose(out, x, atol=1e-15)


def test_conv_3x3_ones_interior():
    x = np.ones((5, 5, 1))
    out = conv2d(x, np.ones((1, 3, 3, 1)), np.zeros(1))
    assert out[2, 2, 0] == 9.0
    assert out[0, 0, 0] == 4.0  # corner sees a 2x2 patch


def test_conv_matches_nested_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(0, 1, (6, 4, 2))
        kernels = rng.normal(0, 1, (3, 3, 3, 2))
        bias = rng.normal(0, 1, 3)
        got = conv2d(x, kernels, bias)
        assert np.abs(got - conv_oracle(x, kernels, bias)).max() <= 1e-12


def test_conv_gradients_vs_finite_differences():
    rng = np.random.default_rng(5)
    layer = Conv2D(rng.uniform(-0.4, 0.4, (3, 3, 3, 2)))
    x = rng.normal(0, 1, (2, 6, 4, 2))
    w = rng.normal(0, 1, (2, 6, 4, 3))

    def loss():
        return float((layer.forward(x, train=True) * w).sum())

    loss()
    dx = layer.backward(w)
    for arr, analytic in ((layer.kernels, None), (x, dx)):
        numeric = central_diff(loss, arr)
        if arr is layer.kernels:
            loss()
            layer.backward(w)
            analytic = layer.d_kernels
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric) + np.abs(analytic), 1e-8)
        assert rel.max() < 1e-5


def test_conv_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        conv2d(np.zeros((5, 5, 2)), np.zeros((1, 3, 3, 3)), np.zeros(1))


# ---------------------------------------------------------------------------
# maxpool2
# ---------------------------------------------------------------------------


def pool_oracle(x, dy):
    """Per-block loop over (N, H, W, C): the max of each 2x2 block, the row-major
    index of its first max cell (as np.argmax), and ``dy`` routed to that cell."""
    y = np.zeros(dy.shape)
    argmax = np.zeros(dy.shape, dtype=np.int64)
    dx = np.zeros(x.shape)
    for n, i, j, c in np.ndindex(*dy.shape):
        block = x[n, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c]
        y[n, i, j, c], argmax[n, i, j, c] = block.max(), np.argmax(block)
        di, dj = divmod(int(argmax[n, i, j, c]), 2)
        dx[n, 2 * i + di, 2 * j + dj, c] = dy[n, i, j, c]
    return y, argmax, dx


def test_maxpool_2x2():
    out = maxpool2(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
    assert out.shape == (1, 1, 1) and out[0, 0, 0] == 4.0


def test_maxpool_constant():
    out = maxpool2(np.full((6, 4, 2), 2.5))
    assert out.shape == (3, 2, 2) and np.all(out == 2.5)


def test_maxpool_dimension_chain():
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, (50, 8, 1))
    p1 = maxpool2(x)
    p2 = maxpool2(p1)
    p3 = maxpool2(p2)
    assert p1.shape == (25, 4, 1)
    assert p2.shape == (12, 2, 1)
    assert p3.shape == (6, 1, 1)


def test_maxpool_matches_oracle():
    # batches with odd sides, post-ReLU zero ties, signed zeros and exact ties:
    # forward and backward bytes and the argmax must be the oracle's
    rng = np.random.default_rng(7)
    for case in range(12):
        shape = (1 if case < 3 else 32, *rng.integers(2, 10, 2), rng.integers(1, 4))
        x = rng.normal(0, 1, shape)
        x = [x, relu(x), rng.choice([-0.0, 0.0, -1.0, 1.0], shape)][case % 3]
        dy = rng.choice([-0.0, 0.0, 2.5, -1.5], (shape[0], shape[1] // 2, shape[2] // 2, shape[3]))
        want_y, want_argmax, want_dx = pool_oracle(x, dy)
        layer = MaxPool2()
        y = layer.forward(x, train=True)
        assert y.shape == dy.shape and y.tobytes() == want_y.tobytes()
        assert maxpool2(x[0]).tobytes() == want_y[0].tobytes()
        assert np.array_equal(layer.argmax, want_argmax)
        assert layer.backward(dy).tobytes() == want_dx.tobytes()


def test_maxpool_too_small():
    with pytest.raises(InputTooSmallError):
        maxpool2(np.zeros((1, 4, 1)))


def test_maxpool_gradient_routes_to_argmax():
    layer = MaxPool2()
    x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])[None]
    layer.forward(x, train=True)
    dx = layer.backward(np.array([[[[10.0]]]]))
    assert dx[0, 1, 1, 0] == 10.0
    assert dx.sum() == 10.0


def test_maxpool_ties_pick_first_in_scan_order():
    layer = MaxPool2()
    x = np.full((1, 2, 2, 1), 7.0)
    layer.forward(x, train=True)
    dx = layer.backward(np.ones((1, 1, 1, 1)))
    assert dx[0, 0, 0, 0] == 1.0
    assert dx[0, 0, 1, 0] == 0.0 and dx[0, 1, 0, 0] == 0.0 and dx[0, 1, 1, 0] == 0.0


def test_maxpool_gradient_vs_finite_differences():
    rng = np.random.default_rng(8)
    layer = MaxPool2()
    x = rng.normal(0, 1, (2, 6, 4, 2))
    w = rng.normal(0, 1, (2, 3, 2, 2))

    def loss():
        return float((layer.forward(x, train=True) * w).sum())

    loss()
    dx = layer.backward(w)
    numeric = central_diff(loss, x)
    assert np.abs(dx - numeric).max() < 1e-6


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------


def batchnorm(channels, **kw):
    """A BatchNorm as a new network holds it: unit scale, zero shift, standard running statistics."""
    return BatchNorm(np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels), **kw)


def test_batchnorm_constant_batch():
    x = np.full((4, 3), 2.0)
    out = batchnorm(3, eps=1e-5).forward(x, train=True)
    assert np.all(out == 0.0)


def test_batchnorm_standardizes():
    rng = np.random.default_rng(9)
    x = rng.normal(3, 2, (64, 5))
    out = batchnorm(5, eps=1e-8).forward(x, train=True)
    assert np.allclose(out.mean(0), 0.0, atol=1e-12)
    assert np.allclose(out.var(0), 1.0, atol=1e-6)


def test_batchnorm_batch_too_small():
    with pytest.raises(BatchTooSmallError):
        batchnorm(3).forward(np.zeros((1, 3)), train=True)


def test_batchnorm_running_stats_and_infer():
    rng = np.random.default_rng(10)
    layer = batchnorm(3, eps=1e-5, momentum=0.9)
    x = rng.normal(2, 3, (32, 3))
    layer.forward(x, train=True)
    assert np.allclose(layer.running_mean, 0.1 * x.mean(0), atol=1e-12)
    assert np.allclose(layer.running_var, 0.9 * 1.0 + 0.1 * x.var(0), atol=1e-12)
    out = layer.forward(x, train=False)
    expect = (x - layer.running_mean) / np.sqrt(layer.running_var + 1e-5)
    assert np.allclose(out, expect, atol=1e-12)


def test_batchnorm_gradients_vs_finite_differences():
    rng = np.random.default_rng(11)
    layer = batchnorm(3)
    layer.gamma = rng.normal(1, 0.2, 3)
    layer.beta = rng.normal(0, 0.2, 3)
    x = rng.normal(0, 1, (8, 3))
    w = rng.normal(0, 1, (8, 3))

    def loss():
        return float((layer.forward(x, train=True) * w).sum())

    loss()
    dx = layer.backward(w)
    for analytic, arr in ((dx, x), (layer.d_gamma, layer.gamma), (layer.d_beta, layer.beta)):
        numeric = central_diff(loss, arr)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric) + np.abs(analytic), 1e-6)
        assert rel.max() < 1e-4


def batchnorm_oracle(x, dy, gamma, beta, running_mean, running_var, eps=1e-5, momentum=0.9):
    """A BatchNorm training forward and backward by the per-axis numpy formulas
    (``mean``, ``var``, ``.sum`` over the leading axes), as named arrays.

    They run on x minus its first row.  That leaves every result but the running
    mean unchanged in exact arithmetic, and it is exact for a constant channel or
    one offset by 1e6: a plain float64 sum misses such a channel's mean by up to
    about 1e-9, which the normalization amplifies by up to 1/sqrt(eps).
    """
    axes = tuple(range(x.ndim - 1))
    shift = x.reshape(-1, x.shape[-1])[0]
    shifted = x - shift
    mean, var = shifted.mean(axes), shifted.var(axes)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (shifted - mean) * inv
    dxhat = dy * gamma
    return {
        "out": gamma * xhat + beta,
        "running_mean": momentum * running_mean + (1.0 - momentum) * (mean + shift),
        "running_var": momentum * running_var + (1.0 - momentum) * var,
        "d_gamma": (dy * xhat).sum(axes),
        "d_beta": dy.sum(axes),
        "dx": inv * (dxhat - dxhat.mean(axes) - xhat * (dxhat * xhat).mean(axes)),
    }


@pytest.mark.parametrize("batch", [2, 32])
@pytest.mark.parametrize("block", [(50, 8, 16), (25, 4, 32), (12, 2, 64)], ids=["block1", "block2", "block3"])
def test_batchnorm_matches_the_per_axis_oracle(batch, block):
    # the CNN's BatchNorm input shapes, with a negative gamma (channel 0), a
    # zero-variance channel (1) and a channel offset by 1e6 over unit spread (2)
    rng = np.random.default_rng([batch, *block])
    c = block[-1]
    x = rng.normal(0.3, 1.0, (batch, *block))
    x[..., 1] = 0.7
    x[..., 2] += 1e6
    dy = rng.normal(0, 1, x.shape)
    gamma = rng.uniform(0.5, 1.5, c)
    gamma[0] = -1.3
    beta, running_mean, running_var = rng.normal(0, 0.3, c), rng.normal(0, 0.3, c), rng.uniform(0.5, 1.5, c)
    want = batchnorm_oracle(x, dy, gamma, beta, running_mean, running_var)
    inputs = x.tobytes(), dy.tobytes()
    layer = BatchNorm(gamma.copy(), beta.copy(), running_mean.copy(), running_var.copy())
    got = {"out": layer.forward(x, train=True), "dx": layer.backward(dy)}
    got.update((name, getattr(layer, name)) for name in ("running_mean", "running_var", "d_gamma", "d_beta"))
    assert (x.tobytes(), dy.tobytes()) == inputs
    for name, expect in want.items():
        assert got[name].shape == expect.shape, name
        assert np.abs(got[name] - expect).max() <= 1e-12 * max(np.abs(expect).max(), 1.0), name


def test_batchnorm_4d_channel_axis():
    rng = np.random.default_rng(12)
    layer = batchnorm(4)
    x = rng.normal(5, 2, (3, 6, 2, 4))
    out = layer.forward(x, train=True)
    assert np.allclose(out.mean((0, 1, 2)), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


def test_dense_identity():
    x = np.array([[1.0, 2.0, 3.0]])
    out = Dense(np.eye(3), np.zeros(3)).forward(x, train=False)
    assert np.array_equal(out, x)


def test_dense_sum():
    out = Dense(np.array([[1.0, 1.0]]), np.array([0.0])).forward(np.array([1.0, 2.0]), train=False)
    assert out.shape == (1,) and out[0] == 3.0


def test_dense_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        Dense(np.zeros((4, 5)), np.zeros(4)).forward(np.zeros((2, 3)), train=False)


def test_dense_gradients_vs_finite_differences():
    rng = np.random.default_rng(13)
    layer = Dense(rng.uniform(-0.7, 0.7, (3, 4)), np.zeros(3))
    x = rng.normal(0, 1, (5, 4))
    w = rng.normal(0, 1, (5, 3))

    def loss():
        return float((layer.forward(x, train=True) * w).sum())

    loss()
    dx = layer.backward(w)
    for analytic, arr in ((dx, x), (layer.d_w, layer.w), (layer.d_b, layer.b)):
        numeric = central_diff(loss, arr)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric) + np.abs(analytic), 1e-8)
        assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(x, rate, train, seed=0):
    return Dropout(rate, np.random.default_rng(seed)).forward(x, train)


def test_dropout_rate_zero_identity():
    x = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(dropout(x, 0.0, train=True, seed=1), x)


def test_dropout_infer_identity():
    x = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(dropout(x, 0.9, train=False, seed=1), x)


def test_dropout_invalid_rate():
    with pytest.raises(InvalidRateError):
        dropout(np.zeros(3), 1.0, train=True)
    with pytest.raises(InvalidRateError):
        dropout(np.zeros(3), -0.1, train=True)


def test_dropout_monte_carlo():
    n = 100_000
    x = np.full(n, 2.0)
    survivors, mean_sum = 0, 0.0
    for seed in range(5):
        out = dropout(x, 0.5, train=True, seed=seed)
        survivors += int((out != 0).sum())
        mean_sum += float(out.mean())
    frac = survivors / (5 * n)
    assert abs(frac - 0.5) < 0.01
    assert abs(mean_sum / 5 - 2.0) < 0.04  # within 2% of the input mean


def test_dropout_deterministic_per_seed():
    x = np.ones(1000)
    a = dropout(x, 0.3, train=True, seed=7)
    b = dropout(x, 0.3, train=True, seed=7)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# sgd
# ---------------------------------------------------------------------------


class OneArray:
    """Stands in for a Network: one parameter array and its gradient."""

    def __init__(self, p):
        self.p, self.g = p, np.zeros_like(p)

    def parameters(self):
        return [("p", self.p)]

    def gradients(self):
        return [("p", self.g)]


def test_sgd_plain_step():
    model = OneArray(np.array([1.0, 2.0]))
    model.g[:] = [0.5, -0.5]
    SGD(model, learning_rate=1.0, momentum=0.0).step(model)
    assert np.array_equal(model.p, np.array([0.5, 2.5]))


def test_sgd_zero_gradient():
    model = OneArray(np.array([1.0, 2.0]))
    SGD(model, learning_rate=0.1, momentum=0.9).step(model)
    assert np.array_equal(model.p, np.array([1.0, 2.0]))


def test_sgd_quadratic_bowl_contracts():
    model = OneArray(np.array([1.0]))
    theta = model.p
    opt = SGD(model, learning_rate=0.1, momentum=0.0)
    for _ in range(100):
        model.g[:] = 2.0 * theta
        opt.step(model)
    # closed form: theta_k = 0.8^k
    assert abs(theta[0]) < 1e-8
    assert theta[0] == pytest.approx(0.8 ** 100, rel=1e-9)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def separable_vector_dataset(rng, n=120):
    x = rng.normal(0, 0.3, (n, 16))
    y = rng.integers(0, 2, n)
    x[:, 0] += np.where(y == 1, 3.0, -3.0)
    return x, y


def test_train_tiny_learning_rate_keeps_parameters():
    rng = np.random.default_rng(14)
    x, y = separable_vector_dataset(rng, n=40)
    spec = vector_model_spec(2, dropout_rate=0.0)
    cfg = TrainConfig(learning_rate=1e-30, momentum=0.0, epochs=3, seed=3, dropout_rate=0.0)
    net, losses = train(spec, x, y, cfg)
    fresh = build_network(spec, seed=3)
    for (_, a), (_, b) in zip(net.parameters(), fresh.parameters()):
        # updates scale with the learning rate, so drift stays ~1e-30
        assert np.allclose(a, b, atol=1e-24)
    assert max(losses) - min(losses) < 1e-12


def test_train_separable_converges():
    rng = np.random.default_rng(15)
    x, y = separable_vector_dataset(rng)
    spec = vector_model_spec(2)
    cfg = TrainConfig(learning_rate=0.05, epochs=20, seed=4, dropout_rate=0.0)
    net, losses = train(spec, x, y, cfg)
    assert losses[-1] < losses[0]
    for prev, nxt in zip(losses, losses[1:]):
        assert nxt <= prev + 0.05  # non-increasing within noise
    pred = net.predict_proba(x).argmax(1)
    assert np.array_equal(pred, y)


def test_train_same_seed_identical_losses():
    rng = np.random.default_rng(16)
    x, y = separable_vector_dataset(rng, n=60)
    spec = vector_model_spec(2)
    cfg = TrainConfig(learning_rate=0.02, epochs=5, seed=9)
    _, l1 = train(spec, x, y, cfg)
    _, l2 = train(spec, x, y, cfg)
    assert l1 == l2


def test_train_errors():
    spec = vector_model_spec(2)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(EmptyDatasetError):
        train(spec, np.empty((0, 16)), np.empty(0, dtype=int), cfg)
    with pytest.raises(LabelOutOfRangeError):
        train(spec, np.zeros((4, 16)), np.array([0, 1, 2, 0]), cfg)
    with pytest.raises(BatchTooSmallError):  # a batch of one is skipped, so one sample trains nothing
        train(spec, np.zeros((1, 16)), np.array([0]), cfg)


def test_train_refuses_labels_that_do_not_pair_with_samples():
    with pytest.raises(ShapeMismatchError, match="4 samples vs 3 labels"):
        train(vector_model_spec(2), np.zeros((4, 16)), np.array([0, 1, 0]), TrainConfig(epochs=1))


@pytest.mark.parametrize("kind, n_classes, input_shape, message", [
    ("fc", 1, (16,), "at least 2 classes"),
    ("cnn", 2, (16,), r"cnn input must be \(H, W, C\)"),
    ("fc", 2, (50, 8, 1), r"fc input must be \(D,\)"),
], ids=["one-class", "cnn-vector-input", "fc-image-input"])
def test_model_spec_refuses_what_no_network_can_take(kind, n_classes, input_shape, message):
    with pytest.raises(ConfigError, match=message):
        ModelSpec(kind, n_classes, input_shape)


def test_train_skips_a_trailing_batch_of_one():
    rng = np.random.default_rng(17)
    x, y = separable_vector_dataset(rng, n=33)
    spec = vector_model_spec(2)
    cfg = TrainConfig(epochs=1, batch_size=32, seed=5)
    net, losses = train(spec, x, y, cfg)
    x[np.random.default_rng([cfg.seed, 2]).permutation(len(x))[-1]] = np.nan  # the one sample left over
    net_nan, losses_nan = train(spec, x, y, cfg)
    assert losses_nan == losses
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(net.arrays(), net_nan.arrays(), strict=True))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows that make the loss NaN
def test_train_stops_at_the_first_epoch_whose_loss_is_not_finite():
    rng = np.random.default_rng(18)
    x, y = separable_vector_dataset(rng, n=40)
    with pytest.raises(DataError, match=r"^training diverged: epoch 1 has mean loss nan$"):  # exit 2, not 1
        train(vector_model_spec(2), x, y, TrainConfig(learning_rate=1e308, epochs=2, seed=3))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout_rate=1.0)


# ---------------------------------------------------------------------------
# gradient_check
# ---------------------------------------------------------------------------


def test_gradient_check_fc():
    rng = np.random.default_rng(17)
    net = build_network(vector_model_spec(5, dropout_rate=0.5), seed=11)
    x = rng.normal(0.5, 0.2, (4, 16))
    y = rng.integers(0, 5, 4)
    assert gradient_check(net, x, y, seed=11) < 1e-4


def test_gradient_check_cnn():
    rng = np.random.default_rng(18)
    net = build_network(image_model_spec(5, dropout_rate=0.5), seed=12)
    x = rng.normal(0.5, 0.2, (3, 50, 8, 1))
    y = rng.integers(0, 5, 3)
    assert gradient_check(net, x, y, max_per_param=60, seed=12) < 1e-4


def test_gradient_check_linear_model_is_exact():
    rng = np.random.default_rng(19)
    spec = ModelSpec("fc", 3, (6,), hidden_layers=0, dropout_rate=0.0)
    net = build_network(spec, seed=13)
    assert len([l for l in net.layers if isinstance(l, Dense)]) == 1
    x = rng.normal(0, 1, (4, 6))
    y = rng.integers(0, 3, 4)
    assert gradient_check(net, x, y, seed=13) < 1e-8


def test_gradient_check_detects_corruption():
    rng = np.random.default_rng(20)
    net = build_network(vector_model_spec(3, dropout_rate=0.0), seed=14)
    x = rng.normal(0, 1, (4, 16))
    y = rng.integers(0, 3, 4)
    original = Dense.backward

    def corrupted(self, dy):
        out = original(self, dy)
        self.d_w = self.d_w * 1.5
        return out

    Dense.backward = corrupted
    try:
        assert gradient_check(net, x, y, seed=14) > 1e-4
    finally:
        Dense.backward = original


def test_gradient_check_detects_corrupted_conv_backward(monkeypatch):
    rng = np.random.default_rng(22)
    net = build_network(image_model_spec(3, dropout_rate=0.0), seed=15)
    x = rng.normal(0.5, 0.2, (3, 50, 8, 1))
    y = rng.integers(0, 3, 3)
    original = Conv2D.backward

    def corrupted(self, dy):
        out = original(self, dy)
        self.d_kernels = self.d_kernels * 1.5
        return out

    monkeypatch.setattr(Conv2D, "backward", corrupted)
    assert gradient_check(net, x, y, max_per_param=60, seed=15) > 1e-4


def full_forward_gradient_check(net, x, y, *, step=1e-5, max_per_param=200, seed=0):
    """``gradient_check`` as one full training forward per evaluation, comparing
    every ReLU mask and pooling argmax of the network."""
    net = copy.deepcopy(net)
    for layer in net.layers:
        if isinstance(layer, Dropout):
            layer.rate = 0.0
    pick_rng = np.random.default_rng([seed, 3])

    def loss_and_kinks():
        loss, _ = softmax_cross_entropy(net.forward(x, train=True), y)
        return loss, [l.mask if isinstance(l, ReLU) else l.argmax for l in net.layers if isinstance(l, (ReLU, MaxPool2))]

    _, dlogits = softmax_cross_entropy(net.forward(x, train=True), y)
    net.backward(dlogits)
    analytic = {name: g.copy() for name, g in net.gradients()}
    worst = 0.0
    for name, arr in net.parameters():
        flat = arr.reshape(-1)
        n = flat.shape[0]
        indices = pick_rng.choice(n, size=max_per_param, replace=False) if n > max_per_param else np.arange(n)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + step
            up, kinks_up = loss_and_kinks()
            flat[i] = orig - step
            down, kinks_down = loss_and_kinks()
            flat[i] = orig
            if all(np.array_equal(a, b) for a, b in zip(kinks_up, kinks_down)):
                numeric = (up - down) / (2.0 * step)
                a = analytic[name].reshape(-1)[i]
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spec", [image_model_spec(5), vector_model_spec(5)], ids=["cnn", "fc"])
def test_gradient_check_rerunning_from_the_perturbed_layer_equals_a_full_forward(spec, seed):
    rng = np.random.default_rng([seed, 5])
    x = rng.normal(0.5, 0.2, (4, *spec.input_shape))
    y = rng.integers(0, spec.n_classes, 4)
    net = build_network(spec, seed=seed)
    got = gradient_check(net, x, y, max_per_param=20, seed=seed)
    assert got == full_forward_gradient_check(net, x, y, max_per_param=20, seed=seed)
    assert 0.0 < got < 1e-4


# ---------------------------------------------------------------------------
# shape contracts and checkpoints
# ---------------------------------------------------------------------------


def test_forward_shapes():
    cnn = build_network(image_model_spec(2), seed=0)
    fc = build_network(vector_model_spec(5), seed=0)
    assert cnn.forward(np.zeros((3, 50, 8, 1))).shape == (3, 2)
    assert fc.forward(np.zeros((3, 16))).shape == (3, 5)


def test_fc_has_four_dense_layers_of_128():
    net = build_network(vector_model_spec(5), seed=0)
    dense_layers = [l for l in net.layers if isinstance(l, Dense)]
    assert len(dense_layers) == 4
    assert [l.w.shape for l in dense_layers] == [(128, 16), (128, 128), (128, 128), (5, 128)]


def test_cnn_structure():
    net = build_network(image_model_spec(5), seed=0)
    convs = [l for l in net.layers if isinstance(l, Conv2D)]
    assert [c.kernels.shape[0] for c in convs] == [16, 32, 64]
    # each conv feeds a BatchNorm, which would cancel a bias
    assert all(isinstance(net.layers[net.layers.index(c) + 1], BatchNorm) for c in convs)
    assert all(c.PARAMS == ("kernels",) for c in convs)
    assert not any(name.endswith(".bias") for name, _ in net.parameters())
    final = [l for l in net.layers if isinstance(l, Dense)]
    assert len(final) == 1 and final[0].w.shape == (5, 384)


@pytest.mark.parametrize("spec", [image_model_spec(2), vector_model_spec(5)], ids=["cnn", "fc"])
def test_inference_writes_no_layer_state(spec):
    rng = np.random.default_rng(24)
    x = rng.normal(0.5, 0.2, (4, *spec.input_shape))
    y = np.arange(4) % spec.n_classes
    net, _ = train(spec, x, y, TrainConfig(epochs=1, batch_size=4, seed=6))  # one step
    before = [dict(vars(layer)) for layer in net.layers]
    digests = {name: hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in net.arrays()}
    net.predict_proba(x)
    for layer, held in zip(net.layers, before):
        now = vars(layer)
        assert now.keys() == held.keys(), type(layer).__name__
        assert all(now[k] is held[k] for k in held), type(layer).__name__
    assert {name: hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in net.arrays()} == digests


def layer_walk(net, x):
    """Unfolded inference logits: each layer's own ``forward(x, False)``, in order."""
    out = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        out = layer.forward(out, False)
    return out


def awkward_cnn(seed, spec):
    """A CNN whose every BatchNorm has a negative gamma (channel 0), a zero running
    variance, so only eps is left (channel 1), and |beta| = 20 (channels 2, 3); the
    output layer is scaled so that the logits span a few units."""
    rng = np.random.default_rng(seed)
    net = build_network(spec, seed=seed)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            c = layer.gamma.shape
            layer.gamma[...] = rng.uniform(0.5, 1.5, c)
            layer.gamma[0] = -1.2
            layer.beta[...] = rng.normal(0, 0.3, c)
            layer.beta[2:4] = 20.0, -20.0
            layer.running_mean = rng.normal(0, 0.3, c)
            layer.running_var = rng.uniform(0.05, 0.5, c)
            layer.running_var[1] = 0.0
    x = rng.normal(0.5, 0.3, (256, *spec.input_shape))
    logits = layer_walk(net, x)
    net.layers[-1].w *= 1.5 / np.abs(logits - logits.mean(1, keepdims=True)).max()
    return net


# the paper's spec; a 50x10 input, whose block 2 sees 25x5 and drops a row and a
# column; and kernels of side 1 and 5, which pad by 0 and 2
FOLDED_SPECS = [image_model_spec(3), *(replace(image_model_spec(3), **kw) for kw in (
    {"input_shape": (50, 10, 1)}, {"kernel": 1}, {"kernel": 5}))]


@pytest.mark.parametrize("seed", [0, 1, 2])
# PROBA_CHUNK + 1 ends in a one-window chunk; 257 spans several chunks and a ragged tail
@pytest.mark.parametrize("n", [1, 2, PROBA_CHUNK + 1, 257])
def test_folded_inference_matches_the_layer_walk(seed, n):
    for spec in FOLDED_SPECS:
        net = awkward_cnn(seed, spec)
        x = np.random.default_rng([seed, n]).normal(0.5, 0.3, (n, *spec.input_shape))
        reference = softmax(layer_walk(net, x))
        assert reference.min() > 1e-3, spec  # no class is saturated, so a wrong block shows in p
        for p in (net.predict_proba(x), _batched_proba(net, x, threads=2)):
            assert np.abs(p - reference).max() <= 1e-12, spec
            assert np.array_equal(p.argmax(1), reference.argmax(1)), spec


def unfused_block(x, kernels, bn):
    """The folded block as separate steps: conv with the scaled kernels, pool, shift, ReLU."""
    scale, shift = bn.folded()
    y, _ = _conv_forward(x, kernels * scale[:, None, None, None])
    return np.maximum(_pool_max(y)[0] + shift, 0.0)


@pytest.mark.parametrize("h, w, c_in, c_out", [(50, 8, 1, 16), (25, 4, 16, 32), (12, 2, 32, 64)])
def test_folded_block_gives_the_bytes_of_the_unfused_steps(h, w, c_in, c_out):
    """Pool-cell-order rows give the bytes of conv then pool on the paper's three
    block shapes, at every batch size up to a 120 s stream's 391 windows and beyond."""
    rng = np.random.default_rng([h, w])
    kernels = rng.normal(0, 0.3, (c_out, 3, 3, c_in))
    gamma = rng.uniform(0.5, 1.5, c_out) * np.where(np.arange(c_out) % 3 == 0, -1.0, 1.0)
    bn = BatchNorm(gamma, rng.normal(0, 0.3, c_out), rng.normal(0, 0.3, c_out), rng.uniform(0.05, 0.5, c_out))
    x = rng.normal(0.5, 0.3, (400, h, w, c_in))
    for n in range(1, 401):
        assert _folded_block(x[:n], kernels, bn).tobytes() == unfused_block(x[:n], kernels, bn).tobytes(), n


def test_folded_block_rejects_what_the_layers_reject():
    bn = BatchNorm(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
    with pytest.raises(InputTooSmallError):
        _folded_block(np.zeros((2, 1, 8, 1)), np.zeros((4, 3, 3, 1)), bn)
    with pytest.raises(ShapeMismatchError):
        _folded_block(np.zeros((2, 4, 4, 2)), np.zeros((4, 3, 3, 1)), bn)
    with pytest.raises(ShapeMismatchError):
        _folded_block(np.zeros((2, 4, 4, 1)), np.zeros((4, 2, 3, 1)), bn)


@pytest.mark.parametrize("spec", [image_model_spec(2), vector_model_spec(5)], ids=["cnn", "fc"])
def test_gradients_pair_with_parameters_by_name(spec):
    rng = np.random.default_rng(25)
    x = rng.normal(0.5, 0.2, (4, *spec.input_shape))
    y = np.arange(4) % spec.n_classes
    net, _ = train(spec, x, y, TrainConfig(epochs=1, batch_size=4, seed=6))  # one step
    params, grads = net.parameters(), net.gradients()
    assert [name for name, _ in grads] == [name for name, _ in params] != []
    assert all(g.shape == p.shape for (_, p), (_, g) in zip(params, grads))


@pytest.mark.parametrize("spec", [image_model_spec(3), vector_model_spec(5)], ids=["cnn", "fc"])
def test_network_backward_skips_only_the_input_gradient(spec):
    rng = np.random.default_rng(26)
    net = build_network(spec, seed=16)
    x = rng.normal(0.5, 0.2, (4, *spec.input_shape))
    _, dlogits = softmax_cross_entropy(net.forward(x, train=True), np.arange(4) % spec.n_classes)
    assert net.backward(dlogits) is None
    skipped = [(name, g.tobytes()) for name, g in net.gradients()]
    # the same backward with the first layer's input gradient computed as well
    net.layers[0].input_grad = True
    grad = dlogits
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    assert grad.shape == x.shape and np.isfinite(grad).all()
    assert [(name, g.tobytes()) for name, g in net.gradients()] == skipped


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    x, y = separable_vector_dataset(rng, n=30)
    net, _ = train(vector_model_spec(2), x, y, TrainConfig(epochs=2, seed=5))
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path, config_hash="abc")
    assert json.loads(path.read_text())["version"] == 3
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.predict_proba(x), net.predict_proba(x))
    for (na, a), (nb, b) in zip(net.parameters(), loaded.parameters()):
        assert na == nb and np.array_equal(a, b)


def test_checkpoint_missing_and_mismatch(tmp_path):
    with pytest.raises(MissingCheckpointError):
        load_checkpoint(tmp_path / "none.json")
    net = build_network(vector_model_spec(2), seed=1)
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    good = json.loads(path.read_text())
    doc = json.loads(path.read_text())
    doc["spec"]["n_classes"] = 3  # state arrays no longer fit the spec
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(path)
    for broken in ("{broken", "[]", json.dumps({**good, "version": 4}), json.dumps({**good, "version": True}),
                   json.dumps({**good, "version": 2.0}), json.dumps({**good, "spec": {"kind": "fc"}}),
                   json.dumps({**good, "state": {**good["state"], "9.w": good["state"]["7.b"]}})):  # unused array
        path.write_text(broken)
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)
    # sizes that cannot build a network
    for key, value in [("hidden_units", -1), ("input_shape", [-1]), ("input_shape", [0]), ("conv_filters", [16, 0, 64]),
                       ("kernel", 2), ("kernel", -1)]:
        path.write_text(json.dumps({**good, "spec": {**good["spec"], key: value}}))
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)
    # sizes no state array fits, which must fail before anything of that size is allocated
    save_checkpoint(build_network(image_model_spec(2), seed=1), tmp_path / "cnn.json")
    cnn = json.loads((tmp_path / "cnn.json").read_text())
    for doc, key, value in [(good, "hidden_layers", 10**400), (good, "hidden_units", 10**9), (good, "input_shape", [10**9]),
                            (cnn, "conv_filters", [16, 10**9, 64]), (cnn, "input_shape", [10**9, 8, 1]),
                            (cnn, "input_shape", [50, 10**9, 1])]:
        path.write_text(json.dumps({**doc, "spec": {**doc["spec"], key: value}}))
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)
    # malformed version-3 arrays; 7.b holds 2 floats, 16 bytes
    b16 = good["state"]["7.b"]["f64le"]
    for entry in [[0.0, 0.0], b16, None, {"shape": [2]}, {"f64le": b16}, {"shape": [2], "f64le": b16, "dtype": "<f8"},
                  {"shape": [2], "f64le": 16}, {"shape": [2], "f64le": [b16]}, {"shape": [2], "f64le": "!" + b16},
                  {"shape": [2], "f64le": b16[:-2]}, {"shape": [2], "f64le": b16[:8] + " " + b16[8:]},
                  {"shape": [2], "f64le": "é" + b16[1:]}, {"shape": [3], "f64le": b16}, {"shape": [2], "f64le": b16[:12]},
                  {"shape": [1], "f64le": b16}, {"shape": [2.0], "f64le": b16},
                  {"shape": [True, 2], "f64le": b16}, {"shape": ["2"], "f64le": b16}, {"shape": 2, "f64le": b16},
                  {"shape": [10**400], "f64le": b16}, {"shape": [10**400, 0], "f64le": ""}]:
        path.write_text(json.dumps({**good, "state": {**good["state"], "7.b": entry}}))
        with pytest.raises(CheckpointMismatchError, match=r"state\.7\.b"):
            load_checkpoint(path)
    path.write_text(json.dumps({**good, "state": {**good["state"], "7.b": {"shape": [-1, -2], "f64le": b16}}}))
    with pytest.raises(CheckpointMismatchError, match=r"16 bytes do not fit shape \[-1, -2\]"):
        load_checkpoint(path)
    path.write_text(json.dumps(good))
    assert np.array_equal(load_checkpoint(path).layers[7].b, net.layers[7].b)


@pytest.mark.parametrize("version", [2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_with_a_non_finite_array_is_refused(tmp_path, version, value):
    net = build_network(vector_model_spec(2), seed=1)
    net.layers[7].b[1] = value
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    if version == 2:
        doc = json.loads(path.read_text())
        doc["version"], doc["state"] = 2, {name: arr.tolist() for name, arr in net.arrays()}
        path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointMismatchError, match=r"ckpt\.json: 7\.b: non-finite values$"):
        load_checkpoint(path)


@pytest.mark.parametrize("spec", [image_model_spec(3), vector_model_spec(5)], ids=["cnn", "fc"])
def test_checkpoint_versions_2_and_3_load_to_equal_arrays(tmp_path, spec):
    net = build_network(spec, seed=3)
    rng = np.random.default_rng(27)
    for _, arr in net.arrays():  # awkward values: a full-precision draw, then -0.0, tiny, huge and subnormal
        arr[...] = rng.normal(0, 1, arr.shape)
        arr.flat[:5] = [-0.0, 5e-324, 1e300, -2.0**-1074, 0.1][: arr.size]
    save_checkpoint(net, tmp_path / "v3.json")
    doc = json.loads((tmp_path / "v3.json").read_text())
    doc["version"] = 2
    doc["state"] = {name: arr.tolist() for name, arr in net.arrays()}
    (tmp_path / "v2.json").write_text(json.dumps(doc))
    want = [(name, arr.dtype, arr.shape, arr.tobytes()) for name, arr in net.arrays()]
    for version in ("v2", "v3"):
        loaded = load_checkpoint(tmp_path / f"{version}.json")
        assert [(name, arr.dtype, arr.shape, arr.tobytes()) for name, arr in loaded.arrays()] == want, version
        assert all(arr.flags.writeable and arr.flags.c_contiguous for _, arr in loaded.arrays())


def test_checkpoint_version_1_folds_conv_bias_into_running_mean(tmp_path):
    rng = np.random.default_rng(23)
    net = build_network(image_model_spec(3), seed=16)
    biases = {}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Conv2D):
            biases[i] = rng.normal(0, 0.5, layer.kernels.shape[0])
        elif isinstance(layer, BatchNorm):
            layer.gamma[...] = rng.normal(1, 0.2, layer.gamma.shape)
            layer.beta[...] = rng.normal(0, 0.2, layer.beta.shape)
            layer.running_mean = rng.normal(0, 0.5, layer.running_mean.shape)
            layer.running_var = rng.uniform(0.5, 2.0, layer.running_var.shape)
    x = rng.normal(0.5, 0.2, (5, 50, 8, 1))
    out = x
    for i, layer in enumerate(net.layers):  # the version-1 forward pass: conv plus bias
        out = conv2d(out, layer.kernels, biases[i]) if i in biases else layer.forward(out, train=False)
    reference = softmax(out)
    assert np.abs(net.predict_proba(x) - reference).max() > 1e-3  # the biases matter

    # a version-1 file is a version-2 file plus one bias per convolution
    path = tmp_path / "v1.json"
    save_checkpoint(net, path)
    doc = json.loads(path.read_text())
    doc["version"] = 1
    doc["state"] = {name: arr.tolist() for name, arr in net.arrays()}
    doc["state"].update({f"{i}.bias": b.tolist() for i, b in biases.items()})
    path.write_text(json.dumps(doc))
    loaded = load_checkpoint(path)
    assert np.abs(loaded.predict_proba(x) - reference).max() <= 1e-12
    for i in biases:
        assert np.array_equal(loaded.layers[i + 1].running_mean, net.layers[i + 1].running_mean - biases[i])

    del doc["state"]["4.bias"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(path)
