"""Minimal double-precision neural network stack with manual backpropagation.

Two architectures are supported: a 3-block CNN (16/32/64 same-padded 3x3
convolutions without bias, each with batchnorm, ReLU and 2x2 max-pooling, then
dropout and a single dense output layer) for 50x8x1 image inputs, and a
4-layer dense network (three 128-unit hidden layers with ReLU, dropout, dense
output) for 16-dim vector inputs.  Every layer's backward pass is verified
against central finite differences by ``gradient_check``.  CNN inference runs
each conv, batchnorm, ReLU and pool block as one folded step.
"""

from __future__ import annotations

import base64
import copy
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import (
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
from .typed import from_json, read_json

# ---------------------------------------------------------------------------
# functional ops
# ---------------------------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max is subtracted before exp)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch plus the gradient w.r.t. the logits.

    The combined softmax+CE gradient is (p - y) / batch.
    """
    probs = softmax(logits)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation plus a per-output-channel bias.

    ``x`` is (H, W, C_in) or (N, H, W, C_in); ``kernels`` is
    (C_out, kh, kw, C_in) with odd kh/kw; output keeps the spatial size.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 3
    xb = x[None] if single else x
    y = _conv_forward(xb, np.asarray(kernels, dtype=np.float64))[0] + np.asarray(bias, dtype=np.float64)
    return y[0] if single else y


def maxpool2(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 max; trailing odd row/column is dropped."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 3
    y = MaxPool2().forward(x[None] if single else x, train=False)
    return y[0] if single else y


# ---------------------------------------------------------------------------
# batched layer internals
# ---------------------------------------------------------------------------


def _padded(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """``x`` zero-padded by half of each odd kernel side: np.pad's bytes, without its per-call overhead."""
    (n, h, w, c_in), (_, kh, kw, kc) = x.shape, kernels.shape
    if kc != c_in:
        raise ShapeMismatchError(f"kernel expects {kc} input channels, input has {c_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError("same padding requires odd kernel sides")
    padded = np.zeros((n, h + kh - 1, w + kw - 1, c_in))
    padded[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = x
    return padded


def _conv_forward(x: np.ndarray, kernels: np.ndarray):
    n, h, w, c_in = x.shape
    c_out, kh, kw, _ = kernels.shape
    view = sliding_window_view(_padded(x, kernels), (kh, kw), axis=(1, 2))
    # view: (N, H, W, C_in, kh, kw) -> columns (N*H*W, kh*kw*C_in)
    cols = view.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, kh * kw * c_in)
    wmat = kernels.transpose(1, 2, 3, 0).reshape(kh * kw * c_in, c_out)
    y = (cols @ wmat).reshape(n, h, w, c_out)
    return y, cols


def _conv_backward(dy: np.ndarray, cols: np.ndarray, x_shape, kernels: np.ndarray, input_grad: bool):
    """The input gradient (None unless ``input_grad``) and the kernel gradient."""
    n, h, w, c_in = x_shape
    c_out, kh, kw, _ = kernels.shape
    ph, pw = kh // 2, kw // 2
    dy_flat = dy.reshape(n * h * w, c_out)
    dwmat = cols.T @ dy_flat
    dkernels = dwmat.reshape(kh, kw, c_in, c_out).transpose(3, 0, 1, 2)
    if not input_grad:
        return None, dkernels
    wmat = kernels.transpose(1, 2, 3, 0).reshape(kh * kw * c_in, c_out)
    dcols = (dy_flat @ wmat.T).reshape(n, h, w, kh, kw, c_in)
    # tap (i, j) of output (r, c) reads input (r + i - ph, c + j - pw); taps
    # that fall in the padding are dropped, and every input cell sums its
    # taps in the same (i, j) order as a padded buffer would
    dx = np.zeros((n, h, w, c_in))
    for i in range(kh):
        r0, r1 = max(ph - i, 0), min(h + ph - i, h)  # the dy rows whose tap i is inside
        for j in range(kw):
            c0, c1 = max(pw - j, 0), min(w + pw - j, w)
            if r0 < r1 and c0 < c1:
                dx[:, r0 + i - ph : r1 + i - ph, c0 + j - pw : c1 + j - pw] += dcols[:, r0:r1, c0:c1, i, j]
    return dx, dkernels


def _pool_cells(x: np.ndarray) -> list[np.ndarray]:
    """(N, H, W, C) -> the four cells of every 2x2 block in row-major order,
    each a strided (N, H//2, W//2, C) view; a trailing odd row/column is dropped."""
    h, w = x.shape[1:3]
    if h < 2 or w < 2:
        raise InputTooSmallError(f"maxpool2 needs H, W >= 2, got {h}x{w}")
    return [x[:, i : h - h % 2 : 2, j : w - w % 2 : 2, :] for i in (0, 1) for j in (0, 1)]


def _pool_max(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The 2x2 max-pool of (N, H, W, C), and the four cells it took the max over."""
    c0, c1, c2, c3 = cells = _pool_cells(x)
    return np.maximum(np.maximum(c0, c1), np.maximum(c2, c3)), cells


def _folded_block(x: np.ndarray, kernels: np.ndarray, bn: BatchNorm) -> np.ndarray:
    """Conv2D -> BatchNorm -> ReLU -> MaxPool2 at inference, as one step.

    BatchNorm's scale s goes into the kernels and its shift is added after the
    pool, followed by ReLU in place.  Pooling first is exact: z -> max(fl(z +
    shift), 0) never decreases as z grows, so it commutes with the max, and a
    negative s is already in the kernels.  Only the fold, conv(x, k * s) for
    conv(x, k) * s, reassociates.

    The im2col rows come in pool-cell order (2 di + dj, n, r2, c2) for output
    pixel (2 r2 + di, 2 c2 + dj): the pool runs over four contiguous slabs, and
    the rows it drops are never computed.  Each output is the dot product and
    max of conv then ``_pool_max``, so the bytes match where BLAS rounds a row
    alike anywhere, as OpenBLAS does in whole 4-row tiles (4 n (H//2) (W//2) rows).
    """
    n, h, w, c_in = x.shape
    if h < 2 or w < 2:
        raise InputTooSmallError(f"maxpool2 needs H, W >= 2, got {h}x{w}")
    scale, shift = bn.folded()
    c_out, kh, kw, _ = kernels.shape
    padded = _padded(x, kernels)
    sn, sr, sc, sk = padded.strides
    # view[di, dj, b, r2, c2, i, j, c] = padded[b, 2 r2 + di + i, 2 c2 + dj + j, c]
    view = as_strided(padded, (2, 2, n, h // 2, w // 2, kh, kw, c_in), (sr, sc, sn, 2 * sr, 2 * sc, sr, sc, sk))
    wmat = (kernels * scale[:, None, None, None]).transpose(1, 2, 3, 0).reshape(kh * kw * c_in, c_out)
    y = (view.reshape(-1, kh * kw * c_in) @ wmat).reshape(*view.shape[:5], c_out)
    out = np.maximum(np.maximum(y[0, 0], y[0, 1], out=y[0, 0]), np.maximum(y[1, 0], y[1, 1], out=y[1, 0]), out=y[0, 0])
    out += shift
    return np.maximum(out, 0.0, out=out)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


class Layer:
    """One step of a Network.

    ``forward(x, train)`` returns the layer's output and keeps what
    ``backward(dy)`` needs only when ``train`` is true, so inference writes
    nothing to a layer and several threads may share one network.
    ``backward`` follows a training forward.  ``PARAMS`` names the trained
    arrays, whose gradients ``backward`` sets as ``d_<name>``, and ``STATE``
    the other arrays a checkpoint holds; each is an attribute and a constructor argument.
    A layer whose ``input_grad`` is false may skip the gradient of its input
    and return None from ``backward``; a Network sets it on its first layer.
    """

    PARAMS: tuple[str, ...] = ()
    STATE: tuple[str, ...] = ()
    input_grad = True


class Conv2D(Layer):
    """Same-padded convolution without a bias: every conv here feeds a
    BatchNorm, whose batch-mean subtraction cancels any per-channel constant."""

    PARAMS = ("kernels",)

    def __init__(self, kernels: np.ndarray):
        self.kernels = kernels  # (C_out, kh, kw, C_in)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        y, cols = _conv_forward(x, self.kernels)
        if train:
            self._cache = (cols, x.shape)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        cols, x_shape = self._cache
        dx, self.d_kernels = _conv_backward(dy, cols, x_shape, self.kernels, self.input_grad)
        return dx


class Dense(Layer):
    PARAMS = ("w", "b")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = w, b  # w is (n_out, n_in)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if x.shape[-1] != self.w.shape[1]:
            raise ShapeMismatchError(f"input width {x.shape[-1]} != {self.w.shape[1]}")
        if train:
            self._x = x
        return x @ self.w.T + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        self.d_w = dy.T @ self._x
        self.d_b = dy.sum(axis=0)
        return dy @ self.w if self.input_grad else None


class ReLU(Layer):
    """max(0, x); a training forward keeps ``mask``, where x >= 0."""

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            self.mask = x >= 0.0
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self.mask


class MaxPool2(Layer):
    """2x2 max-pool; a training forward keeps ``argmax``, the cell of each block's max."""

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        y, (c0, c1, c2, _) = _pool_max(x)
        if train:  # argmax: 0 if c0 holds the max, else 1 if c1 does, ... (np.argmax's first-tie order)
            self.argmax, self._shape = (c0 != y) * (1 + (c1 != y) * (1 + (c2 != y))), x.shape
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = np.zeros(self._shape)
        for k, cell in enumerate(_pool_cells(dx)):
            cell[...] = np.where(self.argmax == k, dy, 0.0)
        return dx


class BatchNorm(Layer):
    """Channel-wise batch normalization over all leading axes.

    Train mode normalizes by batch statistics and updates running statistics
    with momentum 0.9; infer mode is the affine map ``folded`` gives from the
    running statistics, which a CNN folds into the conv before it.  Train mode
    takes each per-channel mean over the m rows of the leading axes as one BLAS
    product with ``ones`` = 1/m, and reuses its buffers in place.  The backward
    pass is the full batch-coupled gradient of a training forward in closed form
    (Ioffe & Szegedy 2015).
    """

    PARAMS = ("gamma", "beta")
    STATE = ("running_mean", "running_var")

    def __init__(self, gamma, beta, running_mean, running_var, eps: float = 1e-5, momentum: float = 0.9):
        self.gamma, self.beta = gamma, beta
        self.running_mean, self.running_var = running_mean, running_var
        self.eps = eps
        self.momentum = momentum

    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """Inference as ``x * s + shift``: s = gamma / sqrt(running_var + eps)
        and shift = beta - running_mean * s."""
        s = self.gamma / np.sqrt(self.running_var + self.eps)
        return s, self.beta - self.running_mean * s

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if not train:
            s, shift = self.folded()
            return x * s + shift
        if x.shape[0] < 2:
            raise BatchTooSmallError(f"batchnorm needs batch >= 2, got {x.shape[0]}")
        flat = x.reshape(-1, x.shape[-1])
        ones = np.full(len(flat), 1.0 / len(flat))
        mean = ones @ flat
        xhat = flat - mean
        # corrected two-pass: the mean of the centered input is what rounding left
        # in ``mean``, which a channel's offset over its spread would amplify
        rest = ones @ xhat
        out = np.square(xhat)
        var = ones @ out - rest * rest
        self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * (mean + rest)
        self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat -= rest
        xhat *= inv
        self._cache = (xhat, inv, ones)
        np.multiply(xhat, self.gamma, out=out)  # into the buffer of the squares, now read
        out += self.beta
        return out.reshape(x.shape)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """(inv * gamma) * (dy - mean(dy) - xhat * mean(dy * xhat)), built in one buffer."""
        xhat, inv, ones = self._cache
        flat = dy.reshape(xhat.shape)
        mean_dy = ones @ flat
        dx = flat * xhat
        mean_dy_xhat = ones @ dx
        self.d_gamma, self.d_beta = len(ones) * mean_dy_xhat, len(ones) * mean_dy
        np.multiply(xhat, mean_dy_xhat, out=dx)
        np.subtract(flat, dx, out=dx)
        dx -= mean_dy
        dx *= inv * self.gamma
        return dx.reshape(dy.shape)


class Dropout(Layer):
    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise InvalidRateError(f"dropout rate {rate} outside [0, 1)")
        self.rate = rate
        self.rng = rng

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if not train:
            return x
        # at rate 0 the mask is all ones, and x * 1.0 == x exactly
        self._mask = (self.rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


class Flatten(Layer):
    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._shape)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

CNN_KIND = "cnn"
FC_KIND = "fc"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; ``kind`` is "cnn" (image input) or "fc" (vector input)."""

    kind: str
    n_classes: int
    input_shape: tuple[int, ...]
    conv_filters: tuple[int, ...] = (16, 32, 64)
    kernel: int = 3
    hidden_units: int = 128
    hidden_layers: int = 3
    dropout_rate: float = 0.5
    bn_eps: float = 1e-5
    bn_momentum: float = 0.9

    def __post_init__(self):
        if self.kind not in (CNN_KIND, FC_KIND):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.kind == CNN_KIND and len(self.input_shape) != 3:
            raise ConfigError("cnn input must be (H, W, C)")
        if self.kind == FC_KIND and len(self.input_shape) != 1:
            raise ConfigError("fc input must be (D,)")
        if min((*self.input_shape, *self.conv_filters, self.hidden_units)) < 1:
            raise ConfigError("input_shape, conv_filters and hidden_units must be >= 1")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError("kernel must be odd and >= 1")


def image_model_spec(n_classes: int, dropout_rate: float = 0.5) -> ModelSpec:
    return ModelSpec(CNN_KIND, n_classes, (50, 8, 1), dropout_rate=dropout_rate)


def vector_model_spec(n_classes: int, dropout_rate: float = 0.5) -> ModelSpec:
    return ModelSpec(FC_KIND, n_classes, (16,), dropout_rate=dropout_rate)


class Network:
    """An ordered layer stack ending in class logits."""

    def __init__(self, spec: ModelSpec, layers: list):
        self.spec = spec
        self.layers = layers
        layers[0].input_grad = False  # nothing reads the gradient of the network's input

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """The logits; inference runs each conv block as one ``_folded_block``."""
        out = np.asarray(x, dtype=np.float64)
        layers = iter(self.layers)
        for layer in layers:
            if not train and isinstance(layer, Conv2D):  # _assemble follows it with BatchNorm, ReLU, MaxPool2
                bn, _, _ = next(layers), next(layers), next(layers)
                out = _folded_block(out, layer.kernels, bn)
            else:
                out = layer.forward(out, train)
        return out

    def backward(self, dlogits: np.ndarray) -> None:
        """Set every layer's parameter gradients from the logits' gradient.
        Returns None: the first layer computes no gradient of the input."""
        grad = dlogits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.forward(x, train=False))

    def _named(self, kind: str, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        """Each layer's ``prefix + name`` per name in its ``kind`` tuple, named "<layer index>.<name>"."""
        return [
            (f"{i}.{name}", getattr(layer, prefix + name))
            for i, layer in enumerate(self.layers)
            for name in getattr(layer, kind)
        ]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return self._named("PARAMS")

    def gradients(self) -> list[tuple[str, np.ndarray]]:
        return self._named("PARAMS", "d_")

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Parameters followed by running statistics: the contents of a checkpoint."""
        return self._named("PARAMS") + self._named("STATE")


def _assemble(spec: ModelSpec, take, seed: int) -> Network:
    """The one walk over a spec: ``make`` takes a layer's ``PARAMS`` then ``STATE``
    arrays, in order, from ``take(layer index, name, shape, fill)``, given a (shape,
    fill) each, where ``fill`` is the initial value and None is a Glorot-uniform draw."""
    layers: list = []

    def make(cls, *shape_fills: tuple, **options) -> Layer:
        named = zip(cls.PARAMS + cls.STATE, shape_fills, strict=True)
        return cls(**{name: take(len(layers), name, *sf) for name, sf in named}, **options)

    if spec.kind == CNN_KIND:
        h, w, c = spec.input_shape
        for filters in spec.conv_filters:
            ch = (filters,)
            layers.append(make(Conv2D, ((filters, spec.kernel, spec.kernel, c), None)))
            layers.append(make(BatchNorm, (ch, 1.0), (ch, 0.0), (ch, 0.0), (ch, 1.0),
                               eps=spec.bn_eps, momentum=spec.bn_momentum))
            layers += [ReLU(), MaxPool2()]
            h, w, c = h // 2, w // 2, filters
        layers.append(Flatten())
        d = h * w * c
    else:
        d = spec.input_shape[0]
        for _ in range(spec.hidden_layers):
            layers += [make(Dense, ((spec.hidden_units, d), None), ((spec.hidden_units,), 0.0)), ReLU()]
            d = spec.hidden_units
    layers.append(Dropout(spec.dropout_rate, np.random.default_rng([seed, 1])))
    layers.append(make(Dense, ((spec.n_classes, d), None), ((spec.n_classes,), 0.0)))
    return Network(spec, layers)


def build_network(spec: ModelSpec, seed: int = 0) -> Network:
    """Create a network with seeded Glorot-uniform weights and zero biases."""
    init_rng = np.random.default_rng([seed, 0])

    def draw(i: int, name: str, shape: tuple, fill: float | None) -> np.ndarray:
        if fill is not None:
            return np.full(shape, fill)
        # Glorot over (out, *receptive field, in): fan_in + fan_out = field * (out + in)
        limit = np.sqrt(6.0 / (math.prod(shape[1:-1]) * (shape[0] + shape[-1])))
        return init_rng.uniform(-limit, limit, shape)

    return _assemble(spec, draw, seed)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 30
    dropout_rate: float = 0.5
    seed: int = 0
    bn_eps: float = 1e-5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


class SGD:
    """Momentum SGD over a network's parameter arrays."""

    def __init__(self, net: Network, learning_rate: float, momentum: float):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocities = [np.zeros_like(arr) for _, arr in net.parameters()]

    def step(self, net: Network) -> None:
        """In place: v <- mu v - lr g; theta <- theta + v."""
        for (_, p), (_, g), v in zip(net.parameters(), net.gradients(), self.velocities):
            v *= self.momentum
            v -= self.learning_rate * g
            p += v


def train(
    spec: ModelSpec, x: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> tuple[Network, list[float]]:
    """Mini-batch momentum-SGD training with seeded per-epoch shuffling.

    Returns the trained network and the per-epoch mean loss.  Deterministic
    for a fixed seed and OpenBLAS thread count.  A trailing batch of one
    sample is skipped (batch statistics need >= 2 samples).  An epoch whose
    mean loss is not finite raises DataError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(x) == 0:
        raise EmptyDatasetError("no training samples")
    if len(x) != len(y):
        raise ShapeMismatchError(f"{len(x)} samples vs {len(y)} labels")
    if y.min() < 0 or y.max() >= spec.n_classes:
        raise LabelOutOfRangeError(f"labels must lie in [0, {spec.n_classes})")

    spec = replace(spec, dropout_rate=cfg.dropout_rate, bn_eps=cfg.bn_eps)
    net = build_network(spec, seed=cfg.seed)
    opt = SGD(net, cfg.learning_rate, cfg.momentum)
    shuffle_rng = np.random.default_rng([cfg.seed, 2])

    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(x))
        total, seen = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            if len(idx) < 2:
                continue
            logits = net.forward(x[idx], train=True)
            loss, dlogits = softmax_cross_entropy(logits, y[idx])
            net.backward(dlogits)
            opt.step(net)
            total += loss * len(idx)
            seen += len(idx)
        if seen == 0:
            raise BatchTooSmallError("need at least 2 samples to train")
        losses.append(total / seen)
        if not math.isfinite(losses[-1]):
            raise DataError(f"training diverged: epoch {epoch} has mean loss {losses[-1]}")
    return net, losses


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def gradient_check(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    *,
    step: float = 1e-5,
    max_per_param: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between backprop and central finite differences.

    The check runs on a copy of ``net`` with every dropout rate set to 0, and
    batchnorm held in train (batch-statistics) mode, so the loss is a
    deterministic function of the parameters and ``net`` is left as it was.
    Arrays larger than ``max_per_param`` are subsampled.  Relative error uses
    |a - n| / max(|a|, |n|, 1e-6).

    A central difference only estimates the derivative where the loss is
    smooth across [theta - h, theta + h]; a perturbation that flips a ReLU
    sign or a pooling argmax puts a kink inside that bracket.  Indices whose
    two evaluations give different ReLU masks or pooling argmaxes are skipped;
    a wrong-but-smooth backward pass leaves those untouched, so real gradient
    bugs are not masked.  Perturbing an array of layer k reruns only layers k
    onward, from layer k's unperturbed input.  That is exact: no layer writes
    into its input, and no running statistic or rate-0 dropout draw enters the loss.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    net = copy.deepcopy(net)
    for layer in net.layers:
        if isinstance(layer, Dropout):
            layer.rate = 0.0
    pick_rng = np.random.default_rng([seed, 3])

    inputs = [x]  # inputs[k] is layer k's input, inputs[-1] the logits
    for layer in net.layers:
        inputs.append(layer.forward(inputs[-1], train=True))
    _, dlogits = softmax_cross_entropy(inputs[-1], y)
    net.backward(dlogits)

    def loss_and_kinks(k: int) -> tuple[float, list[np.ndarray]]:
        out = inputs[k]
        for layer in net.layers[k:]:
            out = layer.forward(out, train=True)
        kinks = [layer.mask if isinstance(layer, ReLU) else layer.argmax
                 for layer in net.layers[k:] if isinstance(layer, (ReLU, MaxPool2))]
        return softmax_cross_entropy(out, y)[0], kinks

    worst = 0.0
    for k, layer in enumerate(net.layers):
        for name in layer.PARAMS:
            flat = getattr(layer, name).reshape(-1)
            a_flat = getattr(layer, "d_" + name).reshape(-1)  # no later call runs backward
            n_vals = flat.shape[0]
            if n_vals > max_per_param:
                indices = pick_rng.choice(n_vals, size=max_per_param, replace=False)
            else:
                indices = np.arange(n_vals)
            for i in indices:
                orig = flat[i]
                flat[i] = orig + step
                up, kinks_up = loss_and_kinks(k)
                flat[i] = orig - step
                down, kinks_down = loss_and_kinks(k)
                flat[i] = orig
                if not all(np.array_equal(a, b) for a, b in zip(kinks_up, kinks_down)):
                    continue  # kink inside the bracket
                numeric = (up - down) / (2.0 * step)
                a = a_flat[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
                worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class _Array:
    """A version-3 checkpoint array: its shape and the base64 of its little-endian float64 bytes."""

    shape: tuple[int, ...]
    f64le: str


def _encode(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "f64le": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}


def _decode(entry, where: str) -> np.ndarray:
    """The array of a version-3 entry; ConfigError, naming ``where``, if it is malformed."""
    arr = from_json(_Array, entry, ConfigError, where)
    try:
        raw = base64.b64decode(arr.f64le, validate=True)  # a binascii.Error is a ValueError
        if min(arr.shape, default=0) < 0 or len(raw) != 8 * math.prod(arr.shape):
            raise ValueError(f"{len(raw)} bytes do not fit shape {list(arr.shape)}")
        return np.frombuffer(raw, "<f8").reshape(arr.shape).astype(np.float64)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def save_checkpoint(net: Network, path, *, config_hash: str | None = None, meta: dict | None = None) -> None:
    """Write a JSON checkpoint: spec echo plus ``net.arrays()``, each stored exactly
    as its shape and the base64 of its little-endian float64 bytes."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "spec": asdict(net.spec),
        "state": {name: _encode(arr) for name, arr in net.arrays()},
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_checkpoint(path) -> Network:
    """Rebuild a network from a checkpoint, checking each array against the
    spec before the next layer is built, so a spec alone allocates nothing.

    Reads version 3 and the older versions 2 and 1, which store each array as
    nested lists of floats.  A version-1 conv bias b only shifts the BatchNorm
    input it feeds: ``(y + b) - rm == y - (rm - b)``, so b is folded into the
    running mean, equal up to rounding.
    """
    p = Path(path)
    doc = read_json(p, CheckpointMismatchError, MissingCheckpointError)
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in (1, 2, CHECKPOINT_VERSION):
        raise CheckpointMismatchError(f"unsupported checkpoint version {version}")
    try:
        spec = from_json(ModelSpec, doc.get("spec"), ConfigError, "spec")
        entries = doc.get("state", {}).items()
        if version == CHECKPOINT_VERSION:
            state = {name: _decode(entry, f"state.{name}") for name, entry in entries}
        else:
            state = {name: np.asarray(arr, dtype=np.float64) for name, arr in entries}
    except (ConfigError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointMismatchError(f"{p}: {exc}") from None

    def take(i: int, name: str, shape: tuple, fill: float | None) -> np.ndarray:
        arr = state.pop(f"{i}.{name}", None)
        if arr is None or arr.shape != shape:
            found = "no array" if arr is None else f"shape {arr.shape}"
            raise CheckpointMismatchError(f"{p}: {i}.{name}: {found} where the spec needs {shape}")
        if version == 1 and name == "running_mean":
            arr = arr - take(i - 1, "bias", shape, None)
        if not np.isfinite(arr).all():
            raise CheckpointMismatchError(f"{p}: {i}.{name}: non-finite values")
        return arr

    net = _assemble(spec, take, seed=0)
    if state:
        raise CheckpointMismatchError(f"{p}: array {next(iter(state))} is not in the spec")
    return net
