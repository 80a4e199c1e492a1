"""Minimal double-precision neural network stack with manual backpropagation.

Two architectures are supported: a 3-block CNN (16/32/64 same-padded 3x3
convolutions without bias, each with batchnorm, 2x2 max-pooling and ReLU, then
dropout and a single dense output layer) for 50x8x1 image inputs, and a
4-layer dense network (three 128-unit hidden layers with ReLU, dropout, dense
output) for 16-dim vector inputs.  Every layer's backward pass is verified
against central finite differences by ``gradient_check``.  Every convolution
is one GEMM of row bands and banded weights (``_row_bands``, ``_band_weights``).
``Network.fold`` gives the network for inference, built once per scoring pass:
each conv, batchnorm, pool and ReLU block becomes one ``FoldedBlock`` layer,
whose bands have their columns in pool-cell order, in two column halves where
W is a multiple of 4.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DataError
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
    y = _pool_max(x[None] if single else x)[0]
    return y[0] if single else y


# ---------------------------------------------------------------------------
# batched layer internals
# ---------------------------------------------------------------------------


# Rows per kernel-gradient product: the kernel gradient sums ``bands.T @ dy``
# over fixed slices of this many rows, in order.  A slice is shorter than one
# OpenBLAS K-block, so training gives the same bits at every BLAS thread count;
# one product over all rows did not, at most batch sizes.  At 1 BLAS thread and
# batch 32 the sliced gradient took 0.27-0.41/0.96-1.38/0.49-0.70 ms in blocks
# 1/2/3, unsliced 0.35-0.49/0.94-1.34/0.51-0.69 ms (three processes).
GRAD_ROWS = 256


def _row_bands(x: np.ndarray, kernels: np.ndarray, rows: int) -> np.ndarray:
    """The (N * rows, kh * W * C_in) bands of output rows 0 .. rows - 1, with only
    the rows padded: output row (b, r) reads padded rows r .. r + kh - 1 of sample
    b, one contiguous run of kh * W * C_in values, so the gather is a row copy."""
    (n, h, w, c_in), (_, kh, kw, kc) = x.shape, kernels.shape
    if kc != c_in:
        raise DataError(f"kernel expects {kc} input channels, input has {c_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise DataError("same padding requires odd kernel sides")
    padded = np.zeros((n, h + kh - 1, w, c_in))
    padded[:, kh // 2 : kh // 2 + h] = x
    sn, sr = padded.strides[:2]
    return as_strided(padded, (n, rows, kh * w * c_in), (sn, sr, padded.itemsize)).reshape(-1, kh * w * c_in)


def _band_slots(kw: int, w: int):
    """For each output column wo of a same-padded conv over rows of width W, in
    order: wo, the kernel columns j0 .. j1 - 1 that exist there, and the input
    columns wo + j - pw they read."""
    for wo in range(w):
        j0, j1 = max(0, kw // 2 - wo), min(kw, w + kw // 2 - wo)
        yield wo, slice(j0, j1), slice(wo + j0 - kw // 2, wo + j1 - kw // 2)


def _band_weights(kernels: np.ndarray, w: int) -> np.ndarray:
    """The (kh * W * C_in, W * C_out) banded matrix of a same-padded conv over
    rows of width W: entry ((i, w', c), (wo, co)) is ``kernels[co, i, w' - wo + pw, c]``
    where that kernel column exists, and 0 elsewhere."""
    c_out, kh, kw, c_in = kernels.shape
    band, taps = np.zeros((kh, w, c_in, w, c_out)), kernels.transpose(1, 2, 3, 0)
    for wo, js, cols in _band_slots(kw, w):
        band[:, cols, :, wo] = taps[:, js]
    return band.reshape(kh * w * c_in, w * c_out)


def _conv_forward(x: np.ndarray, kernels: np.ndarray):
    """The conv output, one GEMM of row bands and band weights, and the bands."""
    n, h, w, _ = x.shape
    bands = _row_bands(x, kernels, h)
    return (bands @ _band_weights(kernels, w)).reshape(n, h, w, len(kernels)), bands


def _conv_backward(dy: np.ndarray, bands: np.ndarray, x_shape, kernels: np.ndarray, input_grad: bool):
    """The input gradient (None unless ``input_grad``) and the kernel gradient."""
    n, h, w, c_in = x_shape
    c_out, kh, kw, _ = kernels.shape
    dy_rows = dy.reshape(n * h, w * c_out)
    dband = bands[:GRAD_ROWS].T @ dy_rows[:GRAD_ROWS]
    for lo in range(GRAD_ROWS, n * h, GRAD_ROWS):
        dband += bands[lo : lo + GRAD_ROWS].T @ dy_rows[lo : lo + GRAD_ROWS]
    dband, dkernels = dband.reshape(kh, w, c_in, w, c_out), np.zeros((kh, kw, c_in, c_out))
    for wo, js, cols in _band_slots(kw, w):  # fold the band over the output columns, in order
        dkernels[:, js] += dband[:, cols, :, wo]
    if not input_grad:
        return None, dkernels.transpose(3, 0, 1, 2)
    # band row (b, r) covers padded rows r .. r + kh - 1: kh contiguous slab adds
    dbands = (dy_rows @ _band_weights(kernels, w).T).reshape(n, h, kh, w * c_in)
    dx = np.zeros((n, h + kh - 1, w * c_in))
    for i in range(kh):
        dx[:, i : i + h] += dbands[:, :, i]
    return dx[:, kh // 2 : kh // 2 + h].reshape(x_shape), dkernels.transpose(3, 0, 1, 2)


def _pool_cells(x: np.ndarray) -> list[np.ndarray]:
    """(N, H, W, C) -> the four cells of every 2x2 block in row-major order,
    each a strided (N, H//2, W//2, C) view; a trailing odd row/column is dropped."""
    h, w = x.shape[1:3]
    if h < 2 or w < 2:
        raise DataError(f"maxpool2 needs H, W >= 2, got {h}x{w}")
    return [x[:, i : h - h % 2 : 2, j : w - w % 2 : 2, :] for i in (0, 1) for j in (0, 1)]


def _pool_max(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The 2x2 max-pool of (N, H, W, C), and the four cells it took the max over."""
    c0, c1, c2, c3 = cells = _pool_cells(x)
    top = np.maximum(c0, c1)
    return np.maximum(top, np.maximum(c2, c3), out=top), cells


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
        y, bands = _conv_forward(x, self.kernels)
        if train:
            self._cache = (bands, x.shape)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        bands, x_shape = self._cache
        dx, self.d_kernels = _conv_backward(dy, bands, x_shape, self.kernels, self.input_grad)
        return dx


class Dense(Layer):
    PARAMS = ("w", "b")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = w, b  # w is (n_out, n_in)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if x.shape[-1] != self.w.shape[1]:
            raise DataError(f"input width {x.shape[-1]} != {self.w.shape[1]}")
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
        if train:  # int8 argmax: 0 if c0 holds the max, else 1 if c1 does, ... (np.argmax's first-tie order)
            self.argmax, self._shape = (c0 != y) * (np.int8(1) + (c1 != y) * (np.int8(1) + (c2 != y))), x.shape
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
    product with ``ones`` = 1/m, and reuses its buffers in place.  It applies a
    per-channel vector to the per-sample rows, with the vector tiled once per
    pixel, not to the m rows of C channels: the same operation on the same
    operands in long inner loops.  The backward
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
            raise DataError(f"batchnorm needs batch >= 2, got {x.shape[0]}")
        c = x.shape[-1]
        flat = x.reshape(-1, c)
        ones = np.full(len(flat), 1.0 / len(flat))
        reps = len(flat) // len(x)  # pixels per sample
        mean = ones @ flat
        xhat = x.reshape(len(x), -1) - np.tile(mean, reps)
        # corrected two-pass: the mean of the centered input is what rounding left
        # in ``mean``, which a channel's offset over its spread would amplify
        rest = ones @ xhat.reshape(-1, c)
        out = np.square(xhat)
        var = ones @ out.reshape(-1, c) - rest * rest
        self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * (mean + rest)
        self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat -= np.tile(rest, reps)
        xhat *= np.tile(inv, reps)
        self._cache = (xhat, inv, ones)
        np.multiply(xhat, np.tile(self.gamma, reps), out=out)  # into the buffer of the squares, now read
        out += np.tile(self.beta, reps)
        return out.reshape(x.shape)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """(inv * gamma) * (dy - mean(dy) - xhat * mean(dy * xhat)), built in one buffer."""
        xhat, inv, ones = self._cache  # xhat holds the per-sample rows
        c = len(inv)
        reps = xhat.shape[1] // c
        rows = dy.reshape(xhat.shape)
        mean_dy = ones @ rows.reshape(-1, c)
        dx = rows * xhat
        mean_dy_xhat = ones @ dx.reshape(-1, c)
        self.d_gamma, self.d_beta = len(ones) * mean_dy_xhat, len(ones) * mean_dy
        np.multiply(xhat, np.tile(mean_dy_xhat, reps), out=dx)
        np.subtract(rows, dx, out=dx)
        dx -= np.tile(mean_dy, reps)
        dx *= np.tile(inv * self.gamma, reps)
        return dx.reshape(dy.shape)


class Dropout(Layer):
    def __init__(self, rate: float, rng: np.random.Generator):
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


class FoldedBlock(Layer):
    """A Conv2D -> BatchNorm -> MaxPool2 -> ReLU block over rows of width W,
    folded for inference, which is all it runs: ``train`` is ignored and it
    has no backward.

    It holds the kernels scaled by BatchNorm's s, one ``(i0, i1, band)`` per
    group of output columns, and the shift.  The output columns the pool keeps
    (an odd W's last one is dropped) form one group over all W input columns,
    or two halves when W is a multiple of 4 and each half reads fewer than W
    columns.  A group's band holds only the rows of its input columns
    i0 .. i1 - 1, so a half skips the zeros of the full band, and its columns
    are in pool-cell order ``(dj, wo // 2, co)`` for output column
    wo = 2 * (wo // 2) + dj.
    """

    def __init__(self, conv: Conv2D, bn: BatchNorm, w: int):
        scale, self.shift = bn.folded()
        self.kernels = conv.kernels * scale[:, None, None, None]
        c_out, kh, kw, c_in = self.kernels.shape
        full, half, pw = _band_weights(self.kernels, w).reshape(kh, w, c_in, w, c_out), w // 2, kw // 2
        if w % 4 or pw >= half:
            spans = [(0, w, 0, w - w % 2)]
        else:
            spans = [(0, half + pw, 0, half), (half - pw, w, half, w)]
        self.groups = []
        for i0, i1, o0, o1 in spans:
            cells = full[:, i0:i1, :, o0:o1].reshape(-1, (o1 - o0) // 2, 2, c_out).transpose(0, 2, 1, 3)
            self.groups.append((i0, i1, cells.reshape(kh * (i1 - i0) * c_in, -1)))

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        """The block as one step.

        BatchNorm's scale s is in the kernels and its shift is added after the
        pool, followed by ReLU in place.  Pooling before the shift is exact: z ->
        fl(z + shift) never decreases as z grows, so it commutes with the max, and
        a negative s is already in the kernels.  Only the fold, conv(x, k * s) for
        conv(x, k) * s, reassociates.  Each group runs the training conv on its
        input columns and the rows the pool keeps; its pool-cell-ordered columns
        make each 2x2 cell one run of contiguous values, which ``_pool_max`` takes
        as the columns of a 2-wide image.  That gives the bytes of
        ``_conv_forward`` then ``_pool_max``: a group only leaves out products
        with the band's zeros.
        """
        n, h, w, _ = x.shape
        if h < 2 or w < 2:
            raise DataError(f"maxpool2 needs H, W >= 2, got {h}x{w}")
        if self.groups[-1][1] != w:
            raise DataError(f"input width {w} does not fit the folded block")
        pooled = []
        for i0, i1, band in self.groups:
            bands = _row_bands(x[:, :, i0:i1], self.kernels, h - h % 2)
            pooled.append(_pool_max((bands @ band).reshape(n, h - h % 2, 2, -1))[0])
        out = pooled[0] if len(pooled) == 1 else np.concatenate(pooled, axis=-1)
        out = out.reshape(n, h // 2, w // 2, len(self.kernels))
        out += self.shift
        return np.maximum(out, 0.0, out=out)


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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if not self.bn_eps > 0:
            raise ConfigError("bn_eps must be > 0")


def image_model_spec(n_classes: int) -> ModelSpec:
    return ModelSpec(CNN_KIND, n_classes, (50, 8, 1))


def vector_model_spec(n_classes: int) -> ModelSpec:
    return ModelSpec(FC_KIND, n_classes, (16,))


class Network:
    """An ordered layer stack ending in class logits."""

    def __init__(self, spec: ModelSpec, layers: list):
        self.spec = spec
        self.layers = layers
        layers[0].input_grad = False  # nothing reads the gradient of the network's input

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """The logits: each layer's own forward, in order."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, train)
        return out

    def backward(self, dlogits: np.ndarray) -> None:
        """Set every layer's parameter gradients from the logits' gradient.
        Returns None: the first layer computes no gradient of the input."""
        grad = dlogits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def fold(self) -> Network:
        """The network for inference, built once per scoring pass and kept nowhere
        else: each Conv2D -> BatchNorm -> MaxPool2 -> ReLU block (as ``_assemble``
        lays it out) as one FoldedBlock, every other layer as the same object.
        A fold holds no Conv2D, so folding it again gives the same layers."""
        layers, w = [], self.spec.input_shape[1] if self.spec.kind == CNN_KIND else 0
        it = iter(self.layers)
        for layer in it:
            if isinstance(layer, Conv2D):
                bn, _, _ = next(it), next(it), next(it)
                layers.append(FoldedBlock(layer, bn, w))
                w //= 2
            else:
                layers.append(layer)
        return Network(self.spec, layers)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities: the softmax of the inference logits.  On an
        unfolded network each layer runs its own inference forward; that is the
        reference ``fold().predict_proba``, which the detector calls, matches to
        within 1e-12."""
        return softmax(self.forward(x))

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
    fill) each, where ``fill`` is the initial value and None is a Glorot-uniform draw.

    A conv block pools before its ReLU, so the ReLU runs on a quarter of the
    values.  The output is that of ReLU then pool: x -> max(x, 0) never
    decreases as x grows, so it commutes with the 2x2 max.  So are the
    gradients, except where a pooled BatchNorm output is exactly +-0 and no cell
    of its block is positive: there the gradient reaches the block's first zero
    cell, where ReLU first sent it to the block's first cell and kept it only if
    that cell was zero."""
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
            layers += [MaxPool2(), ReLU()]
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
        if not self.bn_eps > 0:
            raise ConfigError("bn_eps must be > 0")


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
    for a fixed seed, at any OpenBLAS thread count.  A trailing batch of one
    sample is skipped (batch statistics need >= 2 samples).  An epoch whose
    mean loss is not finite raises DataError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(x) == 0:
        raise DataError("no training samples")
    if len(x) != len(y):
        raise DataError(f"{len(x)} samples vs {len(y)} labels")
    if y.min() < 0 or y.max() >= spec.n_classes:
        raise DataError(f"labels must lie in [0, {spec.n_classes})")

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
            raise DataError("need at least 2 samples to train")
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
    bugs are not masked.  The kinks follow the layer order: a CNN block's ReLU
    masks its pooled values, and its pool's argmaxes are taken before the ReLU,
    so the indices skipped, and so the error returned, differ at some seeds
    from a block that runs ReLU before the pool.  Perturbing an array of layer
    k reruns only layers k onward, from layer k's unperturbed input.  That is
    exact: no layer writes into its input, and no running statistic or rate-0
    dropout draw enters the loss.
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

CHECKPOINT_VERSION = 4


@dataclass(frozen=True)
class _Header:
    """A version-4 checkpoint header; ``arrays`` gives each array's shape in payload order."""

    version: int
    config_hash: str | None
    spec: ModelSpec
    arrays: dict[str, tuple[int, ...]]
    payload_sha256: str
    meta: dict


def _payload_arrays(p: Path, header: _Header) -> dict[str, np.ndarray]:
    """The arrays of a version-4 checkpoint, sliced in header order from its payload,
    the file beside ``p`` with the suffix ``.f64``.

    Every size is checked against the payload's length before a byte is read, so a
    header allocates nothing of the sizes it names; the sha256 is checked before any
    array is made."""
    payload = p.with_suffix(".f64")
    try:
        with open(payload, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            end = 0
            for name, shape in header.arrays.items():
                if min(shape, default=0) < 0:
                    raise ValueError(f"arrays.{name}: negative size in {list(shape)}")
                end += 8 * math.prod(shape)
                if end > size:
                    raise ValueError(f"arrays.{name} ends past the {size} bytes of payload {payload.name}")
            if end != size:
                raise ValueError(f"the arrays end at byte {end}, but payload {payload.name} holds {size}")
            raw = fh.read()
    except OSError as exc:  # missing or a directory
        raise ValueError(f"payload {payload.name}: {exc.strerror or exc}") from None
    if hashlib.sha256(raw).hexdigest() != header.payload_sha256:
        raise ValueError(f"payload {payload.name} does not match payload_sha256")
    state, start = {}, 0
    for name, shape in header.arrays.items():
        n = math.prod(shape)
        state[name] = np.frombuffer(raw, "<f8", n, start).reshape(shape).astype(np.float64)
        start += 8 * n
    return state


def save_checkpoint(net: Network, path, *, config_hash: str | None = None, meta: dict | None = None) -> None:
    """Write a version-4 checkpoint: the little-endian float64 bytes of ``net.arrays()``,
    concatenated in order, to a payload beside ``path`` with the suffix ``.f64``; then a
    JSON header at ``path`` with the spec echo, each array's shape and the payload's
    sha256.  The two files make one checkpoint, so two headers whose paths differ only
    in their suffix share one payload, and each save breaks the other checkpoint."""
    path = Path(path)
    payload = path.with_suffix(".f64")
    if payload == path:
        raise ValueError(f"a checkpoint header may not have the payload's suffix .f64: {path}")
    arrays = net.arrays()
    raw = b"".join(arr.astype("<f8").tobytes() for _, arr in arrays)
    payload.write_bytes(raw)
    doc = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "spec": asdict(net.spec),
        "arrays": {name: list(arr.shape) for name, arr in arrays},
        "payload_sha256": hashlib.sha256(raw).hexdigest(),
        "meta": meta or {},
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_checkpoint(path) -> Network:
    """Rebuild a network from a version-4 checkpoint header and its payload,
    checking each array against the spec before the next layer is built, so a
    spec alone allocates nothing.  Any other version is refused: ``ial train``
    writes a fresh checkpoint from the config and the manifest.
    """
    p = Path(path)
    doc = read_json(p, DataError)
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    try:
        header = from_json(_Header, doc, ConfigError)
        state = _payload_arrays(p, header)
    except (ConfigError, ValueError) as exc:
        raise DataError(f"{p}: {exc}") from None

    def take(i: int, name: str, shape: tuple, fill: float | None) -> np.ndarray:
        arr = state.pop(f"{i}.{name}", None)
        if arr is None or arr.shape != shape:
            found = "no array" if arr is None else f"shape {arr.shape}"
            raise DataError(f"{p}: {i}.{name}: {found} where the spec needs {shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"{p}: {i}.{name}: non-finite values")
        return arr

    net = _assemble(header.spec, take, seed=0)
    if state:
        raise DataError(f"{p}: array {next(iter(state))} is not in the spec")
    return net
