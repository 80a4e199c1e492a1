"""Raw 6-channel streams to normalized 8-channel windows.

A window covers 150 consecutive frames (3 s at 50 Hz).  Channel order is
ax, ay, az, |a|, gx, gy, gz, |g|; each channel is min-max normalized over the
window, so a later median downsample by 3 gives the 50x8 image fed to the
models.  ``window_images`` computes every window of a stream in one pass;
``make_window`` cuts a single window and is its per-window reference.

The pass computes the stream-wide parts once (the eight channels, every
window's per-channel extrema, the median of 3 at every frame), then gathers
and normalizes the images ``CHUNK`` windows at a time, so no whole-stream
image temporary is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import WINDOW_FRAMES, Stream
from .errors import DataError

DOWNSAMPLE_FACTOR = 3

# Windows per featurizing step, and per step of ``by_chunk``, which the
# detector scores with.
# A chunk's images (32 x 50 x 8 float64, 102 KB) stay under glibc's default
# 128 KiB mmap threshold and in L2, and a half of block 2's row bands, a
# chunk's largest CNN array, takes 0.9 MB (7.1 MB at 256) against a 2 MB L2.
CHUNK = 32


@dataclass(frozen=True, eq=False)
class SignalWindow:
    """150 frames x 8 normalized channels."""

    frames: np.ndarray


def _unit_scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Min-max scale ``x`` by per-channel extrema (broadcast against it) into
    ``out`` (a new array by default; ``x`` itself scales in place); a channel
    whose span hi - lo is not positive is constant and maps to 0.5."""
    span = hi - lo
    constant = ~(span > 0)  # a NaN span too
    out = np.subtract(x, lo, out=out)
    out /= np.where(constant, 1.0, span)
    if constant.any():
        np.copyto(out, 0.5, where=constant)
    return out


def median_downsample(matrix: np.ndarray, factor: int = DOWNSAMPLE_FACTOR) -> np.ndarray:
    """Replace each non-overlapping group of ``factor`` rows with its per-column median."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows = m.shape[0]
    if rows % factor != 0:
        raise DataError(f"{rows} rows not divisible by {factor}")
    return np.median(m.reshape(rows // factor, factor, m.shape[1]), axis=1)


def eight_channels(values: np.ndarray) -> np.ndarray:
    """Expand (n, 6) raw samples to the (n, 8) channel layout with magnitudes."""
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite sample values")
    a = values[:, 0:3]
    g = values[:, 3:6]
    a_mag = np.sqrt(np.einsum("ij,ij->i", a, a))
    g_mag = np.sqrt(np.einsum("ij,ij->i", g, g))
    if not (np.isfinite(a_mag).all() and np.isfinite(g_mag).all()):
        raise DataError("sample values so large that the magnitude |a| or |g| overflows")
    return np.column_stack([a, a_mag, g, g_mag])


def make_window(stream: Stream, start_frame: int) -> SignalWindow:
    """Cut 150 frames at ``start_frame``, add magnitudes, min-max normalize per channel.

    The per-window reference for ``window_images``.
    """
    if start_frame < 0 or start_frame + WINDOW_FRAMES > len(stream):
        raise DataError(f"window [{start_frame}, {start_frame + WINDOW_FRAMES}) outside stream of {len(stream)}")
    raw = eight_channels(stream.values[start_frame : start_frame + WINDOW_FRAMES])
    frames = _unit_scale(raw, raw.min(axis=0), raw.max(axis=0))
    return SignalWindow(frames)


def by_chunk(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """``fn`` over the rows of ``x``, ``CHUNK`` at a time, its results concatenated in order."""
    return np.concatenate([fn(x[lo : lo + CHUNK]) for lo in range(0, len(x), CHUNK)])


def window_starts(n_frames: int, stride_frames: int) -> range:
    if stride_frames < 1:
        raise ValueError("stride_frames must be >= 1")
    if n_frames < WINDOW_FRAMES:
        raise DataError(f"{n_frames} frames < {WINDOW_FRAMES}")
    return range(0, n_frames - WINDOW_FRAMES + 1, stride_frames)


def window_images(
    stream: Stream,
    stride_frames: int,
    reduce: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every window's start frame and its normalized 50x8 image, in one pass,
    ``CHUNK`` windows at a time.

    Windows start at frames 0, s, 2s, ...; count = floor((L-150)/s) + 1.
    Returns ``(start_frames, images)`` with images of shape (count, 50, 8),
    equal to ``image_feature(make_window(stream, start))`` for every start;
    each chunk is written into its rows in place.  With ``reduce``, each
    chunk's (c, 50, 8) images are passed to it instead, and its (c, d) rows are
    returned in window order, so no whole-stream image array is made.

    The median of the frame triple at every frame is taken once on the raw
    channels, by comparison, and each window gathers its 50 rows from it.  That
    is exact: subtracting ``lo`` and dividing by a positive span are both
    monotone under IEEE rounding, so the middle of three values stays the
    middle, and a median of 3 commutes with the per-window min-max.  Each
    window's per-channel min and max are read from a contiguous channel-major
    copy of the stream, which is exact too: a min or max does not round.
    Every element sees the same operations at any chunk size, so the bytes do
    not depend on it.
    """
    starts = np.asarray(window_starts(len(stream), stride_frames))
    channels = eight_channels(stream.values[: starts[-1] + WINDOW_FRAMES])
    # (8, count, 150) view of a contiguous (8, n) copy: each min and max runs
    # over unit-stride frames instead of the 64-byte stride of (n, 8)
    spans = sliding_window_view(np.ascontiguousarray(channels.T), WINDOW_FRAMES, axis=1)[:, ::stride_frames]
    lo = spans.min(axis=2).T[:, None, :]
    hi = spans.max(axis=2).T[:, None, :]
    del spans  # each whole-stream copy goes as soon as it is used, before the image rows are made
    a, b, c = channels[:-2], channels[1:-1], channels[2:]
    medians = np.maximum(a, b)  # max(min(a, b), min(max(a, b), c)), in place
    np.minimum(medians, c, out=medians)
    np.maximum(medians, np.minimum(a, b), out=medians)
    medians += 0.0  # turns a -0.0 median into 0.0, as np.median's mean of one value does
    del channels, a, b, c
    offsets = DOWNSAMPLE_FACTOR * np.arange(WINDOW_FRAMES // DOWNSAMPLE_FACTOR)
    images = np.empty((len(starts), len(offsets), medians.shape[1])) if reduce is None else None
    rows = []
    for first in range(0, len(starts), CHUNK):
        part = slice(first, first + CHUNK)
        out = None if images is None else images[part]
        # every index is in range; "clip" lets take write into ``out`` without a buffered copy
        out = np.take(medians, starts[part, None] + offsets, axis=0, out=out, mode="clip")
        _unit_scale(out, lo[part], hi[part], out=out)
        if reduce is not None:
            rows.append(reduce(out))
    return starts, images if reduce is None else np.concatenate(rows)
