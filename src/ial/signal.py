"""Raw 6-channel streams to normalized 8-channel windows.

A window covers 150 consecutive frames (3 s at 50 Hz).  Channel order is
ax, ay, az, |a|, gx, gy, gz, |g|; each channel is min-max normalized over the
window, so a later median downsample by 3 gives the 50x8 image fed to the
models.  ``window_images`` computes every window of a stream in one pass;
``make_window`` cuts a single window and is its per-window reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import WINDOW_FRAMES, Stream
from .errors import DataError

DOWNSAMPLE_FACTOR = 3


@dataclass(frozen=True, eq=False)
class SignalWindow:
    """150 frames x 8 normalized channels."""

    frames: np.ndarray


def _unit_scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Min-max scale ``x`` by per-channel extrema (broadcast against it); a
    channel with hi == lo is constant and maps to 0.5."""
    span = hi - lo
    shifted = x - lo
    return np.divide(shifted, span, out=np.full_like(shifted, 0.5), where=span > 0)


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


def window_starts(n_frames: int, stride_frames: int) -> range:
    if stride_frames < 1:
        raise ValueError("stride_frames must be >= 1")
    if n_frames < WINDOW_FRAMES:
        raise DataError(f"{n_frames} frames < {WINDOW_FRAMES}")
    return range(0, n_frames - WINDOW_FRAMES + 1, stride_frames)


def window_images(stream: Stream, stride_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Every window's start frame and its normalized 50x8 image, in one pass.

    Windows start at frames 0, s, 2s, ...; count = floor((L-150)/s) + 1.
    Returns ``(start_frames, images)`` with images of shape (count, 50, 8),
    equal to ``image_feature(make_window(stream, start))`` for every start.

    The median of the frame triple at every frame is taken once on the raw
    channels, by comparison, and each window gathers its 50 rows from it.  That
    is exact: subtracting ``lo`` and dividing by a positive span are both
    monotone under IEEE rounding, so the middle of three values stays the
    middle, and a median of 3 commutes with the per-window min-max.  Each
    window's per-channel min and max are read from a contiguous channel-major
    copy of the stream, which is exact too: a min or max does not round.
    """
    starts = np.asarray(window_starts(len(stream), stride_frames))
    channels = eight_channels(stream.values[: starts[-1] + WINDOW_FRAMES])
    # (8, count, 150) view of a contiguous (8, n) copy: each min and max runs
    # over unit-stride frames instead of the 64-byte stride of (n, 8)
    spans = sliding_window_view(np.ascontiguousarray(channels.T), WINDOW_FRAMES, axis=1)[:, ::stride_frames]
    lo = spans.min(axis=2).T[:, None, :]
    hi = spans.max(axis=2).T[:, None, :]
    a, b, c = channels[:-2], channels[1:-1], channels[2:]
    # + 0.0 turns a -0.0 median into 0.0, as np.median's mean of one value does
    triple_medians = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c)) + 0.0
    rows = starts[:, None] + DOWNSAMPLE_FACTOR * np.arange(WINDOW_FRAMES // DOWNSAMPLE_FACTOR)
    return starts, _unit_scale(triple_medians[rows], lo, hi)
