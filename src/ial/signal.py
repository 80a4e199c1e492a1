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

from .data import Stream
from .errors import (
    LengthNotDivisibleError,
    NonFiniteInputError,
    OutOfRangeError,
    StreamTooShortError,
)

WINDOW_FRAMES = 150
DOWNSAMPLE_FACTOR = 3
CHANNEL_NAMES = ("ax", "ay", "az", "a_mag", "gx", "gy", "gz", "g_mag")


@dataclass(frozen=True, eq=False)
class SignalWindow:
    """150 frames x 8 normalized channels starting at ``start_t`` seconds."""

    frames: np.ndarray
    start_t: float


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
        raise LengthNotDivisibleError(f"{rows} rows not divisible by {factor}")
    return np.median(m.reshape(rows // factor, factor, m.shape[1]), axis=1)


def eight_channels(values: np.ndarray) -> np.ndarray:
    """Expand (n, 6) raw samples to the (n, 8) channel layout with magnitudes."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteInputError("non-finite sample values")
    a = values[:, 0:3]
    g = values[:, 3:6]
    a_mag = np.sqrt(np.einsum("ij,ij->i", a, a))
    g_mag = np.sqrt(np.einsum("ij,ij->i", g, g))
    return np.column_stack([a, a_mag, g, g_mag])


def make_window(stream: Stream, start_frame: int) -> SignalWindow:
    """Cut 150 frames at ``start_frame``, add magnitudes, min-max normalize per channel.

    The per-window reference for ``window_images``.
    """
    if start_frame < 0 or start_frame + WINDOW_FRAMES > len(stream):
        raise OutOfRangeError(
            f"window [{start_frame}, {start_frame + WINDOW_FRAMES}) outside stream of {len(stream)}"
        )
    raw = eight_channels(stream.values[start_frame : start_frame + WINDOW_FRAMES])
    frames = _unit_scale(raw, raw.min(axis=0), raw.max(axis=0))
    return SignalWindow(frames, float(stream.t[start_frame]))


def window_starts(n_frames: int, stride_frames: int) -> range:
    if stride_frames < 1:
        raise ValueError("stride_frames must be >= 1")
    if n_frames < WINDOW_FRAMES:
        raise StreamTooShortError(f"{n_frames} frames < {WINDOW_FRAMES}")
    return range(0, n_frames - WINDOW_FRAMES + 1, stride_frames)


def window_images(stream: Stream, stride_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Every window's start frame and its normalized 50x8 image, in one pass.

    Windows start at frames 0, s, 2s, ...; count = floor((L-150)/s) + 1.
    Returns ``(start_frames, images)`` with images of shape (count, 50, 8),
    equal to ``image_feature(make_window(stream, start))`` for every start.

    The median of each frame triple is taken once on the raw channels and
    normalized afterwards.  That is exact: subtracting ``lo`` and dividing by
    a positive span are both monotone under IEEE rounding, so the middle of
    three values stays the middle, and a median of 3 commutes with the
    per-window min-max.
    """
    starts = np.asarray(window_starts(len(stream), stride_frames))
    channels = eight_channels(stream.values[: starts[-1] + WINDOW_FRAMES])
    # (count, 8, 150) view: one strided slice per window, nothing copied
    spans = sliding_window_view(channels, WINDOW_FRAMES, axis=0)[::stride_frames]
    lo = spans.min(axis=2)[:, None, :]
    hi = spans.max(axis=2)[:, None, :]
    rows = WINDOW_FRAMES // DOWNSAMPLE_FACTOR
    medians = np.empty((len(starts), rows, channels.shape[1]))
    phases = starts % DOWNSAMPLE_FACTOR
    for phase in np.unique(phases):
        # medians of the triples starting at frames phase, phase + 3, ...
        n_triples = (len(channels) - phase) // DOWNSAMPLE_FACTOR
        triples = median_downsample(channels[phase : phase + DOWNSAMPLE_FACTOR * n_triples])
        first = starts[phases == phase] // DOWNSAMPLE_FACTOR
        medians[phases == phase] = triples[first[:, None] + np.arange(rows)]
    return starts, _unit_scale(medians, lo, hi)
