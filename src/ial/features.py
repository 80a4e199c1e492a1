"""The two window feature formats: the 50x8 image and the 16-dim mean/variance vector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import write_lines
from .signal import DOWNSAMPLE_FACTOR, SignalWindow, median_downsample

IMAGE_ROWS = 50
N_CHANNELS = 8
VECTOR_DIM = 2 * N_CHANNELS


@dataclass(frozen=True, eq=False)
class ImageFeature:
    """50x8 image in [0, 1] of one window."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.shape != (IMAGE_ROWS, N_CHANNELS):
            raise ValueError(f"image must be {IMAGE_ROWS}x{N_CHANNELS}, got {self.pixels.shape}")


@dataclass(frozen=True, eq=False)
class VectorFeature:
    """16 values: per-channel means then per-channel population variances."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (VECTOR_DIM,):
            raise ValueError(f"vector must have {VECTOR_DIM} values, got {self.values.shape}")


def image_feature(window: SignalWindow) -> ImageFeature:
    """Median-downsample a 150x8 window by 3 into the 50x8 image."""
    return ImageFeature(median_downsample(window.frames, DOWNSAMPLE_FACTOR))


def vector_batch(images: np.ndarray) -> np.ndarray:
    """(n, 50, 8) images to (n, 16) rows: per-channel means, then population variances."""
    n = images.shape[1]
    means = images.sum(axis=1, keepdims=True) / n
    deviations = images - means  # numpy's own var steps from the one sum, so the bytes equal .mean and .var
    np.multiply(deviations, deviations, out=deviations)
    return np.concatenate([means[:, 0], deviations.sum(axis=1) / n], axis=1)


def vector_feature(image: ImageFeature) -> VectorFeature:
    """Per-channel mean and population variance of the image, concatenated
    [means | variances]; the per-image reference for ``vector_batch``."""
    means = image.pixels.mean(axis=0)
    variances = image.pixels.var(axis=0)
    return VectorFeature(np.concatenate([means, variances]))


def write_vector_csv(
    start_t: Sequence[float], vectors: np.ndarray, path, comments: Sequence[str] = ()
) -> None:
    """Debug dump: one CSV row per window (start_t, 8 means, 8 variances)."""
    header = "start_t," + ",".join(
        [f"mean_{c}" for c in range(N_CHANNELS)] + [f"var_{c}" for c in range(N_CHANNELS)]
    )
    rows = np.column_stack([start_t, vectors]).tolist()
    write_lines(path, [header, *(",".join(map(repr, row)) for row in rows)], comments)
