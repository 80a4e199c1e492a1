"""ial: spotting and classifying gestures in continuous wearable inertial streams.

The pipeline: 6-axis streams are expanded to 8 channels (accel/gyro plus
their magnitudes), min-max normalized per 3 s window, median-downsampled to a
50x8 image or reduced to a 16-dim mean/variance vector, scored by small
from-scratch neural networks in two phases (interest detection, then 5-class
classification), and evaluated with event-level precision/recall/F1.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    ActionClass,
    GroundTruthEvent,
    Stream,
    SyntheticConfig,
    generate_synthetic_stream,
    ingest_stream,
    parse_labels,
    split_dataset,
)
