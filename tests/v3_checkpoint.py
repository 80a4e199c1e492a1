"""Version-3 checkpoints, which ``ial`` still reads but no longer writes.

A version-3 checkpoint is one JSON file: the spec echo, and under ``state``
each of ``Network.arrays()`` as its shape and the base64 of its little-endian
float64 bytes.  The tests of the version-3 reader write their inputs here.
"""

import base64
import json
from dataclasses import asdict
from pathlib import Path


def encode(arr) -> dict:
    """A version-3 ``state`` entry."""
    return {"shape": list(arr.shape), "f64le": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}


def save_v3_checkpoint(net, path, *, config_hash=None, meta=None) -> None:
    doc = {
        "version": 3,
        "config_hash": config_hash,
        "spec": asdict(net.spec),
        "state": {name: encode(arr) for name, arr in net.arrays()},
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")
