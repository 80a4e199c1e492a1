"""JSON documents read into dataclasses, each value checked against its field annotation.

The run config, the manifest and the version-4 checkpoint header, its spec
included, are all read here, so one set of rules holds for every JSON input.
A mismatch raises the caller's error, naming the dotted path of the value.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing
from pathlib import Path
from typing import Callable


def read_json(path: Path, error: Callable[[str], Exception]):
    """The parsed JSON file at ``path``; ``error`` naming the path if it is absent or not JSON."""
    if not path.is_file():
        raise error(str(path))
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None


_hints = functools.cache(typing.get_type_hints)  # evaluates the string annotations once per class


def _join(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def from_json(cls, doc, error: Callable[[str], Exception], where: str = ""):
    """Build dataclass ``cls`` from the JSON object ``doc``.

    Unknown keys, and missing fields without a default, are errors.  A nested
    dataclass comes from an object, ``tuple[T, T]`` and ``tuple[T, ...]`` from
    lists, ``X | None`` also accepts null, and ``dict[str, V]`` has each value
    checked against ``V``.  A bool is never an int, an int in a float field
    becomes a float, and a float must be finite.  ``error`` makes the
    exception to raise from a message; ``where`` is the dotted path of ``doc``.
    """
    if type(doc) is not dict:
        raise error(f"{where or 'document'} must be an object, got {doc!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(doc) - {f.name for f in fields})
    if unknown:
        raise error(f"unknown key {_join(where, unknown[0])}")
    hints = _hints(cls)
    kwargs = {}
    for f in fields:
        path = _join(where, f.name)
        if f.name in doc:
            kwargs[f.name] = _value(hints[f.name], doc[f.name], error, path)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise error(f"missing field {path}")
    return cls(**kwargs)


def _value(tp, value, error, path: str):
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, error, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _value(inner, value, error, path)
    if origin is tuple:
        if type(value) is list:
            items = args[:1] * len(value) if args[-1:] == (Ellipsis,) else args
            if len(items) == len(value):
                return tuple(_value(t, v, error, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    elif origin is dict:
        if type(value) is dict:
            return {k: _value(args[1], v, error, _join(path, k)) for k, v in value.items()}
    elif tp is float:
        if type(value) is int and abs(value) <= sys.float_info.max:
            value = float(value)
        if type(value) is float and math.isfinite(value):
            return value
    elif type(value) is tp:
        return value
    raise error(f"{path} must be {tp.__name__ if isinstance(tp, type) else tp}, got {value!r}")
