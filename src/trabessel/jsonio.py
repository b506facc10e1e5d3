"""Deterministic JSON output with 17-significant-digit floats.

The standard json module prints floats in shortest-roundtrip form; output
files here pin every float to '%.17g' (round-trip exact and byte-stable
across runs), keep dict insertion order, and use no locale-dependent
formatting.
"""
from __future__ import annotations

import math

__all__ = ["dumps", "format_float"]

_INDENT = "  "


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in output")
    s = "%.17g" % float(x)
    return s


def _encode(obj, level):
    pad = _INDENT * level
    pad_in = pad + _INDENT
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {_encode(v, level + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_encode(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):  # numpy.float64 too
        return format_float(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return _encode(obj, 0) + "\n"
