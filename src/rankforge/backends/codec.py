"""The JSON line codec of the engine path: request and cache lines are
formatted by hand, and answer and cache lines are decoded by one shared
scanner.

Formatting writes exactly the bytes of ``json.dumps`` with its defaults:
``", "`` and ``": "`` separators, strings as ASCII with ``\\uXXXX``
escapes, ``None`` as ``null``, floats as ``float.__repr__`` and non-finite
floats as ``NaN``, ``Infinity`` and ``-Infinity``.  ``decode`` accepts
exactly the ``str`` lines ``json.loads`` accepts and returns equal values.
"""

import json
import math
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii as string

__all__ = ["decode", "number", "string", "text"]

_scan = json.JSONDecoder().scan_once
_space = WHITESPACE.match  # JSON whitespace only, as json.loads skips it


def text(value: str | None) -> str:
    """A string or None as ``json.dumps`` writes it."""
    return "null" if value is None else string(value)


def number(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def decode(line: str):
    """``json.loads(line)`` without its wrapper: it raises ValueError (or
    RecursionError) on every line ``json.loads`` rejects."""
    try:
        value, end = _scan(line, _space(line).end())
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) from None
    if end != len(line):
        end = _space(line, end).end()
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    return value
