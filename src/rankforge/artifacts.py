"""Artifact files: every JSON, JSONL and CSV file rankforge reads or writes.

Files are UTF-8.  JSON is indented by 2 with sorted keys and ends in a
newline; JSONL is one sorted-key object per line; CSV uses the ``csv``
defaults.  Readers are lazy and skip blank lines.  ``from_table`` reads a
config table, from a TOML file or a JSON header, into its dataclass.
"""

import csv
import json
import math
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin

from .errors import ConfigError, DataError

# What a line that cannot be decoded, parsed or assembled into a record or a config raises.
BAD_LINE = (ValueError, KeyError, IndexError, TypeError, AttributeError, RecursionError,
            OverflowError, ConfigError, DataError)


class at_line:
    """Context that turns a BAD_LINE error into DataError naming
    ``path:lineno`` and what the line should hold."""

    def __init__(self, path, lineno: int, what: str):
        self.path, self.lineno, self.what = path, lineno, what

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, BAD_LINE):
            raise DataError(f"{self.path}:{self.lineno}: bad {self.what} ({exc})") from None


def strings(rec: dict, *keys) -> list[str]:
    """``rec``'s values at ``keys``, each read as a str (see ``typed``)."""
    return [typed(rec[key], str, key) for key in keys]


def integers(rec: dict, *keys) -> list[int]:
    """``rec``'s values at ``keys``, each read as an int (see ``typed``)."""
    return [typed(rec[key], int, key) for key in keys]


def typed(value, kind, key: str):
    """``value`` of ``key`` as the annotation ``kind`` reads it: exactly a
    str, a bool or an int (a bool is not one); a float is a finite int or
    float, returned as float; ``X | None`` is None or an X (and "all" is
    None for ``int | None``, as TOML has no null); ``tuple[X, ...]`` is a
    list of X, a dataclass X listing its fields without defaults; a
    dataclass is a table (see ``from_table``).  A mismatch raises TypeError
    or ValueError."""
    args = get_args(kind)
    if type(None) in args:
        none = value is None or (value == "all" and int in args)
        return None if none else typed(value, args[0], key)
    if get_origin(kind) is tuple:
        if type(value) is not list:
            raise TypeError(f"{key} must be a list, not {type(value).__name__}")
        return tuple(_entry(item, args[0], key) for item in value)
    if is_dataclass(kind):
        return from_table(kind, value, key)
    if kind is float and type(value) in (int, float):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, not {value!r}")
        return float(value)
    if type(value) is not kind:
        raise TypeError(f"{key} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _entry(value, kind, key: str):
    if not is_dataclass(kind):
        return typed(value, kind, key)
    needed = [f for f in fields(kind) if f.default is MISSING]
    if type(value) is not list or len(value) != len(needed):
        raise ValueError(f"{key} entries must be [{', '.join(f.name for f in needed)}]")
    return kind(*(typed(item, f.type, key) for item, f in zip(value, needed)))


def from_table(kind, table, name: str = ""):
    """The dataclass ``kind`` from the TOML or JSON table ``name``: each key
    is read by its field's annotation, and an absent one takes the field's
    default.  A key that is no field raises ValueError naming it."""
    if type(table) is not dict:
        raise TypeError(f"{name} must be a table, not {type(table).__name__}")
    types = {f.name: f.type for f in fields(kind) if f.init}
    where = f"{name}." if name else ""
    for key in sorted(table.keys() - types.keys()):
        raise ValueError(f"unknown config key {where}{key}")
    return kind(**{key: typed(value, types[key], where + key) for key, value in table.items()})


def read_lines(path):
    """(line number, stripped text) of each non-blank line."""
    path = Path(path)
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            with at_line(path, lineno, "UTF-8"):
                line = raw.decode("utf-8").strip()
            if line:
                yield lineno, line


def read_jsonl(path):
    """(line number, parsed value) of each non-blank line."""
    for lineno, line in read_lines(path):
        with at_line(path, lineno, "JSON"):
            value = json.loads(line)
        yield lineno, value


def _create(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path, value) -> None:
    _create(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_jsonl(path, records) -> None:
    with _create(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_table(path, header, rows) -> None:
    with _create(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
