"""Artifact files: every JSON, JSONL and CSV file rankforge reads or writes.

Files are UTF-8.  JSON is indented by 2 with sorted keys and ends in a
newline; JSONL is one sorted-key object per line; CSV uses the ``csv``
defaults.  Readers are lazy and skip blank lines.
"""

import csv
import json
from pathlib import Path

from .errors import DataError

# What a line that cannot be decoded, parsed or assembled into a record raises.
BAD_LINE = (ValueError, KeyError, IndexError, TypeError, AttributeError, RecursionError,
            OverflowError, DataError)


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
    """``rec``'s values at ``keys``; one that is not a str raises TypeError."""
    values = [rec[key] for key in keys]
    for key, value in zip(keys, values):
        if not isinstance(value, str):
            raise TypeError(f"{key} must be a string, not {type(value).__name__}")
    return values


def integers(rec: dict, *keys) -> list[int]:
    """``rec``'s values at ``keys``; one that is not a JSON integer (a bool
    is not) raises TypeError."""
    values = [rec[key] for key in keys]
    for key, value in zip(keys, values):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{key} must be an integer, not {type(value).__name__}")
    return values


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
