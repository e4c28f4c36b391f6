"""Persistent response cache for external backends.

One JSONL line per cached response, keyed by the backend identity plus the
full request.  Reruns against the same engines become cheap and
bit-deterministic.  Each line is exactly what ``json.dumps`` writes for

  {"b": <identity>, "k": <kind>, "s": <state>, "m": <move|null>,
   "l": <level|null>, "v": <float>}

with the keys in that order, ``", "`` and ``": "`` separators, strings in
ASCII with ``\\uXXXX`` escapes, and the value as ``float.__repr__`` (a
non-finite value as ``NaN``, ``Infinity`` or ``-Infinity``).  Such a
value, or a policy prior outside [PRIOR_FLOOR, 1], is never served: its
line is read and skipped, so the request is fetched again and appended.
The file is UTF-8; blank lines are skipped.
"""

import codecs
import math
import os
from pathlib import Path

import numpy as np

from ..artifacts import BAD_LINE, at_line
from .base import PRIOR_FLOOR, Backend
from .codec import decode, number, string, text

CACHE_ENV = "RANKFORGE_CACHE"


def default_cache_path() -> Path | None:
    path = os.environ.get(CACHE_ENV)
    return Path(path) if path else None


def cache_lines(records: list[tuple[tuple, float]]) -> str:
    """The lines of (key, value) records, each key an (identity, kind,
    state, move, level) tuple of strings, with None for no move or level."""
    return "".join(
        f'{{"b": {string(b)}, "k": {string(k)}, "s": {string(s)}, "m": {text(m)}, '
        f'"l": {text(lv)}, "v": {number(v)}}}\n'
        for (b, k, s, m, lv), v in records)


class ResponseCache:
    """An unparseable last line, or one cut inside a character, is the torn
    tail of an interrupted write: it is skipped on load and cut off, from
    its first byte, before the next record is appended.  A bad line
    anywhere else raises DataError."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._data: dict[tuple, float] = {}
        self._fh = None
        self._torn_at = None  # byte offset of the skipped torn tail
        if self.path.exists():
            data = self._data
            with self.path.open("rb") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    try:
                        line = raw.decode().strip()
                        if not line:
                            continue
                        rec = decode(line)
                        key = (rec["b"], rec["k"], rec["s"], rec.get("m"), rec.get("l"))
                        value = float(rec["v"])
                        # an unservable value is fetched again
                        if (PRIOR_FLOOR <= value <= 1 if key[1] == "policy"
                                else math.isfinite(value)):
                            data[key] = value
                    except UnicodeDecodeError:
                        with at_line(self.path, lineno, "UTF-8"):
                            # raises unless a write stopped inside the file's last character
                            codecs.utf_8_decode(raw, "strict", False)
                        self._torn_at = fh.tell() - len(raw)
                    except BAD_LINE:
                        self._torn_at = fh.tell() - len(raw)
                        if fh.read().decode(errors="replace").strip():  # not the last line
                            with at_line(self.path, lineno, "cache line"):
                                raise

    def get(self, key: tuple) -> float | None:
        return self._data.get(key)

    def put_many(self, records: list[tuple[tuple, float]]) -> None:
        """Store (key, value) records and append their lines in one write."""
        self._data.update(records)
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._cut_torn_tail()
            self._fh = self.path.open("a")
        self._fh.write(cache_lines(records))

    def _cut_torn_tail(self) -> None:
        """Truncate the torn tail skipped on load, or else anything after the
        file's last newline, so the next record starts on a fresh line."""
        size = self.path.stat().st_size if self.path.exists() else 0
        if size:
            with self.path.open("rb+") as fh:
                if self._torn_at is not None:
                    fh.truncate(self._torn_at)
                    return
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class CachedBackend(Backend):
    """Wraps a backend with a read-through response cache.  A request that
    repeats within one call is fetched and stored once."""

    def __init__(self, inner: Backend, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.descriptor = inner.descriptor
        self._identity = inner.descriptor.identity()

    def _through(self, kind, states, moves, level, fetch) -> np.ndarray:
        if moves is None:
            moves = [None] * len(states)
        get, identity = self.cache.get, self._identity
        out = np.empty(len(states))
        missing: dict[tuple, list[int]] = {}  # key -> positions, fetched once
        for i, (s, m) in enumerate(zip(states, moves)):
            key = (identity, kind, s, m, level)
            hit = get(key)
            if hit is None:
                missing.setdefault(key, []).append(i)
            else:
                out[i] = hit
        if missing:
            first = [where[0] for where in missing.values()]
            fetched = fetch([states[i] for i in first], [moves[i] for i in first])
            values = [float(value) for value in fetched]
            for where, value in zip(missing.values(), values):
                out[where] = value
            self.cache.put_many(list(zip(missing, values)))
            self.cache.flush()
        return out

    def score_strength_many(self, states, moves) -> np.ndarray:
        return self._through(
            "strength", states, moves, None, self.inner.score_strength_many
        )

    def policy_prior_many(self, states, moves, level: str) -> np.ndarray:
        return self._through(
            "policy", states, moves, level,
            lambda s, m: self.inner.policy_prior_many(s, m, level),
        )

    def evaluate_state_many(self, states, moves=None) -> np.ndarray:
        return self._through(
            "value", states, moves, None,
            lambda s, m: self.inner.evaluate_state_many(s, None if all(x is None for x in m) else m),
        )

    def close(self) -> None:
        self.cache.close()
        self.inner.close()
