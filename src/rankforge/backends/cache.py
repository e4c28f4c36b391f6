"""Persistent response cache for external backends.

JSONL (read through ``rankforge.artifacts``), one line per cached
response, keyed by the backend identity plus the full request.  Reruns
against the same engines become cheap and bit-deterministic.
"""

import json
import os
from pathlib import Path

import numpy as np

from ..artifacts import at_line, read_lines
from ..errors import DataError
from .base import Backend

CACHE_ENV = "RANKFORGE_CACHE"


def default_cache_path() -> Path | None:
    path = os.environ.get(CACHE_ENV)
    return Path(path) if path else None


class ResponseCache:
    """An unparseable last line is the torn tail of an interrupted write: it
    is skipped on load and cut off, from its first byte, before the next
    record is appended.  A bad line anywhere else raises DataError."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._data: dict[tuple, float] = {}
        self._fh = None
        self._torn_at = None  # byte offset of the skipped torn tail
        if self.path.exists():
            lines = read_lines(self.path)
            for lineno, line in lines:
                try:
                    with at_line(self.path, lineno, "cache line"):
                        rec = json.loads(line)
                        key = (rec["b"], rec["k"], rec["s"], rec.get("m"), rec.get("l"))
                        self._data[key] = float(rec["v"])
                except DataError:
                    if next(lines, None) is not None:
                        raise
                    with self.path.open("rb") as fh:
                        self._torn_at = sum(len(fh.readline()) for _ in range(lineno - 1))

    def get(self, key: tuple) -> float | None:
        return self._data.get(key)

    def put(self, key: tuple, value: float) -> None:
        self._data[key] = value
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._cut_torn_tail()
            self._fh = self.path.open("a")
        backend, kind, state, move, level = key
        self._fh.write(
            json.dumps({"b": backend, "k": kind, "s": state, "m": move, "l": level, "v": value})
            + "\n"
        )

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
        out = np.empty(len(states))
        missing: dict[tuple, list[int]] = {}  # key -> positions, fetched once
        for i, (s, m) in enumerate(zip(states, moves)):
            key = (self._identity, kind, s, m, level)
            hit = self.cache.get(key)
            if hit is None:
                missing.setdefault(key, []).append(i)
            else:
                out[i] = hit
        if missing:
            first = [where[0] for where in missing.values()]
            fetched = fetch([states[i] for i in first], [moves[i] for i in first])
            for (key, where), value in zip(missing.items(), fetched):
                out[where] = value
                self.cache.put(key, float(value))
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
