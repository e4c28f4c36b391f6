"""Line-delimited JSON subprocess backend client.

Wire format, one UTF-8 JSON object per line:
  request:  {"id": <int>, "kind": "strength"|"policy"|"value",
             "state": <string>, "move": <string|null>, "level": <string|null>}
  response: {"id": <int>, "value": <finite number>}  or  {"id": <int>, "error": <string>}

A request line is byte-equal to ``json.dumps`` of the object above, keys in
that order; a response line is read as ``json.loads`` reads it.

Requests may be answered out of order; responses are matched by id, and a
response for an id no call wants is dropped.  Any other line, or a line
over a mebibyte, is a malformed response.  The client runs on its caller's
thread: both pipes are non-blocking, and one ``selectors`` loop writes a
batch's requests while it reads the answers.  A batch call times out when
``timeout`` seconds pass without an answer to any of its requests, counted
from its last answer, so a large batch that an engine answers steadily
never times out, and a hung request, or an engine that stops reading,
still does, however much else the engine writes.  While requests such an
engine left unread remain, a new call times out at once rather than queue
behind them.  The client needs POSIX pipes.
"""

import contextlib
import json
import math
import os
import selectors
import shlex
import subprocess
import time

import numpy as np

from ..errors import BackendError, BackendTimeoutError
from .base import Backend, BackendDescriptor, floor_priors
from .codec import decode, string, text

_MAX_LINE = 1 << 20  # bytes; an answer line is a few dozen


def request_lines(ids, requests: list[tuple]) -> bytes:
    """The lines of requests given as (kind, state, move, level) tuples,
    each ``json.dumps({"id": rid, "kind": kind, "state": state, "move":
    move, "level": level})``: a string kind and state, and a string or None
    move and level."""
    return "".join(
        f'{{"id": {rid}, "kind": {string(kind)}, "state": {string(state)}, '
        f'"move": {text(move)}, "level": {text(level)}}}\n'
        for rid, (kind, state, move, level) in zip(ids, requests)).encode()


class SubprocessBackend(Backend):
    def __init__(self, descriptor: BackendDescriptor, timeout: float = 30.0):
        self.descriptor = descriptor
        self.timeout = timeout
        self._proc = subprocess.Popen(
            shlex.split(descriptor.launch),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,
        )
        self._stdin = self._proc.stdin.fileno()
        self._stdout = self._proc.stdout.fileno()
        os.set_blocking(self._stdin, False)
        os.set_blocking(self._stdout, False)
        self._next_id = 0
        self._unsent = b""  # requests the engine has not read yet
        self._partial = b""  # the start of an answer line still being read

    def _call_batch(self, requests: list[tuple]) -> list[float]:
        """Send all requests while collecting the matching responses.  Ids are
        never reused, so a response the batch does not want is dropped."""
        if self._proc.poll() is not None:
            raise BackendError(f"backend process exited with code {self._proc.returncode}")
        if self._unsent:
            self._exchange(set(), 0)  # send what the engine takes now, else time out
        ids = range(self._next_id + 1, self._next_id + 1 + len(requests))
        self._next_id += len(requests)
        self._unsent = request_lines(ids, requests)
        try:
            results = self._exchange(set(ids), self.timeout)
        except BackendTimeoutError:
            raise  # the engine may have stopped reading: its requests stay unsent
        except BackendError:
            # The engine is still reading: let it take the rest of the batch,
            # so that the next call (a lone retry, say) finds the stream free.
            with contextlib.suppress(BackendError):
                self._exchange(set(), self.timeout)
            raise
        return [results[rid] for rid in ids]

    def _exchange(self, wanted: set[int], timeout: float) -> dict[int, float]:
        """Write the unsent requests while reading answers, until all are sent
        and every id in ``wanted`` is answered; the answers to ``wanted``.
        Times out once ``timeout`` seconds have passed since the start or the
        last wanted answer, however busy the pipes are; a ``timeout`` of 0
        makes one pass."""
        results: dict[int, float] = {}
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self._stdout, selectors.EVENT_READ)
            if self._unsent:
                selector.register(self._stdin, selectors.EVENT_WRITE)
            while wanted or self._unsent:
                for key, _ in selector.select(deadline - time.monotonic()):
                    if key.fd == self._stdin:
                        self._send()
                        if not self._unsent:
                            selector.unregister(self._stdin)
                        continue
                    for msg in self._receive(wanted):
                        rid = msg.get("id")
                        if rid in wanted:
                            results[rid] = self._take(msg)
                            wanted.discard(rid)
                            deadline = time.monotonic() + timeout
                if time.monotonic() < deadline:
                    continue
                if wanted:
                    raise BackendTimeoutError(
                        f"backend did not answer within {timeout:.1f}s", min(wanted))
                if self._unsent:
                    raise BackendTimeoutError("backend is still not reading an earlier batch")
        return results

    def _send(self) -> None:
        try:
            sent = os.write(self._stdin, self._unsent)
        except BlockingIOError:
            return
        except OSError as exc:  # the engine exited while the batch was written
            raise BackendError(f"backend stopped reading requests ({exc})") from None
        self._unsent = self._unsent[sent:]

    def _receive(self, wanted: set[int]) -> list[dict]:
        """The responses completed by the next chunk of output; a partial
        last line waits for the chunk that ends it."""
        try:
            chunk = os.read(self._stdout, 1 << 16)
        except BlockingIOError:
            return []
        except OSError as exc:
            raise BackendError(f"backend output failed ({exc})") from None
        if not chunk:
            raise BackendError("backend closed its output stream", min(wanted, default=None))
        *lines, self._partial = (self._partial + chunk).split(b"\n")
        if len(self._partial) > _MAX_LINE:
            self._partial = b""
            raise BackendError(f"malformed backend response: a line over {_MAX_LINE} bytes")
        return [self._parse(line) for line in lines if line.strip()]

    @staticmethod
    def _parse(line: bytes) -> dict:
        try:
            msg = decode(line.decode(json.detect_encoding(line), "surrogatepass"))
        except (ValueError, RecursionError):
            msg = None
        # a list or an object is an id no set can hold, and true would match id 1
        if not isinstance(msg, dict) or isinstance(msg.get("id"), (list, dict, bool)):
            raise BackendError(
                f"malformed backend response: {line.decode(errors='replace')!r}")
        return msg

    @staticmethod
    def _take(msg: dict) -> float:
        if "error" in msg:
            raise BackendError(str(msg["error"]), msg.get("id"))
        value = msg.get("value")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:  # an integer beyond float range
                value = math.nan
            if math.isfinite(value):  # json reads NaN and Infinity
                return value
        raise BackendError(f"malformed backend response: {msg!r}", msg.get("id"))

    def _requests(self, kind, states, moves, level=None) -> list[tuple]:
        if moves is None:
            moves = [None] * len(states)
        return [(kind, s, m, level) for s, m in zip(states, moves)]

    def score_strength_many(self, states, moves) -> np.ndarray:
        return np.array(self._call_batch(self._requests("strength", states, moves)))

    def policy_prior_many(self, states, moves, level: str) -> np.ndarray:
        values = np.array(self._call_batch(self._requests("policy", states, moves, level)))
        if ((values < 0) | (values > 1)).any():
            raise BackendError("policy prior outside [0, 1]")
        return floor_priors(values)

    def evaluate_state_many(self, states, moves=None) -> np.ndarray:
        return np.array(self._call_batch(self._requests("value", states, moves)))

    def close(self) -> None:
        self._proc.stdin.close()
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=3)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
