"""Line-delimited JSON subprocess backend client.

Wire format, one UTF-8 JSON object per line:
  request:  {"id": <int>, "kind": "strength"|"policy"|"value",
             "state": <string>, "move": <string|null>, "level": <string|null>}
  response: {"id": <int>, "value": <number>}  or  {"id": <int>, "error": <string>}

Requests may be answered out of order; responses are matched by id.  A
reader thread feeds a queue so batch calls can keep several requests in
flight and still enforce a per-request deadline: a batch call times out
when ``timeout`` seconds pass without an answer to any of its requests,
counted from its last answer, so a large batch that an engine answers
steadily never times out, and a hung request still does.  A batch is
written from a thread of its own, so the deadline also holds for an engine
that stops reading its input; while that write is still blocked, a new
call times out at once rather than interleave its requests with it.
"""

import json
import queue
import shlex
import subprocess
import threading
import time

import numpy as np

from ..errors import BackendError, BackendTimeoutError
from .base import Backend, BackendDescriptor, floor_priors


class SubprocessBackend(Backend):
    def __init__(self, descriptor: BackendDescriptor, timeout: float = 30.0):
        self.descriptor = descriptor
        self.timeout = timeout
        self._proc = subprocess.Popen(
            shlex.split(descriptor.launch),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
        self._next_id = 0
        self._writer: threading.Thread | None = None
        self._write_error: OSError | None = None
        self._messages: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                self._messages.put(json.loads(line))
            except json.JSONDecodeError:
                self._messages.put({"malformed": line})
        self._messages.put(None)

    def _write(self, payload: str) -> None:
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write(payload)
            self._proc.stdin.flush()
        except OSError as exc:  # the engine exited while the batch was written
            self._write_error = exc

    def _writing(self) -> bool:
        return self._writer is not None and self._writer.is_alive()

    def _call_batch(self, requests: list[dict]) -> list[float]:
        """Send all requests, then collect the matching responses.  Ids are never
        reused, so a response the batch does not want, left by a failed batch, is dropped."""
        if self._proc.poll() is not None:
            raise BackendError(f"backend process exited with code {self._proc.returncode}")
        if self._writing():
            raise BackendTimeoutError("backend is still not reading an earlier batch")
        ids, lines = [], []
        for req in requests:
            self._next_id += 1
            ids.append(self._next_id)
            lines.append(json.dumps({"id": self._next_id, **req}) + "\n")
        self._write_error = None
        self._writer = threading.Thread(target=self._write, args=("".join(lines),),
                                        daemon=True)
        self._writer.start()
        try:
            results = self._collect(ids)
        except BackendTimeoutError:
            raise  # the engine may have stopped reading: its write stays blocked
        except BackendError:
            # The engine is still reading: let it take the rest of the batch,
            # so that the next call (a retry of one point, say) finds the
            # stream free.
            self._writer.join(self.timeout)
            raise
        self._writer.join(self.timeout)  # the engine read every request: the write is done
        return [results[rid] for rid in ids]

    def _collect(self, ids: list[int]) -> dict[int, float]:
        """The answers to ``ids``, each deadline counted from the last answer."""
        wanted = set(ids)
        results: dict[int, float] = {}
        deadline = time.monotonic() + self.timeout
        while wanted:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BackendTimeoutError(
                    f"backend did not answer within {self.timeout:.1f}s", min(wanted)
                )
            try:
                msg = self._messages.get(timeout=min(remaining, 0.2))
            except queue.Empty:
                if self._write_error is not None:
                    raise BackendError(
                        f"backend stopped reading requests ({self._write_error})") from None
                continue
            if msg is None:
                raise BackendError("backend closed its output stream", min(wanted))
            if "malformed" in msg:
                raise BackendError(f"malformed backend response: {msg['malformed']!r}")
            rid = msg.get("id")
            if rid in wanted:
                results[rid] = self._take(msg)
                wanted.discard(rid)
                deadline = time.monotonic() + self.timeout
        return results

    @staticmethod
    def _take(msg: dict) -> float:
        if "error" in msg:
            raise BackendError(str(msg["error"]), msg.get("id"))
        if "value" not in msg or not isinstance(msg["value"], (int, float)):
            raise BackendError(f"response without numeric value: {msg!r}", msg.get("id"))
        return float(msg["value"])

    def _requests(self, kind, states, moves, level=None) -> list[dict]:
        if moves is None:
            moves = [None] * len(states)
        return [
            {"kind": kind, "state": s, "move": m, "level": level}
            for s, m in zip(states, moves)
        ]

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
        if self._writing():
            # A blocked write holds the input stream's lock until the engine
            # is gone, and closing the stream would wait for it.
            self._proc.kill()
            self._writer.join(timeout=3)
        try:
            if self._proc.stdin is not None and not self._writing():
                self._proc.stdin.close()
        except OSError:
            pass
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=3)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        # The reader sees end of file once the engine is gone.  One still
        # reading (a child of the engine holds the pipe open) holds the
        # stream's lock, and closing the stream would wait for it.
        self._reader.join(timeout=3)
        if not self._reader.is_alive() and self._proc.stdout is not None:
            self._proc.stdout.close()
