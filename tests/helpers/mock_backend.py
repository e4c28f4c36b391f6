"""Scripted line-delimited JSON backend for protocol tests.

Modes:
  inorder            answer each request immediately
  outoforder         buffer 4 requests, answer them in reversed order
  hang               never answer requests whose state contains "HANG";
                     keep serving everything else
  error              answer states containing "BAD" with an error object
  slow               answer each request after SLOW_DELAY seconds, so a
                     batch's answers come steadily but the whole batch
                     takes longer than a short timeout
  split              answer each request immediately, in two flushes
                     SPLIT_PAUSE seconds apart, so the reader sees half a
                     line first
  nan MARK           answer states containing MARK with the value NaN

Values are a deterministic hash of (kind, state, move, level), so two
modes produce identical values and only ordering/completeness differ.
Policy values are squashed into [0, 1].
"""

import hashlib
import json
import sys
import time

SLOW_DELAY = 0.05
SPLIT_PAUSE = 0.01


def value_of(req):
    blob = "|".join(
        str(req.get(k)) for k in ("kind", "state", "move", "level")
    ).encode()
    digest = hashlib.md5(blob).digest()
    raw = int.from_bytes(digest[:6], "big") / float(1 << 48)
    if req.get("kind") == "policy":
        return 0.05 + 0.9 * raw
    return raw * 4.0 - 2.0


def respond(req):
    if "BAD" in str(req.get("state", "")) and mode == "error":
        return {"id": req["id"], "error": "scripted failure"}
    if mode == "nan" and sys.argv[2] in str(req.get("state", "")):
        return {"id": req["id"], "value": float("nan")}
    return {"id": req["id"], "value": value_of(req)}


def emit(msg):
    line = json.dumps(msg) + "\n"
    if mode == "split":
        sys.stdout.write(line[:len(line) // 2])
        sys.stdout.flush()
        time.sleep(SPLIT_PAUSE)
        line = line[len(line) // 2:]
    sys.stdout.write(line)
    sys.stdout.flush()


mode = sys.argv[1] if len(sys.argv) > 1 else "inorder"

if mode == "outoforder":
    # reverse within windows; flush on idle so any batch size completes.
    # select works on the raw fd, so reads must bypass Python's buffering.
    import os
    import select

    fd = sys.stdin.fileno()
    data = b""
    buffer = []
    eof = False

    def flush():
        for queued in reversed(buffer):
            emit(respond(queued))
        buffer.clear()

    while True:
        ready, _, _ = select.select([fd], [], [], 0.1)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                eof = True
            data += chunk
            while b"\n" in data:
                line, data = data.split(b"\n", 1)
                if line.strip():
                    buffer.append(json.loads(line))
            if len(buffer) >= 4:
                flush()
        else:
            if buffer:
                flush()
            if eof:
                break
        if eof and not data and not buffer:
            break
else:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        if mode == "hang" and "HANG" in str(req.get("state", "")):
            continue
        if mode == "slow":
            time.sleep(SLOW_DELAY)
        emit(respond(req))
