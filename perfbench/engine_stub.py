"""Deterministic evaluator engine for the records-engine workload.

Speaks rankforge's line-delimited JSON wire protocol on stdin/stdout and
answers every request at once, in order.  One process serves all three
roles: the request's ``kind`` selects the value.  Values are a hash of
(kind, state, move, level), so every run gives the same answers:
policy priors lie in [0.05, 0.95], values are win rates in [0.02, 0.98]
(chess's logit transform never clamps them), strength scores lie in
[-2, 2].

Run: python3 engine_stub.py
"""

import hashlib
import json
import sys


def value_of(request: dict) -> float:
    blob = "|".join(str(request.get(k)) for k in ("kind", "state", "move", "level"))
    digest = hashlib.md5(blob.encode()).digest()
    raw = int.from_bytes(digest[:6], "big") / float(1 << 48)
    if request.get("kind") == "policy":
        return 0.05 + 0.9 * raw
    if request.get("kind") == "value":
        return 0.02 + 0.96 * raw
    return raw * 4.0 - 2.0


def main() -> None:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        sys.stdout.write(json.dumps({"id": request["id"], "value": value_of(request)}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
