"""Subprocess-client microbenchmarks against the records-engine stub.

    python3 -m pytest benchmarks --benchmark-only

Both benchmarks talk to one ``perfbench/engine_stub.py`` process through
``SubprocessBackend``: one times a 1,200-request value batch, the other 300
calls of 3 requests each.  The engine starts once per module and takes one
warm-up call first, so the rounds time round trips only.
"""

import sys
from pathlib import Path

import pytest

from rankforge.backends import BackendDescriptor, SubprocessBackend

ENGINE = Path(__file__).resolve().parents[1] / "perfbench" / "engine_stub.py"


@pytest.fixture(scope="module")
def engine():
    backend = SubprocessBackend(
        BackendDescriptor(kind="value", game="synthetic", launch=f"{sys.executable} {ENGINE}"),
        timeout=30)
    backend.evaluate_state_many(["warm-up"])
    yield backend
    backend.close()


def test_one_batch_of_1200_requests(benchmark, engine):
    states = [f"state-{i:05d}" for i in range(1200)]
    moves = [str(i % 7) for i in range(1200)]
    values = benchmark(engine.evaluate_state_many, states, moves)
    assert len(values) == 1200


def test_300_calls_of_3_requests(benchmark, engine):
    states, moves = ["a", "b", "c"], ["1", "2", "3"]

    def calls():
        for _ in range(300):
            engine.evaluate_state_many(states, moves)

    benchmark.pedantic(calls, rounds=5, iterations=1)
