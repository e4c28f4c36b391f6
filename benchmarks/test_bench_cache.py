"""Engine-path line codec microbenchmarks: the response cache and request lines.

    python3 -m pytest benchmarks --benchmark-only

The generated cache has the records-engine workload's shape: 25,000 lines,
half of them on Go positions of 19 ranks of 19 points plus ko and side
fields (about 390 characters), half on chess FEN strings, over the three
kinds and three policy levels; each policy value is a prior in
``[PRIOR_FLOOR, 1]``, so the load keeps every line.  One benchmark times
``ResponseCache`` loading it; each of its states is unique, the worst case
for a load that holds each distinct state text once.  One times loading a
cache of 5,000 states, each scored under all five (kind, level) pairs as the
engine path scores a position, and reports the bytes the loaded cache holds
(``tracemalloc``) in ``extra_info``.  One times a cold ``CachedBackend`` call of 1,200 misses,
answered at once by an in-process fake, into an empty cache: key lookups,
the misses' lines and their one write.  One times formatting the request
lines of a 1,200-request batch.
"""

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from rankforge.backends import (PRIOR_FLOOR, Backend, BackendDescriptor, CachedBackend,
                                ResponseCache)
from rankforge.backends.cache import cache_lines
from rankforge.backends.client import request_lines

LINES, BATCH, SEED = 25_000, 1_200, 0
KINDS = (("strength", None), ("value", None), ("policy", "weak"), ("policy", "mid"),
         ("policy", "strong"))


def _go_state(rng: random.Random) -> str:
    ranks = ("".join(rng.choice("..XO") for _ in range(19)) for _ in range(19))
    return "/".join(ranks) + f"|ko=-|to={rng.choice('bw')}"


def _chess_state(rng: random.Random) -> str:
    ranks = ("".join(rng.choice("1pPnNkK") for _ in range(8)) for _ in range(8))
    return "/".join(ranks) + f" {rng.choice('wb')} KQkq - 0 {rng.randrange(1, 80)}"


def _keys(rng: random.Random, count: int) -> list[tuple]:
    keys = []
    for i in range(count):
        kind, level = KINDS[i % len(KINDS)]
        state = _go_state(rng) if i % 2 else _chess_state(rng)
        keys.append(("2873955d6c8fe996", kind, state, f"m{i % 97}", level))
    return keys


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    rng = random.Random(SEED)
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    keys = _keys(rng, LINES)
    path.write_text("".join(
        json.dumps({"b": b, "k": k, "s": s, "m": m, "l": lv,
                    "v": rng.uniform(PRIOR_FLOOR, 1) if k == "policy" else rng.uniform(-2, 2)})
        + "\n"
        for b, k, s, m, lv in keys))
    return path, keys


def test_load_25000_line_cache(benchmark, cache_file):
    path, keys = cache_file
    cache = benchmark(ResponseCache, path)
    assert all(cache.get(key) is not None for key in keys[::997])


@pytest.fixture(scope="module")
def repeating_cache_file(tmp_path_factory):
    rng = random.Random(SEED)
    path = tmp_path_factory.mktemp("cache") / "repeating.jsonl"
    states = [_go_state(rng) if i % 2 else _chess_state(rng) for i in range(LINES // len(KINDS))]
    keys = [("2873955d6c8fe996", kind, state, f"m{i % 97}", level)
            for i, state in enumerate(states) for kind, level in KINDS]
    path.write_text(cache_lines([(key, rng.uniform(PRIOR_FLOOR, 1)) for key in keys]))
    return path, keys


def test_load_25000_line_cache_of_repeating_states(benchmark, repeating_cache_file):
    path, keys = repeating_cache_file
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    held = ResponseCache(path)
    benchmark.extra_info["bytes_held"] = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    cache = benchmark(ResponseCache, path)
    assert all(cache.get(key) is not None for key in keys[::997])
    assert all(held.get(key) is not None for key in keys[::997])


class _Instant(Backend):
    descriptor = BackendDescriptor(kind="value", game="go", launch="fake")

    def evaluate_state_many(self, states, moves=None):
        return np.linspace(-1.0, 1.0, len(states))


def test_one_cold_call_of_1200_misses(benchmark, tmp_path):
    keys = _keys(random.Random(SEED), BATCH)
    states, moves = [k[2] for k in keys], [k[3] for k in keys]
    names = itertools.count()

    def empty_cache():
        cached = CachedBackend(_Instant(), ResponseCache(tmp_path / f"{next(names)}.jsonl"))
        return (cached,), {}

    def cold_call(cached):
        values = cached.evaluate_state_many(states, moves)
        cached.close()
        return values

    values = benchmark.pedantic(cold_call, setup=empty_cache, rounds=20, iterations=1)
    assert len(values) == BATCH


def test_request_lines_of_a_1200_request_batch(benchmark):
    requests = [(k, s, m, lv) for _, k, s, m, lv in _keys(random.Random(SEED), BATCH)]
    lines = benchmark(request_lines, range(1, BATCH + 1), requests)
    assert lines.count(b"\n") == BATCH
