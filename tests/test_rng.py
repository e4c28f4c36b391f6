"""The bulk seeding path gives every key the bits of its own ``substream``.

``substreams`` emulates SeedSequence's mixing and PCG64's seeding in
NumPy lanes; NumPy does not freeze either algorithm (NEP 19), so these
byte comparisons are what catch an upgrade that changes them.
"""

import random
import tracemalloc

import numpy as np
import pytest

from rankforge.rng import SEED_CHUNK, draw_means, substream, substreams

DRAWS = {
    "standard_normal": lambda gen: gen.standard_normal((3, 4)).tobytes(),
    "random": lambda gen: gen.random(7).tobytes(),
    "choice": lambda gen: gen.choice(30, size=5, replace=False).tobytes(),
    "mixed": lambda gen: (gen.integers(1 << 40, size=3).tobytes() + gen.random(1).tobytes()
                          + gen.standard_normal(2).tobytes()),
}
# tokens of one, two and three or more uint32 words; a str hashes to 64 bits
TOKENS = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**100 + 3,
          "qualities", "x", "", "pe101-g3-pl004-m017"]


def _expected(root, prefix, keys, draw):
    return [draw(substream(root, *prefix, key)) for key in keys]


def _random_token(r):
    if r.random() < 0.3:
        return r.choice(TOKENS)
    if r.random() < 0.5:
        return f"uid-{r.getrandbits(20)}"
    return r.getrandbits(r.choice([1, 8, 31, 32, 33, 63, 64, 65, 96, 130]))


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("case", range(40))
def test_random_roots_and_paths_draw_the_substream_bytes(draw, case):
    r = random.Random(f"{draw}/{case}")
    root = r.choice([0, 1, 20240210, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3,
                     r.getrandbits(r.choice([8, 32, 64, 160]))])
    prefix = tuple(_random_token(r) for _ in range(r.randint(0, 3)))
    keys = [_random_token(r) for _ in range(r.randint(1, 12))]
    assert list(substreams(root, prefix, keys, DRAWS[draw])) == _expected(root, prefix, keys,
                                                                          DRAWS[draw])


@pytest.mark.parametrize("prefix", [(), ("qualities",), (0,), (2**32, "eval-player", 3)],
                         ids=["empty", "str", "int-0", "wide-int-str-int"])
def test_every_key_width_in_one_call(prefix):
    # one, two and five word keys interleave, so each width is its own lane group
    keys = TOKENS + [np.int64(5), np.uint64(2**63), 2**150] + TOKENS[::-1]
    for root in (0, 3, 2**32, 2**200):
        assert (list(substreams(root, prefix, keys, DRAWS["mixed"]))
                == _expected(root, prefix, keys, DRAWS["mixed"]))


def test_no_keys_draw_nothing():
    assert list(substreams(1, ("a",), [], DRAWS["random"])) == []
    assert draw_means(np.ones((4, 2)), 2, 0, 1, "a").shape == (0, 2)


def test_negative_tokens_and_roots_raise_as_substream_does():
    for root, prefix, keys in [(1, ("a",), [3, -1]), (1, (-2,), [3]), (-1, ("a",), [3])]:
        with pytest.raises(ValueError):
            list(substreams(root, prefix, keys, DRAWS["random"]))
        with pytest.raises(ValueError):
            [substream(root, *prefix, key) for key in keys]


def _peak_and_kept(keys) -> tuple[int, int]:
    """Bytes at the traced peak of one ``substreams`` call, and bytes its
    result still holds, both above the memory in use before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = list(substreams(9, ("lanes",), keys, lambda gen: None))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == len(keys)
    return peak - base, kept - base


def test_26000_keys_match_and_seed_in_bounded_chunks():
    keys = range(26_000)
    got = list(substreams(5, ("trainset", 2), keys, DRAWS["choice"]))
    assert got == _expected(5, ("trainset", 2), keys, DRAWS["choice"])
    _peak_and_kept(range(8))  # warm the caches of the prefix and the hash constants
    one_chunk, _ = _peak_and_kept(range(SEED_CHUNK))
    peak, kept = _peak_and_kept(keys)
    # the lanes of one chunk at a time, not of all 26,000 keys
    assert peak - kept < 2 * one_chunk


def test_draw_means_rows_are_the_loop_over_substreams():
    stacked = np.random.default_rng(4).normal(size=(30, 6))
    for n, reps, path in [(5, 300, ("trainset", 3)), (30, 4, ("eval-player", 1, "p7")),
                          (1, 9, ("boxplot", 0))]:
        expected = np.array([
            stacked[substream(11, *path, rep).choice(len(stacked), size=n, replace=False)]
            .mean(axis=0)
            for rep in range(reps)
        ])
        assert draw_means(stacked, n, reps, 11, *path).tobytes() == expected.tobytes()


def test_the_restated_generator_starts_each_key_afresh():
    # a key whose draw leaves a buffered 32-bit word must not leak it to the next key
    keys = ["a", "b", "c"]
    draw = lambda gen: gen.integers(5, size=3, dtype=np.uint32).tobytes()  # noqa: E731
    assert list(substreams(1, (), keys, draw)) == _expected(1, (), keys, draw)


def test_interleaved_iterators_keep_their_own_streams():
    keys = [f"m{i}" for i in range(5)]
    first = substreams(3, ("qualities",), keys, DRAWS["standard_normal"])
    second = substreams(3, ("moves",), keys, DRAWS["random"])
    assert list(zip(first, second)) == list(zip(
        _expected(3, ("qualities",), keys, DRAWS["standard_normal"]),
        _expected(3, ("moves",), keys, DRAWS["random"])))
