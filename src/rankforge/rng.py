"""Named deterministic RNG substreams.

All randomness in the package flows from one root seed.  A substream is
identified by a path of names (strings or non-negative integers), so the
stream consumed by one stage never depends on how much randomness another
stage used.

``substream`` builds one Generator through NumPy's ``SeedSequence`` and
``PCG64``, about 20 µs a stream.  ``substreams`` seeds the streams of many
keys under one path prefix in one vector pass, with the same bits:

- SeedSequence (O'Neill's seed_seq design, 2015) hashes the entropy words,
  the root seed's words padded to four and then each path token's words,
  into a pool of four uint32 words.  Every word after the first four is
  mixed into each pool word on its own, and the hash constant it meets
  depends only on its position.  So NumPy's own SeedSequence mixes the
  root and the prefix, once per prefix (cached), and the emulation starts
  at the key words: each key's words are mixed in as uint32 lanes, one
  batch of lanes per key word count.
- ``generate_state(4, uint64)`` hashes the pool with fixed constants, again
  as uint32 lanes.  PCG64 (PCG XSL-RR 128/64, O'Neill 2014) seeds its
  128-bit state and increment from those words by
  ``pcg_setseq_128_srandom_r``: two LCG steps, done per lane in Python ints.
- One PCG64 is then given each lane's state through its ``state`` dict,
  which also clears its buffered 32-bit word.  A ``Generator`` keeps no
  state beyond its bit generator's, so every distribution draws the bits
  ``substream`` would.

That re-stated Generator is valid only inside ``draw``: the next key
overwrites it, so ``draw`` must not keep it.  Since each key's state is set
just before its draw, ``substreams`` iterators may be interleaved, but not
advanced from two threads at once: they share that one PCG64.
NumPy's compatibility policy (NEP 19) does not freeze these algorithms;
``tests/test_rng.py`` compares the bytes with ``substream``.
"""

import hashlib
from functools import lru_cache

import numpy as np

MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1
POOL_WORDS = 4
# SeedSequence's hash constants: entropy mixing (A), generate_state (B)
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Keys seeded per vector pass: it bounds the lanes' arrays and state ints.
SEED_CHUNK = 4096


def _frozen(words) -> np.ndarray:
    """A read-only uint32 array, safe to hand out from a cache."""
    out = np.array(words, dtype=np.uint32)
    out.flags.writeable = False
    return out


def _consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i`` mod 2**32 for i in [0, count]."""
    seq = [init]
    for _ in range(count):
        seq.append(seq[-1] * mult & MASK32)
    return _frozen(seq)


_STATE_CONSTS = _consts(INIT_B, MULT_B, 2 * POOL_WORDS)
_STATE_XOR, _STATE_MUL = _STATE_CONSTS[:-1], _STATE_CONSTS[1:]
_STATE_CYCLE = np.tile(np.arange(POOL_WORDS), 2)
_BITGEN = np.random.PCG64(0)
_GEN = np.random.Generator(_BITGEN)


def _token(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"substream path ints must be non-negative, got {part}")
        return int(part)
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(root_seed: int, *path) -> np.random.Generator:
    """Return a Generator for the substream named by ``path``."""
    key = tuple(_token(p) for p in path)
    seq = np.random.SeedSequence(entropy=int(root_seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def _word_count(token: int) -> int:
    """How many uint32 words SeedSequence makes of a non-negative int."""
    return (token.bit_length() + 31) // 32 or 1


@lru_cache(maxsize=64)
def _prefix_pool(root_seed: int, prefix: tuple) -> tuple[np.ndarray, int]:
    """SeedSequence's pool after the root seed and the prefix tokens, and the
    hash constant that the next entropy word meets: each entropy word costs
    four hashmix calls, and the root is padded to ``POOL_WORDS`` words."""
    pool = np.random.SeedSequence(root_seed, spawn_key=prefix).pool
    words = max(POOL_WORDS, _word_count(root_seed)) + sum(map(_word_count, prefix))
    return _frozen(pool), INIT_A * pow(MULT_A, POOL_WORDS * words, 1 << 32) & MASK32


@lru_cache(maxsize=64)
def _key_consts(hc: int, width: int) -> tuple:
    """Per key word, the hash constants each pool word's hashmix XORs in and
    multiplies by."""
    seq = _consts(hc, MULT_A, width * POOL_WORDS)
    return tuple((seq[i:i + POOL_WORDS], seq[i + 1:i + 1 + POOL_WORDS])
                 for i in range(0, width * POOL_WORDS, POOL_WORDS))


def _seed_words(pool: np.ndarray, hc: int, words: np.ndarray) -> np.ndarray:
    """(lanes, 4) uint64: ``generate_state(4, uint64)`` of the pool after
    each lane's row of ``words`` is mixed in."""
    for (xor, mul), col in zip(_key_consts(hc, words.shape[1]), words.T):
        h = (col[:, None] ^ xor) * mul
        h ^= h >> 16
        pool = MIX_L * pool - MIX_R * h
        pool ^= pool >> 16
    out = (pool[:, _STATE_CYCLE] ^ _STATE_XOR) * _STATE_MUL
    out ^= out >> 16
    return out.astype("<u4", order="C").view("<u8")


def substreams(root_seed: int, prefix: tuple, keys, draw):
    """Yield ``draw(substream(root_seed, *prefix, key))`` for each of the
    sequence ``keys``, with the same bits.  The first ``SEED_CHUNK`` keys are
    seeded in one vector pass when the first value is asked for, and so on;
    each key is drawn only when its value is asked for, so a caller holds
    no more draws than it keeps.  ``draw`` gets a Generator that is
    re-stated for the next key once it returns."""
    pool, hc = _prefix_pool(int(root_seed), tuple(_token(p) for p in prefix))
    for start in range(0, len(keys), SEED_CHUNK):
        tokens = [_token(k) for k in keys[start:start + SEED_CHUNK]]
        by_width = {}
        for lane, token in enumerate(tokens):
            by_width.setdefault(_word_count(token), []).append(lane)
        seeds = [None] * len(tokens)
        for width, lanes in by_width.items():
            data = b"".join(tokens[lane].to_bytes(4 * width, "little") for lane in lanes)
            words = np.frombuffer(data, dtype="<u4").reshape(-1, width)
            for lane, seed in zip(lanes, _seed_words(pool, hc, words).tolist()):
                seeds[lane] = seed
        for s_hi, s_lo, i_hi, i_lo in seeds:
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
            state = ((s_hi << 64 | s_lo) + inc) * PCG_MULT + inc & MASK128
            _BITGEN.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            yield draw(_GEN)


def draw_means(stacked: np.ndarray, n: int, repetitions: int, root_seed: int, *path) -> np.ndarray:
    """Row ``rep`` is the mean of n distinct rows of ``stacked``, drawn with
    the substream ``(*path, rep)``; one row per repetition."""
    means = np.empty((repetitions, stacked.shape[1]))
    picks = substreams(root_seed, path, range(repetitions),
                       lambda gen: gen.choice(len(stacked), size=n, replace=False))
    for rep, idx in enumerate(picks):
        means[rep] = stacked[idx].mean(axis=0)
    return means
