"""Named deterministic RNG substreams.

All randomness in the package flows from one root seed.  A substream is
identified by a path of names (strings or non-negative integers), so the
stream consumed by one stage never depends on how much randomness another
stage used.
"""

import hashlib

import numpy as np


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


def draw_means(stacked: np.ndarray, n: int, repetitions: int, root_seed: int, *path) -> np.ndarray:
    """Row ``rep`` is the mean of n distinct rows of ``stacked``, drawn with
    the substream ``(*path, rep)``; one row per repetition."""
    means = np.empty((repetitions, stacked.shape[1]))
    for rep in range(repetitions):
        idx = substream(root_seed, *path, rep).choice(len(stacked), size=n, replace=False)
        means[rep] = stacked[idx].mean(axis=0)
    return means
