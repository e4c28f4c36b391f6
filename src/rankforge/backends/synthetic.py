"""In-process backend over the synthetic quality tables.

Semantics, all derived from one seeded table:
  strength(state, move)     = quality(move) (+ optional deterministic noise)
  prior(state, move, level) = softmax(perceived qualities / T(level))[move]
  value(state)              = best quality at the state (mover's perspective)
  value(state after move)   = -quality(move) (new mover's perspective)

so the deterioration computed downstream is exactly best - chosen quality.
States are self-describing ids; the quality block for a match is derived
on first use and kept in a small LRU.
"""

from functools import lru_cache, partial

import numpy as np

from ..errors import DataError
from ..synthlab import (
    SynthConfig,
    parse_state_id,
    perceived_qualities,
    quality_block,
    softmax,
    strength_noise_block,
)
from .base import Backend, BackendDescriptor, floor_priors


class SyntheticBackend(Backend):
    def __init__(self, config: SynthConfig, descriptor: BackendDescriptor | None = None):
        self.config = config
        self.descriptor = descriptor or BackendDescriptor(
            kind="value", game="synthetic", levels=config.level_labels()
        )
        self._qualities = lru_cache(maxsize=1024)(partial(quality_block, config))
        self._noise = lru_cache(maxsize=1024)(partial(strength_noise_block, config))

    def _move_index(self, move, width: int) -> int:
        idx = int(move)
        if not 0 <= idx < width:
            raise DataError(f"move {move!r} out of range for {width} moves per state")
        return idx

    def _grouped(self, states, moves):
        """Runs of consecutive states sharing a match uid, as vector indices."""
        width = self.config.moves_per_state
        rows = [parse_state_id(s) for s in states]
        start = 0
        while start < len(rows):
            uid = rows[start][0]
            stop = start
            while stop < len(rows) and rows[stop][0] == uid:
                stop += 1
            plies = np.array([rows[i][1] for i in range(start, stop)]) - 1
            if moves is None:
                cols = None
            else:
                cols = np.array(
                    [self._move_index(moves[i], width) for i in range(start, stop)]
                )
            yield uid, slice(start, stop), plies, cols
            start = stop

    def score_strength_many(self, states, moves) -> np.ndarray:
        out = np.empty(len(states))
        sd = self.config.strength_noise_sd
        for uid, where, plies, cols in self._grouped(states, moves):
            beta = self._qualities(uid)[plies, cols]
            if sd > 0:
                beta = beta + sd * self._noise(uid)[plies, cols]
            out[where] = beta
        return out

    def policy_prior_many(self, states, moves, level: str) -> np.ndarray:
        lv = self.config.level_by_label(level)
        temp = self.config.temperature(lv.skill)
        out = np.empty(len(states))
        for uid, where, plies, cols in self._grouped(states, moves):
            q = self._qualities(uid)
            probs = softmax(perceived_qualities(lv, q[plies]) / temp, axis=1)
            out[where] = probs[np.arange(len(plies)), cols]
        return floor_priors(out)

    def evaluate_state_many(self, states, moves=None) -> np.ndarray:
        out = np.empty(len(states))
        for uid, where, plies, cols in self._grouped(states, moves):
            q = self._qualities(uid)
            if cols is None:
                out[where] = q[plies].max(axis=1)
            else:
                out[where] = -q[plies, cols]
        return out
