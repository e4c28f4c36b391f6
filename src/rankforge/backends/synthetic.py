"""In-process backend over the synthetic quality tables.

Semantics, all derived from one seeded table:
  strength(state, move)     = quality(move) (+ optional deterministic noise)
  prior(state, move, level) = softmax(perceived qualities / T(level))[move]
  value(state)              = best quality at the state (mover's perspective)
  value(state after move)   = -quality(move) (new mover's perspective)

so the deterioration computed downstream is exactly best - chosen quality.
States are self-describing ids.

The ids of the last ``states`` sequence are parsed once and their runs
kept, each with its match's quality block, and so are the indices of the
last ``moves`` sequence.  The strength, policy and value calls of one
extraction batch all pass the same states and moves, so they parse each id
and each move once and derive each match's quality block once; the
strength call derives each match's noise block once.  A malformed id, a
ply outside the match or a move that is not an in-range integer raises
DataError.
"""

from itertools import groupby
from operator import itemgetter

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


def parse_moves(moves, width: int) -> np.ndarray:
    """Parse moves into column indices in [0, width)."""
    try:
        cols = np.fromiter(map(int, moves), dtype=np.int64, count=len(moves))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"synthetic move is not an integer ({exc})") from None
    outside = (cols < 0) | (cols >= width)
    if outside.any():
        move = moves[int(outside.argmax())]
        raise DataError(f"move {move!r} out of range for {width} moves per state")
    return cols


class SyntheticBackend(Backend):
    def __init__(self, config: SynthConfig):
        self.config = config
        self.descriptor = BackendDescriptor(
            kind="value", game="synthetic", levels=config.level_labels()
        )
        self._last_states = None
        self._last_runs = None
        self._last_moves = None
        self._last_cols = None

    def _runs(self, states):
        """(uid, vector slice, ply rows, quality block) per run of consecutive
        states sharing a match uid; kept for the last ``states`` sequence."""
        states = tuple(states)
        if states != self._last_states:
            rows = [parse_state_id(s) for s in states]
            plies = np.array([ply for _, ply in rows], dtype=np.int64) - 1
            outside = (plies < 0) | (plies >= self.config.plies_per_match)
            if outside.any():
                raise DataError(f"state {states[int(outside.argmax())]!r} is outside plies "
                                f"1-{self.config.plies_per_match} of a match")
            runs = []
            start = 0
            for uid, run in groupby(rows, key=itemgetter(0)):
                stop = start + sum(1 for _ in run)
                runs.append((uid, slice(start, stop), plies[start:stop],
                             quality_block(self.config, uid)))
                start = stop
            self._last_states, self._last_runs = states, runs
        return self._last_runs

    def _grouped(self, states, moves):
        """The runs of ``states``, each with its move indices (None without moves)."""
        runs = self._runs(states)
        cols = None if moves is None else self._move_indices(moves)
        for uid, where, plies, q in runs:
            yield uid, where, plies, q, None if cols is None else cols[where]

    def _move_indices(self, moves) -> np.ndarray:
        """The moves as column indices; kept for the last ``moves`` sequence."""
        moves = tuple(moves)
        if moves != self._last_moves:
            self._last_cols = parse_moves(moves, self.config.moves_per_state)
            self._last_moves = moves
        return self._last_cols

    def score_strength_many(self, states, moves) -> np.ndarray:
        out = np.empty(len(states))
        sd = self.config.strength_noise_sd
        for uid, where, plies, q, cols in self._grouped(states, moves):
            beta = q[plies, cols]
            if sd > 0:
                beta = beta + sd * strength_noise_block(self.config, uid)[plies, cols]
            out[where] = beta
        return out

    def policy_prior_many(self, states, moves, level: str) -> np.ndarray:
        lv = self.config.level_by_label(level)
        temp = self.config.temperature(lv.skill)
        out = np.empty(len(states))
        for _, where, plies, q, cols in self._grouped(states, moves):
            probs = softmax(perceived_qualities(lv, q[plies]) / temp, axis=1)
            out[where] = probs[np.arange(len(plies)), cols]
        return floor_priors(out)

    def evaluate_state_many(self, states, moves=None) -> np.ndarray:
        out = np.empty(len(states))
        for _, where, plies, q, cols in self._grouped(states, moves):
            if cols is None:
                out[where] = q[plies].max(axis=1)
            else:
                out[where] = -q[plies, cols]
        return out
