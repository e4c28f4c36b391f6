"""In-process backend over the synthetic quality tables.

Semantics, all derived from one seeded table:
  strength(state, move)     = quality(move) (+ optional deterministic noise)
  prior(state, move, level) = softmax(perceived qualities / T(level))[move]
  value(state)              = best quality at the state (mover's perspective)
  value(state after move)   = -quality(move) (new mover's perspective)

so the deterioration computed downstream is exactly best - chosen quality.
States are self-describing ids.

The ids of the last ``states`` sequence are parsed once per run of one
match: each id is split once, the prefix and uid are checked once per run
and the ply texts once per sequence.  Beside the runs, the backend keeps
the sequence's quality rows stacked as one (states, M) matrix, one row per
state, and the indices of the last ``moves`` sequence.  The strength,
policy and value calls of one extraction batch all pass the same states
and moves, so each is one array expression over those rows; each match's
quality block is derived once per batch, and the strength call derives
each match's noise block once; each kind is seeded for the whole batch in
one ``rng.substreams`` pass.  A malformed id, a ply outside the match or a
move that is not an in-range integer raises DataError; a malformed id
raises the error of ``parse_state_id``.
"""

from itertools import groupby, repeat

import numpy as np

from ..errors import DataError
from ..synthlab import (
    STATE_PREFIX,
    SynthConfig,
    parse_state_id,
    perceived_qualities,
    quality_blocks,
    row_max,
    strength_noise_blocks,
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


def parse_state_runs(states) -> tuple[list, list, np.ndarray]:
    """(uids, stops, plies): the match uid and end of each run of consecutive
    ``states`` of one match, and every state's ply.  A malformed id, or a
    state that is not a str, is left to ``parse_state_id``."""
    if not states:
        return [], [], np.empty(0, dtype=np.int64)
    try:
        heads, _, texts = zip(*map(str.rpartition, states, repeat(":")))
    except TypeError:  # a state that is not a str
        heads = texts = ()
    uids, stops, stop = [], [], 0
    for head, run in groupby(heads):
        prefix, _, uid = head.partition(":")
        if prefix != STATE_PREFIX or not uid:
            break
        stop += len(list(run))
        uids.append(uid)
        stops.append(stop)
    if stop == len(states) and all(texts) and "".join(texts).isdecimal():
        try:
            return uids, stops, np.array(texts, dtype=np.int64)
        except OverflowError:  # a ply past int64 is past every match: clip it
            return uids, stops, np.array([min(int(t), 2**63 - 1) for t in texts])
    for state in states:
        parse_state_id(state)  # raises the DataError of the first malformed id
    # every state that is not a str reads as an id through its str()
    return parse_state_runs(tuple(map(str, states)))


class SyntheticBackend(Backend):
    def __init__(self, config: SynthConfig):
        self.config = config
        self.descriptor = BackendDescriptor(
            kind="value", game="synthetic", levels=config.level_labels()
        )
        self._last_states = None
        self._last_runs = None
        self._last_rows = None
        self._last_moves = None
        self._last_cols = None

    def _stack(self, blocks, runs) -> np.ndarray:
        """Each state's row of its match's block, stacked in state order;
        ``blocks`` derives every run's block in one pass."""
        uids, stops, plies = runs
        rows = np.empty((len(plies), self.config.moves_per_state))
        start = 0
        for block, stop in zip(blocks(self.config, uids), stops):
            rows[start:stop] = block[plies[start:stop]]
            start = stop
        return rows

    def _rows(self, states) -> np.ndarray:
        """The (states, M) quality rows of ``states``; kept, with their runs,
        for the last ``states`` sequence."""
        states = tuple(states)
        if states != self._last_states:
            uids, stops, plies = parse_state_runs(states)
            plies -= 1
            outside = (plies < 0) | (plies >= self.config.plies_per_match)
            if outside.any():
                raise DataError(f"state {states[int(outside.argmax())]!r} is outside plies "
                                f"1-{self.config.plies_per_match} of a match")
            runs = (uids, stops, plies)
            self._last_rows = self._stack(quality_blocks, runs)
            self._last_states, self._last_runs = states, runs
        return self._last_rows

    def _move_indices(self, moves) -> np.ndarray:
        """The moves as column indices; kept for the last ``moves`` sequence."""
        moves = tuple(moves)
        if moves != self._last_moves:
            self._last_cols = parse_moves(moves, self.config.moves_per_state)
            self._last_moves = moves
        return self._last_cols

    def _chosen(self, states, moves):
        """The quality rows of ``states`` and, per row, its index and move column."""
        q = self._rows(states)
        return q, np.arange(len(q)), self._move_indices(moves)

    def score_strength_many(self, states, moves) -> np.ndarray:
        q, rows, cols = self._chosen(states, moves)
        beta = q[rows, cols]
        sd = self.config.strength_noise_sd
        if sd > 0:
            beta = beta + sd * self._stack(strength_noise_blocks, self._last_runs)[rows, cols]
        return beta

    def policy_prior_many(self, states, moves, level: str) -> np.ndarray:
        lv = self.config.level_by_label(level)
        q, rows, cols = self._chosen(states, moves)
        v = perceived_qualities(lv, q) / self.config.temperature(lv.skill)
        ex = np.exp(v - row_max(v)[:, None])
        return floor_priors(ex[rows, cols] / ex.sum(axis=1))

    def evaluate_state_many(self, states, moves=None) -> np.ndarray:
        if moves is None:
            return row_max(self._rows(states))
        q, rows, cols = self._chosen(states, moves)
        return -q[rows, cols]
