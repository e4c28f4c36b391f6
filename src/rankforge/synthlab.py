"""Skill-parametrized synthetic matches with consistent backend semantics.

Every ply of a synthetic match is a fresh state with ``M`` move qualities
drawn from a seeded table.  A player of skill ``s`` samples moves from
``softmax(q / T(s))`` where the temperature map ``T`` is strictly
decreasing in skill.  A match keeps only its chosen move indices; the
state id and the qualities of each ply derive from the match uid.  The
same quality table gives the synthetic backends their ground truth:
strength of a move is its quality (plus optional deterministic noise), the
prior of a move at a policy level is the softmax at that level's
temperature, and the value of a state is its best quality, so the
deterioration caused by a move is exactly (best - chosen) quality.

A match's quality block and move draws come from its own ``"qualities"``
and ``"moves"`` substreams, seeded for every uid of a call in one
``rng.substreams`` pass.  Matches of one skill are then drawn and sampled
``SAMPLE_CHUNK`` at a time: one softmax and one cumulative sum over their
stacked quality blocks.  Both work row by row, so a match's moves do not
depend on the chunk it was sampled in: ``gen_matches`` with one uid gives
the same match.

A policy level may have a taste, ``q_center``: it perceives a move's
quality as closeness to its taste, ``-(q - q_center)^2``, before its
softmax, so its likelihood over groups peaks where the typical chosen
quality meets the taste and falls on both sides.  Players perceive
qualities as they are; generation is unaffected.
"""

import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import groupby, islice, repeat

import numpy as np

from .errors import ConfigError, DataError
from .records.ranks import MAX_GROUPS, group_label
from .records.types import DataPoint, RankGroup
from .rng import substream, substreams

STATE_PREFIX = "syn"

# Matches whose moves are sampled with one softmax over their stacked
# quality blocks.  The desk train pool (8 groups x 120 matches, 2-core host)
# took 133 ms in chunks of 16, 157 ms one match at a time and 145 ms one
# whole group at a time; a chunk's stack is 16 x 80 x 16 floats.
SAMPLE_CHUNK = 16


@dataclass(frozen=True)
class SynthLevel:
    """One policy-bank skill level: a label, a skill anchor, and an
    optional taste.

    A level without a taste perceives qualities as they are.  A taste
    (q_center) makes the level perceive quality as closeness to it,
    -(q - q_center)^2, so moves better than the level's taste look as
    unlikely as worse ones; its likelihood curve over groups is then
    single-peaked and two-sided ambiguous."""

    label: str
    skill: float
    q_center: float | None = None


@dataclass(frozen=True)
class SynthConfig:
    groups: int
    moves_per_state: int
    plies_per_match: int
    temperature_base: float
    temperature_decay: float
    levels: tuple[SynthLevel, ...]
    player_offset_sd: float = 0.0
    strength_noise_sd: float = 0.0
    seed: int = 0
    # matches per group of the pipeline's sets; config_hash leaves them out
    train_matches_per_group: int = 200
    test_matches_per_group: int = 100

    def temperature(self, skill: float) -> float:
        return self.temperature_base * self.temperature_decay ** skill

    def level_labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    def level_by_label(self, label: str) -> SynthLevel:
        for lv in self.levels:
            if lv.label == label:
                return lv
        raise ConfigError(f"unknown policy level {label!r}")

    def __post_init__(self) -> None:
        numbers = [self.temperature_base, self.temperature_decay, self.player_offset_sd,
                   self.strength_noise_sd]
        numbers += [v for lv in self.levels for v in (lv.skill, lv.q_center) if v is not None]
        if not all(map(math.isfinite, numbers)):
            raise ConfigError("temperatures, noise sds, level skills and tastes must be finite")
        if not 2 <= self.groups <= MAX_GROUPS:
            raise ConfigError(f"need 2 to {MAX_GROUPS} rank groups")
        if self.moves_per_state < 2:
            raise ConfigError("need at least 2 moves per state")
        if self.plies_per_match < 1:
            raise ConfigError("need at least 1 ply per match")
        if self.temperature_base <= 0 or not (0 < self.temperature_decay < 1):
            raise ConfigError("temperature map must be positive and strictly decreasing")
        if self.player_offset_sd < 0 or self.strength_noise_sd < 0:
            raise ConfigError("noise standard deviations must be non-negative")
        labels = self.level_labels()
        if len(set(labels)) != len(labels):
            raise ConfigError("policy level labels must be distinct")
        skills = [lv.skill for lv in self.levels]
        if any(b <= a for a, b in zip(skills, skills[1:])):
            raise ConfigError("level skills must be strictly increasing")

    def config_hash(self) -> str:
        blob = json.dumps(
            {
                "groups": self.groups,
                "moves_per_state": self.moves_per_state,
                "plies_per_match": self.plies_per_match,
                "temperature_base": self.temperature_base,
                "temperature_decay": self.temperature_decay,
                # five slots per level, two always None: the pinned config
                # hashes were taken over this layout
                "levels": [[lv.label, lv.skill, None, None, lv.q_center]
                           for lv in self.levels],
                "player_offset_sd": self.player_offset_sd,
                "strength_noise_sd": self.strength_noise_sd,
                "seed": self.seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SynthMatch:
    uid: str
    true_group: int
    player_skill: float
    # moves[i] is the move chosen at ply i + 1, in state state_id(uid, i + 1),
    # of quality next(quality_blocks(config, [uid]))[i, moves[i]]; a tuple, so == works
    moves: tuple[int, ...]


def row_max(values: np.ndarray) -> np.ndarray:
    """The max of each row of a 2-D array.  A max is exact in any order, and
    over short rows it is several times faster from a column-major copy."""
    return np.asfortranarray(values).max(axis=1)


def softmax(values: np.ndarray) -> np.ndarray:
    """The softmax of each row of a 2-D array."""
    ex = np.exp(values - row_max(values)[:, None])
    return ex / ex.sum(axis=1, keepdims=True)


def log_softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = values - values.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _normal_blocks(config: SynthConfig, stream: str, uids):
    shape = (config.plies_per_match, config.moves_per_state)
    return substreams(config.seed, (stream,), uids, lambda gen: gen.standard_normal(shape))


def quality_blocks(config: SynthConfig, uids):
    """An iterator over the (plies, M) quality table slice of each match,
    derived from the config seed and the match uid alone."""
    return _normal_blocks(config, "qualities", uids)


def strength_noise_blocks(config: SynthConfig, uids):
    return _normal_blocks(config, "strength-noise", uids)


def move_draws(config: SynthConfig, uids):
    """An iterator over each match's uniform draw per ply, which picks its
    move from the cumulative softmax."""
    return substreams(config.seed, ("moves",), uids,
                      lambda gen: gen.random(config.plies_per_match))


def state_id(uid: str, ply: int) -> str:
    return f"{STATE_PREFIX}:{uid}:{ply}"


def parse_state_id(state: str) -> tuple[str, int]:
    prefix, _, rest = str(state).partition(":")
    uid, _, ply = rest.rpartition(":")
    if prefix != STATE_PREFIX or not uid or not ply.isdecimal():
        raise DataError(f"not a synthetic state id: {state!r}")
    return uid, int(ply)


def parse_state_runs(states) -> tuple[list, list, np.ndarray]:
    """(uids, stops, plies): the match uid and end of each run of consecutive
    ``states`` of one match, and every state's ply.  Each id is split once,
    its prefix and uid checked once per run and the ply texts once per
    sequence.  A malformed id raises the DataError of ``parse_state_id``;
    a state that is not a str reads as an id through its str()."""
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


def perceived_qualities(level: SynthLevel, qualities: np.ndarray) -> np.ndarray:
    if level.q_center is None:
        return qualities
    return -((qualities - level.q_center) ** 2)


def gen_matches(config: SynthConfig, group: int, uids, skill: float) -> list[SynthMatch]:
    """One match per uid, all at one skill, sampled ``SAMPLE_CHUNK`` matches
    at a time from their stacked quality blocks."""
    blocks, draws = quality_blocks(config, uids), move_draws(config, uids)
    matches = []
    for start in range(0, len(uids), SAMPLE_CHUNK):
        chunk = uids[start:start + SAMPLE_CHUNK]
        chosen = sample_moves(config, np.concatenate(list(islice(blocks, len(chunk)))),
                              np.concatenate(list(islice(draws, len(chunk)))), skill)
        matches.extend(SynthMatch(uid=uid, true_group=group, player_skill=skill, moves=tuple(row))
                       for uid, row in zip(chunk, chosen.tolist()))
    return matches


def sample_moves(config: SynthConfig, qualities: np.ndarray, draws: np.ndarray,
                 skill: float) -> np.ndarray:
    """The chosen move index per ply, one row per match, given the matches'
    quality blocks and move draws stacked in the same order, at the skill's
    temperature."""
    cdf = np.cumsum(softmax(qualities / config.temperature(skill)), axis=1)
    chosen = (draws[:, None] > cdf).sum(axis=1)
    return np.minimum(chosen, config.moves_per_state - 1).reshape(-1, config.plies_per_match)


def gen_group_pool(
    config: SynthConfig, tag: str, matches_per_group: int
) -> dict[int, list[SynthMatch]]:
    """Matches per group at the exact group-center skill (no player jitter)."""
    return {
        g: gen_matches(config, g, [f"{tag}-g{g}-m{i:05d}" for i in range(matches_per_group)],
                       float(g))
        for g in range(config.groups)
    }


def gen_player_pool(
    config: SynthConfig,
    tag: str,
    players_per_group: int,
    matches_per_player: int,
) -> dict[int, dict[str, list[SynthMatch]]]:
    """Per-player pools for the player-specific protocol.  Each player gets
    one skill offset, drawn once, applied to all of their matches."""
    pool: dict[int, dict[str, list[SynthMatch]]] = {}
    for g in range(config.groups):
        players: dict[str, list[SynthMatch]] = {}
        for p in range(players_per_group):
            player_id = f"{tag}-g{g}-pl{p:03d}"
            offset = 0.0
            if config.player_offset_sd > 0:
                gen = substream(config.seed, "offset", tag, g, p)
                offset = float(gen.normal(0.0, config.player_offset_sd))
            players[player_id] = gen_matches(
                config, g, [f"{player_id}-m{i:03d}" for i in range(matches_per_player)],
                float(g + offset))
        pool[g] = players
    return pool


@cache
def _ply_column(length: int) -> tuple[int, ...]:
    return tuple(range(1, length + 1))


@cache
def _move_text(move: int) -> str:
    return str(move)


def to_datapoint(match: SynthMatch, player_id: str | None = None):
    """A synthetic match as a data point, format-identical to parsed records.

    Data points share their repeated values: every match of one length holds
    one ``plies`` tuple, and every move index one text.  Sharing is safe
    because a tuple and a str are immutable; only the state ids are each a
    match's own."""
    plies = _ply_column(len(match.moves))
    return DataPoint(
        match_id=match.uid,
        player_id=player_id or match.uid,
        side="black",
        group=RankGroup(game="synthetic", index=match.true_group,
                        label=group_label("synthetic", match.true_group)),
        plies=plies,
        states=tuple(state_id(match.uid, ply) for ply in plies),
        moves=tuple(map(_move_text, match.moves)),
    )


def pool_to_datapoints(pool: dict) -> dict:
    """Group pool of matches -> group pool of data points."""
    return {g: [to_datapoint(m) for m in matches] for g, matches in pool.items()}


def player_pool_to_datapoints(pool: dict) -> dict:
    return {
        g: {
            player: [to_datapoint(m, player_id=player) for m in matches]
            for player, matches in players.items()
        }
        for g, players in pool.items()
    }


def bayes_oracle_accuracy(
    config: SynthConfig, n: int, trials: int, seed_tag: str = "oracle"
) -> float:
    """Brute-force likelihood-ratio classification accuracy.

    Each trial draws a group uniformly, generates ``n`` fresh matches at
    that group's center skill, scores the chosen moves' exact
    log-likelihood under every group's softmax policy, and predicts the
    argmax group.  This upper-bounds any feature-based estimator run on
    the same generator.
    """
    temps = np.array([config.temperature(g) for g in range(config.groups)])
    picker = substream(config.seed, "oracle-group", seed_tag)
    correct = 0
    for t in range(trials):
        true_group = int(picker.integers(config.groups))
        loglik = np.zeros(config.groups)
        uids = [f"{seed_tag}-t{t:05d}-m{i:02d}" for i in range(n)]
        for qualities, match_draws in zip(quality_blocks(config, uids), move_draws(config, uids)):
            chosen = sample_moves(config, qualities, match_draws, float(true_group))[0]
            # (R, plies, M) scaled qualities; exact per-group log-softmax
            scaled = qualities[None, :, :] / temps[:, None, None]
            logp = log_softmax(scaled, axis=2)
            loglik += logp[:, np.arange(len(chosen)), chosen].sum(axis=1)
        if int(np.argmax(loglik)) == true_group:
            correct += 1
    return correct / trials


def desk_config(seed: int = 20240210) -> SynthConfig:
    """The pinned desk-scale configuration used by the acceptance suite."""
    return SynthConfig(
        groups=8,
        moves_per_state=16,
        plies_per_match=80,
        temperature_base=2.2,
        temperature_decay=0.85,
        levels=(
            SynthLevel("lv0", 0.5),
            SynthLevel("lv1", 2.5),
            SynthLevel("lv2", 4.5),
            SynthLevel("lv3", 6.5),
        ),
        strength_noise_sd=2.0,
        seed=seed,
    )


def two_plateau_config(seed: int = 20240211) -> SynthConfig:
    """Two policy levels with different tastes.

    A level's prior of the chosen moves is highest for the groups whose
    typical chosen quality meets its taste and falls on both sides, so
    one level alone confuses groups on either side of its peak.  The two
    tastes sit at different qualities, so together the levels separate
    groups that either alone confuses.
    """
    base = desk_config(seed)
    return replace(
        base,
        levels=(
            SynthLevel("taste_low", 1.5, q_center=0.52),
            SynthLevel("taste_high", 5.5, q_center=1.05),
        ),
        strength_noise_sd=0.0,
    )
