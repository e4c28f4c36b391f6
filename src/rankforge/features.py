"""Per-data-point feature computation and the feature store.

A feature vector holds, in schema order: the arithmetic mean of per-move
strength scores, one geometric mean of move priors per policy level, and
the selected loss statistics.  Loss of a move is reported as deterioration
(value before minus value after, in the mover's perspective) so mistakes
are positive.  Chess values go through the logit transform first.

The ply cutoff for loss statistics is match-global: a move survives when
its original ply index in the match is <= the cutoff, counting both
players' plies.

Extraction runs in batches of ``EXTRACT_BATCH`` data points.  A data point
holds its moves as three columns: plies, states and moves.  A batch
concatenates its state and move columns once, and makes one backend call
per strength, policy level, value before and value after over them.  Each
feature is one flat per-move column (strengths, one level's priors, or the
losses that ``move_losses`` returns as one array) with a reduction and, for
a loss statistic, a ply cutoff.  Consecutive data points with equal plies
reduce their slices of a column as one (points, moves) matrix, row by row;
a synthetic batch is one such run, and a record's sides, which alternate
plies, are runs of one point, which reduce their 1-D slice.  A row of a
C-contiguous matrix reduces to the bits of the same 1-D slice, so a vector
does not depend on the batch it was in.  When a backend call of a batch
raises BackendError, or a feature value is not finite, each of its data
points is retried alone, and exactly the ones that still fail are dropped.
Losses are computed nowhere else: the per-ply loss table is reduced from
the (plies, losses) arrays that a ``traces`` list receives.

The feature store is a JSONL artifact (see ``rankforge.artifacts``): a
schema header line, then one row per data point.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import attrgetter

import numpy as np

from .artifacts import at_line, from_table, integers, read_jsonl, strings, write_jsonl
from .backends.base import WINRATE_EPS, BackendBank, logit
from .errors import BackendError, BackendTimeoutError, ConfigError, DataError, SchemaMismatchError
from .records.ranks import group_label
from .records.types import check_side

# Loss statistic -> its reduction of the kept losses (std with ddof=0)
LOSS_STATS = {"mean": np.mean, "median": np.median, "std": np.std}
LOSS_SIGN = "deterioration"  # positive = mistake

# Data points per extraction batch.  Batching amortizes the backends'
# per-call work: on 800 desk data points (2-core host) extraction took
# 0.67 s one at a time and 0.49-0.56 s at 16, 64 or all at once.  A larger
# batch holds more per-move arrays and widens the retry after a backend
# failure without being faster.
EXTRACT_BATCH = 16


@dataclass(frozen=True)
class LossSpec:
    stat: str
    n_cut: int | None  # None keeps all plies

    def __post_init__(self):
        if self.stat not in LOSS_STATS:
            raise ConfigError(f"unknown loss statistic {self.stat!r}")
        if self.n_cut is not None and self.n_cut < 1:
            raise ConfigError("n_cut must be positive")

    @property
    def feature_name(self) -> str:
        cut = "all" if self.n_cut is None else str(self.n_cut)
        return f"loss_{self.stat}_cut{cut}"


@dataclass(frozen=True)
class FeatureConfig:
    game: str = "synthetic"
    policy_levels: tuple[str, ...] = ()
    loss_selected: tuple[LossSpec, ...] = ()
    include_strength: bool = True
    include_priors: bool = True
    include_loss: bool = True

    def __post_init__(self):
        families = (
            self.include_strength,
            self.include_priors and bool(self.policy_levels),
            self.include_loss and bool(self.loss_selected),
        )
        if not any(families):
            raise ConfigError("feature config enables no feature family")
        if self.include_priors and not self.policy_levels:
            raise ConfigError("priors enabled but no policy levels declared")
        if self.include_loss and not self.loss_selected:
            raise ConfigError("losses enabled but no loss statistics selected")

    def feature_names(self) -> list[str]:
        names = []
        if self.include_strength:
            names.append("mean_strength")
        if self.include_priors:
            names.extend(f"prior_gm_{level}" for level in self.policy_levels)
        if self.include_loss:
            names.extend(spec.feature_name for spec in self.loss_selected)
        return names

    @property
    def width(self) -> int:
        return len(self.feature_names())

    def schema_id(self) -> str:
        blob = json.dumps(
            {"game": self.game, "names": self.feature_names(), "loss_sign": LOSS_SIGN},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def value_transform(self) -> str:
        return "logit" if self.game == "chess" else "identity"

    def to_dict(self) -> dict:
        return {
            "game": self.game,
            "policy_levels": list(self.policy_levels),
            "loss_selected": [[s.stat, s.n_cut] for s in self.loss_selected],
            "include_strength": self.include_strength,
            "include_priors": self.include_priors,
            "include_loss": self.include_loss,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureConfig":
        """From a ``[features]`` table or a store header (see ``from_table``)."""
        return from_table(cls, data, "features")


def go_default_config(policy_levels) -> FeatureConfig:
    """Strength + level priors + MeanLoss at cutoff 100 + MedLoss uncut."""
    return FeatureConfig(
        game="go",
        policy_levels=tuple(policy_levels),
        loss_selected=(LossSpec("mean", 100), LossSpec("median", None)),
    )


def chess_default_config(policy_levels) -> FeatureConfig:
    """Strength + level priors + MeanLoss and StdLoss at cutoff 50."""
    return FeatureConfig(
        game="chess",
        policy_levels=tuple(policy_levels),
        loss_selected=(LossSpec("mean", 50), LossSpec("std", 50)),
    )


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]
    schema_id: str


def mean_strength(betas, axis=None):
    """The mean score, or each row's mean along ``axis``."""
    betas = np.asarray(betas, dtype=float)
    if betas.size == 0:
        raise DataError("mean_strength needs at least one score")
    return betas.mean(axis=axis)


def prior_geomean(priors, axis=None):
    """exp(mean(log p)), or each row's along ``axis``; priors must already
    be floored above zero."""
    priors = np.asarray(priors, dtype=float)
    if priors.size == 0:
        raise DataError("prior_geomean needs at least one prior")
    if (priors <= 0).any():
        raise AssertionError("prior below floor reached geometric mean")
    return np.exp(np.log(priors).mean(axis=axis))


def move_losses(states, moves, value_backend, transform: str = "identity"):
    """Per-move deterioration of the equal-length ``states`` and ``moves``
    columns, from one value call before and one after the moves.

    Returns (losses, clamps): one float64 array in move order, and how many
    raw win rates of the batch needed clamping before the logit transform.
    """
    before = value_backend.evaluate_state_many(states)
    after = value_backend.evaluate_state_many(states, moves)
    clamps = 0
    if transform == "logit":
        for values in (before, after):
            clamps += int(((values < WINRATE_EPS) | (values > 1 - WINRATE_EPS)).sum())
        before = np.array([logit(v) for v in before])
        after = np.array([logit(v) for v in after])
    elif transform != "identity":
        raise ConfigError(f"unknown value transform {transform!r}")
    # after is in the new mover's perspective; negate it back
    return np.asarray(before - (-after), dtype=np.float64), clamps


@dataclass
class DropReport:
    """Counts and names data points dropped or flagged during extraction."""

    reasons: dict = field(default_factory=dict)
    dropped: list = field(default_factory=list)
    flagged: list = field(default_factory=list)
    winrate_clamps: int = 0

    def drop(self, match_id: str, side: str, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.dropped.append({"match_id": match_id, "side": side, "reason": reason})

    def flag(self, match_id: str, side: str, reason: str) -> None:
        self.flagged.append({"match_id": match_id, "side": side, "reason": reason})

    def to_dict(self) -> dict:
        return {
            "reasons": dict(sorted(self.reasons.items())),
            "dropped": self.dropped,
            "flagged": self.flagged,
            "winrate_clamps": self.winrate_clamps,
        }


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value drops its data point
def _extract_batch(datapoints, bank: BackendBank, config: FeatureConfig,
                   report: DropReport, traces) -> list[FeatureVector]:
    """The data points' feature vectors, in order, from one backend call per
    (kind, level) over their concatenated state and move columns.  ``report``
    and ``traces`` are only touched once every vector is computed; a
    non-finite value raises BackendError, so the batch is retried one data
    point at a time."""
    states = tuple(chain.from_iterable(dp.states for dp in datapoints))
    moves = tuple(chain.from_iterable(dp.moves for dp in datapoints))
    # (reduction, per-move answers, ply cutoff) per feature, in schema order
    columns = []
    if config.include_strength:
        columns.append((mean_strength, bank.strength.score_strength_many(states, moves), None))
    if config.include_priors:
        columns.extend((prior_geomean, bank.policy.policy_prior_many(states, moves, level), None)
                       for level in config.policy_levels)
    clamps = 0
    if config.include_loss:
        losses, clamps = move_losses(states, moves, bank.value, config.value_transform())
        columns.extend((LOSS_STATS[spec.stat], losses, spec.n_cut)
                       for spec in config.loss_selected)
    table = list(zip(config.feature_names(), columns))
    schema_id = config.schema_id()
    vectors, flags = [], []
    stop = 0
    for plies, run in groupby(datapoints, key=attrgetter("plies")):
        points = list(run)
        n, k = len(points), len(plies)
        own = slice(stop, stop + n * k)
        stop = own.stop
        plies = np.array(plies)
        values = np.empty((n, len(table)))
        empty = []
        for j, (name, (reduce, answers, n_cut)) in enumerate(table):
            # one point reduces its 1-D slice; a (1, k) matrix would be slower
            block = answers[own] if n == 1 else answers[own].reshape(n, k)
            if n_cut is not None:
                keep = plies <= n_cut
                if not keep.any():
                    empty.append(name)
                    values[:, j] = 0.0
                    continue
                # a column selection is not C-contiguous, and its reduction
                # would add in another order than a row's
                block = np.ascontiguousarray(block[..., keep])
            values[:, j] = reduce(block, axis=-1)
        if not np.isfinite(values).all():
            raise BackendError("non-finite feature value")
        vectors.extend(FeatureVector(values=tuple(row), schema_id=schema_id)
                       for row in values.tolist())
        flags.extend((dp, f"empty_after_cut:{name}") for dp in points for name in empty)
    report.winrate_clamps += clamps
    for dp, reason in flags:
        report.flag(dp.match_id, dp.side, reason)
    if traces is not None and config.include_loss:
        traces.append((np.fromiter(chain.from_iterable(dp.plies for dp in datapoints),
                                   dtype=np.int64), losses))
    return vectors


def _extract_isolated(datapoints, bank: BackendBank, config: FeatureConfig,
                      report: DropReport, traces) -> list:
    """(data point, vector) pairs of one batch.  When a backend call fails,
    each data point is retried alone and the ones that still fail are
    dropped, with the backend's reason."""
    try:
        return list(zip(datapoints, _extract_batch(datapoints, bank, config, report, traces)))
    except BackendError as exc:
        if len(datapoints) > 1:
            return [pair for dp in datapoints
                    for pair in _extract_isolated([dp], bank, config, report, traces)]
        reason = "backend_timeout" if isinstance(exc, BackendTimeoutError) else f"backend_error:{exc}"
        report.drop(datapoints[0].match_id, datapoints[0].side, reason)
        return []


@dataclass(frozen=True)
class StoredFeature:
    match_id: str
    player_id: str
    side: str
    group_index: int
    vector: FeatureVector


def extract_many(datapoints, bank: BackendBank, config: FeatureConfig, traces=None):
    """Extract all data points, ``EXTRACT_BATCH`` at a time; backend failures
    drop the data point and are counted in the report.  Output is sorted by
    (match_id, side) so it does not depend on input order.  When ``traces``
    is a list and ``config`` has losses, it receives the kept data points'
    (plies, losses) columns in input order, one pair of arrays per batch."""
    bank.require(
        need_strength=config.include_strength,
        need_policy=config.include_priors,
        need_value=config.include_loss,
    )
    datapoints = list(datapoints)
    report = DropReport()
    rows = [
        StoredFeature(
            match_id=dp.match_id,
            player_id=dp.player_id,
            side=dp.side,
            group_index=dp.group.index,
            vector=vector,
        )
        for start in range(0, len(datapoints), EXTRACT_BATCH)
        for dp, vector in _extract_isolated(datapoints[start:start + EXTRACT_BATCH],
                                            bank, config, report, traces)
    ]
    rows.sort(key=lambda r: (r.match_id, r.side))
    return rows, report


def stack_vectors(vectors, schema_id: str = "") -> np.ndarray:
    """The vectors' values as a float64 matrix, one row per vector.  Every
    vector must carry ``schema_id``, or the first vector's schema when it
    is empty."""
    vectors = list(vectors)
    if not vectors:
        raise DataError("no feature vectors to stack")
    schema_id = schema_id or vectors[0].schema_id
    if any(v.schema_id != schema_id for v in vectors):
        raise SchemaMismatchError(f"feature vectors do not all carry schema {schema_id!r}")
    return np.array([v.values for v in vectors], dtype=np.float64)


def write_feature_store(path, rows, config: FeatureConfig) -> None:
    header = {
        "schema_id": config.schema_id(),
        "names": config.feature_names(),
        "loss_sign": LOSS_SIGN,
        "config": config.to_dict(),
    }
    write_jsonl(path, chain([{"schema": header}], (
        {
            "match_id": row.match_id,
            "player_id": row.player_id,
            "side": row.side,
            "group_index": row.group_index,
            "schema_id": row.vector.schema_id,
            "features": list(row.vector.values),
        }
        for row in rows
    )))


def read_feature_store(path):
    """(config, rows) of a feature store.  A line that cannot be read raises
    DataError naming ``path:line``."""
    records = read_jsonl(path)
    lineno, rec = next(records, (0, None))
    if not lineno:
        raise DataError(f"feature store {path} is empty")
    with at_line(path, lineno, "feature store header"):
        header = rec["schema"]
        config = FeatureConfig.from_dict(header["config"])
        schema_id = header["schema_id"]
    if config.schema_id() != schema_id:
        raise SchemaMismatchError("feature store header hash does not match its config")
    rows = []
    for lineno, rec in records:
        with at_line(path, lineno, "feature row"):
            match_id, player_id, side = strings(rec, "match_id", "player_id", "side")
            (group_index,) = integers(rec, "group_index")
            row = StoredFeature(
                match_id=match_id,
                player_id=player_id,
                side=check_side(side),
                group_index=group_index,
                vector=FeatureVector(tuple(rec["features"]), rec["schema_id"]),
            )
            group_label(config.game, row.group_index)
            if not all(map(math.isfinite, row.vector.values)):
                raise ValueError("feature value not finite")
        if row.vector.schema_id != schema_id:
            raise SchemaMismatchError("feature store row with foreign schema id")
        rows.append(row)
    return config, rows
