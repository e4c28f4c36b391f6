"""Training-set construction and rank prediction around the meta-model.

For each rank group, features of n sampled data points are averaged and
paired with the group index as the regression target.  Predictions are
rounded half away from zero and clamped into the valid group range.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SchemaMismatchError
from .features import average_features, stack_vectors
from .gbdt import GbdtParams, TreeEnsemble, fit
from .rng import draw_means


@dataclass(frozen=True)
class TrainingSetSpec:
    n: int
    repetitions_per_group: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.repetitions_per_group < 1:
            raise ConfigError("repetitions_per_group must be >= 1")


@dataclass(frozen=True)
class RankPrediction:
    raw: float
    group_index: int


def build_training_set(pool: dict, spec: TrainingSetSpec):
    """(X, y) from a per-group pool of feature vectors.

    Per group and repetition, n distinct data points are drawn (without
    replacement within the repetition, independently across repetitions)
    and their features averaged.  Row order and sampling are fully
    determined by the spec seed via per-(group, repetition) substreams.
    """
    groups = sorted(pool)
    if not groups:
        raise DataError("empty training pool")
    schema = ""
    rows = []
    for g in groups:
        vectors = list(pool[g])
        if len(vectors) < spec.n:
            raise ConfigError(
                f"group {g} has {len(vectors)} data points, fewer than n={spec.n}"
            )
        schema = schema or vectors[0].schema_id
        rows.append(draw_means(stack_vectors(vectors, schema), spec.n,
                               spec.repetitions_per_group, spec.seed, "trainset", g))
    targets = np.repeat(np.array(groups, dtype=np.float64), spec.repetitions_per_group)
    return np.concatenate(rows), targets


def train_meta_model(
    pool: dict,
    spec: TrainingSetSpec,
    params: GbdtParams,
    schema_id: str,
    r_groups: int,
) -> TreeEnsemble:
    X, y = build_training_set(pool, spec)
    return fit(
        X,
        y,
        params,
        schema_id=schema_id,
        meta={"trained_n": spec.n, "r_groups": r_groups},
    )


def round_half_away(x):
    """Round half away from zero, elementwise."""
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


def _group_of(raw, r_groups: int):
    return np.clip(round_half_away(raw), 0, r_groups - 1).astype(int)


def group_count(model: TreeEnsemble) -> int:
    """The number of rank groups ``model`` was trained to predict into."""
    count = model.meta.get("r_groups")
    if type(count) is not int or count < 1:
        raise DataError(f"model records no rank-group count (r_groups={count!r})")
    return count


def estimate_rank(model: TreeEnsemble, vectors) -> RankPrediction:
    """Predict a rank group from n sampled data points' feature vectors."""
    vectors = list(vectors)
    avg = average_features(vectors)
    if model.schema_id and avg.schema_id != model.schema_id:
        raise SchemaMismatchError("feature schema does not match the model")
    trained_n = model.meta.get("trained_n")
    if trained_n is not None and len(vectors) != trained_n:
        raise SchemaMismatchError(
            f"model was trained for n={trained_n}, got {len(vectors)} vectors"
        )
    raw = model.predict(np.asarray(avg.values))
    return RankPrediction(raw=raw, group_index=int(_group_of(raw, group_count(model))))


def estimate_rank_rows(model: TreeEnsemble, rows: np.ndarray, r_groups: int) -> np.ndarray:
    """Vectorized group prediction for pre-averaged feature rows."""
    return _group_of(model.predict_many(rows), r_groups)
