"""Training-set construction and rank prediction around the meta-model.

Every draw goes one way, through ``draw_group_means``: per subject (a rank
group, or one player in it) and repetition, n distinct feature vectors are
drawn on the subject's own substream and averaged into one row.  Training
sets and both evaluation protocols are built with it.

Every prediction goes one way too, through ``predict_groups``: a model
trained for n predicts only averages of n vectors (the paper fits one
model per n), and its answer is rounded half away from zero and clamped
into the model's group range.  ``estimate_rank`` is its one-row case.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SchemaMismatchError
from .features import stack_vectors
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


def draw_group_means(subjects, n: int, repetitions: int, seed: int, schema_id: str = ""):
    """(X, y) from (group, substream path, vectors) subjects.

    Per subject, row ``rep`` of X is the mean of n distinct vectors drawn
    with the substream ``(*path, rep)``, and its y is the subject's group;
    rows follow subject order.  Every subject must hold at least n vectors
    of one schema: ``schema_id``, or the first vector's when it is empty."""
    rows, groups = [], []
    for g, path, vectors in subjects:
        vectors = list(vectors)
        if len(vectors) < n:
            raise ConfigError(f"group {g} has {len(vectors)} data points, fewer than n={n}")
        schema_id = schema_id or vectors[0].schema_id
        rows.append(draw_means(stack_vectors(vectors, schema_id), n, repetitions, seed, *path))
        groups.append(g)
    return np.concatenate(rows), np.repeat(np.array(groups, dtype=np.float64), repetitions)


def build_training_set(pool: dict, spec: TrainingSetSpec):
    """(X, y) from a per-group pool of feature vectors: per group,
    ``repetitions_per_group`` rows drawn on the paths ``("trainset", g)``."""
    if not pool:
        raise DataError("empty training pool")
    return draw_group_means(((g, ("trainset", g), pool[g]) for g in sorted(pool)),
                            spec.n, spec.repetitions_per_group, spec.seed)


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


def group_count(model: TreeEnsemble) -> int:
    """The number of rank groups ``model`` was trained to predict into."""
    count = model.meta.get("r_groups")
    if type(count) is not int or count < 1:
        raise DataError(f"model records no rank-group count (r_groups={count!r})")
    return count


def predict_groups(model: TreeEnsemble, rows: np.ndarray, n: int):
    """(raw predictions, group indexes) for rows that each average n
    vectors; a model trained for another n is a SchemaMismatchError."""
    trained_n = model.meta.get("trained_n")
    if trained_n is not None and n != trained_n:
        raise SchemaMismatchError(f"model was trained for n={trained_n}, not n={n}")
    raw = model.predict_many(rows)
    return raw, np.clip(round_half_away(raw), 0, group_count(model) - 1).astype(int)


def estimate_rank(model: TreeEnsemble, vectors) -> RankPrediction:
    """Predict a rank group from n sampled data points' feature vectors."""
    vectors = list(vectors)
    row = stack_vectors(vectors, model.schema_id).mean(axis=0, keepdims=True)
    raw, groups = predict_groups(model, row, len(vectors))
    return RankPrediction(raw=float(raw[0]), group_index=int(groups[0]))
