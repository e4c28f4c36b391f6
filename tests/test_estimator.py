import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankforge.errors import ConfigError, DataError, SchemaMismatchError
from rankforge.estimator import (
    RankPrediction,
    TrainingSetSpec,
    build_training_set,
    draw_group_means,
    estimate_rank,
    round_half_away,
    train_meta_model,
)
from rankforge.features import FeatureVector
from rankforge.gbdt import GbdtParams


def _pool(groups=3, per_group=8, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return {
        g: [FeatureVector(tuple(rng.normal(loc=g, size=d)), "s") for _ in range(per_group)]
        for g in range(groups)
    }


def test_single_vector_single_repetition():
    v = FeatureVector((1.5, -2.0), "s")
    X, y = build_training_set({4: [v]}, TrainingSetSpec(n=1, repetitions_per_group=1, seed=0))
    assert X.shape == (1, 2)
    assert tuple(X[0]) == v.values
    assert y.tolist() == [4.0]


def test_paper_scale_row_count():
    # 8 groups x 26,000 repetitions = 208,000 rows
    pool = _pool(groups=8, per_group=30, d=1)
    spec = TrainingSetSpec(n=5, repetitions_per_group=26000, seed=1)
    X, y = build_training_set(pool, spec)
    assert X.shape == (208000, 1)
    assert len(y) == 208000
    assert (np.bincount(y.astype(int)) == 26000).all()


def test_sampling_without_replacement_within_repetition():
    # pool of 5 marked vectors; any n=3 average must equal the mean of 3
    # distinct markers (brute-force enumeration of all valid triples)
    markers = [1.0, 2.0, 4.0, 8.0, 16.0]
    pool = {0: [FeatureVector((m,), "s") for m in markers]}
    valid = {round(sum(c) / 3, 9) for c in combinations(markers, 3)}
    X, _ = build_training_set(pool, TrainingSetSpec(n=3, repetitions_per_group=200, seed=2))
    for row in X:
        assert round(float(row[0]), 9) in valid


def test_reproducible_given_seed():
    pool = _pool()
    spec = TrainingSetSpec(n=3, repetitions_per_group=50, seed=9)
    X1, y1 = build_training_set(pool, spec)
    X2, y2 = build_training_set(pool, spec)
    assert np.array_equal(X1, X2)
    assert np.array_equal(y1, y2)
    X3, _ = build_training_set(pool, TrainingSetSpec(n=3, repetitions_per_group=50, seed=10))
    assert not np.array_equal(X1, X3)


def test_group_smaller_than_n_is_config_error():
    pool = _pool(per_group=2)
    with pytest.raises(ConfigError) as exc_info:
        build_training_set(pool, TrainingSetSpec(n=5, repetitions_per_group=1, seed=0))
    assert "group" in str(exc_info.value)


def test_empty_pool_is_data_error():
    with pytest.raises(DataError, match="empty training pool"):
        build_training_set({}, TrainingSetSpec(n=1, repetitions_per_group=1, seed=0))


def test_round_half_away_examples():
    assert round_half_away(4.4) == 4
    assert round_half_away(4.5) == 5
    assert round_half_away(3.5) == 4
    assert round_half_away(-0.7) == -1
    assert round_half_away(0.5) == 1
    assert round_half_away(10.6) == 11


@given(st.floats(min_value=-20, max_value=20), st.floats(min_value=0, max_value=5))
def test_round_then_clamp_monotone(raw, delta):
    lo = min(max(round_half_away(raw), 0), 10)
    hi = min(max(round_half_away(raw + delta), 0), 10)
    assert hi >= lo


def _trained_model(pool, n):
    spec = TrainingSetSpec(n=n, repetitions_per_group=300, seed=3)
    params = GbdtParams(num_trees=40, min_samples_leaf=5, seed=0)
    return train_meta_model(pool, spec, params, "s", r_groups=3)


def test_estimate_rank_rounds_and_clamps():
    pool = _pool()
    model = _trained_model(pool, 2)
    prediction = estimate_rank(model, pool[2][:2])
    assert isinstance(prediction, RankPrediction)
    assert prediction.group_index == min(max(round_half_away(prediction.raw), 0), 2)
    # grossly out-of-range raw values clamp to the ends
    lo = estimate_rank(model, pool[0][:2])
    assert 0 <= lo.group_index <= 2


def test_estimate_rank_order_invariant():
    pool = _pool()
    model = _trained_model(pool, 3)
    vectors = pool[1][:3]
    a = estimate_rank(model, vectors)
    b = estimate_rank(model, list(reversed(vectors)))
    assert a == b


def test_estimate_rank_wrong_n_rejected():
    pool = _pool()
    model = _trained_model(pool, 3)
    with pytest.raises(SchemaMismatchError):
        estimate_rank(model, pool[0][:2])


def test_estimate_rank_schema_mismatch_rejected():
    pool = _pool()
    model = _trained_model(pool, 2)
    foreign = [FeatureVector((0.0, 0.0), "other"), FeatureVector((0.0, 0.0), "other")]
    with pytest.raises(SchemaMismatchError):
        estimate_rank(model, foreign)


def test_meta_model_learns_separable_groups():
    pool = _pool(groups=3, per_group=40, seed=5)
    model = _trained_model(pool, 5)
    hits = 0
    for g in range(3):
        prediction = estimate_rank(model, pool[g][:5])
        hits += prediction.group_index == g
    assert hits == 3


# ---------------------------------------------------------------------------
# the averages that draws and estimates are made of


def _draw_all(vectors, schema_id=""):
    """The one row of a draw of every vector: their column means."""
    X, _ = draw_group_means([(0, ("all",), vectors)], len(vectors), 1, 0, schema_id)
    return tuple(X[0])


class _RowModel:
    """Duck-typed model that records the rows it is asked to predict."""

    def __init__(self, trained_n):
        self.schema_id = "s"
        self.meta = {"trained_n": trained_n, "r_groups": 3}
        self.rows = []

    def predict_many(self, X):
        self.rows.append(np.array(X))
        return np.zeros(len(X))


def test_draw_of_one_vector_is_that_vector_and_of_two_their_mean():
    a = FeatureVector((1.0, 3.0), "s")
    b = FeatureVector((3.0, 1.0), "s")
    assert _draw_all([a]) == a.values
    assert _draw_all([a, b]) == (2.0, 2.0)


def test_draw_of_mixed_schemas_is_schema_mismatch():
    mixed = [FeatureVector((1.0,), "a"), FeatureVector((2.0,), "b")]
    for schema_id in ("", "a"):
        with pytest.raises(SchemaMismatchError):
            _draw_all(mixed, schema_id)


def test_estimate_rank_of_mixed_schemas_is_schema_mismatch():
    model = _trained_model(_pool(), 2)
    with pytest.raises(SchemaMismatchError):
        estimate_rank(model, [FeatureVector((0.0, 0.0), "s"), FeatureVector((0.0, 0.0), "t")])


def test_estimate_rank_predicts_the_column_means():
    rng = np.random.default_rng(3)
    vectors = [FeatureVector(tuple(rng.normal(size=4)), "s") for _ in range(20)]
    model = _RowModel(trained_n=20)
    estimate_rank(model, vectors)
    ((row,),) = model.rows
    for col in range(4):
        expected = math.fsum(v.values[col] for v in vectors) / 20
        assert math.isclose(row[col], expected, rel_tol=1e-12)


def test_estimate_rank_of_one_vector_predicts_that_vector():
    v = FeatureVector((1.5, -2.0), "s")
    model = _RowModel(trained_n=1)
    assert estimate_rank(model, [v]) == RankPrediction(raw=0.0, group_index=0)
    assert tuple(model.rows[0][0]) == v.values


def test_draw_mean_commutes_with_concat_weighting():
    rng = np.random.default_rng(4)
    a = [FeatureVector(tuple(rng.normal(size=3)), "s") for _ in range(5)]
    b = [FeatureVector(tuple(rng.normal(size=3)), "s") for _ in range(7)]
    via_parts = [(5 * x + 7 * y) / 12 for x, y in zip(_draw_all(a), _draw_all(b))]
    assert list(_draw_all(a + b)) == pytest.approx(via_parts, rel=1e-12)
