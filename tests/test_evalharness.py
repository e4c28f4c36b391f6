import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers.oracles import reference_loss_by_ply_rows
from rankforge import evalharness
from rankforge.errors import ConfigError, DataError, SchemaMismatchError
from rankforge.estimator import (
    TrainingSetSpec,
    build_training_set,
    estimate_rank,
    predict_groups,
    train_meta_model,
)
from rankforge.features import FeatureConfig, FeatureVector, LossSpec
from rankforge.gbdt import GbdtParams
from rankforge.evalharness import (
    AblationContext,
    EvalProtocol,
    accuracy_metrics,
    boxplot_rows,
    family_masks,
    flatten_player_pool,
    loss_by_ply_rows,
    prior_curve_rows,
    project_vectors,
    run_ablation,
    run_player_specific,
    run_random_sampling,
    single_level_masks,
    write_ablation_csv,
    write_csv,
    write_per_group_csv,
    write_report,
)
from rankforge.features import StoredFeature
from rankforge.rng import substream


class _FixedModel:
    """Duck-typed stand-in predicting a fixed function of the first feature."""

    def __init__(self, fn, r_groups, schema_id="s", trained_n=None):
        self._fn = fn
        self.schema_id = schema_id
        self.meta = {"r_groups": r_groups}
        if trained_n:
            self.meta["trained_n"] = trained_n

    def predict_many(self, X):
        return np.array([self._fn(row) for row in np.asarray(X)])


def _pool(groups=4, per_group=10, spread=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return {
        g: [FeatureVector((g + rng.normal() * spread,), "s") for _ in range(per_group)]
        for g in range(groups)
    }


def test_accuracy_metrics_single_exact():
    acc, pm1, confusion = accuracy_metrics([(3, 3)], 5)
    assert (acc, pm1) == (1.0, 1.0)
    assert confusion[3, 3] == 1


def test_accuracy_metrics_adjacent_counts_for_pm1():
    acc, pm1, confusion = accuracy_metrics([(3, 4), (3, 1)], 6)
    assert acc == 0.0
    assert pm1 == 0.5
    assert confusion.sum() == 2


def test_accuracy_metrics_against_brute_recount():
    rng = np.random.default_rng(11)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 7, size=(1000, 2))]
    acc, pm1, confusion = accuracy_metrics(pairs, 7)
    exact = sum(1 for a, b in pairs if a == b) / 1000
    near = sum(1 for a, b in pairs if abs(a - b) <= 1) / 1000
    assert acc == exact
    assert pm1 == near
    for j in range(7):
        for k in range(7):
            assert confusion[j, k] == sum(1 for a, b in pairs if (a, b) == (j, k))


def test_perfect_oracle_model_scores_one():
    pool = _pool()
    model = _FixedModel(lambda row: row[0], r_groups=4)
    report = run_random_sampling(pool, model, EvalProtocol("random", 3, 50, seed=1))
    assert report.accuracy == 1.0
    assert report.accuracy_pm1 == 1.0
    assert np.array_equal(np.diag(report.confusion), [50, 50, 50, 50])


def test_always_zero_model_balanced_groups():
    pool = _pool(groups=8)
    model = _FixedModel(lambda row: 0.0, r_groups=8)
    report = run_random_sampling(pool, model, EvalProtocol("random", 2, 100, seed=2))
    assert report.accuracy == pytest.approx(1 / 8)
    assert report.accuracy_pm1 == pytest.approx(2 / 8)


def test_confusion_totals_and_row_budget():
    pool = _pool(groups=3)
    model = _FixedModel(lambda row: row[0] + 0.4, r_groups=3)
    protocol = EvalProtocol("random", 2, 77, seed=3)
    report = run_random_sampling(pool, model, protocol)
    assert report.confusion.sum() == 77 * 3
    assert (report.confusion.sum(axis=1) == 77).all()
    assert report.accuracy_pm1 >= report.accuracy


def test_random_sampling_reproducible():
    pool = _pool(spread=1.5, per_group=30)
    model = _FixedModel(lambda row: row[0], r_groups=4)
    a = run_random_sampling(pool, model, EvalProtocol("random", 3, 60, seed=5))
    b = run_random_sampling(pool, model, EvalProtocol("random", 3, 60, seed=5))
    assert np.array_equal(a.confusion, b.confusion)
    c = run_random_sampling(pool, model, EvalProtocol("random", 3, 60, seed=6))
    assert not np.array_equal(a.confusion, c.confusion)


def test_pool_smaller_than_n_rejected():
    pool = _pool(per_group=2)
    model = _FixedModel(lambda row: row[0], r_groups=4)
    with pytest.raises(ConfigError):
        run_random_sampling(pool, model, EvalProtocol("random", 5, 10, seed=0))


def _player_pool(groups=3, players=6, per_player=8, offset_sd=0.0, seed=0):
    rng = np.random.default_rng(seed)
    pool = {}
    for g in range(groups):
        pool[g] = {}
        for p in range(players):
            offset = rng.normal() * offset_sd
            pool[g][f"g{g}p{p}"] = [
                FeatureVector((g + offset + rng.normal() * 0.1,), "s")
                for _ in range(per_player)
            ]
    return pool


def test_player_specific_totals_and_exclusions():
    pool = _player_pool()
    pool[1]["g1p0"] = pool[1]["g1p0"][:2]  # too few data points for n=4
    model = _FixedModel(lambda row: row[0], r_groups=3)
    report = run_player_specific(pool, model, EvalProtocol("player", 4, 5, seed=1))
    assert report.confusion.sum() == 5 * (6 * 3 - 1)
    assert report.drops["excluded_players"][0]["player_id"] == "g1p0"


def test_player_n_equals_pool_single_repetition_deterministic():
    pool = _player_pool(players=3, per_player=4)
    model = _FixedModel(lambda row: row[0], r_groups=3)
    a = run_player_specific(pool, model, EvalProtocol("player", 4, 1, seed=1))
    b = run_player_specific(pool, model, EvalProtocol("player", 4, 1, seed=99))
    # sampling all 4 of 4 data points is the same draw regardless of seed
    assert np.array_equal(a.confusion, b.confusion)


def test_homogeneous_players_match_random_mode_closely():
    pool = _player_pool(players=12, per_player=10, offset_sd=0.0, seed=3)
    model = _FixedModel(lambda row: row[0], r_groups=3)
    flat = flatten_player_pool(pool)
    random_report = run_random_sampling(flat, model, EvalProtocol("random", 5, 60, seed=4))
    player_report = run_player_specific(pool, model, EvalProtocol("player", 5, 5, seed=4))
    assert abs(random_report.accuracy - player_report.accuracy) < 0.08


def test_heterogeneous_players_hurt_player_specific_mode():
    pool = _player_pool(players=12, per_player=10, offset_sd=0.45, seed=5)
    model = _FixedModel(lambda row: row[0], r_groups=3)
    flat = flatten_player_pool(pool)
    random_report = run_random_sampling(flat, model, EvalProtocol("random", 8, 60, seed=6))
    player_report = run_player_specific(pool, model, EvalProtocol("player", 8, 5, seed=6))
    assert random_report.accuracy > player_report.accuracy + 0.05


@pytest.mark.parametrize("mode", ["random", "player"])
def test_group_unknown_to_model_is_data_error(mode):
    model = _FixedModel(lambda row: row[0], r_groups=3)
    protocol = EvalProtocol(mode, 3, 5, seed=0)
    with pytest.raises(DataError, match=r"outside \[0, 3\)"):
        if mode == "random":
            run_random_sampling(_pool(groups=4), model, protocol)
        else:
            run_player_specific(_player_pool(groups=4), model, protocol)


def test_random_sampling_on_an_empty_pool_is_data_error():
    model = _FixedModel(lambda row: row[0], r_groups=3)
    with pytest.raises(DataError, match="no predictions to score"):
        run_random_sampling({}, model, EvalProtocol("random", 1, 5, seed=0))


@pytest.mark.parametrize("mode", ["random", "player"])
def test_protocol_at_another_n_than_trained_is_schema_mismatch(mode):
    model = _FixedModel(lambda row: row[0], r_groups=3, trained_n=2)
    protocol = EvalProtocol(mode, 3, 5, seed=0)
    with pytest.raises(SchemaMismatchError, match="trained for n=2, not n=3"):
        if mode == "random":
            run_random_sampling(_pool(groups=3), model, protocol)
        else:
            run_player_specific(_player_pool(), model, protocol)


def test_random_pool_smaller_than_n_names_the_group_and_count():
    pool = _pool(groups=3)
    pool[1] = pool[1][:2]
    model = _FixedModel(lambda row: row[0], r_groups=3)
    with pytest.raises(ConfigError, match="group 1 has 2 data points, fewer than n=3"):
        run_random_sampling(pool, model, EvalProtocol("random", 3, 5, seed=0))


def test_player_specific_with_every_player_excluded_is_config_error():
    model = _FixedModel(lambda row: row[0], r_groups=3)
    with pytest.raises(ConfigError, match="no predictions"):
        run_player_specific(_player_pool(per_player=2), model, EvalProtocol("player", 4, 5, seed=1))


# ---------------------------------------------------------------------------
# sampling: each call site draws from its own named substreams


class _RecordingModel(_FixedModel):
    def __init__(self, r_groups, schema_id):
        super().__init__(lambda row: row[0], r_groups, schema_id)
        self.seen = []

    def predict_many(self, X):
        self.seen.append(np.array(X))
        return super().predict_many(X)


def _per_subject(model, repetitions):
    """The one recorded prediction call, cut into each subject's rows."""
    (seen,) = model.seen
    return [seen[start:start + repetitions] for start in range(0, len(seen), repetitions)]


def _reference_means(stacked, n, repetitions, seed, *path):
    return np.array([
        stacked[substream(seed, *path, rep).choice(len(stacked), size=n, replace=False)]
        .mean(axis=0)
        for rep in range(repetitions)
    ])


@pytest.mark.parametrize("site", ["trainset", "eval-random", "eval-player", "boxplot"])
def test_sampler_rows_follow_the_site_substream_path(site):
    config, pool = _stored(per_group=36)
    stacked = {g: np.array([v.values for v in vs]) for g, vs in pool.items()}
    seed, n, reps = 13, 9, 7
    if site == "trainset":
        X, y = build_training_set(pool, TrainingSetSpec(n, reps, seed))
        expected = np.concatenate([_reference_means(stacked[g], n, reps, seed, site, g)
                                   for g in sorted(pool)])
        assert np.array_equal(X, expected)
        assert np.array_equal(y, np.repeat([0.0, 1.0, 2.0], reps))
    elif site == "eval-random":
        model = _RecordingModel(3, config.schema_id())
        run_random_sampling(pool, model, EvalProtocol("random", n, reps, seed))
        for g, seen in zip(sorted(pool), _per_subject(model, reps), strict=True):
            assert np.array_equal(seen, _reference_means(stacked[g], n, reps, seed, site, g))
    elif site == "eval-player":
        by_player = {g: {f"p{k}": vs[k::3] for k in range(3)} for g, vs in pool.items()}
        model = _RecordingModel(3, config.schema_id())
        run_player_specific(by_player, model, EvalProtocol("player", n, reps, seed))
        expected = [
            _reference_means(stacked[g][k::3], n, reps, seed, site, g, f"p{k}")
            for g in sorted(pool) for k in range(3)
        ]
        for seen, want in zip(_per_subject(model, reps), expected, strict=True):
            assert np.array_equal(seen, want)
    else:
        out = boxplot_rows(_store_rows(config, pool), config, "mean_strength",
                           mode="random", sample_size=n, samples=reps, seed=seed)
        for g in sorted(pool):
            got = [row["value"] for row in out if row["group"] == g]
            # the reference is the one-dimensional mean of the drawn values
            want = _reference_means(stacked[g][:, 0], n, reps, seed, site, g)
            assert got == want.tolist()


@pytest.mark.parametrize("mode", ["random", "player"])
def test_each_protocol_makes_one_prediction_call(mode):
    config, pool = _stored(per_group=12)
    model = _RecordingModel(3, config.schema_id())
    protocol = EvalProtocol(mode, 3, 5, 1)
    if mode == "random":
        report = run_random_sampling(pool, model, protocol)
        groups = sorted(pool)
    else:
        by_player = {g: {f"p{k}": vs[k::3] for k in range(3)} for g, vs in pool.items()}
        report = run_player_specific(by_player, model, protocol)
        groups = [g for g in sorted(pool) for _ in range(3)]
    assert [len(seen) for seen in model.seen] == [5 * len(groups)]
    # the answers pair with their own subject's group
    subject_rows = _per_subject(model, 5)
    per_subject = [(g, p) for g, rows in zip(groups, subject_rows, strict=True)
                   for p in predict_groups(model, rows, 3)[1]]
    assert np.array_equal(report.confusion, accuracy_metrics(per_subject, 3)[2])


# ---------------------------------------------------------------------------
# ablation plumbing


def _stored(groups=3, per_group=30, seed=7):
    rng = np.random.default_rng(seed)
    config = FeatureConfig(game="synthetic", policy_levels=("a", "b"),
                           loss_selected=(LossSpec("mean", 10),))
    pool = {}
    for g in range(groups):
        vectors = []
        for _ in range(per_group):
            strength = g + rng.normal() * 0.3
            gm_a = np.exp(-abs(g - 0.5)) + rng.normal() * 0.05
            gm_b = np.exp(-abs(g - 2.5)) + rng.normal() * 0.05
            loss = 2.0 - 0.5 * g + rng.normal() * 0.2
            vectors.append(FeatureVector((strength, gm_a, gm_b, loss),
                                         config.schema_id()))
        pool[g] = vectors
    return config, pool


def test_project_vectors_column_selection():
    config, pool = _stored()
    mask = FeatureConfig(game="synthetic", policy_levels=("b",),
                         loss_selected=(LossSpec("mean", 10),),
                         include_strength=False)
    projected = project_vectors(pool[0], config, mask)
    assert len(projected[0].values) == 2
    assert projected[0].values[0] == pool[0][0].values[2]  # gm_b column
    assert projected[0].schema_id == mask.schema_id()


def test_project_missing_column_is_error():
    config, pool = _stored()
    mask = FeatureConfig(game="synthetic", policy_levels=("zz",),
                         include_loss=False, include_strength=False)
    with pytest.raises(ConfigError):
        project_vectors(pool[0], config, mask)


def test_family_and_level_masks_shapes():
    config, _ = _stored()
    names = [name for name, _ in family_masks(config)]
    assert names == ["use_all", "wo_strength", "wo_prior", "wo_loss"]
    level_names = [name for name, _ in single_level_masks(config)]
    assert level_names == ["level_a_only", "level_b_only", "levels_combined"]


def test_ablation_full_mask_matches_direct_run():
    config, pool = _stored(per_group=40)
    test_pool = _stored(per_group=20, seed=8)[1]
    params = GbdtParams(num_trees=20, min_samples_leaf=5, seed=0)
    ctx = AblationContext(full_config=config, train_pool=pool, test_pool=test_pool,
                          gbdt_params=params, train_repetitions=100, train_seed=4,
                          eval_repetitions=40, eval_seed=9,
                          r_groups=3)
    results = run_ablation([("use_all", config)], (5,), ctx)
    report = results[("use_all", 5)]

    spec = TrainingSetSpec(n=5, repetitions_per_group=100, seed=4)
    model = train_meta_model(pool, spec, params, config.schema_id(), 3)
    direct = run_random_sampling(test_pool, model, EvalProtocol("random", 5, 40, seed=9))
    assert np.array_equal(report.confusion, direct.confusion)
    assert report.accuracy == direct.accuracy


@pytest.mark.parametrize("fitted_groups, fits", [(3, 1), (4, 2)])
def test_ablation_reuses_a_fitted_model_of_the_whole_schema_and_group_count(
        monkeypatch, fitted_groups, fits):
    config, pool = _stored(per_group=20)
    trained = []
    train = evalharness.train_meta_model
    monkeypatch.setattr(evalharness, "train_meta_model",
                        lambda pool, spec, *a: trained.append(spec.n) or train(pool, spec, *a))
    fitted = _FixedModel(lambda row: 0.0, fitted_groups, config.schema_id())
    ctx = AblationContext(full_config=config, train_pool=pool, test_pool=pool,
                          gbdt_params=GbdtParams(num_trees=5, min_samples_leaf=5, seed=0),
                          train_repetitions=20, train_seed=4,
                          eval_repetitions=10, eval_seed=9,
                          r_groups=3, fitted={5: fitted})
    results = run_ablation(family_masks(config)[:2], (5,), ctx)
    assert trained == [5] * fits
    reused = results[("use_all", 5)].confusion[:, 0].sum() == 30
    assert reused == (fits == 1)


# ---------------------------------------------------------------------------
# plot data


def _store_rows(config, pool):
    rows = []
    for g, vectors in pool.items():
        for i, v in enumerate(vectors):
            rows.append(StoredFeature(match_id=f"m{g}-{i}", player_id=f"p{g}-{i % 3}",
                                      side="black", group_index=g, vector=v))
    return rows


def test_prior_curve_rows_single_point_degenerate_ci():
    config, pool = _stored(per_group=1)
    rows = _store_rows(config, {0: pool[0]})
    out = prior_curve_rows(rows, config)
    first = out[0]
    assert first["ci_low"] == pytest.approx(first["gm_mean"])
    assert first["ci_high"] == pytest.approx(first["gm_mean"])


def test_prior_curve_rows_constant_zero_width():
    config = FeatureConfig(game="synthetic", policy_levels=("a",),
                           include_loss=False, include_strength=False)
    vec = FeatureVector((0.25,), config.schema_id())
    rows = _store_rows(config, {1: [vec, vec, vec]})
    out = prior_curve_rows(rows, config)
    assert out[0]["gm_mean"] == pytest.approx(0.25)
    assert out[0]["ci_low"] == pytest.approx(0.25)
    assert out[0]["ci_high"] == pytest.approx(0.25)


def test_loss_by_ply_rows():
    traces = [(np.array([1, 1]), np.array([2.0, 4.0])), (np.array([2]), np.array([1.0]))]
    out = loss_by_ply_rows(traces)
    assert out[0] == {"ply": 1, "mean_loss": 3.0, "std_loss": 1.0, "count": 2}
    assert out[1]["count"] == 1


# a loss of about 10**-15 to 10**15, of either sign
_LOSSES = st.tuples(st.floats(-1.0, 1.0), st.integers(-15, 15)).map(lambda t: t[0] * 10.0 ** t[1])
# batches of (ply, loss) pairs, plies repeated and in any order
_BATCHES = st.lists(st.lists(st.tuples(st.integers(1, 12), _LOSSES), max_size=40), max_size=6)


@given(_BATCHES)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_loss_by_ply_rows_equal_the_dict_of_lists_reduction_bit_for_bit(batches):
    traces = [(np.array([ply for ply, _ in batch], dtype=np.int64),
               np.array([loss for _, loss in batch], dtype=np.float64)) for batch in batches]
    got = loss_by_ply_rows(traces)
    want = reference_loss_by_ply_rows(pair for batch in batches for pair in batch)
    assert [type(row["ply"]) for row in got] == [int] * len(want)

    def bits(rows):
        return [(r["ply"], r["mean_loss"].hex(), r["std_loss"].hex(), r["count"]) for r in rows]

    assert bits(got) == bits(want)


def test_boxplot_rows_player_and_random_modes():
    config, pool = _stored(per_group=9)
    rows = _store_rows(config, pool)
    player = boxplot_rows(rows, config, "mean_strength", mode="player")
    assert len(player) == 3 * 3  # 3 groups x 3 players
    rand = boxplot_rows(rows, config, "mean_strength", mode="random",
                        sample_size=4, samples=5, seed=1)
    assert len(rand) == 3 * 5
    again = boxplot_rows(rows, config, "mean_strength", mode="random",
                         sample_size=4, samples=5, seed=1)
    assert rand == again


def test_write_report_and_csvs(tmp_path):
    pool = _pool()
    model = _FixedModel(lambda row: row[0], r_groups=4)
    report = run_random_sampling(pool, model, EvalProtocol("random", 3, 10, seed=1))
    write_report(report, tmp_path / "rep")
    metrics = json.loads((tmp_path / "rep" / "metrics.json").read_text())
    assert metrics["accuracy"] == 1.0
    with (tmp_path / "rep" / "confusion.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 4 groups
    assert rows[0][1] == "g0"

    config, tr_pool = _stored(per_group=30)
    te_pool = _stored(per_group=15, seed=9)[1]
    ctx = AblationContext(full_config=config, train_pool=tr_pool, test_pool=te_pool,
                          gbdt_params=GbdtParams(num_trees=10, min_samples_leaf=5, seed=0),
                          train_repetitions=50, train_seed=1,
                          eval_repetitions=20, eval_seed=2,
                          r_groups=3)
    results = run_ablation(family_masks(config), (3,), ctx)
    write_ablation_csv(results, tmp_path / "ablation.csv")
    with (tmp_path / "ablation.csv").open() as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "n"
    assert "use_all_accuracy" in header
    assert "wo_strength_accuracy" in header
    assert "wo_prior_accuracy" in header
    assert "wo_loss_accuracy" in header
    write_per_group_csv(results, 3, tmp_path / "per_group.csv")
    with (tmp_path / "per_group.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mask", "g0", "g1", "g2", "overall"]
    assert len(rows) == 5


# ---------------------------------------------------------------------------
# outputs pinned: the draws, the predictions and the reports they make


def _pinned_player_pool():
    rng = np.random.default_rng(21)
    return {
        g: {f"g{g}p{p}": [FeatureVector(tuple(g + rng.normal(scale=0.8, size=3)), "s")
                          for _ in range(6 + p)]
            for p in range(4)}
        for g in range(3)
    }


PINNED_EVAL_SHA256 = {
    "random": "69c42ec3b7744a43b89ca3d6d22898be4f8875c9df1ab2a2548e4e5261252db7",
    "player": "5d2d14a43dde9f0df9f330cb5443bc80adcfa9f03fddcdfb83ab6577ff290a29",
    "estimate_rank": "799407957f0d7224d0cce1742ef30ae96e7fdc74455f51d2cfbef19ec1b92f4d",
}


def test_reports_and_estimates_on_a_seeded_player_pool_are_pinned():
    by_player = _pinned_player_pool()
    spec = TrainingSetSpec(n=4, repetitions_per_group=40, seed=5)
    model = train_meta_model(flatten_player_pool(by_player), spec,
                             GbdtParams(num_trees=12, min_samples_leaf=4, seed=0), "s", 3)
    random_report = run_random_sampling(flatten_player_pool(by_player), model,
                                        EvalProtocol("random", 4, 30, seed=8))
    player_report = run_player_specific(by_player, model, EvalProtocol("player", 4, 6, seed=8))
    estimates = [[prediction.raw, prediction.group_index]
                 for g in sorted(by_player) for player_id in sorted(by_player[g])
                 for prediction in [estimate_rank(model, by_player[g][player_id][:4])]]
    digests = {
        name: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        for name, value in (("random", random_report.to_dict()),
                            ("player", player_report.to_dict()),
                            ("estimate_rank", estimates))
    }
    assert digests == PINNED_EVAL_SHA256
