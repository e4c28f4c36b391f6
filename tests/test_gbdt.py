import hashlib
import json
import math

import numpy as np
import pytest

from helpers.oracles import model_json, reference_search_node
from rankforge import gbdt
from rankforge.errors import ConfigError, DataError, SchemaMismatchError
from rankforge.gbdt import PREDICT_PAIRS, GbdtParams, TreeEnsemble, fit

SMALL = GbdtParams(num_trees=10, learning_rate=1.0, max_leaves=4,
                   min_samples_leaf=1, seed=0)


def brute_force_first_split(X, y, min_samples_leaf=1):
    """Exhaustive search over all (feature, midpoint threshold) pairs for the
    split minimizing total SSE; ties to lower feature then lower threshold.
    Coded independently of the production search."""
    n, d = X.shape
    best = None  # (sse, feature, threshold)
    for f in range(d):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2
            left = y[X[:, f] <= threshold]
            right = y[X[:, f] > threshold]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            sse = (sum((v - sum(left) / len(left)) ** 2 for v in left)
                   + sum((v - sum(right) / len(right)) ** 2 for v in right))
            key = (round(sse, 9), f, threshold)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[1], best[2]


def first_split_of(model):
    tree = model.trees[0]
    return int(tree.feature[0]), float(tree.threshold[0])


def test_constant_target_yields_zero_trees_and_exact_predictions():
    X = np.arange(12, dtype=float).reshape(-1, 1)
    y = np.full(12, 3.25)
    model = fit(X, y, SMALL)
    assert len(model.trees) == 0
    assert np.all(model.predict_many(X) == 3.25)


def test_one_dim_step_function_exact():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    params = GbdtParams(num_trees=1, learning_rate=1.0, max_leaves=2,
                        min_samples_leaf=1, seed=0)
    model = fit(X, y, params)
    feature, threshold = first_split_of(model)
    assert feature == 0
    assert 1.0 < threshold < 2.0
    assert brute_force_first_split(X, y) == (0, threshold)
    assert np.allclose(model.predict_many(X), y, atol=1e-12)


def test_first_split_matches_brute_force_on_random_fixtures():
    rng = np.random.default_rng(17)
    for case in range(12):
        n = int(rng.integers(5, 101))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 3)
        y = rng.normal(size=n)
        msl = int(rng.integers(1, 4))
        params = GbdtParams(num_trees=1, learning_rate=1.0, max_leaves=2,
                            min_samples_leaf=msl, seed=0)
        model = fit(X, y, params)
        expected = brute_force_first_split(X, y, msl)
        if expected is None:
            assert len(model.trees) == 0
            continue
        got = first_split_of(model)
        assert got[0] == expected[0], f"case {case}"
        assert got[1] == pytest.approx(expected[1], abs=1e-12), f"case {case}"


def test_training_mse_monotone_nonincreasing():
    rng = np.random.default_rng(7)
    for case in range(3):
        X = rng.normal(size=(200, 5))
        y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(scale=0.3, size=200)
        model = fit(X, y, GbdtParams(num_trees=100, min_samples_leaf=5, seed=case))
        last = math.inf
        for t in range(0, len(model.trees) + 1):
            mse = float(np.mean((y - model.predict_many(X, num_trees=t)) ** 2))
            assert mse <= last + 1e-9
            last = mse
        mse10 = float(np.mean((y - model.predict_many(X, num_trees=10)) ** 2))
        mse50 = float(np.mean((y - model.predict_many(X, num_trees=50)) ** 2))
        assert mse50 < mse10


def test_empty_ensemble_predicts_base_score():
    X = np.array([[1.0], [2.0]])
    y = np.array([5.0, 5.0])
    model = fit(X, y, SMALL)
    assert model.predict_many(np.array([[123.0]]))[0] == 5.0


def test_serialization_round_trip_bit_exact():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(150, 4))
    y = rng.normal(size=150)
    model = fit(X, y, GbdtParams(num_trees=30, min_samples_leaf=3, seed=1),
                schema_id="abc123")
    blob = model_json(model)
    restored = TreeEnsemble.from_dict(json.loads(blob))
    assert model_json(restored) == blob
    probe = rng.normal(size=(1000, 4))
    assert np.array_equal(model.predict_many(probe), restored.predict_many(probe))


def test_fit_deterministic_byte_for_byte():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(120, 3))
    y = rng.normal(size=120)
    params = GbdtParams(num_trees=20, min_samples_leaf=4, feature_fraction=0.67, seed=9)
    assert model_json(fit(X, y, params)) == model_json(fit(X, y, params))


def test_prediction_bounded_by_base_plus_leaf_mass():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80) * 10
    model = fit(X, y, GbdtParams(num_trees=40, min_samples_leaf=2, seed=0))
    bound = abs(model.base_score) + sum(
        model.params.learning_rate * float(np.abs(t.value[t.feature < 0]).max())
        for t in model.trees
    )
    probe = rng.normal(size=(500, 3)) * 50  # far outside the training range
    assert np.all(np.abs(model.predict_many(probe)) <= bound + 1e-9)


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    model = fit(X, y, GbdtParams(num_trees=5, min_samples_leaf=20, seed=0))
    for tree in model.trees:
        counts = _leaf_counts(tree, X)
        assert all(c >= 20 for c in counts.values())


def _leaf_counts(tree, X):
    values = tree.leaf_values(X)
    counts = {}
    idx = np.zeros(len(X), dtype=int)
    active = tree.feature[idx] >= 0
    while active.any():
        cur = idx[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        idx[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = tree.feature[idx] >= 0
    for leaf in idx:
        counts[int(leaf)] = counts.get(int(leaf), 0) + 1
    return counts


def test_max_leaves_respected():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(300, 3))
    y = rng.normal(size=300)
    model = fit(X, y, GbdtParams(num_trees=3, max_leaves=7, min_samples_leaf=1, seed=0))
    for tree in model.trees:
        assert (tree.feature < 0).sum() <= 7


def test_schema_mismatch_on_predict():
    X = np.ones((4, 2))
    y = np.array([1.0, 2.0, 1.0, 2.0])
    model = fit(X, y, SMALL)
    with pytest.raises(SchemaMismatchError):
        model.predict_many(np.array([[1.0, 2.0, 3.0]]))


def test_nan_rejected():
    with pytest.raises(DataError):
        fit(np.array([[np.nan], [1.0]]), np.array([1.0, 2.0]), SMALL)


@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_training_data_rejected(where, bad):
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 3.0])
    if where == "X":
        X[1, 0] = bad
    else:
        y[1] = bad
    with pytest.raises(DataError, match="NaN or infinity"):
        fit(X, y, SMALL)


def test_targets_whose_split_gains_would_overflow_are_rejected():
    # the squared residual sums overflow float64 near 1.3e154
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    with pytest.raises(DataError, match="overflow"):
        fit(X, rng.normal(size=50) * 1e160, SMALL)
    fit(X, rng.normal(size=50) * 1e140, SMALL)


def test_nan_min_gain_is_config_error():
    with pytest.raises(ConfigError):
        GbdtParams(min_gain=math.nan)


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    X = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    model = fit(X, y, GbdtParams(num_trees=5, min_samples_leaf=2, seed=0),
                schema_id="deadbeef", meta={"trained_n": 5, "r_groups": 8})
    path = tmp_path / "model.json"
    model.save(path)
    loaded = TreeEnsemble.load(path)
    assert model_json(loaded) == model_json(model)
    assert loaded.meta["trained_n"] == 5
    data = json.loads(path.read_text())
    assert data["format"] == "rankforge-gbdt/1"


# ---------------------------------------------------------------------------
# the compiled walk against a per-tree loop


def _per_tree_reference(model, X, num_trees=None):
    """base + sum of learning_rate * tree.leaf_values(X), in tree order."""
    X = np.asarray(X, dtype=np.float64)
    out = np.full(len(X), model.base_score)
    for tree in model.trees[:num_trees]:
        out += model.params.learning_rate * tree.leaf_values(X)
    return out


def _assert_same_bits(model, X, num_trees=None):
    got = model.predict_many(X, num_trees=num_trees)
    assert got.tobytes() == _per_tree_reference(model, X, num_trees).tobytes()


def _fitted(rounded, max_leaves=31, seed=0):
    rng = np.random.default_rng(47 + seed)
    X = rng.normal(size=(400, 5))
    if rounded:
        X = np.round(X, 1)
    y = X[:, 0] * 2 + np.sin(3 * X[:, 1]) + rng.normal(scale=0.3, size=len(X))
    params = GbdtParams(num_trees=60, max_leaves=max_leaves, min_samples_leaf=5, seed=seed)
    return fit(X, y, params), X, rng


def test_leaf_values_follow_each_tree_by_hand():
    model, X, _ = _fitted(rounded=False)
    tree = model.trees[3]
    for x, got in zip(X[:50], tree.leaf_values(X[:50])):
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        assert got == tree.value[node]


@pytest.mark.parametrize("rounded", [False, True])
def test_compiled_walk_matches_per_tree_loop(rounded):
    model, X, rng = _fitted(rounded)
    assert len(model.trees) == 60
    many = rng.normal(size=(2 * PREDICT_PAIRS // len(model.trees) + 7, 5))
    if rounded:
        many = np.round(many, 1)
    for num_trees in (None, 0, 1, 17, 60, 100):
        _assert_same_bits(model, many, num_trees)
        _assert_same_bits(model, X, num_trees)
        _assert_same_bits(model, many[:1], num_trees)
    one_by_one = np.array([model.predict_many(row[None, :])[0] for row in many])
    assert one_by_one.tobytes() == model.predict_many(many).tobytes()


def test_compiled_walk_sends_a_row_on_a_threshold_left():
    model, X, _ = _fitted(rounded=False)
    tree = model.trees[0]
    on_threshold = X[:4].copy()
    on_threshold[:, tree.feature[0]] = tree.threshold[0]
    _assert_same_bits(model, on_threshold)
    left_only = TreeEnsemble(model.base_score, [tree], model.params, n_features=5)
    nudged = on_threshold.copy()
    nudged[:, tree.feature[0]] = np.nextafter(tree.threshold[0], -np.inf)
    assert np.array_equal(left_only.predict_many(on_threshold), left_only.predict_many(nudged))


def test_compiled_walk_on_stumps_and_on_zero_trees():
    stumps, X, _ = _fitted(rounded=False, max_leaves=2)
    assert all((tree.feature < 0).sum() == 2 for tree in stumps.trees)
    _assert_same_bits(stumps, X)
    _assert_same_bits(stumps, X, 1)
    flat = fit(X, np.full(len(X), 0.75), GbdtParams(num_trees=10))
    assert flat.trees == []
    _assert_same_bits(flat, X)
    assert flat.predict_many(X[:0]).shape == (0,)


def test_compiled_walk_after_a_save_load_round_trip(tmp_path):
    model, X, _ = _fitted(rounded=True, seed=3)
    model.save(tmp_path / "model.json")
    loaded = TreeEnsemble.load(tmp_path / "model.json")
    for num_trees in (None, 1, 30):
        _assert_same_bits(loaded, X, num_trees)
        assert (loaded.predict_many(X, num_trees=num_trees).tobytes()
                == model.predict_many(X, num_trees=num_trees).tobytes())


# ---------------------------------------------------------------------------
# the presorted search against a per-feature sort at every node


def _split_fixture(name):
    rng = np.random.default_rng(53)
    X = rng.normal(size=(240, 5))
    y = X[:, 0] * 2 + np.sin(3 * X[:, 1]) + rng.normal(scale=0.3, size=len(X))
    params = {"num_trees": 20, "min_samples_leaf": 3, "seed": 2}
    if name == "rounded":
        X = np.round(X, 1)
    elif name == "constant-column":
        X[:, 2] = 1.5
    elif name == "feature-fraction":
        params["feature_fraction"] = 0.6
    elif name == "min-gain":
        params["min_gain"] = 0.5
    elif name == "leaf-of-half":
        params.update(num_trees=8, min_samples_leaf=len(X) // 2)
    elif name == "leaf-near-half":
        params.update(num_trees=8, min_samples_leaf=len(X) // 2 - 3)
    elif name == "one-row-per-group":
        y = np.arange(8, dtype=np.float64)
        X = rng.normal(size=(8, 7)) + y[:, None]
        params["min_samples_leaf"] = 1
    return X, y, GbdtParams(**params)


@pytest.mark.parametrize("name", ["continuous", "rounded", "constant-column",
                                  "feature-fraction", "min-gain", "leaf-of-half",
                                  "leaf-near-half", "one-row-per-group"])
def test_presorted_fit_equals_a_per_node_sort_byte_for_byte(name, monkeypatch):
    X, y, params = _split_fixture(name)
    got = fit(X, y, params)
    assert got.trees
    monkeypatch.setattr(gbdt, "_search_node", reference_search_node)
    assert model_json(got) == model_json(fit(X, y, params))


def test_pinned_model_bytes():
    """A fit change that moves any bit of a model fails here."""
    rng = np.random.default_rng(61)
    X = np.round(rng.normal(size=(500, 6)), 2)
    y = X[:, 0] - 2 * X[:, 3] ** 2 + rng.normal(scale=0.5, size=500)
    model = fit(X, y, GbdtParams(num_trees=40, min_samples_leaf=5, feature_fraction=0.8, seed=4))
    digest = hashlib.sha256(model_json(model).encode()).hexdigest()
    assert digest == "f3d6ae3430a9fa0846ba5e8d6d7429d584f2fa0c4927ace384240327263d64a7"


def test_every_node_search_has_the_bits_of_a_per_node_sort(monkeypatch):
    """Each node's best (gain, feature, threshold), gain bits included, as a
    stable sort of the node's own rows gives it; residuals spanning 16
    orders of magnitude make a sum's bits depend on its order."""
    presorted, searched = gbdt._search_node, []

    def both(node, columns, residuals, features, params):
        reference_search_node(node, columns, residuals, features, params)
        expected, node.best = node.best, None
        presorted(node, columns, residuals, features, params)
        assert node.best == expected
        searched.append(expected)

    monkeypatch.setattr(gbdt, "_search_node", both)
    rng = np.random.default_rng(59)
    X = np.round(rng.normal(size=(300, 4)), 1)
    y = rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, size=300)
    fit(X, y, GbdtParams(num_trees=10, min_samples_leaf=2, feature_fraction=0.75, seed=5))
    assert sum(best is not None for best in searched) >= 100
