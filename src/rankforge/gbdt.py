"""Gradient-boosted regression trees, written from scratch.

Least-squares boosting: each tree fits the residuals of the running
prediction, grown leaf-wise to a leaf budget by exact greedy search over
sorted unique feature values.  Split gain is the sum-of-squares reduction;
thresholds sit at midpoints of adjacent distinct values; ties break to the
lower feature index, then the lower threshold.  Boosting stops early when
no split with positive gain exists, so a constant target yields an
ensemble with zero trees.

The search is presorted, as in XGBoost's exact greedy algorithm: `fit`
stably argsorts every column once.  A node keeps its rows in increasing
row order and a (features x rows) matrix whose row k is those rows sorted
by searched feature k.  A split gathers a row-indexed "goes left" boolean
through that matrix and cuts each row by it, which gives both children's
matrices, still sorted.  Restricted to a node, the stable global order is
the stable argsort of the node's rows, so every sum adds in the order a
per-node sort would, and every gain, threshold and model byte is unchanged.

Prediction is compiled: a `TreeEnsemble` concatenates its trees' node
arrays once, when it is built, with child ids (int32) rebased to the
concatenated arrays and one root id per tree.  `FlatTree.walk` moves every
(row, root) pair down together, one depth level at a time; a pair at
``x <= threshold`` goes left.  `predict_many` walks ``PREDICT_PAIRS``
(row, tree) pairs at a time, so its scratch memory does not grow with the
batch, and adds ``learning_rate * leaf`` into ``base_score`` tree by tree,
in tree order.  Each float addition therefore happens in the same order as
in a loop over the trees, and every prediction has the same bits.  Fit's
residual update, `FlatTree.leaf_values`, is the one-root case of the walk.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .artifacts import at_line, read_jsonl, write_jsonl
from .errors import ConfigError, DataError, SchemaMismatchError
from .rng import substream

FORMAT_TAG = "rankforge-gbdt/1"


@dataclass(frozen=True)
class GbdtParams:
    num_trees: int = 100
    learning_rate: float = 0.1
    max_leaves: int = 31
    min_samples_leaf: int = 20
    min_gain: float = 0.0
    feature_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_trees < 1:
            raise ConfigError("num_trees must be >= 1")
        if self.max_leaves < 2:
            raise ConfigError("max_leaves must be >= 2")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if not 0 < self.feature_fraction <= 1:
            raise ConfigError("feature_fraction must be in (0, 1]")
        if np.isnan(self.min_gain):
            raise ConfigError("min_gain must be a number")

    def to_dict(self) -> dict:
        return asdict(self)


class _Node:
    __slots__ = ("indices", "order", "value", "best", "feature", "threshold", "left", "right")

    def __init__(self, indices, order, residuals):
        self.indices = indices  # the node's rows, in increasing row order
        self.order = order  # (features x rows): the rows sorted by each feature
        self.value = float(residuals[indices].mean())
        self.best = None  # (gain, feature, threshold)
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None


def _search_node(node, columns, residuals, features, params):
    """Set ``node.best`` to the best split above ``min_gain``, searching all
    features (``columns``, one row each) in one pass; the first flat maximum
    of the SSE gain is the lower feature, then the lower threshold.  Each
    row of ``node.order`` is a stable argsort of the node's rows, so each
    row-wise cumsum adds in the order a per-feature sort would."""
    n = node.order.shape[1]
    if n < 2 * params.min_samples_leaf:
        return
    xs = np.take_along_axis(columns, node.order, axis=1)
    csum = np.cumsum(residuals[node.order], axis=1)
    total = csum[:, -1:]
    n_left = np.arange(1, n)
    n_right = n - n_left
    valid = (
        (xs[:, :-1] < xs[:, 1:])
        & (n_left >= params.min_samples_leaf)
        & (n_right >= params.min_samples_leaf)
    )
    s_left = csum[:, :-1]
    gain = s_left * s_left / n_left + (total - s_left) ** 2 / n_right - total * total / n
    gain = np.where(valid, gain, -np.inf)
    k, i = np.unravel_index(np.argmax(gain), gain.shape)
    if gain[k, i] > params.min_gain:
        threshold = (xs[k, i] + xs[k, i + 1]) / 2.0
        node.best = (float(gain[k, i]), int(features[k]), float(threshold))


_FLAT_DTYPES = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
                "right": np.int32, "value": np.float64}

# (row, tree) pairs per predict_many walk: bounds the walk's scratch memory
PREDICT_PAIRS = 4096
_ONE_ROOT = np.zeros(1, dtype=np.int32)


@dataclass
class FlatTree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def walk(self, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """Leaf value reached by every (row, root) pair, shape
        (len(X), len(roots)): all pairs descend together, one depth level
        per step."""
        width, n_features = len(roots), X.shape[1]
        node = np.tile(roots, len(X))
        row_start = np.repeat(np.arange(0, X.size, n_features), width)  # into X.ravel()
        flat = X.ravel()
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            cur = node[live]
            go_left = flat[row_start[live] + self.feature[cur]] <= self.threshold[cur]
            cur = np.where(go_left, self.left[cur], self.right[cur])
            node[live] = cur
            live = live[self.feature[cur] >= 0]
        return self.value[node].reshape(len(X), width)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        return self.walk(X, _ONE_ROOT)[:, 0]

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _FLAT_DTYPES}

    @classmethod
    def from_dict(cls, data: dict) -> "FlatTree":
        return cls(**{name: np.asarray(data[name], dtype=dtype)
                      for name, dtype in _FLAT_DTYPES.items()})


def _check_loaded(tree: FlatTree, n_features: int) -> None:
    """A loaded tree must be one the walk can finish: 1-D node arrays of one
    nonzero length, each feature in [-1, n_features), and each internal
    node's children inside the tree and above its own id, as ``_flatten``'s
    pre-order writes them, which also bounds the walk's depth."""
    size = tree.feature.shape
    if len(size) != 1 or not size[0] or any(getattr(tree, name).shape != size
                                             for name in _FLAT_DTYPES):
        raise DataError("a model tree's node arrays must have one nonzero length")
    if ((tree.feature < -1) | (tree.feature >= n_features)).any():
        raise DataError(f"a model tree splits on a feature outside [-1, {n_features})")
    inner = np.flatnonzero(tree.feature >= 0)
    for child in (tree.left[inner], tree.right[inner]):
        if ((child <= inner) | (child >= size[0])).any():
            raise DataError("a model tree's child id is not inside the tree and above its parent")


def _flatten(root) -> FlatTree:
    feature, threshold, left, right, value = [], [], [], [], []

    def visit(node) -> int:
        my_id = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        if node.feature is None:
            value[my_id] = float(node.value)
        else:
            feature[my_id] = int(node.feature)
            threshold[my_id] = float(node.threshold)
            left[my_id] = visit(node.left)
            right[my_id] = visit(node.right)
        return my_id

    visit(root)
    return FlatTree.from_dict({"feature": feature, "threshold": threshold, "left": left,
                               "right": right, "value": value})


def _grow_tree(X, order, residuals, features, params) -> FlatTree | None:
    columns = X.T[features]
    root = _Node(np.arange(len(X)), order[features], residuals)
    _search_node(root, columns, residuals, features, params)
    goes_left = np.empty(len(X), dtype=bool)  # read only at the split node's rows
    leaves = [root]
    while len(leaves) < params.max_leaves:
        # the splittable leaf with the largest gain; creation order breaks ties
        splittable = [leaf for leaf in leaves if leaf.best is not None]
        if not splittable:
            break
        chosen = max(splittable, key=lambda leaf: leaf.best[0])
        gain, f, threshold = chosen.best
        idx = chosen.indices
        mask = X[idx, f] <= threshold
        goes_left[idx] = mask
        in_left = goes_left[chosen.order]
        left = _Node(idx[mask], chosen.order[in_left].reshape(len(features), -1), residuals)
        right = _Node(idx[~mask], chosen.order[~in_left].reshape(len(features), -1), residuals)
        chosen.feature = f
        chosen.threshold = threshold
        chosen.left = left
        chosen.right = right
        chosen.indices = chosen.order = None
        chosen.best = None
        _search_node(left, columns, residuals, features, params)
        _search_node(right, columns, residuals, features, params)
        leaves[leaves.index(chosen)] = left
        leaves.append(right)
    if root.feature is None:
        return None  # no split with positive gain anywhere
    return _flatten(root)


def _compile(trees) -> tuple[FlatTree, np.ndarray]:
    """One FlatTree holding every tree's nodes, child ids rebased, and the
    root id of each tree."""
    roots = np.cumsum([0] + [len(tree.feature) for tree in trees], dtype=np.int32)[:-1]

    def joined(name):
        parts = [getattr(tree, name) for tree in trees]
        if name in ("left", "right"):
            parts = [np.where(tree.feature >= 0, part + root, -1)
                     for tree, part, root in zip(trees, parts, roots)]
        # the empty head keeps a zero-tree ensemble valid
        return np.concatenate([np.empty(0, dtype=np.int32)] + parts)

    return FlatTree.from_dict({name: joined(name) for name in _FLAT_DTYPES}), roots


@dataclass
class TreeEnsemble:
    base_score: float
    trees: list
    params: GbdtParams
    schema_id: str = ""
    n_features: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._nodes, self._roots = _compile(self.trees)

    def predict_many(self, X, num_trees: int | None = None) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise SchemaMismatchError(
                f"expected {self.n_features} features, got shape {X.shape}"
            )
        roots = self._roots[:num_trees]
        out = np.full(len(X), self.base_score, dtype=np.float64)
        if not len(roots):
            return out
        step = max(1, PREDICT_PAIRS // len(roots))
        for start in range(0, len(X), step):
            part = out[start:start + step]
            for leaves in self._nodes.walk(X[start:start + step], roots).T:
                part += self.params.learning_rate * leaves
        return out

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "params": self.params.to_dict(),
            "schema_id": self.schema_id,
            "n_features": self.n_features,
            "base_score": self.base_score,
            "meta": self.meta,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TreeEnsemble":
        if data.get("format") != FORMAT_TAG:
            raise DataError(f"unsupported model format {data.get('format')!r}")
        n_features = int(data["n_features"])
        trees = [FlatTree.from_dict(t) for t in data["trees"]]
        for tree in trees:
            _check_loaded(tree, n_features)
        return cls(
            base_score=float(data["base_score"]),
            trees=trees,
            params=GbdtParams(**data["params"]),
            schema_id=data.get("schema_id", ""),
            n_features=n_features,
            meta=dict(data.get("meta", {})),
        )

    def save(self, path) -> None:
        write_jsonl(path, [self.to_dict()])

    @classmethod
    def load(cls, path) -> "TreeEnsemble":
        for lineno, data in read_jsonl(path):
            with at_line(path, lineno, "model"):
                return cls.from_dict(data)
        raise DataError(f"model file {path} is empty")


def fit(X, y, params: GbdtParams, schema_id: str = "", meta: dict | None = None) -> TreeEnsemble:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("X must be a 2-D matrix")
    if len(X) != len(y):
        raise DataError("X and y length mismatch")
    if len(X) < 2:
        raise DataError("need at least 2 training rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("NaN or infinity in training data")
    if np.abs(y).max() > 1e150 / len(y):
        raise DataError("training targets so large that split gains would overflow")

    n_features = X.shape[1]
    order = np.argsort(X, axis=0, kind="stable").T
    base_score = float(y.mean())
    pred = np.full(len(y), base_score, dtype=np.float64)
    trees = []
    for t in range(params.num_trees):
        features = np.arange(n_features)
        if params.feature_fraction < 1.0:
            count = max(1, int(round(params.feature_fraction * n_features)))
            gen = substream(params.seed, "gbdt-feature-subset", t)
            features = np.sort(gen.choice(n_features, size=count, replace=False))
        residuals = y - pred
        tree = _grow_tree(X, order, residuals, features, params)
        if tree is None:
            break
        pred += params.learning_rate * tree.leaf_values(X)
        trees.append(tree)
    return TreeEnsemble(
        base_score=base_score,
        trees=trees,
        params=params,
        schema_id=schema_id,
        n_features=n_features,
        meta=dict(meta or {}),
    )
