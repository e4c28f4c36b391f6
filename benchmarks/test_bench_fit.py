"""Fit-layer microbenchmark on pinned training sets.

    python3 -m pytest benchmarks --benchmark-only

Both sets hold seven group-dependent features (seed 0, the default leaf
budget and leaf size).  One is desk-shaped: 8 rank groups x 150 rows and
60 trees, as one fit of the desk pipeline.  The other has 8 groups x 1,000
rows and 100 trees.
"""

import numpy as np
import pytest

from rankforge.gbdt import GbdtParams, fit

GROUPS, FEATURES = 8, 7


def _training_set(per_group):
    rng = np.random.default_rng(0)
    groups = np.repeat(np.arange(GROUPS), per_group)
    signal = groups[:, None] * rng.uniform(0.2, 1.0, size=FEATURES)
    return signal + rng.normal(scale=1.5, size=(len(groups), FEATURES)), groups.astype(np.float64)


@pytest.mark.parametrize("per_group, num_trees", [(150, 60), (1000, 100)],
                         ids=["desk-1200x7-60-trees", "8000x7-100-trees"])
def test_fit(benchmark, per_group, num_trees):
    X, y = _training_set(per_group)
    model = benchmark.pedantic(fit, args=(X, y, GbdtParams(num_trees=num_trees, seed=0)),
                               rounds=5 if per_group == 150 else 3, iterations=1)
    assert len(model.trees) == num_trees
