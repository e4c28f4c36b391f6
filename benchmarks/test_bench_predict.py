"""Predict-layer microbenchmark on a pinned fitted model.

    python3 -m pytest benchmarks --benchmark-only

The model is fit once per run on 8 rank groups x 200 rows of seven
group-dependent features (seed 0, 60 trees, the default leaf budget).
One benchmark times a one-row query, as a player query makes; the other
a 2,400-row batch, as one evaluation protocol makes.
"""

import numpy as np
import pytest

from rankforge.gbdt import GbdtParams, fit

GROUPS, PER_GROUP, FEATURES = 8, 200, 7


def _rows(rng, groups):
    signal = groups[:, None] * rng.uniform(0.2, 1.0, size=FEATURES)
    return signal + rng.normal(scale=1.5, size=(len(groups), FEATURES))


@pytest.fixture(scope="module")
def pinned():
    rng = np.random.default_rng(0)
    groups = np.repeat(np.arange(GROUPS), PER_GROUP)
    model = fit(_rows(rng, groups), groups.astype(np.float64),
                GbdtParams(num_trees=60, seed=0))
    assert len(model.trees) == 60
    return model, _rows(rng, rng.integers(0, GROUPS, size=2400))


def test_predict_one_row(benchmark, pinned):
    model, probe = pinned
    out = benchmark(model.predict_many, probe[:1])
    assert out.shape == (1,)


def test_predict_2400_rows(benchmark, pinned):
    model, probe = pinned
    out = benchmark(model.predict_many, probe)
    assert out.shape == (2400,)
