"""Sampling-layer microbenchmark: draws, averages and predictions on a
pinned feature pool.

    python3 -m pytest benchmarks --benchmark-only

The pool is desk-sized: 8 rank groups x 120 vectors of seven
group-dependent features (seed 0).  One benchmark builds a training set at
n=20 with 150 repetitions per group; one runs the random-sampling protocol
at the same n and repetitions; one makes 80 ``estimate_rank`` calls at
n=15, as one player-eval pass makes.  Both models are fit once per run
(60 trees).

The seeding benchmarks derive the substreams of string keys, one
``substream`` per key against one ``substreams`` pass, at 20 keys (one
player's matches, as one player-eval extraction batch) and at 1,600 keys
(the matches of one player-eval pass).  The last one is ``draw_means`` at
the paper-scale shape: 30 vectors, n=5, 26,000 repetitions.
"""

import numpy as np
import pytest

from rankforge.estimator import (TrainingSetSpec, build_training_set, estimate_rank,
                                 train_meta_model)
from rankforge.evalharness import EvalProtocol, run_random_sampling
from rankforge.features import FeatureVector
from rankforge.gbdt import GbdtParams
from rankforge.rng import draw_means, substream, substreams

GROUPS, PER_GROUP, FEATURES = 8, 120, 7
N, REPETITIONS, QUERY_N, QUERIES = 20, 150, 15, 80
SEED = 20240210
PLAYER_KEYS = [f"bench-g3-pl004-m{i:03d}" for i in range(20)]
PASS_KEYS = [f"bench-g{i % 8}-pl{i // 160:03d}-m{i // 8 % 20:03d}" for i in range(1600)]


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.2, 1.0, size=FEATURES)
    return {g: [FeatureVector(tuple(g * weights + rng.normal(scale=1.5, size=FEATURES)), "s")
                for _ in range(PER_GROUP)]
            for g in range(GROUPS)}


def _model(pool, n):
    spec = TrainingSetSpec(n=n, repetitions_per_group=REPETITIONS, seed=1)
    return train_meta_model(pool, spec, GbdtParams(num_trees=60, seed=0), "s", GROUPS)


def test_build_training_set(benchmark, pool):
    X, y = benchmark(build_training_set, pool, TrainingSetSpec(N, REPETITIONS, seed=2))
    assert X.shape == (GROUPS * REPETITIONS, FEATURES)


def test_run_random_sampling(benchmark, pool):
    model = _model(pool, N)
    report = benchmark(run_random_sampling, pool, model,
                       EvalProtocol("random", N, REPETITIONS, seed=3))
    assert report.total_predictions == GROUPS * REPETITIONS


def test_80_estimate_rank_calls(benchmark, pool):
    model = _model(pool, QUERY_N)
    queries = [pool[q % GROUPS][q // GROUPS:q // GROUPS + QUERY_N] for q in range(QUERIES)]
    predictions = benchmark(lambda: [estimate_rank(model, vectors) for vectors in queries])
    assert len(predictions) == QUERIES


SEEDINGS = {
    "per-key": lambda keys: [substream(SEED, "qualities", key) for key in keys],
    "bulk": lambda keys: list(substreams(SEED, ("qualities",), keys, lambda gen: None)),
}


@pytest.mark.parametrize("keys", [PLAYER_KEYS, PASS_KEYS], ids=["20-keys", "1600-keys"])
@pytest.mark.parametrize("seeding", sorted(SEEDINGS))
def test_seed_substreams(benchmark, seeding, keys):
    streams = benchmark(SEEDINGS[seeding], keys)
    assert len(streams) == len(keys)


def test_draw_means_paper_scale(benchmark):
    stacked = np.random.default_rng(0).normal(size=(30, FEATURES))
    means = benchmark.pedantic(draw_means, (stacked, 5, 26_000, 1, "trainset", 0),
                               rounds=5, iterations=1)
    assert means.shape == (26_000, FEATURES)
