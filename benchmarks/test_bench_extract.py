"""Feature-extraction microbenchmark on the synthetic backend at desk size.

    python3 -m pytest benchmarks --benchmark-only

Times ``extract_many`` over the desk pipeline's training pool: the pinned
desk config, 8 rank groups x 120 matches of 80 plies, with strength, the
four level priors and two loss statistics, all answered by one
``SyntheticBackend``.  The pool is generated once per run; each round
extracts it through a fresh backend.
"""

import pytest

from rankforge import synthlab
from rankforge.backends import BackendBank, SyntheticBackend
from rankforge.features import FeatureConfig, LossSpec, extract_many

MATCHES_PER_GROUP = 120


@pytest.fixture(scope="module")
def desk_pool():
    config = synthlab.desk_config()
    pool = synthlab.pool_to_datapoints(synthlab.gen_group_pool(config, "train",
                                                               MATCHES_PER_GROUP))
    return config, [dp for g in sorted(pool) for dp in pool[g]]


def test_extract_desk_train_pool(benchmark, desk_pool):
    config, datapoints = desk_pool
    features = FeatureConfig(game="synthetic", policy_levels=config.level_labels(),
                             loss_selected=(LossSpec("mean", 50), LossSpec("std", None)))

    def fresh_bank():
        backend = SyntheticBackend(config)
        return (datapoints, BackendBank(strength=backend, policy=backend, value=backend),
                features), {}

    rows, report = benchmark.pedantic(extract_many, setup=fresh_bank, rounds=5, iterations=1)
    assert len(rows) == 8 * MATCHES_PER_GROUP
    assert not report.dropped
