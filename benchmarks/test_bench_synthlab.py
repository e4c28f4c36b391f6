"""Synthetic-generation microbenchmark at desk size.

    python3 -m pytest benchmarks --benchmark-only

Times ``gen_group_pool`` and ``pool_to_datapoints`` on the pinned desk
config: 8 rank groups x 120 matches of 80 plies, as the desk pipeline's
training pool.
"""

from rankforge import synthlab

MATCHES_PER_GROUP = 120


def _desk_datapoints():
    pool = synthlab.gen_group_pool(synthlab.desk_config(), "bench", MATCHES_PER_GROUP)
    return synthlab.pool_to_datapoints(pool)


def test_generate_desk_pool(benchmark):
    datapoints = benchmark.pedantic(_desk_datapoints, rounds=5, iterations=1)
    assert sum(len(dps) for dps in datapoints.values()) == 8 * MATCHES_PER_GROUP
