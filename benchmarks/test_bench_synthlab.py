"""Synthetic-generation microbenchmark at desk size.

    python3 -m pytest benchmarks --benchmark-only

Times ``gen_group_pool`` and ``pool_to_datapoints`` on the pinned desk
config: 8 rank groups x 120 matches of 80 plies, as the desk pipeline's
training pool.  Times ``gen_player_pool`` and ``player_pool_to_datapoints``
on the same config with a 0.6 player offset: 8 rank groups x 10 players x
20 matches, as one player-eval pass of perfbench.
"""

from dataclasses import replace

from rankforge import synthlab

MATCHES_PER_GROUP = 120
PLAYERS_PER_GROUP = 10
MATCHES_PER_PLAYER = 20


def _desk_datapoints():
    pool = synthlab.gen_group_pool(synthlab.desk_config(), "bench", MATCHES_PER_GROUP)
    return synthlab.pool_to_datapoints(pool)


def _player_datapoints():
    config = replace(synthlab.desk_config(), player_offset_sd=0.6)
    pool = synthlab.gen_player_pool(config, "bench-players", PLAYERS_PER_GROUP,
                                    MATCHES_PER_PLAYER)
    return synthlab.player_pool_to_datapoints(pool)


def test_generate_desk_pool(benchmark):
    datapoints = benchmark.pedantic(_desk_datapoints, rounds=5, iterations=1)
    assert sum(len(dps) for dps in datapoints.values()) == 8 * MATCHES_PER_GROUP


def test_generate_player_pool(benchmark):
    datapoints = benchmark.pedantic(_player_datapoints, rounds=5, iterations=1)
    assert (sum(len(dps) for players in datapoints.values() for dps in players.values())
            == 8 * PLAYERS_PER_GROUP * MATCHES_PER_PLAYER)
