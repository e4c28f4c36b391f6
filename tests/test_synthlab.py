import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from rankforge import synthlab
from rankforge.backends import SyntheticBackend
from rankforge.errors import ConfigError
from rankforge.synthlab import SynthConfig, SynthLevel


def small_config(**overrides) -> SynthConfig:
    defaults = dict(
        groups=4,
        moves_per_state=8,
        plies_per_match=40,
        temperature_base=2.0,
        temperature_decay=0.7,
        levels=(SynthLevel("a", 0.5), SynthLevel("b", 2.5)),
        seed=123,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


def test_same_seed_identical_matches():
    cfg = small_config()
    m1 = synthlab.gen_matches(cfg, 2, ["uid-7"], 2.0)[0]
    m2 = synthlab.gen_matches(cfg, 2, ["uid-7"], 2.0)[0]
    assert m1 == m2


def test_different_uid_different_matches():
    cfg = small_config()
    assert (synthlab.gen_matches(cfg, 2, ["uid-7"], 2.0)[0]
            != synthlab.gen_matches(cfg, 2, ["uid-8"], 2.0)[0])


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(moves_per_state=1).validate()
    with pytest.raises(ConfigError):
        small_config(temperature_decay=1.2).validate()
    with pytest.raises(ConfigError):
        small_config(levels=(SynthLevel("a", 2.0), SynthLevel("b", 1.0))).validate()
    small_config().validate()


def test_zero_temperature_limit_picks_argmax():
    # a huge skill sends the temperature to ~0: argmax play, no deterioration
    cfg = small_config()
    match = synthlab.gen_matches(cfg, 3, ["cold"], 200.0)[0]
    for i, move in enumerate(match.moves):
        q = next(synthlab.quality_blocks(cfg, ["cold"]))[i]
        assert move == int(np.argmax(q))
        assert q.max() - q[move] == 0.0


def test_infinite_temperature_limit_uniform_choice():
    # temperature ~inf: uniform play; chosen prior averages 1/M at any level
    cfg = small_config(plies_per_match=4000)
    match = synthlab.gen_matches(cfg, 0, ["hot"], -200.0)[0]
    backend = SyntheticBackend(cfg)
    dp = synthlab.to_datapoint(match)
    states = list(dp.states)
    priors = backend.policy_prior_many(states, list(dp.moves), "a")
    m = cfg.moves_per_state
    # sd of the mean of priors is below (1/m)/sqrt(plies); allow 4 sigma
    assert abs(priors.mean() - 1 / m) < 4 * (1 / m) / np.sqrt(len(states))


def test_mean_deterioration_monotone_in_skill():
    cfg = small_config(plies_per_match=250)
    means = []
    for skill, tag in ((0.0, "s0"), (1.5, "s1"), (3.0, "s2")):
        dets = []
        for i in range(40):
            match = synthlab.gen_matches(cfg, 0, [f"det-{tag}-{i}"], skill)[0]
            q = next(synthlab.quality_blocks(cfg, [f"det-{tag}-{i}"]))
            dets.extend(q[j].max() - q[j, move] for j, move in enumerate(match.moves))
        means.append(np.mean(dets))
    assert means[0] > means[1] > means[2]


def test_monotone_separability_mean_quality():
    cfg = small_config(plies_per_match=200)
    per_skill = []
    for skill, tag in ((0.0, "lo"), (3.0, "hi")):
        qs = []
        for i in range(50):
            match = synthlab.gen_matches(cfg, 0, [f"sep-{tag}-{i}"], skill)[0]
            q = next(synthlab.quality_blocks(cfg, [f"sep-{tag}-{i}"]))
            qs.extend(q[j, move] for j, move in enumerate(match.moves))
        per_skill.append((np.mean(qs), np.std(qs) / np.sqrt(len(qs))))
    (lo_mean, lo_sem), (hi_mean, hi_sem) = per_skill
    assert hi_mean - lo_mean > 3 * (lo_sem + hi_sem)


def test_priors_sum_to_one_per_state_and_level():
    cfg = small_config()
    backend = SyntheticBackend(cfg)
    match = synthlab.gen_matches(cfg, 1, ["sum1"], 1.0)[0]
    for state in synthlab.to_datapoint(match).states[:10]:
        for level in cfg.level_labels():
            moves = [str(m) for m in range(cfg.moves_per_state)]
            dist = backend.policy_prior_many([state] * len(moves), moves, level)
            assert abs(dist.sum() - 1.0) < 1e-9


def test_own_level_prior_geomean_beats_far_level():
    # Gibbs: for a fixed player, the level matching their skill has the
    # highest expected log prior
    cfg = small_config(plies_per_match=300,
                       levels=(SynthLevel("own", 0.5), SynthLevel("far", 3.5)))
    backend = SyntheticBackend(cfg)
    own_logs, far_logs = [], []
    for i in range(30):
        match = synthlab.gen_matches(cfg, 0, [f"gibbs-{i}"], 0.5)[0]
        dp = synthlab.to_datapoint(match)
        states, moves = list(dp.states), list(dp.moves)
        own_logs.append(np.log(backend.policy_prior_many(states, moves, "own")).mean())
        far_logs.append(np.log(backend.policy_prior_many(states, moves, "far")).mean())
    assert np.mean(own_logs) > np.mean(far_logs)


def test_oracle_identical_temperatures_is_coin_flip():
    cfg = small_config(groups=2, temperature_decay=0.999999, plies_per_match=20)
    acc = synthlab.bayes_oracle_accuracy(cfg, n=3, trials=300, seed_tag="same")
    assert abs(acc - 0.5) < 0.1


def test_oracle_separated_groups_approaches_one():
    cfg = small_config(groups=2, temperature_base=3.0, temperature_decay=0.2,
                       plies_per_match=40)
    acc = synthlab.bayes_oracle_accuracy(cfg, n=10, trials=120, seed_tag="far")
    assert acc >= 0.99


def test_pinned_oracle_fixture_matches_current_config(fixtures_dir):
    fixture = json.loads((fixtures_dir / "synthetic_oracle.json").read_text())
    cfg = synthlab.desk_config()
    assert fixture["config_hash"] == cfg.config_hash(), (
        "desk config changed after the oracle was pinned; re-run scripts/pin_oracle.py"
    )
    # cheap re-estimate must agree within Monte Carlo error
    probe = synthlab.bayes_oracle_accuracy(cfg, n=20, trials=250, seed_tag="verify")
    sigma = np.sqrt(fixture["accuracy"] * (1 - fixture["accuracy"]) / 250)
    assert abs(probe - fixture["accuracy"]) < 4 * sigma + 0.01


def test_player_pool_offsets_deterministic():
    cfg = small_config(player_offset_sd=0.5)
    p1 = synthlab.gen_player_pool(cfg, "pp", 3, 2)
    p2 = synthlab.gen_player_pool(cfg, "pp", 3, 2)
    assert p1 == p2
    skills = {m.player_skill for players in p1.values() for ms in players.values() for m in ms}
    assert len(skills) > 4  # offsets actually vary


def test_chunked_pools_equal_one_match_at_a_time():
    # more matches than one sampling chunk, so a chunk boundary falls inside
    # every group and every player
    cfg = small_config(player_offset_sd=0.5)
    per_group = synthlab.SAMPLE_CHUNK + 1
    groups = synthlab.gen_group_pool(cfg, "chunk", per_group)
    for g, matches in groups.items():
        assert len(matches) == per_group
        assert matches == [synthlab.gen_matches(cfg, g, [m.uid], float(g))[0] for m in matches]
    players = synthlab.gen_player_pool(cfg, "chunk", 2, 20)
    for g, pool in players.items():
        for matches in pool.values():
            assert len(matches) == 20
            assert len({m.player_skill for m in matches}) == 1
            assert matches == [synthlab.gen_matches(cfg, g, [m.uid], m.player_skill)[0]
                               for m in matches]


def test_datapoint_conversion_round_trip_fields():
    cfg = small_config()
    match = synthlab.gen_matches(cfg, 2, ["dpconv"], 2.0)[0]
    dp = synthlab.to_datapoint(match)
    assert len(dp.plies) == cfg.plies_per_match
    assert dp.group.index == 2
    assert dp.plies[0] == 1
    assert dp.plies[-1] == cfg.plies_per_match
    assert dp.states[5] == synthlab.state_id("dpconv", 6)



def _triples_sha256(datapoints) -> str:
    triples = [list(zip(dp.plies, dp.states, dp.moves)) for dp in datapoints]
    return hashlib.sha256(json.dumps(triples).encode()).hexdigest()


def test_generated_datapoints_are_byte_pinned():
    # Digests of the (ply, state, move) triples: any change to how the
    # generator samples moves or formats data points changes them.
    groups = synthlab.pool_to_datapoints(
        synthlab.gen_group_pool(synthlab.desk_config(), "pin", 3))
    players = synthlab.player_pool_to_datapoints(
        synthlab.gen_player_pool(small_config(player_offset_sd=0.5), "pin", 2, 2))
    group_points = [dp for dps in groups.values() for dp in dps]
    player_points = [dp for pool in players.values() for dps in pool.values() for dp in dps]
    assert (_triples_sha256(group_points)
            == "a2176b94530656c7f85a204cc1599944adf4ff92899f6f9c0afc9c2ca8469119")
    assert (_triples_sha256(player_points)
            == "3715484a41374a20877490f18185faa61a72b12c273cdd02ca3637ce6999b6d2")
