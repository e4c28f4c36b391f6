import math
import zlib
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helpers.oracles import reference_loss_stat
from rankforge.backends import BackendBank, BackendDescriptor, SubprocessBackend, SyntheticBackend
from rankforge import synthlab
from rankforge.backends import synthetic
from rankforge.errors import BackendError, ConfigError, DataError, SchemaMismatchError
from rankforge.features import (
    EXTRACT_BATCH,
    LOSS_STATS,
    FeatureConfig,
    FeatureVector,
    LossSpec,
    StoredFeature,
    chess_default_config,
    extract_many,
    go_default_config,
    mean_strength,
    move_losses,
    prior_geomean,
    read_feature_store,
    write_feature_store,
)
from rankforge.records.types import DataPoint, RankGroup
from rankforge.synthlab import (
    SynthConfig,
    SynthLevel,
    desk_config,
    gen_group_pool,
    gen_matches,
    pool_to_datapoints,
    to_datapoint,
)


def tiny_config() -> SynthConfig:
    return SynthConfig(
        groups=3, moves_per_state=6, plies_per_match=10,
        temperature_base=1.5, temperature_decay=0.6,
        levels=(SynthLevel("lo", 0.0), SynthLevel("hi", 2.0)), seed=21,
    )


def _dp(match=None):
    cfg = tiny_config()
    match = match or gen_matches(cfg, 1, ["feat-dp"], 1.0)[0]
    return cfg, to_datapoint(match)


def _from_move(dp, start: int):
    """``dp`` without its moves before index ``start``."""
    return replace(dp, plies=dp.plies[start:], states=dp.states[start:],
                   moves=dp.moves[start:])


# ---------------------------------------------------------------------------
# scalar operations


def test_mean_strength_constant_and_symmetry():
    assert mean_strength([1, 1, 1]) == 1
    assert mean_strength([0, 2]) == 1


def test_mean_strength_empty_is_error():
    with pytest.raises(DataError):
        mean_strength([])


def test_mean_strength_against_compensated_sum():
    rng = np.random.default_rng(5)
    betas = rng.normal(size=50)
    expected = float(math.fsum(betas) / 50)
    assert math.isclose(mean_strength(betas), expected, rel_tol=1e-12)


def test_prior_geomean_constant_lists():
    assert prior_geomean([0.25, 0.25, 0.25]) == pytest.approx(0.25, abs=1e-15)
    assert prior_geomean([1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_prior_geomean_direct_product_oracle():
    # sqrt(0.5 * 0.125) = sqrt(0.0625) = 0.25
    assert prior_geomean([0.5, 0.125]) == pytest.approx(0.25, rel=1e-12)


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=20))
def test_prior_geomean_log_space_matches_direct_product(priors):
    direct = float(mpmath.power(mpmath.fprod([mpmath.mpf(p) for p in priors]),
                                mpmath.mpf(1) / len(priors)))
    assert math.isclose(prior_geomean(priors), direct, rel_tol=1e-10)


@given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=20))
def test_prior_geomean_bounded_by_extremes(priors):
    gm = prior_geomean(priors)
    assert min(priors) - 1e-12 <= gm <= max(priors) + 1e-12


class _LossTable:
    """A value backend whose states spell the moves' losses: it answers each
    state's loss before the move and 0 after it, so each move's
    deterioration is its loss."""

    def evaluate_state_many(self, states, moves=None):
        return np.array([float(s) if moves is None else 0.0 for s in states])


def loss_feature(losses, stat: str, n_cut: int | None):
    """(value, flagged reasons) of one loss statistic over (ply, loss)
    moves, through extraction."""
    plies = tuple(ply for ply, _ in losses)
    dp = DataPoint("m", "p", "black", RankGroup("synthetic", 0, "g0"), plies,
                   tuple(repr(float(loss)) for _, loss in losses), ("0",) * len(plies))
    config = FeatureConfig(game="synthetic", include_strength=False, include_priors=False,
                           loss_selected=(LossSpec(stat, n_cut),))
    (row,), report = extract_many([dp], BackendBank(value=_LossTable()), config)
    return row.vector.values[0], [flag["reason"] for flag in report.flagged]


@given(st.permutations(list(range(8))))
def test_permutation_invariance(perm):
    values = [0.1, 0.2, 0.4, 0.8, 0.5, 0.3, 0.9, 0.7]
    shuffled = [values[i] for i in perm]
    assert mean_strength(shuffled) == pytest.approx(mean_strength(values), abs=1e-12)
    assert prior_geomean(shuffled) == pytest.approx(prior_geomean(values), rel=1e-12)
    base = list(enumerate(values, start=1))
    shuffled_losses = list(enumerate(shuffled, start=1))
    for stat in ("mean", "median", "std"):
        assert loss_feature(shuffled_losses, stat, None)[0] == pytest.approx(
            loss_feature(base, stat, None)[0], abs=1e-12)


def test_loss_stats_basics():
    losses = [(1, 1.0), (2, 2.0), (3, 3.0)]
    assert loss_feature(losses, "mean", None) == (2.0, [])
    assert loss_feature(losses, "median", None) == (2.0, [])
    std, _ = loss_feature(losses, "std", None)
    expected = float(mpmath.sqrt(mpmath.mpf(2) / 3))
    assert abs(std - expected) < 1e-12


def test_loss_stats_even_count_median_averages_middle():
    losses = [(1, 1.0), (2, 2.0), (3, 5.0), (4, 10.0)]
    assert loss_feature(losses, "median", None)[0] == 3.5


def test_loss_stats_cut_is_match_global():
    losses = [(40, 2.0), (60, 4.0), (120, 8.0)]
    assert loss_feature(losses, "mean", 50) == (2.0, [])
    assert loss_feature(losses, "mean", 100) == (3.0, [])
    assert loss_feature(losses, "mean", None)[0] == pytest.approx(14 / 3)


def test_loss_stats_empty_after_cut_sentinel():
    losses = [(60, 2.0)]
    assert loss_feature(losses, "mean", 50) == (0.0, ["empty_after_cut:loss_mean_cut50"])


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(1, 5), st.floats(-1e6, 1e6)), min_size=1, max_size=12),
       st.sampled_from(["mean", "median", "std"]), st.sampled_from([None, 1, 5, 20, 40]))
def test_loss_stats_equal_the_list_reference_bit_for_bit(steps, stat, n_cut):
    plies = np.cumsum([step for step, _ in steps]).tolist()
    losses = list(zip(plies, (loss for _, loss in steps)))
    value, empty = reference_loss_stat(losses, stat, n_cut)
    assert loss_feature(losses, stat, n_cut) == (
        value, [f"empty_after_cut:{LossSpec(stat, n_cut).feature_name}"] if empty else [])


# ---------------------------------------------------------------------------
# move losses


def test_move_losses_synthetic_semantics():
    cfg, dp = _dp()
    backend = SyntheticBackend(cfg)
    losses, clamps = move_losses(dp.states, dp.moves, backend)
    assert clamps == 0
    from rankforge.synthlab import quality_blocks

    q = next(quality_blocks(cfg, [dp.match_id]))
    for loss, match_ply in zip(losses, range(cfg.plies_per_match)):
        chosen = int(dp.moves[match_ply])
        assert loss == pytest.approx(q[match_ply].max() - q[match_ply, chosen], abs=1e-12)
        assert loss >= 0


def test_move_losses_value_table_blunder():
    # constructed table: position worth +1 before; after the move the
    # opponent stands +2, so the mover deteriorated by 3
    table = {"s0": 1.0, "after": 2.0}

    class _TableBackend:
        def evaluate_state_many(self, states, moves=None):
            if moves is None:
                return np.array([table[s] for s in states])
            return np.array([table["after"] for _ in states])

    losses, _ = move_losses(["s0"], ["0"], _TableBackend())
    assert losses.dtype == np.float64
    assert losses.tolist() == [3.0]


def test_move_losses_best_move_zero():
    cfg = tiny_config()
    match = gen_matches(cfg, 2, ["best"], 50.0)[0]  # near-argmax play
    dp = to_datapoint(match)
    losses, _ = move_losses(dp.states, dp.moves, SyntheticBackend(cfg))
    assert all(abs(loss) < 1e-9 for loss in losses)


def test_move_losses_ten_move_replay_oracle():
    cfg, dp = _dp(gen_matches(tiny_config(), 0, ["replay10"], 0.0)[0])
    backend = SyntheticBackend(cfg)
    losses, _ = move_losses(dp.states, dp.moves, backend)
    from rankforge.synthlab import quality_blocks

    q = next(quality_blocks(cfg, ["replay10"]))
    expected = [q[i].max() - q[i, int(dp.moves[i])] for i in range(10)]
    assert losses.tolist() == pytest.approx(expected, abs=1e-12)


def test_move_losses_logit_transform_counts_clamps():
    class _WinrateBackend:
        def evaluate_state_many(self, states, moves=None):
            if moves is None:
                return np.array([0.5] * len(states))
            return np.array([1.0] * len(states))  # out of (0,1): clamped

    losses, clamps = move_losses(["s"], ["e2e4"], _WinrateBackend(), transform="logit")
    assert clamps == 1
    # opponent now winning outright: a maximal positive deterioration
    assert losses[0] == pytest.approx(math.log((1 - 1e-6) / 1e-6), rel=1e-6)
    assert losses[0] > 0


class _CrcWinrates:
    """Win rates in [0, 1] from a checksum of the state (and move), so some
    are exactly 0 or 1 and get clamped; records each call's kind."""

    def __init__(self):
        self.calls = []

    def evaluate_state_many(self, states, moves=None):
        self.calls.append("before" if moves is None else "after")
        keys = states if moves is None else [s + "/" + m for s, m in zip(states, moves)]
        return np.array([zlib.crc32(k.encode()) % 23 / 22 for k in keys])


@pytest.mark.parametrize("transform", ["identity", "logit"])
def test_batched_move_losses_equal_one_point_calls(transform):
    cfg = tiny_config()
    dps = [to_datapoint(gen_matches(cfg, i % 3, [f"mixed-{i}"], float(i % 3))[0]) for i in range(5)]
    dps = [_from_move(dp, start) for dp, start in zip(dps, (0, 7, 9, 3, 5))]
    backend = SyntheticBackend(cfg) if transform == "identity" else _CrcWinrates()
    losses, clamps = move_losses([s for dp in dps for s in dp.states],
                                 [m for dp in dps for m in dp.moves], backend, transform)
    alone = [move_losses(dp.states, dp.moves, backend, transform) for dp in dps]
    assert [len(one) for one, _ in alone] == [10, 3, 1, 7, 5]
    assert losses.tolist() == [loss for one, _ in alone for loss in one.tolist()]
    assert clamps == sum(one for _, one in alone)
    if transform == "logit":  # one pair of calls for the batch, one per point after it
        assert backend.calls == ["before", "after"] * (1 + len(dps))
        assert [one for _, one in alone] == [2, 0, 0, 1, 1]


# ---------------------------------------------------------------------------
# configs and vectors


def test_schema_lengths_match_published_configs():
    go = go_default_config([f"L{i}" for i in range(10)])
    assert go.width == 13  # strength + 10 levels + MeanLoss@100 + MedLoss@all
    chess = chess_default_config([f"M{i}" for i in range(9)])
    assert chess.width == 12  # strength + 9 levels + MeanLoss@50 + StdLoss@50
    assert chess.value_transform() == "logit"
    assert go.value_transform() == "identity"


def test_strength_only_config_length_one():
    cfg = FeatureConfig(game="synthetic", include_priors=False, include_loss=False)
    assert cfg.width == 1
    assert cfg.feature_names() == ["mean_strength"]


def test_config_requires_some_family():
    with pytest.raises(ConfigError):
        FeatureConfig(game="synthetic", include_strength=False,
                      include_priors=False, include_loss=False)


def test_schema_id_changes_with_config():
    a = FeatureConfig(game="synthetic", policy_levels=("x",),
                      loss_selected=(LossSpec("mean", 50),))
    b = FeatureConfig(game="synthetic", policy_levels=("x", "y"),
                      loss_selected=(LossSpec("mean", 50),))
    assert a.schema_id() != b.schema_id()


def test_extract_features_deterministic_and_ordered():
    cfg, dp = _dp()
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", None),))
    (row1,), _ = extract_many([dp], bank, fconfig)
    (row2,), _ = extract_many([dp], bank, fconfig)
    v1, v2 = row1.vector, row2.vector
    assert v1 == v2
    assert len(v1.values) == 1 + 2 + 1
    betas = backend.score_strength_many(dp.states, dp.moves)
    assert v1.values[0] == pytest.approx(betas.mean(), abs=1e-12)


# ---------------------------------------------------------------------------
# extract_many and the store


def test_extract_many_sorted_and_complete():
    cfg = tiny_config()
    dps = [to_datapoint(gen_matches(cfg, g, [f"em-{g}-{i}"], float(g))[0])
           for g in range(3) for i in range(4)]
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", 5), LossSpec("std", None)))
    rows, report = extract_many(reversed(dps), bank, fconfig)
    assert len(rows) == 12
    assert [r.match_id for r in rows] == sorted(r.match_id for r in rows)
    assert not report.dropped


def test_extract_many_drops_on_backend_error():
    cfg = tiny_config()
    dps = [to_datapoint(gen_matches(cfg, 0, [f"drop-{i}"], 0.0)[0]) for i in range(3)]

    class _Flaky(SyntheticBackend):
        def evaluate_state_many(self, states, moves=None):
            if any("drop-1" in s for s in states):
                raise BackendError("scripted")
            return super().evaluate_state_many(states, moves)

    backend = _Flaky(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", None),))
    rows, report = extract_many(dps, bank, fconfig)
    assert len(rows) == 2
    assert len(report.dropped) == 1
    assert report.dropped[0]["match_id"] == "drop-1"


@pytest.mark.parametrize("answer", [1e308, math.inf, math.nan])
def test_extract_many_drops_exactly_the_point_of_a_non_finite_feature(answer):
    cfg = tiny_config()
    dps = [to_datapoint(gen_matches(cfg, 0, [f"huge-{i}"], 0.0)[0]) for i in range(5)]
    # the odd points start at ply 4, so their cut-3 loss is empty and flagged
    dps = [_from_move(dp, 3) if i % 2 else dp for i, dp in enumerate(dps)]

    class _Huge(SyntheticBackend):
        def score_strength_many(self, states, moves):
            betas = super().score_strength_many(states, moves)
            return np.where(["huge-3" in s for s in states], answer, betas)

    backend = _Huge(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    # chess values go through the logit, which clamps the synthetic values
    fconfig = FeatureConfig(game="chess", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", 3), LossSpec("median", None)))
    rows, report = extract_many(dps, bank, fconfig)
    expected, clean = extract_many(dps[:3] + dps[4:], bank, fconfig)
    assert rows == expected
    assert all(math.isfinite(v) for row in rows for v in row.vector.values)
    assert report.dropped == [{"match_id": "huge-3", "side": "black",
                               "reason": "backend_error:non-finite feature value"}]
    assert report.flagged == clean.flagged
    assert [flag["match_id"] for flag in clean.flagged] == ["huge-1"]
    assert report.winrate_clamps == clean.winrate_clamps > 0


def test_extract_many_over_several_batches_equals_one_point_extraction():
    cfg = tiny_config()
    dps = []
    for i in range(2 * EXTRACT_BATCH + 5):
        dp = to_datapoint(gen_matches(cfg, i % 3, [f"batch-{i}"], float(i % 3))[0])
        if i % 2:  # starts at ply 4, so its cut-3 loss is empty and flagged
            dp = replace(_from_move(dp, 3), side="white")
        dps.append(dp)
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    # chess values go through the logit, which clamps the synthetic values
    fconfig = FeatureConfig(game="chess", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", 3), LossSpec("median", None)))
    rows, report = extract_many(dps, bank, fconfig)
    alone = [extract_many([dp], bank, fconfig) for dp in dps]
    assert rows == sorted((row for one, _ in alone for row in one),
                          key=lambda r: (r.match_id, r.side))
    assert report.flagged == [flag for _, one in alone for flag in one.flagged]
    assert len(report.flagged) == EXTRACT_BATCH + 2
    assert report.winrate_clamps == sum(one.winrate_clamps for _, one in alone) > 0
    assert not report.dropped


class _FailOneMatch(SyntheticBackend):
    """A synthetic backend whose value or strength call fails for one match:
    a BackendError, or a non-finite strength found after the losses."""

    def __init__(self, config, uid, fault):
        super().__init__(config)
        self.uid, self.fault = f":{uid}:", fault

    def evaluate_state_many(self, states, moves=None):
        if self.fault == "value-error" and any(self.uid in s for s in states):
            raise BackendError("scripted")
        return super().evaluate_state_many(states, moves)

    def score_strength_many(self, states, moves):
        betas = super().score_strength_many(states, moves)
        if self.fault == "non-finite-strength":
            return np.where([self.uid in s for s in states], math.nan, betas)
        return betas


@pytest.mark.parametrize("fault", ["value-error", "non-finite-strength"])
def test_traces_hold_the_kept_points_once_in_input_order(fault):
    cfg = tiny_config()
    dps = [to_datapoint(gen_matches(cfg, i % 3, [f"trace-{i}"], float(i % 3))[0])
           for i in range(2 * EXTRACT_BATCH + 3)]
    backend = _FailOneMatch(cfg, f"trace-{EXTRACT_BATCH + 4}", fault)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", 4),))
    traces = []
    rows, report = extract_many(dps, bank, fconfig, traces)
    kept = dps[:EXTRACT_BATCH + 4] + dps[EXTRACT_BATCH + 5:]
    assert [d["match_id"] for d in report.dropped] == [f"trace-{EXTRACT_BATCH + 4}"]
    assert len(rows) == len(kept)
    # two whole batches, and the failed batch's 15 kept points retried one at a time
    assert len(traces) == 2 + EXTRACT_BATCH - 1
    plies = np.concatenate([p for p, _ in traces])
    assert plies.tolist() == [ply for dp in kept for ply in dp.plies]
    losses = np.concatenate([losses for _, losses in traces])
    alone = np.concatenate([move_losses(dp.states, dp.moves, SyntheticBackend(cfg))[0]
                            for dp in kept])
    assert losses.tobytes() == alone.tobytes()


def test_traces_stay_empty_without_losses():
    cfg = tiny_config()
    dps = [to_datapoint(gen_matches(cfg, 0, [f"noloss-{i}"], 0.0)[0]) for i in range(3)]
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            include_loss=False)
    traces = []
    rows, _ = extract_many(dps, bank, fconfig, traces)
    assert len(rows) == 3 and traces == []


def _engine_bank(cmd, mode):
    backend = SubprocessBackend(BackendDescriptor(kind="policy", game="synthetic",
                                                  launch=cmd(mode), levels=("lv1", "lv2")),
                                timeout=10)
    return BackendBank(strength=backend, policy=backend, value=backend)


def test_backend_error_drops_exactly_the_failing_point_of_a_batch(mock_backend_cmd):
    cfg = tiny_config()
    uids = [f"mid-{i}" for i in range(EXTRACT_BATCH)]
    uids[7] = "mid-BAD-7"
    dps = [to_datapoint(gen_matches(cfg, 0, [uid], 0.0)[0]) for uid in uids]
    fconfig = FeatureConfig(game="synthetic", policy_levels=("lv1", "lv2"),
                            loss_selected=(LossSpec("mean", None),))
    failing = _engine_bank(mock_backend_cmd, "error")
    clean = _engine_bank(mock_backend_cmd, "inorder")
    try:
        rows, report = extract_many(dps, failing, fconfig)
        expected, _ = extract_many(dps[:7] + dps[8:], clean, fconfig)
    finally:
        failing.close()
        clean.close()
    assert rows == expected
    assert [(d["match_id"], d["side"]) for d in report.dropped] == [("mid-BAD-7", "black")]
    assert report.dropped[0]["reason"].startswith("backend_error:scripted failure")


def test_synthetic_backend_parses_a_clean_batch_at_most_once(monkeypatch):
    calls = []
    parse = synthlab.parse_state_id
    monkeypatch.setattr(synthlab, "parse_state_id", lambda s: calls.append("state") or parse(s))
    parse_moves = synthetic.parse_moves
    monkeypatch.setattr(synthetic, "parse_moves",
                        lambda moves, width: calls.append("moves") or parse_moves(moves, width))
    cfg = tiny_config()
    dps = [to_datapoint(gen_matches(cfg, i % 3, [f"parse-{i}"], float(i % 3))[0])
           for i in range(2 * EXTRACT_BATCH + 3)]
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", None),))
    rows, _ = extract_many(dps, bank, fconfig)
    assert len(rows) == len(dps)
    batches = math.ceil(len(dps) / EXTRACT_BATCH)
    assert calls.count("state") <= batches
    assert calls.count("moves") <= batches


_MALFORMED_IDS = {
    "bad-prefix": ("xyz:{uid}:{ply}", "not a synthetic state id: {state!r}"),
    "empty-uid": ("syn::{ply}", "not a synthetic state id: {state!r}"),
    "empty-ply": ("syn:{uid}:", "not a synthetic state id: {state!r}"),
    "non-decimal-ply": ("syn:{uid}:{ply}a", "not a synthetic state id: {state!r}"),
    "ply-0": ("syn:{uid}:0", "state {state!r} is outside plies 1-10 of a match"),
    "ply-past-match": ("syn:{uid}:11", "state {state!r} is outside plies 1-10 of a match"),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", sorted(_MALFORMED_IDS))
def test_malformed_state_id_in_a_run_raises_its_data_error(kind, where):
    cfg = tiny_config()
    assert cfg.plies_per_match == 10
    dps = [to_datapoint(gen_matches(cfg, 1, [f"bad-{i}"], 1.0)[0]) for i in range(3)]
    at = {"first": 0, "middle": 4, "last": 9}[where]
    template, message = _MALFORMED_IDS[kind]
    state = template.format(uid="bad-1", ply=dps[1].plies[at])
    states = dps[1].states[:at] + (state,) + dps[1].states[at + 1:]
    dps[1] = replace(dps[1], states=states)
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", None),))
    with pytest.raises(DataError) as raised:
        extract_many(dps, bank, fconfig)
    assert str(raised.value) == message.format(state=state)


def test_synthetic_state_that_is_not_a_str_reads_as_its_str():
    class _Id:
        def __init__(self, text):
            self.text = text

        def __str__(self):
            return self.text

    cfg = tiny_config()
    dp = to_datapoint(gen_matches(cfg, 1, ["obj"], 1.0)[0])
    states, moves = dp.states, dp.moves
    backend = SyntheticBackend(cfg)
    expected = backend.policy_prior_many(states, moves, "lo")
    assert np.array_equal(SyntheticBackend(cfg).policy_prior_many(
        [_Id(s) for s in states], moves, "lo"), expected)
    with pytest.raises(DataError, match="not a synthetic state id: 7$"):
        SyntheticBackend(cfg).evaluate_state_many([states[0], 7])


_BLOCKS = st.integers(1, 8).flatmap(lambda points: st.integers(1, 40).flatmap(
    lambda k: st.tuples(
        hnp.arrays(np.float64, (points, k), elements=st.floats(1e-10, 1e6)),
        hnp.arrays(np.bool_, k))))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_BLOCKS, st.sampled_from(["mean", "median", "std", "strength", "prior"]))
def test_row_reductions_equal_one_row_at_a_time_bit_for_bit(block_and_keep, stat):
    # _extract_batch reduces the data points of one ply run as a matrix, and
    # a point alone as its 1-D slice; both must give the same bits
    block, keep = block_and_keep
    reduce = {"strength": mean_strength, "prior": prior_geomean}.get(stat) or LOSS_STATS[stat]
    cuts = [block]
    if keep.any():
        cuts.append(np.ascontiguousarray(block[:, keep]))
    for rows in cuts:
        matrix = reduce(rows, axis=-1)
        for row, value in zip(rows, matrix):
            assert np.float64(value).tobytes() == np.float64(reduce(row, axis=-1)).tobytes()


def test_same_ply_runs_of_a_batch_equal_one_point_extraction():
    # desk-sized matches: a cut keeps enough moves per point that a
    # reduction over a strided column selection would add in another order
    cfg = desk_config()
    dps = []
    for i in range(EXTRACT_BATCH + 4):
        dp = to_datapoint(gen_matches(cfg, i % cfg.groups, [f"run-{i}"], float(i % cfg.groups))[0])
        if 5 <= i < 9:  # a run that starts at ply 3
            dp = _from_move(dp, 2)
        elif 9 <= i < 11:  # a run of ply 31 on, whose cut-30 loss is empty
            dp = _from_move(dp, 30)
        dps.append(dp)
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", 30), LossSpec("mean", 50),
                                           LossSpec("median", 60), LossSpec("std", 50),
                                           LossSpec("std", None)))
    rows, report = extract_many(dps, bank, fconfig)
    alone = [extract_many([dp], bank, fconfig) for dp in dps]
    assert rows == sorted((row for one, _ in alone for row in one),
                          key=lambda r: (r.match_id, r.side))
    assert report.flagged == [flag for _, one in alone for flag in one.flagged]
    assert len(report.flagged) == 2


def test_synthetic_backend_derives_each_block_once_per_match_per_batch(monkeypatch):
    cfg = desk_config()
    assert cfg.strength_noise_sd > 0
    pool = pool_to_datapoints(gen_group_pool(cfg, "blocks", 3 * EXTRACT_BATCH // cfg.groups))
    dps = [dp for g in sorted(pool) for dp in pool[g]]
    assert len(dps) == 3 * EXTRACT_BATCH
    # the keys of every bulk seeding pass, per stream
    passes = {("qualities",): [], ("strength-noise",): []}
    original = synthlab.substreams
    monkeypatch.setattr(synthlab, "substreams", lambda seed, prefix, keys, draw:
                        passes[prefix].append(list(keys)) or original(seed, prefix, keys, draw))
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("mean", None),))
    rows, _ = extract_many(dps, bank, fconfig)
    assert len(rows) == len(dps)
    for keys in passes.values():
        assert keys == [[dp.match_id for dp in dps[start:start + EXTRACT_BATCH]]
                        for start in range(0, len(dps), EXTRACT_BATCH)]


def test_feature_store_round_trip(tmp_path):
    cfg = tiny_config()
    dps = [to_datapoint(gen_matches(cfg, g, [f"st-{g}-{i}"], float(g))[0])
           for g in range(2) for i in range(2)]
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            loss_selected=(LossSpec("median", 4),))
    rows, _ = extract_many(dps, bank, fconfig)
    path = tmp_path / "store.jsonl"
    write_feature_store(path, rows, fconfig)
    config2, rows2 = read_feature_store(path)
    assert config2.schema_id() == fconfig.schema_id()
    assert rows2 == rows


def test_feature_store_rejects_foreign_schema(tmp_path):
    path = tmp_path / "store.jsonl"
    fconfig = FeatureConfig(game="synthetic", include_priors=False, include_loss=False)
    write_feature_store(path, [], fconfig)
    text = path.read_text().replace('"schema_id": "', '"schema_id": "zz', 1)
    path.write_text(text)
    with pytest.raises(SchemaMismatchError):
        read_feature_store(path)


@pytest.mark.parametrize("damage, line", [
    (lambda lines: [lines[0][:40]], 1),
    (lambda lines: [lines[0], lines[1].replace('"features"', '"feature"'), lines[2]], 2),
    (lambda lines: [lines[0], lines[1], lines[2][:30]], 3),
], ids=["cut-header", "row-missing-field", "cut-row"])
def test_feature_store_bad_line_is_data_error_with_position(tmp_path, damage, line):
    fconfig = FeatureConfig(game="synthetic", include_priors=False, include_loss=False)
    row = StoredFeature("m", "p", "black", 0, FeatureVector((1.0,), fconfig.schema_id()))
    path = tmp_path / "store.jsonl"
    write_feature_store(path, [row, row], fconfig)
    path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
    with pytest.raises(DataError, match=f"store.jsonl:{line}:"):
        read_feature_store(path)


def test_datapoint_columns_of_unequal_length_are_a_data_error():
    _, dp = _dp()
    with pytest.raises(DataError, match="plies, states and moves must have equal lengths"):
        replace(dp, moves=dp.moves[1:])
