"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with `pytest tests/test_acceptance.py -s -v`).

All synthetic experiments run on the pinned desk-scale configuration; the
likelihood-oracle accuracy it is compared against was computed and frozen
in tests/fixtures/synthetic_oracle.json before the pipeline was built.
"""

import json
import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers.oracles import brute_force_first_split, model_json
from rankforge import synthlab
from rankforge.backends import (
    BackendBank,
    BackendDescriptor,
    SubprocessBackend,
    SyntheticBackend,
    logit,
)
from rankforge.errors import BackendTimeoutError
from rankforge.estimator import TrainingSetSpec, train_meta_model
from rankforge.evalharness import (
    AblationContext,
    EvalProtocol,
    family_masks,
    flatten_player_pool,
    run_ablation,
    run_player_specific,
    run_random_sampling,
    single_level_masks,
)
from rankforge.features import (
    LOSS_STATS,
    FeatureConfig,
    LossSpec,
    extract_many,
    prior_geomean,
)
from rankforge.gbdt import GbdtParams, fit

NS = (1, 5, 10, 15, 20)
TRAIN_PER_GROUP = 200
TEST_PER_GROUP = 100
TRAIN_REPETITIONS = 1000
EVAL_REPETITIONS = 500
TRAIN_SEED = 11
EVAL_SEED = 77


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def desk_feature_config(cfg) -> FeatureConfig:
    return FeatureConfig(
        game="synthetic",
        policy_levels=cfg.level_labels(),
        loss_selected=(LossSpec("mean", 50), LossSpec("std", None)),
    )


def _extract_pool(dps_by_group, bank, fconfig):
    pool = {}
    for g, dps in dps_by_group.items():
        rows, report = extract_many(dps, bank, fconfig)
        assert not report.dropped
        pool[g] = [r.vector for r in rows]
    return pool


@pytest.fixture(scope="session")
def desk():
    """The pinned desk-scale run: pools, per-n models, per-n reports."""
    t0 = time.time()
    cfg = synthlab.desk_config()
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = desk_feature_config(cfg)
    train = _extract_pool(
        synthlab.pool_to_datapoints(synthlab.gen_group_pool(cfg, "tr", TRAIN_PER_GROUP)),
        bank, fconfig)
    test = _extract_pool(
        synthlab.pool_to_datapoints(synthlab.gen_group_pool(cfg, "te", TEST_PER_GROUP)),
        bank, fconfig)
    models, reports = {}, {}
    for n in NS:
        spec = TrainingSetSpec(n=n, repetitions_per_group=TRAIN_REPETITIONS,
                               seed=TRAIN_SEED)
        models[n] = train_meta_model(train, spec, GbdtParams(),
                                     fconfig.schema_id(), cfg.groups)
        reports[n] = run_random_sampling(
            test, models[n], EvalProtocol("random", n, EVAL_REPETITIONS, seed=EVAL_SEED))
    elapsed = time.time() - t0
    return SimpleNamespace(cfg=cfg, bank=bank, fconfig=fconfig, train=train,
                           test=test, models=models, reports=reports,
                           elapsed=elapsed)


def test_criterion_paper_scale_reproduction_is_out_of_scope():
    # Table-1 scale numbers need proprietary engines and 55k-104k online
    # matches; this suite is property-based at desk scale.  The full
    # reproduction path stays available: any engine speaking the
    # line-delimited JSON protocol can be plugged in via launch commands.
    descriptor = BackendDescriptor(kind="value", game="go", launch="cat")
    backend = SubprocessBackend(descriptor, timeout=2)
    backend.close()
    _announce(
        "paper-scale-note", True,
        "desk-scale property suite; external engines attach via the wire protocol",
    )


def test_criterion_synthetic_end_to_end_accuracy(desk, fixtures_dir):
    fixture = json.loads((fixtures_dir / "synthetic_oracle.json").read_text())
    assert fixture["config_hash"] == desk.cfg.config_hash(), (
        "desk config drifted from the pinned oracle fixture")
    oracle = fixture["accuracy"]
    accuracy = desk.reports[20].accuracy
    ok = abs(accuracy - oracle) <= 0.05 and desk.elapsed < 300
    _announce(
        "synthetic-end-to-end", ok,
        f"pipeline n=20 accuracy {accuracy:.3f} vs oracle {oracle:.3f} "
        f"(|diff| {abs(accuracy - oracle):.3f} <= 0.05), build+eval {desk.elapsed:.0f}s < 300s",
    )


def test_criterion_monotone_n(desk):
    accs = {n: desk.reports[n].accuracy for n in (1, 5, 10, 20)}
    chain = [(1, 5), (5, 10), (10, 20)]
    ok = all(accs[hi] >= accs[lo] - 0.02 for lo, hi in chain)
    _announce(
        "monotone-n", ok,
        " <= ".join(f"acc({n})={accs[n]:.3f}" for n in (1, 5, 10, 20)) + " (tol 0.02)",
    )


def test_criterion_accuracy_pm1_dominance(desk):
    dominance = all(r.accuracy_pm1 >= r.accuracy for r in desk.reports.values())
    pm1_at_5 = desk.reports[5].accuracy_pm1
    ok = dominance and pm1_at_5 >= 0.95
    _announce(
        "accuracy-pm1-dominance", ok,
        f"accuracy_pm1 >= accuracy in all reports; accuracy_pm1(n=5)={pm1_at_5:.3f} >= 0.95",
    )


@pytest.fixture(scope="session")
def ablation_results(desk):
    ctx = AblationContext(
        full_config=desk.fconfig, train_pool=desk.train, test_pool=desk.test,
        gbdt_params=GbdtParams(), train_repetitions=TRAIN_REPETITIONS,
        train_seed=TRAIN_SEED,
        eval_repetitions=EVAL_REPETITIONS, eval_seed=EVAL_SEED,
        r_groups=desk.cfg.groups,
        # the desk models were fit with these settings, so use_all reuses them
        fitted=desk.models,
    )
    return run_ablation(family_masks(desk.fconfig), (10, 20), ctx)


def test_criterion_ablation_direction(ablation_results):
    acc = {key: report.accuracy for key, report in ablation_results.items()}
    directional = all(
        acc[("use_all", n)] >= acc[(mask, n)] - 0.02
        for n in (10, 20)
        for mask in ("wo_strength", "wo_prior")
    )
    drop = acc[("use_all", 10)] - acc[("wo_prior", 10)]
    ok = directional and drop > 0
    _announce(
        "ablation-direction", ok,
        f"use_all(10)={acc[('use_all', 10)]:.3f} wo_strength(10)={acc[('wo_strength', 10)]:.3f} "
        f"wo_prior(10)={acc[('wo_prior', 10)]:.3f}; wo_prior drop {drop:+.3f} > 0",
    )


def test_criterion_two_plateau_levels(desk):
    cfg = synthlab.two_plateau_config()
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    fconfig = FeatureConfig(game="synthetic", policy_levels=cfg.level_labels(),
                            include_strength=False, include_loss=False,
                            loss_selected=(LossSpec("mean", None),))
    train = _extract_pool(
        synthlab.pool_to_datapoints(synthlab.gen_group_pool(cfg, "tr", TRAIN_PER_GROUP)),
        bank, fconfig)
    test = _extract_pool(
        synthlab.pool_to_datapoints(synthlab.gen_group_pool(cfg, "te", TEST_PER_GROUP)),
        bank, fconfig)
    ctx = AblationContext(
        full_config=fconfig, train_pool=train, test_pool=test,
        gbdt_params=GbdtParams(), train_repetitions=TRAIN_REPETITIONS,
        train_seed=TRAIN_SEED,
        eval_repetitions=EVAL_REPETITIONS, eval_seed=EVAL_SEED,
        r_groups=cfg.groups,
    )
    results = run_ablation(single_level_masks(fconfig), (20,), ctx)
    combined = results[("levels_combined", 20)].accuracy
    singles = {lv: results[(f"level_{lv}_only", 20)].accuracy
               for lv in cfg.level_labels()}
    ok = all(combined >= acc + 0.10 for acc in singles.values())
    _announce(
        "two-plateau-combination", ok,
        f"combined {combined:.3f} vs singles "
        + " ".join(f"{lv}={acc:.3f}" for lv, acc in singles.items())
        + " (gap >= 0.10)",
    )


SEC6_PLAYERS = 60
SEC6_DP_PER_PLAYER = 20
SEC6_N = 15
SEC6_SEEDS = 5


def _sec6_gaps(desk, offset_sd: float):
    cfg = replace(desk.cfg, player_offset_sd=offset_sd)
    backend = SyntheticBackend(cfg)
    bank = BackendBank(strength=backend, policy=backend, value=backend)
    model = desk.models[SEC6_N]
    gaps = []
    for i in range(SEC6_SEEDS):
        pool_dps = synthlab.player_pool_to_datapoints(
            synthlab.gen_player_pool(cfg, f"h{offset_sd:.1f}-{i}", SEC6_PLAYERS,
                                     SEC6_DP_PER_PLAYER))
        feat = {
            g: {
                pid: [r.vector for r in extract_many(dps, bank, desk.fconfig)[0]]
                for pid, dps in players.items()
            }
            for g, players in pool_dps.items()
        }
        flat = flatten_player_pool(feat)
        random_report = run_random_sampling(
            flat, model,
            EvalProtocol("random", SEC6_N, 5 * SEC6_PLAYERS, seed=1000 + i))
        player_report = run_player_specific(
            feat, model, EvalProtocol("player", SEC6_N, 5, seed=2000 + i))
        gaps.append(random_report.accuracy - player_report.accuracy)
    return np.array(gaps)


def test_criterion_player_specific_gap(desk):
    gaps = _sec6_gaps(desk, offset_sd=0.6)
    sem = gaps.std(ddof=1) / math.sqrt(len(gaps))
    with_offset_ok = gaps.mean() > 3 * sem

    null_gaps = _sec6_gaps(desk, offset_sd=0.0)
    null_sem = null_gaps.std(ddof=1) / math.sqrt(len(null_gaps))
    without_offset_ok = abs(null_gaps.mean()) <= 3 * null_sem

    ok = with_offset_ok and without_offset_ok
    _announce(
        "player-specific-gap", ok,
        f"offset_sd=0.6: mean gap {gaps.mean():+.3f} > 3*sem ({3 * sem:.3f}); "
        f"offset_sd=0: |mean gap| {abs(null_gaps.mean()):.3f} <= 3*sem ({3 * null_sem:.3f})",
    )


def test_criterion_formula_unit_suite():
    t0 = time.time()
    assert logit(0.5) == 0.0
    rng = np.random.default_rng(101)
    for wr in rng.uniform(1e-3, 1 - 1e-3, size=500):
        assert abs(logit(wr) + logit(1 - wr)) < 1e-12
    for _ in range(200):
        k = int(rng.integers(1, 21))
        priors = rng.uniform(1e-6, 1.0, size=k)
        direct = float(np.prod([float(p) for p in priors])) ** (1.0 / k)
        assert math.isclose(prior_geomean(priors), direct, rel_tol=1e-10)
    losses = np.array([1.0, 2.0, 3.0])
    assert LOSS_STATS["mean"](losses) == 2.0
    assert LOSS_STATS["median"](losses) == 2.0
    assert abs(LOSS_STATS["std"](losses) - math.sqrt(2.0 / 3.0)) < 1e-12
    elapsed = time.time() - t0
    _announce("formula-unit-suite", elapsed < 1.0,
              f"logit, geometric mean, loss statistics exact; {elapsed:.2f}s < 1s")


def test_criterion_gbdt_oracle_suite():
    rng = np.random.default_rng(202)
    # exhaustive split agreement on small fixtures
    checked = 0
    for case in range(10):
        n = int(rng.integers(6, 101))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 3)
        y = rng.normal(size=n)
        params = GbdtParams(num_trees=1, learning_rate=1.0, max_leaves=2,
                            min_samples_leaf=int(rng.integers(1, 4)), seed=0)
        model = fit(X, y, params)
        expected = brute_force_first_split(X, y, params.min_samples_leaf)
        if expected is None:
            assert len(model.trees) == 0
            continue
        tree = model.trees[0]
        assert (int(tree.feature[0]), float(tree.threshold[0])) == (
            expected[0], pytest.approx(expected[1], abs=1e-12))
        checked += 1
    assert checked >= 8
    # training MSE monotone over 100 trees on 3 fixtures
    for case in range(3):
        X = rng.normal(size=(150, 4))
        y = 1.5 * X[:, 0] - X[:, 2] ** 2 + rng.normal(scale=0.2, size=150)
        model = fit(X, y, GbdtParams(num_trees=100, min_samples_leaf=5, seed=case))
        mses = [float(np.mean((y - model.predict_many(X, num_trees=t)) ** 2))
                for t in range(len(model.trees) + 1)]
        assert all(b <= a + 1e-9 for a, b in zip(mses, mses[1:]))
    # serialize/deserialize prediction equality on 1,000 rows
    model = fit(rng.normal(size=(200, 3)), rng.normal(size=200),
                GbdtParams(num_trees=40, min_samples_leaf=4, seed=7))
    from rankforge.gbdt import TreeEnsemble
    restored = TreeEnsemble.from_dict(json.loads(model_json(model)))
    probe = rng.normal(size=(1000, 3))
    assert np.array_equal(model.predict_many(probe), restored.predict_many(probe))
    _announce("gbdt-oracle-suite", True,
              f"{checked} exhaustive split agreements; monotone MSE x3; "
              "bit-equal predictions after round-trip")


def test_criterion_parser_suite(corpus_dir):
    from test_records_filter import CRITERIA, FILTER_TABLE
    from rankforge.records import (
        filter_match, parse_pgn, parse_sgf, serialize_pgn, serialize_sgf)

    sgf_files = sorted(corpus_dir.glob("*.sgf"))
    pgn_files = sorted(corpus_dir.glob("*.pgn"))
    assert len(sgf_files) + len(pgn_files) >= 50
    for path in sgf_files:
        record = parse_sgf(path.read_text())
        assert parse_sgf(serialize_sgf(record)) == record, path.name
    for path in pgn_files:
        record = parse_pgn(path.read_text())
        assert parse_pgn(serialize_pgn(record)) == record, path.name
    exercised = set()
    for criterion, record, config, accept, reason in FILTER_TABLE:
        decision = filter_match(record, config)
        assert decision.accepted == accept
        if not accept:
            assert decision.reason == reason
        exercised.add(criterion)
    assert exercised == CRITERIA
    _announce("parser-suite", True,
              f"{len(sgf_files) + len(pgn_files)} games round-trip; "
              f"{len(FILTER_TABLE)} filter rows covering {len(CRITERIA)} criteria")


def _mock_bank(cmd, mode: str, levels, timeout=10.0) -> BackendBank:
    def backend(kind):
        descriptor = BackendDescriptor(
            kind=kind, game="synthetic", launch=cmd(mode),
            levels=levels if kind == "policy" else ())
        return SubprocessBackend(descriptor, timeout=timeout)

    return BackendBank(strength=backend("strength"), policy=backend("policy"),
                       value=backend("value"))


def test_criterion_protocol_conformance(mock_backend_cmd):
    cfg = replace(synthlab.desk_config(), plies_per_match=12)
    dps = [synthlab.to_datapoint(synthlab.gen_matches(cfg, g, [f"proto-{g}-{i}"], float(g))[0])
           for g in range(2) for i in range(3)]
    fconfig = FeatureConfig(game="synthetic", policy_levels=("lv1", "lv2"),
                            loss_selected=(LossSpec("mean", None),))
    bank_a = _mock_bank(mock_backend_cmd, "inorder", fconfig.policy_levels)
    bank_b = _mock_bank(mock_backend_cmd, "outoforder", fconfig.policy_levels)
    try:
        rows_a, report_a = extract_many(dps, bank_a, fconfig)
        rows_b, report_b = extract_many(dps, bank_b, fconfig)
    finally:
        bank_a.close()
        bank_b.close()
    assert not report_a.dropped and not report_b.dropped
    identical = rows_a == rows_b

    # a hanging value backend drops exactly the affected match, by name
    poisoned = synthlab.to_datapoint(
        synthlab.gen_matches(cfg, 0, ["proto-HANG-affected"], 0.0)[0])
    bank_c = _mock_bank(mock_backend_cmd, "hang", fconfig.policy_levels, timeout=1.5)
    try:
        rows_c, report_c = extract_many([*dps, poisoned], bank_c, fconfig)
    finally:
        bank_c.close()
    dropped_ids = [d["match_id"] for d in report_c.dropped]
    drop_ok = (len(rows_c) == len(dps)
               and dropped_ids == ["proto-HANG-affected"]
               and report_c.dropped[0]["reason"] == "backend_timeout")
    ok = identical and drop_ok
    _announce("protocol-conformance", ok,
              f"out-of-order store identical to in-order ({len(rows_a)} rows); "
              f"timeout dropped exactly {dropped_ids}")
