"""The benchmark's workloads, driven through rankforge's public functions.

Each workload is a closed loop with one caller: a pass issues its next call
only after the previous one returned.  The workload seed drives the
generated inputs and the sampling seeds; the desk synthetic configuration
stays the pinned one, so the oracle check holds on every seed.

A workload has ``setup(seed, workdir)``, ``run_pass(state, outdir, probe)``
and ``teardown(state)``.  ``probe`` is a NullProbe in untraced passes and a
Tracer in traced ones; workloads route the backends they build through it.
"""

import importlib.util
import json
import random
import shlex
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from rankforge import cli, config, estimator, evalharness, features, synthlab
from rankforge.backends import (
    BackendBank,
    BackendDescriptor,
    CachedBackend,
    ResponseCache,
    SubprocessBackend,
    SyntheticBackend,
)
from rankforge.gbdt import GbdtParams
from rankforge.records import FilterConfig, filter_match, serialize_pgn, serialize_sgf

ROOT = Path(__file__).resolve().parent.parent
ORACLE_FIXTURE = ROOT / "tests" / "fixtures" / "synthetic_oracle.json"
CORPUS_SCRIPT = ROOT / "scripts" / "make_corpus.py"
ENGINE_STUB = Path(__file__).resolve().parent / "engine_stub.py"

DESK_FEATURES = features.FeatureConfig(
    game="synthetic",
    policy_levels=synthlab.desk_config().level_labels(),
    loss_selected=(features.LossSpec("mean", 50), features.LossSpec("std", None)),
)


# The desk n=20 accuracy must lie this close to the pinned oracle accuracy.
ACCURACY_TOLERANCE = 0.05


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no numbers."""


@dataclass
class PassResult:
    attempted: int  # data points the pass asked the program for
    produced: int  # feature rows it got back
    outputs: list  # files whose SHA-256 must repeat on every pass of a seed
    accuracy: float | None = None
    query_ms: list = field(default_factory=list)
    cache_bytes: int = 0


def _store_rows(path: Path) -> int:
    """Rows in a feature store, not counting its header line."""
    with path.open() as fh:
        return sum(1 for _ in fh) - 1


# ---------------------------------------------------------------------------
# desk-pipeline


@dataclass(frozen=True)
class DeskSizes:
    train_matches: int
    test_matches: int
    train_repetitions: int
    eval_repetitions: int
    num_trees: int


WARMUP_SIZES = DeskSizes(train_matches=20, test_matches=20, train_repetitions=20,
                         eval_repetitions=20, num_trees=5)


def desk_toml(seed: int, sizes: DeskSizes) -> str:
    """The pinned desk synth config (hash f2230700e6e6) as a run config; the
    workload seed is the run seed, which drives sampling only."""
    return f"""seed = {seed}

[synth]
seed = 20240210
groups = 8
moves_per_state = 16
plies_per_match = 80
temperature_base = 2.2
temperature_decay = 0.85
strength_noise_sd = 2.0
levels = [["lv0", 0.5], ["lv1", 2.5], ["lv2", 4.5], ["lv3", 6.5]]
train_matches_per_group = {sizes.train_matches}
test_matches_per_group = {sizes.test_matches}

[features]
game = "synthetic"
policy_levels = ["lv0", "lv1", "lv2", "lv3"]
loss_selected = [["mean", 50], ["std", "all"]]

[training]
ns = [5, 20]
repetitions_per_group = {sizes.train_repetitions}

[gbdt]
num_trees = {sizes.num_trees}

[eval]
repetitions = {sizes.eval_repetitions}
"""


class DeskPipeline:
    """``cli.run_pipeline`` on a TOML config: generate, extract, fit per n,
    evaluate, write artifacts.  The fit-heavy workload."""

    name = "desk-pipeline"

    def __init__(self, sizes: DeskSizes):
        self.sizes = sizes

    def _run_config(self, seed, sizes, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(desk_toml(seed, sizes))
        return config.run_config_from(config.read_config_file(path))

    def setup(self, seed: int, workdir: Path):
        fixture = json.loads(ORACLE_FIXTURE.read_text())
        run = self._run_config(seed, self.sizes, workdir / "desk.toml")
        if run.synth.config_hash() != fixture["config_hash"]:
            raise CheckFailed(f"desk synth config hash {run.synth.config_hash()} "
                              f"!= pinned {fixture['config_hash']}")
        # One small pipeline first, so lazy imports and first-call costs are
        # paid here and not in the first measured pass.
        warm = self._run_config(seed, WARMUP_SIZES, workdir / "warmup.toml")
        cli.run_pipeline(warm, workdir / "warmup")
        return {"run": run, "oracle": fixture["accuracy"], "outputs": []}

    def run_pass(self, state, outdir: Path, probe) -> PassResult:
        run = state["run"]
        manifest = cli.run_pipeline(run, outdir)
        accuracy = manifest["metrics"]["20"]["accuracy"]
        if abs(accuracy - state["oracle"]) > ACCURACY_TOLERANCE:
            raise CheckFailed(f"n=20 accuracy {accuracy:.4f} is not within "
                              f"{ACCURACY_TOLERANCE} of oracle {state['oracle']}")
        stores = sorted(outdir.glob("*_features.jsonl"))
        outputs = [*sorted(outdir.glob("model_n*.json")), *stores,
                   outdir / "metrics.json", *sorted(outdir.glob("eval_n*/metrics.json"))]
        groups = run.synth.groups
        return PassResult(
            attempted=groups * (run.train_matches_per_group + run.test_matches_per_group),
            produced=sum(_store_rows(p) for p in stores),
            outputs=outputs,
            accuracy=accuracy,
        )

    def teardown(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# player-eval


@dataclass(frozen=True)
class PlayerSizes:
    train_matches: int
    train_repetitions: int
    num_trees: int
    players_per_group: int
    matches_per_player: int = 20
    n: int = 15


class PlayerEval:
    """The section-6 experiment: per-player pools with a player skill
    offset, one player query per player, then both evaluation protocols.
    The n=15 model is trained in set-up, so a pass runs no fit."""

    name = "player-eval"

    def __init__(self, sizes: PlayerSizes):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path):
        sizes = self.sizes
        desk = synthlab.desk_config()
        backend = SyntheticBackend(desk)
        bank = BackendBank(strength=backend, policy=backend, value=backend)
        train = synthlab.pool_to_datapoints(
            synthlab.gen_group_pool(desk, f"pe{seed}-train", sizes.train_matches))
        pool = {}
        for g, dps in train.items():
            rows, report = features.extract_many(dps, bank, DESK_FEATURES)
            if report.dropped:
                raise CheckFailed(f"set-up extraction dropped {len(report.dropped)} data points")
            pool[g] = [r.vector for r in rows]
        spec = estimator.TrainingSetSpec(n=sizes.n, repetitions_per_group=sizes.train_repetitions,
                                         seed=seed)
        model = estimator.train_meta_model(pool, spec, GbdtParams(num_trees=sizes.num_trees),
                                           DESK_FEATURES.schema_id(), desk.groups)
        model_path = workdir / f"model_n{sizes.n}.json"
        model.save(model_path)
        return {"seed": seed, "model": model, "config": replace(desk, player_offset_sd=0.6),
                "outputs": [model_path]}

    def run_pass(self, state, outdir: Path, probe) -> PassResult:
        sizes, seed, model, cfg = self.sizes, state["seed"], state["model"], state["config"]
        backend = SyntheticBackend(cfg)
        bank = probe.bank(BackendBank(strength=backend, policy=backend, value=backend),
                          "backends.synthetic")
        players = synthlab.player_pool_to_datapoints(synthlab.gen_player_pool(
            cfg, f"pe{seed}-players", sizes.players_per_group, sizes.matches_per_player))
        by_player, all_rows, predictions, query_ms = {}, [], [], []
        attempted = 0
        for g in sorted(players):
            for player_id in sorted(players[g]):
                dps = players[g][player_id]
                attempted += len(dps)
                start = time.perf_counter()
                rows, _ = features.extract_many(dps, bank, DESK_FEATURES)
                vectors = [r.vector for r in rows]
                if len(vectors) < sizes.n:
                    raise CheckFailed(f"player {player_id} kept {len(vectors)} of {len(dps)} "
                                      "data points")
                prediction = estimator.estimate_rank(model, vectors[:sizes.n])
                query_ms.append(1000.0 * (time.perf_counter() - start))
                by_player.setdefault(g, {})[player_id] = vectors
                all_rows.extend(rows)
                predictions.append([player_id, g, prediction.group_index, prediction.raw])
        flat = evalharness.flatten_player_pool(by_player)
        random_report = evalharness.run_random_sampling(
            flat, model, evalharness.EvalProtocol(
                "random", sizes.n, 5 * sizes.players_per_group, seed=seed))
        player_report = evalharness.run_player_specific(
            by_player, model, evalharness.EvalProtocol("player", sizes.n, 5, seed=seed))
        store = outdir / "players_features.jsonl"
        features.write_feature_store(store, all_rows, DESK_FEATURES)
        evalharness.write_report(random_report, outdir / "eval_random")
        evalharness.write_report(player_report, outdir / "eval_player")
        queries = outdir / "player_queries.json"
        queries.write_text(json.dumps(predictions) + "\n")
        return PassResult(
            attempted=attempted,
            produced=len(all_rows),
            outputs=[store, outdir / "eval_random" / "metrics.json",
                     outdir / "eval_player" / "metrics.json", queries],
            accuracy=player_report.accuracy,
            query_ms=query_ms,
        )

    def teardown(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# records-engine

ENGINE_LEVELS = ("weak", "mid", "strong")
GO_FEATURES = features.go_default_config(ENGINE_LEVELS)
CHESS_FEATURES = features.chess_default_config(ENGINE_LEVELS)


@dataclass(frozen=True)
class RecordsSizes:
    go_games: int
    chess_games: int


def _corpus_module():
    spec = importlib.util.spec_from_file_location("make_corpus", CORPUS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_corpus(directory: Path, seed: int, sizes: RecordsSizes) -> None:
    """Seeded random legal games, every one of which the default filter
    accepts, as one SGF or PGN file each."""
    corpus = _corpus_module()
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(sizes.go_games):
        rng = random.Random(f"go/{seed}/{i}")
        record = corpus.random_go_record(rng, rng.randrange(60, 140),
                                         rng.choice(["B+Resign", "W+Resign", "B+3.5"]))
        (directory / f"go_{i:03d}.sgf").write_text(serialize_sgf(record))
    for i in range(sizes.chess_games):
        rng = random.Random(f"chess/{seed}/{i}")
        while True:
            record, _ = corpus.random_chess_record(rng, rng.randrange(30, 70))
            if filter_match(record).accepted:
                break
        (directory / f"chess_{i:03d}.pgn").write_text(serialize_pgn(record))


class RecordsEngine:
    """Real-record ingest, then extraction through one external engine
    process behind a response cache: a cold pass that misses and writes,
    and a warm pass that reads a fresh cache of the same file."""

    name = "records-engine"

    def __init__(self, sizes: RecordsSizes):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path):
        corpus = workdir / "corpus"
        write_corpus(corpus, seed, self.sizes)
        launch = " ".join(shlex.quote(part) for part in (sys.executable, str(ENGINE_STUB)))
        engine = SubprocessBackend(BackendDescriptor(kind="policy", game="go", launch=launch,
                                                     levels=ENGINE_LEVELS))
        # One request, so the engine is up before the first measured pass.
        try:
            engine.score_strength(".", "pass")
        except BaseException:
            engine.close()
            raise
        return {"corpus": corpus, "engine": engine, "outputs": []}

    def _extract(self, datapoints, engine, cache, probe):
        cached = probe.backend(CachedBackend(probe.backend(engine, "backends.client"), cache),
                               "backends.cache")
        bank = BackendBank(strength=cached, policy=cached, value=cached)
        return [features.extract_many(dps, bank, fconfig)[0]
                for dps, fconfig in zip(datapoints, (GO_FEATURES, CHESS_FEATURES))]

    def run_pass(self, state, outdir: Path, probe) -> PassResult:
        engine = state["engine"]
        datapoints = []
        for game in ("go", "chess"):
            dps, _ = cli.ingest_directory(state["corpus"], game, FilterConfig())
            datapoints.append(dps)
        cache_path = outdir / "engine_cache.jsonl"
        outdir.mkdir(parents=True, exist_ok=True)
        cache = ResponseCache(cache_path)
        try:
            cold = self._extract(datapoints, engine, cache, probe)
        finally:
            cache.close()
        cold_bytes = cache_path.stat().st_size
        cache = ResponseCache(cache_path)
        try:
            warm = self._extract(datapoints, engine, cache, probe)
        finally:
            cache.close()
        if cache_path.stat().st_size != cold_bytes:
            raise CheckFailed("the warm pass wrote to the response cache")
        if warm != cold:
            raise CheckFailed("warm-pass rows differ from cold-pass rows")
        outputs = []
        for rows, fconfig, game in zip(cold, (GO_FEATURES, CHESS_FEATURES), ("go", "chess")):
            path = outdir / f"{game}_features.jsonl"
            features.write_feature_store(path, rows, fconfig)
            outputs.append(path)
        expected = 2 * (self.sizes.go_games + self.sizes.chess_games)
        return PassResult(
            attempted=2 * expected,
            produced=sum(len(rows) for rows in cold + warm),
            outputs=outputs,
            cache_bytes=cold_bytes,
        )

    def teardown(self, state) -> None:
        state["engine"].close()


# Sizes, chosen so a pass takes a few seconds on a 2-core machine and the
# desk n=20 accuracy stays well inside its oracle tolerance on every seed.
WORKLOADS = {
    "desk-pipeline": lambda: DeskPipeline(
        DeskSizes(train_matches=120, test_matches=80, train_repetitions=150,
                  eval_repetitions=200, num_trees=60)),
    "player-eval": lambda: PlayerEval(
        PlayerSizes(train_matches=60, train_repetitions=200, num_trees=60,
                    players_per_group=10)),
    "records-engine": lambda: RecordsEngine(RecordsSizes(go_games=20, chess_games=40)),
}
