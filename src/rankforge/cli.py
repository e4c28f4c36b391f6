"""Command-line entry point: ingest, extract, train, eval, ablate, synth,
report, and the full pipeline.

Exit codes: 0 success, 1 configuration error, 2 data or backend error;
``extract`` and ``report --dataset`` also exit 2 when they drop every data
point they were given, and ``eval`` when ``--n`` is not the n its model was
trained for.  loss_by_ply.csv holds the losses that extraction computed:
``pipeline`` writes it from its test extraction only when its features
include losses, and ``report --dataset`` extracts losses alone, exiting 1
when its config selects no loss statistic.  ``pipeline`` writes a manifest
with the config hash and seeds so its runs can be reproduced exactly; the
other commands write none.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, synthlab
from .artifacts import write_json
from .backends import (
    BackendBank,
    BackendDescriptor,
    CachedBackend,
    ResponseCache,
    SubprocessBackend,
    SyntheticBackend,
    default_cache_path,
)
from .backends.base import BUILTIN_SYNTHETIC
from .config import (
    RunConfig,
    date_window_from,
    read_config_file,
    run_config_from,
)
from .errors import BackendError, ConfigError, DataError, RankforgeError
from .estimator import TrainingSetSpec, group_count, train_meta_model
from .evalharness import (
    AblationContext,
    EvalProtocol,
    boxplot_rows,
    family_masks,
    loss_by_ply_rows,
    player_pool_from_store,
    pool_from_store,
    prior_curve_rows,
    run_ablation,
    run_player_specific,
    run_random_sampling,
    single_level_masks,
    write_ablation_csv,
    write_csv,
    write_per_group_csv,
    write_report,
)
# move_losses is unused here; perfbench's tracer patches rankforge.cli.move_losses
from .features import extract_many, move_losses, read_feature_store, write_feature_store
from .gbdt import GbdtParams, TreeEnsemble
from .records import (
    GROUP_COUNTS,
    MAX_GROUPS,
    FilterConfig,
    filter_match,
    parse_sgf,
    read_datapoints,
    split_sides,
    write_datapoints,
)
from .records.pgn import parse_pgn_collection


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# ingest


def ingest_directory(records_dir, game: str, filter_config: FilterConfig):
    """Parse and filter every record file under a directory.

    Returns (datapoints, drop_rows).  Files are visited in sorted order so
    output never depends on directory listing order.
    """
    records_dir = Path(records_dir)
    if not records_dir.is_dir():
        raise ConfigError(f"records directory {records_dir} does not exist")
    suffix = ".sgf" if game == "go" else ".pgn"
    files = sorted(records_dir.rglob(f"*{suffix}"))
    datapoints, drops = [], []
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        try:
            if game == "go":
                records = [parse_sgf(text)]
            else:
                records = parse_pgn_collection(text)
        except DataError as exc:
            drops.append({"file": path.name, "reason": f"parse_error:{exc}"})
            continue
        for i, record in enumerate(records):
            match_id = path.stem if len(records) == 1 else f"{path.stem}#{i}"
            decision = filter_match(record, filter_config)
            if not decision.accepted:
                drops.append({"file": path.name, "match_id": match_id,
                              "reason": decision.reason})
                continue
            datapoints.extend(split_sides(record, match_id, decision.group))
    return datapoints, drops


def cmd_ingest(args) -> int:
    window = None
    if args.date_window:
        window = date_window_from(list(args.date_window))
    filter_config = FilterConfig(date_window=window)
    datapoints, drops = ingest_directory(args.records_dir, args.game, filter_config)
    if not datapoints:
        _log(f"warning: no accepted matches under {args.records_dir}")
    write_datapoints(args.out, datapoints)
    if args.drops:
        write_json(args.drops, drops)
    _log(f"ingest: {len(datapoints)} data points, {len(drops)} drops -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# backends wiring


def _build_bank(run: RunConfig, features) -> BackendBank:
    """The backends of ``run`` that the feature config ``features`` needs."""
    synthetic = SyntheticBackend(run.synth) if run.synth is not None else None
    if run.backends is None and synthetic is not None:
        return BackendBank(strength=synthetic, policy=synthetic, value=synthetic)
    cache_path = default_cache_path()
    cache = ResponseCache(cache_path) if cache_path else None

    def external(kind: str):
        launch = getattr(run.backends, kind, None)
        if launch is None:
            raise ConfigError(f"[backends] names no {kind} engine")
        descriptor = BackendDescriptor(
            kind=kind,
            game=features.game,
            launch=launch,
            levels=features.policy_levels if kind == "policy" else (),
        )
        if launch == BUILTIN_SYNTHETIC:  # one backend serves every such role
            if synthetic is None:
                raise ConfigError("builtin:synthetic backend needs a synthetic config")
            return synthetic
        backend = SubprocessBackend(descriptor, timeout=run.backends.timeout)
        if cache is None:
            return backend
        return CachedBackend(backend, cache)

    return BackendBank(
        strength=external("strength") if features.include_strength else None,
        policy=external("policy") if features.include_priors else None,
        value=external("value") if features.include_loss else None,
    )


def _extract(datapoints, bank: BackendBank, features, out, drops=None, traces=None):
    """Extract through ``extract_many``, write the feature store to ``out``
    and, when ``drops`` is a path, the drop report there.  Returns (rows, report)."""
    rows, report = extract_many(datapoints, bank, features, traces)
    write_feature_store(out, rows, features)
    if drops:
        write_json(drops, report.to_dict())
    return rows, report


def _require_rows(datapoints, rows, report) -> None:
    """A DataError naming the first reason when every data point was dropped."""
    if datapoints and not rows:
        raise DataError(f"every data point was dropped, the first for "
                        f"{report.dropped[0]['reason']}")


def cmd_extract(args) -> int:
    run = run_config_from(read_config_file(args.config))
    datapoints = read_datapoints(args.dataset)
    bank = _build_bank(run, run.features)
    try:
        rows, report = _extract(datapoints, bank, run.features, args.out, args.drops)
    finally:
        bank.close()
    _log(f"extract: {len(rows)} rows -> {args.out} "
         f"({len(report.dropped)} dropped)")
    _require_rows(datapoints, rows, report)
    return 0


# ---------------------------------------------------------------------------
# train / eval


def _group_count(game: str, pool: dict, run: RunConfig | None) -> int:
    """The game's group count, else ``[synth] groups``, else (no config) one
    more than the pool's top group, at most ``MAX_GROUPS``; a pool
    group beyond it is a DataError."""
    top = max(pool, default=-1)
    count = GROUP_COUNTS.get(game) or (run.synth.groups if run and run.synth
                                       else min(top + 1, MAX_GROUPS))
    if top >= count:
        raise DataError(f"feature store holds group {top}, but {game} has {count} groups")
    return count


def cmd_train(args) -> int:
    run = run_config_from(read_config_file(args.config)) if args.config else None
    config, rows = read_feature_store(args.features)
    pool = pool_from_store(rows)
    params = run.gbdt if run else GbdtParams()
    spec = TrainingSetSpec(n=args.n, repetitions_per_group=args.repetitions, seed=args.seed)
    model = train_meta_model(pool, spec, params, config.schema_id(),
                             _group_count(config.game, pool, run))
    model.save(args.out)
    _log(f"train: n={args.n} trees={len(model.trees)} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = TreeEnsemble.load(args.model)
    config, rows = read_feature_store(args.features)
    if model.schema_id and model.schema_id != config.schema_id():
        raise DataError("model and feature store schemas differ")
    count, expected = group_count(model), GROUP_COUNTS.get(config.game)
    if count != expected if expected else count > MAX_GROUPS:
        limit = expected or f"at most {MAX_GROUPS}"
        raise DataError(f"model predicts into {count} rank groups, but {config.game} has {limit}")
    protocol = EvalProtocol(mode=args.mode, n=args.n,
                            repetitions=args.repetitions, seed=args.seed)
    if args.mode == "random":
        report = run_random_sampling(pool_from_store(rows), model, protocol)
    else:
        report = run_player_specific(player_pool_from_store(rows), model, protocol)
    write_report(report, args.out)
    _log(f"eval: mode={args.mode} n={args.n} accuracy={report.accuracy:.4f} "
         f"accuracy_pm1={report.accuracy_pm1:.4f} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# synth


def _synth_datapoints(synth, tag: str, matches: int) -> list:
    """The data points of ``matches`` synthetic matches per group, in group order."""
    pool = synthlab.pool_to_datapoints(synthlab.gen_group_pool(synth, tag, matches))
    return [dp for g in sorted(pool) for dp in pool[g]]


def cmd_synth(args) -> int:
    run = run_config_from(read_config_file(args.config))
    if run.synth is None:
        raise ConfigError("config has no [synth] section")
    datapoints = _synth_datapoints(run.synth, args.tag, args.matches)
    write_datapoints(args.out, datapoints)
    _log(f"synth: {len(datapoints)} data points -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# ablate


def _ablate(run: RunConfig, full_config, train_pool, test_pool, ns, outdir, fitted):
    """Retrain and re-evaluate per ablation mask and n; writes the summary
    and per-group tables into ``outdir`` and returns the reports.  ``fitted``
    holds the models ``run`` already trained on ``train_pool``, keyed by n."""
    ctx = AblationContext(
        full_config=full_config,
        train_pool=train_pool,
        test_pool=test_pool,
        gbdt_params=run.gbdt,
        train_repetitions=run.training.repetitions_per_group,
        train_seed=run.seed,
        eval_repetitions=run.eval.repetitions,
        eval_seed=run.seed,
        r_groups=_group_count(full_config.game, {**test_pool, **train_pool}, run),
        fitted=fitted,
    )
    masks = single_level_masks(full_config) if run.ablation.levels else family_masks(full_config)
    results = run_ablation(masks, ns, ctx)
    write_ablation_csv(results, outdir / "ablation_summary.csv")
    write_per_group_csv(results, max(ns), outdir / "ablation_per_group.csv")
    return results


def cmd_ablate(args) -> int:
    run = run_config_from(read_config_file(args.config))
    train_config, train_rows = read_feature_store(args.train_features)
    test_config, test_rows = read_feature_store(args.test_features)
    if train_config.schema_id() != test_config.schema_id():
        raise DataError("train and test stores have different schemas")
    outdir = Path(args.out)
    results = _ablate(run, train_config, pool_from_store(train_rows),
                      pool_from_store(test_rows), run.ablation.ns or [10], outdir, {})
    for (name, n), report in results.items():
        write_report(report, outdir / f"{name}_n{n}")
    _log(f"ablate: {len(results)} runs -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# report (plot data)


def _write_plot_tables(outdir, rows, config, traces) -> None:
    """prior_curves.csv from feature store rows, when ``config`` has priors,
    and loss_by_ply.csv from loss traces, unless ``traces`` is None."""
    if config.include_priors:
        write_csv(outdir / "prior_curves.csv", prior_curve_rows(rows, config),
                  ["group", "level", "gm_mean", "ci_low", "ci_high", "count"])
    if traces is not None:
        write_csv(outdir / "loss_by_ply.csv", loss_by_ply_rows(traces),
                  ["ply", "mean_loss", "std_loss", "count"])


def cmd_report(args) -> int:
    config, rows = read_feature_store(args.features)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    traces = None
    if args.dataset and args.config:
        run = run_config_from(read_config_file(args.config))
        if not run.features.include_loss:
            raise ConfigError("the report's loss table needs loss statistics in [features]")
        losses_only = replace(run.features, include_strength=False, include_priors=False)
        datapoints = read_datapoints(args.dataset)
        bank = _build_bank(run, losses_only)
        traces = []
        try:
            kept, report = extract_many(datapoints, bank, losses_only, traces)
        finally:
            bank.close()
        _require_rows(datapoints, kept, report)
    _write_plot_tables(outdir, rows, config, traces)
    first = config.feature_names()[0]
    write_csv(outdir / "boxplot_player.csv",
              boxplot_rows(rows, config, first, mode="player"),
              ["group", "subject", "statistic", "value"])
    write_csv(outdir / "boxplot_random.csv",
              boxplot_rows(rows, config, first, mode="random", seed=args.seed),
              ["group", "subject", "statistic", "value"])
    _log(f"report: -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# pipeline


def _synth_store(run: RunConfig, bank: BackendBank, name: str, matches: int, outdir, traces):
    """Generate, write and extract one synthetic dataset into ``outdir``,
    passing ``traces`` to ``extract_many``; returns the feature store rows."""
    datapoints = _synth_datapoints(run.synth, name, matches)
    write_datapoints(outdir / f"{name}_dataset.jsonl", datapoints)
    rows, _ = _extract(datapoints, bank, run.features, outdir / f"{name}_features.jsonl",
                       outdir / f"{name}_drops.json", traces)
    return rows


def run_pipeline(run: RunConfig, outdir) -> dict:
    """Synthetic end-to-end run: generate, extract, train per n, evaluate,
    optional ablation, plot data, manifest.  Returns the manifest.

    The datasets are made one at a time, and only the train set's pool
    outlives its extraction."""
    if run.synth is None:
        raise ConfigError("pipeline currently needs a [synth] section")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    bank = _build_bank(run, run.features)
    stage = "extract"
    try:
        train_pool = pool_from_store(
            _synth_store(run, bank, "train", run.train_matches_per_group, outdir, None))
        traces = [] if run.features.include_loss else None
        test_rows = _synth_store(run, bank, "test", run.test_matches_per_group, outdir, traces)
        test_pool = pool_from_store(test_rows)

        stage = "train"
        metrics = {}
        models = {}
        r_groups = _group_count(run.features.game, train_pool, run)
        for n in run.training.ns:
            spec = TrainingSetSpec(n=n, repetitions_per_group=run.training.repetitions_per_group,
                                   seed=run.seed)
            model = train_meta_model(train_pool, spec, run.gbdt,
                                     run.features.schema_id(), r_groups)
            model.save(outdir / f"model_n{n}.json")
            models[n] = model

        stage = "eval"
        for n in run.training.ns:
            protocol = EvalProtocol(mode="random", n=n,
                                    repetitions=run.eval.repetitions, seed=run.seed + n)
            report = run_random_sampling(test_pool, models[n], protocol)
            write_report(report, outdir / f"eval_n{n}")
            metrics[str(n)] = {"accuracy": report.accuracy,
                               "accuracy_pm1": report.accuracy_pm1}

        stage = "ablate"
        if run.ablation.ns:
            results = _ablate(run, run.features, train_pool, test_pool,
                              run.ablation.ns, outdir / "ablation", models)
            metrics["ablation"] = {
                f"{name}_n{n}": report.accuracy for (name, n), report in results.items()
            }

        stage = "report"
        _write_plot_tables(outdir / "plotdata", test_rows, run.features, traces)
    except RankforgeError as exc:
        raise type(exc)(f"pipeline stage {stage!r} failed: {exc}") from exc
    finally:
        bank.close()

    manifest = {
        "version": __version__,
        "config_hash": run.hash(),
        "seed": run.seed,
        "synth_config_hash": run.synth.config_hash(),
        "feature_schema_id": run.features.schema_id(),
        "train_ns": list(run.training.ns),
        "metrics": metrics,
    }
    write_json(outdir / "metrics.json", metrics)
    write_json(outdir / "manifest.json", manifest)
    return manifest


def cmd_pipeline(args) -> int:
    run = run_config_from(read_config_file(args.config))
    manifest = run_pipeline(run, args.out)
    _log(f"pipeline: done, config {manifest['config_hash']} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankforge",
        description="Estimate game-player skill ranks from match records.",
    )
    parser.add_argument("--version", action="version", version=f"rankforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and filter a directory of game records")
    p.add_argument("--game", choices=("go", "chess"), required=True)
    p.add_argument("--records-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--drops")
    p.add_argument("--date-window", nargs=2, metavar=("START", "END"))
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("extract", help="compute feature vectors for a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--drops")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one meta-model for one n")
    p.add_argument("--config")
    p.add_argument("--features", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--repetitions", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a feature store")
    p.add_argument("--mode", choices=("random", "player"), default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--repetitions", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic data points")
    p.add_argument("--config", required=True)
    p.add_argument("--matches", type=int, required=True, help="matches per group")
    p.add_argument("--tag", default="synth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ablate", help="feature-family or policy-level ablations")
    p.add_argument("--config", required=True)
    p.add_argument("--train-features", required=True)
    p.add_argument("--test-features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="emit plot-data CSV tables")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="full run from one config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 1
    except (DataError, BackendError) as exc:
        _log(f"data error: {exc}")
        return 2
    except OSError as exc:
        _log(f"data error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
