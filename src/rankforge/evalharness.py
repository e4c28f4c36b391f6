"""Evaluation protocols, metrics, ablations, and plot-data tables.

Random-sampling mode draws n data points from a whole rank group per
repetition, on the substream paths ``("eval-random", g)``; player-specific
mode draws n from one player's own pool, on ``("eval-player", g, player)``,
and leaves out players with fewer than n.  Both draw with
``estimator.draw_group_means`` and predict every draw in one
``estimator.predict_groups`` call, so a model trained for another n than
the protocol's is refused.  Both tally exact-group accuracy, within-one-group
accuracy, and a confusion matrix with rows = actual group, columns =
predicted group.
"""

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .artifacts import write_json, write_table
from .errors import ConfigError, DataError
from .estimator import (TrainingSetSpec, draw_group_means, group_count, predict_groups,
                        train_meta_model)
from .features import FeatureConfig, FeatureVector, stack_vectors
from .rng import draw_means

RANDOM_MODE = "random"
PLAYER_MODE = "player"


@dataclass(frozen=True)
class EvalProtocol:
    mode: str
    n: int
    repetitions: int  # random: per group; player-specific: per player
    seed: int

    def __post_init__(self):
        if self.mode not in (RANDOM_MODE, PLAYER_MODE):
            raise ConfigError(f"unknown evaluation mode {self.mode!r}")
        if self.n < 1 or self.repetitions < 1:
            raise ConfigError("n and repetitions must be >= 1")


@dataclass
class EvaluationReport:
    accuracy: float
    accuracy_pm1: float
    confusion: np.ndarray
    drops: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def total_predictions(self) -> int:
        return int(self.confusion.sum())

    @property
    def per_group_accuracy(self) -> list:
        row_totals = self.confusion.sum(axis=1)
        return [
            float(self.confusion[j, j] / row_totals[j]) if row_totals[j] else 0.0
            for j in range(self.confusion.shape[0])
        ]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "accuracy_pm1": self.accuracy_pm1,
            "per_group_accuracy": self.per_group_accuracy,
            "total_predictions": self.total_predictions,
            "confusion": self.confusion.tolist(),
            "drops": self.drops,
            "config": self.config,
        }


def accuracy_metrics(pairs, r_groups: int):
    """(accuracy, accuracy within one group, confusion matrix) from
    (actual, predicted) index pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if ((pairs < 0) | (pairs >= r_groups)).any():
        raise DataError(f"group index outside [0, {r_groups})")
    confusion = np.zeros((r_groups, r_groups), dtype=np.int64)
    np.add.at(confusion, (pairs[:, 0], pairs[:, 1]), 1)
    total = int(confusion.sum())
    if total == 0:
        raise DataError("no predictions to score")
    hits = int(np.trace(confusion))
    near = hits + int(np.trace(confusion, offset=1)) + int(np.trace(confusion, offset=-1))
    return hits / total, near / total, confusion


def _evaluate(subjects, model, protocol: EvalProtocol) -> EvaluationReport:
    """Score `repetitions` draws of n vectors per (actual group, substream
    path, vectors) subject, all predicted in one call."""
    X, actual = draw_group_means(subjects, protocol.n, protocol.repetitions, protocol.seed,
                                 model.schema_id)
    _, predicted = predict_groups(model, X, protocol.n)
    accuracy, accuracy_pm1, confusion = accuracy_metrics(np.column_stack([actual, predicted]),
                                                         group_count(model))
    return EvaluationReport(accuracy, accuracy_pm1, confusion, config=asdict(protocol))


def run_random_sampling(testpool: dict, model, protocol: EvalProtocol) -> EvaluationReport:
    """Per group, `repetitions` draws of n data points without replacement;
    every draw yields one prediction."""
    if protocol.mode != RANDOM_MODE:
        raise ConfigError("protocol mode must be 'random'")
    if not testpool:
        raise DataError("no predictions to score: the test pool is empty")
    return _evaluate([(g, ("eval-random", g), testpool[g]) for g in sorted(testpool)],
                     model, protocol)


def run_player_specific(testpool_by_player: dict, model, protocol: EvalProtocol) -> EvaluationReport:
    """Per player, `repetitions` draws of n of that player's data points."""
    if protocol.mode != PLAYER_MODE:
        raise ConfigError("protocol mode must be 'player'")
    subjects, excluded = [], []
    for g in sorted(testpool_by_player):
        for player_id in sorted(testpool_by_player[g]):
            vectors = testpool_by_player[g][player_id]
            if len(vectors) < protocol.n:
                excluded.append({"player_id": player_id, "group": g,
                                 "reason": "fewer_datapoints_than_n"})
            else:
                subjects.append((g, ("eval-player", g, player_id), vectors))
    if not subjects:
        raise ConfigError(f"no predictions to score: all {len(excluded)} players "
                          f"have fewer than n={protocol.n} data points")
    report = _evaluate(subjects, model, protocol)
    if excluded:
        report.drops["excluded_players"] = excluded
    return report


def pool_from_store(rows) -> dict:
    """{group: vectors} from feature store rows, in store order."""
    pool: dict = {}
    for row in rows:
        pool.setdefault(row.group_index, []).append(row.vector)
    return pool


def player_pool_from_store(rows) -> dict:
    """{group: {player id: vectors}} from feature store rows, in store order."""
    pool: dict = {}
    for row in rows:
        pool.setdefault(row.group_index, {}).setdefault(row.player_id, []).append(row.vector)
    return pool


def flatten_player_pool(testpool_by_player: dict) -> dict:
    """Merge per-player pools into per-group pools (both protocols can then
    run on the same testing data)."""
    return {
        g: [v for player in sorted(players) for v in players[player]]
        for g, players in testpool_by_player.items()
    }


# ---------------------------------------------------------------------------
# Ablations


def project_vectors(vectors, full_config: FeatureConfig, mask_config: FeatureConfig):
    """Select the mask's feature columns out of full-schema vectors."""
    full_names = full_config.feature_names()
    positions = []
    for name in mask_config.feature_names():
        if name not in full_names:
            raise ConfigError(
                f"ablation mask needs feature {name!r} absent from the extracted store"
            )
        positions.append(full_names.index(name))
    schema = mask_config.schema_id()
    return [
        FeatureVector(tuple(v.values[p] for p in positions), schema) for v in vectors
    ]


def project_pool(pool: dict, full_config, mask_config) -> dict:
    return {g: project_vectors(vs, full_config, mask_config) for g, vs in pool.items()}


@dataclass
class AblationContext:
    full_config: FeatureConfig
    train_pool: dict
    test_pool: dict
    gbdt_params: object
    train_repetitions: int
    train_seed: int
    eval_repetitions: int
    eval_seed: int
    r_groups: int
    # {n: model} already trained with these settings on the whole train pool
    fitted: dict = field(default_factory=dict)


def run_ablation(masks, ns, ctx: AblationContext) -> dict:
    """Retrain and re-evaluate the meta-model per mask and n.  A mask with
    the store's own schema reads the pools as they are, and reuses a model
    of ``ctx.fitted`` at its n when that model has ``ctx.r_groups`` groups.

    Returns {(mask_name, n): EvaluationReport}.
    """
    results = {}
    for name, mask in masks:
        schema = mask.schema_id()
        whole = schema == ctx.full_config.schema_id()
        train = ctx.train_pool if whole else project_pool(ctx.train_pool, ctx.full_config, mask)
        test = ctx.test_pool if whole else project_pool(ctx.test_pool, ctx.full_config, mask)
        for n in ns:
            model = ctx.fitted.get(n) if whole else None
            if model is None or group_count(model) != ctx.r_groups:
                spec = TrainingSetSpec(n=n, repetitions_per_group=ctx.train_repetitions,
                                       seed=ctx.train_seed)
                model = train_meta_model(train, spec, ctx.gbdt_params, schema, ctx.r_groups)
            protocol = EvalProtocol(mode=RANDOM_MODE, n=n, repetitions=ctx.eval_repetitions,
                                    seed=ctx.eval_seed)
            report = run_random_sampling(test, model, protocol)
            report.config["mask"] = name
            results[(name, n)] = report
    return results


def family_masks(full_config: FeatureConfig):
    """The standard ablation masks: all features, then one family removed."""
    masks = [("use_all", full_config)]
    for name, family in (("wo_strength", "include_strength"),
                         ("wo_prior", "include_priors"),
                         ("wo_loss", "include_loss")):
        if getattr(full_config, family):
            masks.append((name, replace(full_config, **{family: False})))
    return masks


def single_level_masks(full_config: FeatureConfig):
    """Priors-only masks: each level alone, then all levels combined."""
    base = dict(game=full_config.game, loss_selected=full_config.loss_selected,
                include_strength=False, include_loss=False, include_priors=True)
    masks = [
        (f"level_{level}_only", FeatureConfig(policy_levels=(level,), **base))
        for level in full_config.policy_levels
    ]
    masks.append(("levels_combined",
                  FeatureConfig(policy_levels=full_config.policy_levels, **base)))
    return masks


def write_ablation_csv(results: dict, path) -> None:
    mask_names = list(dict.fromkeys(name for name, _ in results))
    ns = sorted({n for _, n in results})
    header = ["n"] + [f"{name}_{metric}" for name in mask_names
                      for metric in ("accuracy", "accuracy_pm1")]
    rows = []
    for n in ns:
        row = [n]
        for name in mask_names:
            report = results[(name, n)]
            row += [f"{report.accuracy:.4f}", f"{report.accuracy_pm1:.4f}"]
        rows.append(row)
    write_table(path, header, rows)


def write_per_group_csv(results: dict, n: int, path) -> None:
    """Appendix-style table: per-group accuracy per mask at one n."""
    rows = [(name, report) for (name, rn), report in results.items() if rn == n]
    if not rows:
        raise ConfigError(f"no ablation results at n={n}")
    r_groups = rows[0][1].confusion.shape[0]
    write_table(path, ["mask"] + [f"g{j}" for j in range(r_groups)] + ["overall"],
                ([name] + [f"{acc:.4f}" for acc in report.per_group_accuracy]
                 + [f"{report.accuracy:.4f}"] for name, report in rows))


# ---------------------------------------------------------------------------
# Plot-data tables


def prior_curve_rows(rows, config: FeatureConfig):
    """Fig-2-style table: per (group, level), the mean per-data-point prior
    geometric mean with a 95% normal-approximation interval computed on the
    log scale and exponentiated back."""
    if not config.include_priors:
        raise ConfigError("feature config has no prior columns")
    names = config.feature_names()
    out = []
    pool = pool_from_store(rows)
    for g in sorted(pool):
        stacked = stack_vectors(pool[g])
        for level in config.policy_levels:
            col = names.index(f"prior_gm_{level}")
            logs = np.log(stacked[:, col])
            mean_log = logs.mean()
            sem = logs.std(ddof=0) / np.sqrt(len(logs)) if len(logs) > 1 else 0.0
            out.append({
                "group": g,
                "level": level,
                "gm_mean": float(np.exp(mean_log)),
                "ci_low": float(np.exp(mean_log - 1.96 * sem)),
                "ci_high": float(np.exp(mean_log + 1.96 * sem)),
                "count": len(logs),
            })
    return out


def loss_by_ply_rows(traces):
    """Fig-3-style table from (plies, losses) array pairs, as extraction
    hands them out.  Each pair is grouped by a stable sort by ply, and a
    ply's pieces are joined in pair order, so each ply reduces its losses
    in input order.  Grouping pair by pair keeps no concatenated copy of
    every loss alive."""
    pieces: dict[int, list] = {}
    for plies, losses in traces:
        order = np.argsort(plies, kind="stable")
        keys, starts = np.unique(plies[order], return_index=True)
        for ply, part in zip(keys.tolist(), np.split(losses[order], starts[1:])):
            pieces.setdefault(ply, []).append(part)
    out = []
    for ply in sorted(pieces):
        part = np.concatenate(pieces[ply])
        out.append({"ply": ply, "mean_loss": float(part.mean()),
                    "std_loss": float(part.std(ddof=0)), "count": len(part)})
    return out


def boxplot_rows(rows, config: FeatureConfig, column: str, mode: str = "player",
                 sample_size: int = 20, samples: int = 100, seed: int = 0):
    """Per-group distributions of a feature column.

    mode "player": one value per player (mean over that player's data
    points).  mode "random": `samples` values per group, each the mean of
    `sample_size` randomly drawn data points.
    """
    names = config.feature_names()
    if column not in names:
        raise ConfigError(f"unknown feature column {column!r}")
    col = names.index(column)
    out = []
    if mode == "player":
        players = player_pool_from_store(rows)
        for g in sorted(players):
            for player_id in sorted(players[g]):
                out.append({
                    "group": g,
                    "subject": player_id,
                    "statistic": column,
                    "value": float(np.mean([v.values[col] for v in players[g][player_id]])),
                })
    elif mode == "random":
        pool = pool_from_store(rows)
        for g in sorted(pool):
            values = np.array([v.values[col] for v in pool[g]])
            # As an (n, 1) column the mean is bit-equal to the 1-D
            # values[idx].mean(); a mean over a wider matrix is not.
            means = draw_means(values[:, None], min(sample_size, len(values)), samples,
                               seed, "boxplot", g)
            for s in range(samples):
                out.append({
                    "group": g,
                    "subject": f"sample{s:03d}",
                    "statistic": column,
                    "value": float(means[s, 0]),
                })
    else:
        raise ConfigError(f"unknown boxplot mode {mode!r}")
    return out


def write_csv(path, rows, columns) -> None:
    write_table(path, columns, ([row[k] for k in columns] for row in rows))


def write_report(report: EvaluationReport, outdir) -> None:
    outdir = Path(outdir)
    write_json(outdir / "metrics.json", report.to_dict())
    r = report.confusion.shape[0]
    write_table(outdir / "confusion.csv", ["actual\\predicted"] + [f"g{j}" for j in range(r)],
                ([f"g{j}"] + report.confusion[j].tolist() for j in range(r)))
