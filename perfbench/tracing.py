"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``rankforge`` modules at the names
their callers look up (for example ``rankforge.cli.extract_many`` as well
as ``rankforge.features.extract_many``), and it wraps backends in timing
proxies.  No file under ``src/`` changes: every wrapper is installed from
here and removed again by ``uninstall``.

Each wrapped call becomes one span ``[name, layer, parent, start, end]``,
kept in memory.  A layer's self time is the summed duration of its spans
minus the part covered by their child spans.
"""

import importlib
import statistics
import time
from collections import Counter
from pathlib import Path

from rankforge.backends import Backend, BackendBank
from rankforge.errors import BackendError, BackendTimeoutError

# Program layers, named after their modules.  trace.coverage is the share of
# a traced pass that their self times account for.
LAYERS = (
    "records", "synthlab", "features", "backends.synthetic", "backends.client",
    "backends.cache", "estimator", "gbdt", "evalharness", "io",
)
# Orchestration in rankforge.cli: reported, but not counted as layer time.
ORCHESTRATION = "cli"

# Every metric a traced run reports, with its unit, in output order.
PER_LAYER = {
    "records.parse_s": "s",
    "records.files": "count",
    "records.plies": "count",
    "records.drops": "count",
    "records.self_s": "s",
    "synthlab.gen_s": "s",
    "synthlab.matches": "count",
    "synthlab.self_s": "s",
    "features.extract_s": "s",
    "features.calls": "count",
    "features.datapoints_in": "count",
    "features.rows_out": "count",
    "features.dropped": "count",
    "features.self_s": "s",
    "backends.synthetic.calls": "count",
    "backends.synthetic.items": "count",
    "backends.synthetic.busy_s": "s",
    "backends.client.calls": "count",
    "backends.client.requests": "count",
    "backends.client.busy_s": "s",
    "backends.client.call_p50_ms": "ms",
    "backends.client.call_p95_ms": "ms",
    "backends.client.timeouts": "count",
    "backends.client.errors": "count",
    "backends.cache.hits": "count",
    "backends.cache.misses": "count",
    "backends.cache.hit_ratio": "ratio",
    "backends.cache.load_s": "s",
    "backends.cache.bytes": "bytes",
    "backends.cache.self_s": "s",
    "estimator.trainset_s": "s",
    "estimator.trainset_rows": "count",
    "estimator.self_s": "s",
    "gbdt.fit_s": "s",
    "gbdt.fits": "count",
    "gbdt.trees": "count",
    "gbdt.predict_s": "s",
    "gbdt.predict_calls": "count",
    "gbdt.predict_rows": "count",
    "gbdt.self_s": "s",
    "evalharness.eval_s": "s",
    "evalharness.predictions": "count",
    "evalharness.self_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}

# Summed span durations: metric -> (layer, span names).
DURATIONS = {
    "records.parse_s": ("records", ("parse_sgf", "parse_pgn_collection")),
    "synthlab.gen_s": ("synthlab", ("gen_group_pool", "gen_player_pool")),
    "features.extract_s": ("features", ("extract_many",)),
    "backends.synthetic.busy_s": ("backends.synthetic", None),
    "backends.client.busy_s": ("backends.client", None),
    "backends.cache.load_s": ("backends.cache", ("ResponseCache",)),
    "estimator.trainset_s": ("estimator", ("build_training_set",)),
    "gbdt.fit_s": ("gbdt", ("fit",)),
    "gbdt.predict_s": ("gbdt", ("predict_many",)),
    "evalharness.eval_s": ("evalharness", ("run_random_sampling", "run_player_specific")),
    "io.write_s": ("io", None),
}


def _size(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.is_file() else 0


def _extract_counts(args, result):
    rows, report = result
    return {"features.calls": 1, "features.datapoints_in": len(args[0]),
            "features.rows_out": len(rows), "features.dropped": len(report.dropped)}


def _predictions(args, result):
    return {"evalharness.predictions": result.total_predictions}


def _written(position):
    def count(args, result):
        return {"io.bytes_written": _size(args[position])}
    return count


def _report_written(args, result):
    outdir = Path(args[1])
    return {"io.bytes_written": _size(outdir / "metrics.json") + _size(outdir / "confusion.csv")}


# (layer, module or class, attribute, counters from (args, result)).  A
# function is patched at each name its callers look it up by.
PATCHES = (
    (ORCHESTRATION, "rankforge.cli", "run_pipeline", None),
    ("records", "rankforge.cli", "ingest_directory",
     lambda a, r: {"records.drops": len(r[1])}),
    ("records", "rankforge.cli", "parse_sgf",
     lambda a, r: {"records.files": 1, "records.plies": len(r.plies)}),
    ("records", "rankforge.cli", "parse_pgn_collection",
     lambda a, r: {"records.files": 1, "records.plies": sum(len(x.plies) for x in r)}),
    ("synthlab", "rankforge.synthlab", "gen_group_pool",
     lambda a, r: {"synthlab.matches": sum(len(ms) for ms in r.values())}),
    ("synthlab", "rankforge.synthlab", "gen_player_pool",
     lambda a, r: {"synthlab.matches": sum(len(ms) for ps in r.values() for ms in ps.values())}),
    ("synthlab", "rankforge.synthlab", "pool_to_datapoints", None),
    ("synthlab", "rankforge.synthlab", "player_pool_to_datapoints", None),
    ("features", "rankforge.cli", "extract_many", _extract_counts),
    ("features", "rankforge.features", "extract_many", _extract_counts),
    ("features", "rankforge.cli", "move_losses", None),
    ("estimator", "rankforge.cli", "train_meta_model", None),
    ("estimator", "rankforge.estimator", "train_meta_model", None),
    ("estimator", "rankforge.estimator", "build_training_set",
     lambda a, r: {"estimator.trainset_rows": len(r[0])}),
    ("estimator", "rankforge.estimator", "estimate_rank", None),
    ("gbdt", "rankforge.estimator", "fit",
     lambda a, r: {"gbdt.fits": 1, "gbdt.trees": len(r.trees)}),
    ("gbdt", "rankforge.gbdt.TreeEnsemble", "predict_many",
     lambda a, r: {"gbdt.predict_calls": 1, "gbdt.predict_rows": len(r)}),
    ("evalharness", "rankforge.cli", "run_random_sampling", _predictions),
    ("evalharness", "rankforge.evalharness", "run_random_sampling", _predictions),
    ("evalharness", "rankforge.evalharness", "run_player_specific", _predictions),
    ("io", "rankforge.cli", "write_datapoints", _written(0)),
    ("io", "rankforge.cli", "write_feature_store", _written(0)),
    ("io", "rankforge.features", "write_feature_store", _written(0)),
    ("io", "rankforge.gbdt.TreeEnsemble", "save", _written(1)),
    ("io", "rankforge.cli", "write_report", _report_written),
    ("io", "rankforge.evalharness", "write_report", _report_written),
    ("io", "rankforge.cli", "write_csv", _written(0)),
    ("backends.cache", "rankforge.backends.cache.ResponseCache", "__init__", None),
)


def _resolve(path: str):
    """A module, or a class inside a module, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def tail_percentile(samples, want: float = 95.0):
    """(percentile, value): the nearest-rank ``want`` percentile, lowered
    until at least 10 samples lie beyond it; (None, None) for fewer than 11
    samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None, None
    rank = min(int(n * want / 100.0), n - 10)
    return 100.0 * rank / n, ordered[rank - 1]


class NullProbe:
    """Stands in for a Tracer in untraced passes: backends stay as they are."""

    def backend(self, inner: Backend, layer: str) -> Backend:
        return inner

    def bank(self, bank: BackendBank, layer: str) -> BackendBank:
        return bank


class Tracer(NullProbe):
    """Records spans and counters while installed; one per traced pass."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._saved = []

    def call(self, name, layer, fn, args, kwargs, counters=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, parent, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        if counters is not None:
            self.counters.update(counters(args, result))
        return result

    def current_layer(self):
        return self.spans[self._stack[-1]][1] if self._stack else None

    def _wrapper(self, name, layer, fn, counters):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, counters)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, path, attr, counters in PATCHES:
            owner = _resolve(path)
            original = getattr(owner, attr)
            name = owner.__name__ if attr == "__init__" else attr
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, layer, original, counters))
        # rankforge.cli builds the pipeline's backends itself; proxy them there.
        cli = _resolve("rankforge.cli")
        build_bank = cli._build_bank
        self._saved.append((cli, "_build_bank", build_bank))
        cli._build_bank = lambda *a, **k: self.bank(build_bank(*a, **k), "backends.synthetic")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def backend(self, inner: Backend, layer: str) -> Backend:
        return TimedBackend(inner, layer, self)

    def bank(self, bank: BackendBank, layer: str) -> BackendBank:
        """The same bank with one proxy per distinct backend."""
        proxies = {}
        roles = {}
        for role in ("strength", "policy", "value"):
            inner = getattr(bank, role)
            if inner is not None:
                if id(inner) not in proxies:
                    proxies[id(inner)] = self.backend(inner, layer)
                roles[role] = proxies[id(inner)]
        return BackendBank(**roles)

    def self_times(self) -> Counter:
        own = Counter()
        for name, layer, parent, start, end in self.spans:
            own[layer] += end - start
            if parent >= 0:
                own[self.spans[parent][1]] -= end - start
        return own

    def metrics(self, wall_s: float, cache_bytes: int = 0) -> dict:
        """Per-layer metrics of one traced pass that took ``wall_s``;
        trace.overhead_s is left to the caller, which also times untraced
        passes."""
        out = {key: float(self.counters[key]) for key in PER_LAYER if key != "trace.overhead_s"}
        for metric, (layer, names) in DURATIONS.items():
            out[metric] = sum((end - start for name, lay, _, start, end in self.spans
                               if lay == layer and (names is None or name in names)), 0.0)
        out["backends.client.requests"] = float(self.counters["backends.client.items"])
        lookups = self.counters["backends.cache.items"]
        misses = self.counters["backends.cache.misses"]
        out["backends.cache.hits"] = float(lookups - misses)
        out["backends.cache.misses"] = float(misses)
        out["backends.cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
        out["backends.cache.bytes"] = float(cache_bytes)
        calls = [1000.0 * (end - start) for _, layer, _, start, end in self.spans
                 if layer == "backends.client"]
        out["backends.client.call_p50_ms"] = statistics.median(calls) if calls else 0.0
        out["backends.client.call_p95_ms"] = tail_percentile(calls)[1] or 0.0
        own = self.self_times()
        for layer in (*LAYERS, ORCHESTRATION):
            if f"{layer}.self_s" in PER_LAYER:
                out[f"{layer}.self_s"] = float(own[layer])
        out["trace.wall_s"] = wall_s
        out["trace.coverage"] = sum(own[layer] for layer in LAYERS) / wall_s
        out["trace.spans"] = float(len(self.spans))
        return out


class TimedBackend(Backend):
    """Timing proxy for one backend: one span and one call count per batch
    call, plus the items (requests) in it."""

    def __init__(self, inner: Backend, layer: str, tracer: Tracer):
        self.inner = inner
        self.layer = layer
        self.tracer = tracer
        self.descriptor = inner.descriptor

    def _batch(self, name, fn, states, *rest):
        tracer, layer = self.tracer, self.layer
        if layer == "backends.client" and tracer.current_layer() == "backends.cache":
            tracer.counters["backends.cache.misses"] += len(states)
        tracer.counters[f"{layer}.calls"] += 1
        tracer.counters[f"{layer}.items"] += len(states)
        try:
            return tracer.call(name, layer, fn, (states, *rest), {})
        except BackendTimeoutError:
            tracer.counters[f"{layer}.timeouts"] += 1
            raise
        except BackendError:
            tracer.counters[f"{layer}.errors"] += 1
            raise

    def score_strength_many(self, states, moves):
        return self._batch("score_strength_many", self.inner.score_strength_many, states, moves)

    def policy_prior_many(self, states, moves, level):
        return self._batch("policy_prior_many", self.inner.policy_prior_many,
                           states, moves, level)

    def evaluate_state_many(self, states, moves=None):
        return self._batch("evaluate_state_many", self.inner.evaluate_state_many,
                           states, moves)

    def close(self) -> None:
        self.inner.close()
