"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

assert run.use_checkout() is None

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def any_desk_accuracy(monkeypatch):
    """The desk accuracy check needs the benchmark's own sizes to reach the
    oracle; at the tiny sizes below it accepts any accuracy."""
    monkeypatch.setattr(workloads, "ACCURACY_TOLERANCE", 1.0)


def tiny(name):
    """A workload at a tiny size, for checking what a run emits."""
    if name == "desk-pipeline":
        return workloads.DeskPipeline(workloads.DeskSizes(20, 20, 20, 20, 3))
    if name == "player-eval":
        return workloads.PlayerEval(workloads.PlayerSizes(
            train_matches=20, train_repetitions=20, num_trees=3, players_per_group=2))
    return workloads.RecordsEngine(workloads.RecordsSizes(go_games=2, chess_games=3))


# Per-layer metrics that must be non-zero where their layer runs, and zero on
# the workloads that bypass it.
RUNS = {
    "desk-pipeline": {
        "synthlab.gen_s", "synthlab.matches", "features.extract_s", "features.calls",
        "features.datapoints_in", "features.rows_out", "backends.synthetic.calls",
        "backends.synthetic.items", "backends.synthetic.busy_s", "estimator.trainset_s",
        "estimator.trainset_rows", "gbdt.fit_s", "gbdt.fits", "gbdt.trees", "gbdt.predict_s",
        "gbdt.predict_calls", "gbdt.predict_rows", "evalharness.eval_s",
        "evalharness.predictions", "io.write_s", "io.bytes_written", "cli.self_s",
    },
    "player-eval": {
        "synthlab.gen_s", "synthlab.matches", "features.extract_s", "features.calls",
        "features.datapoints_in", "features.rows_out", "backends.synthetic.calls",
        "backends.synthetic.items", "backends.synthetic.busy_s", "estimator.self_s",
        "gbdt.predict_s", "gbdt.predict_calls", "gbdt.predict_rows", "evalharness.eval_s",
        "evalharness.predictions", "io.write_s", "io.bytes_written",
    },
    "records-engine": {
        "records.parse_s", "records.files", "records.plies", "records.self_s",
        "features.extract_s", "features.calls", "features.datapoints_in", "features.rows_out",
        "backends.client.calls", "backends.client.requests", "backends.client.busy_s",
        "backends.client.call_p50_ms", "backends.cache.hits", "backends.cache.misses",
        "backends.cache.hit_ratio", "backends.cache.load_s", "backends.cache.bytes",
        "backends.cache.self_s", "io.write_s", "io.bytes_written",
    },
}
BYPASSED = {
    "desk-pipeline": {"records.parse_s", "records.files", "backends.client.requests",
                      "backends.cache.hits", "backends.cache.misses"},
    "player-eval": {"records.parse_s", "records.files", "backends.client.requests",
                    "backends.cache.misses", "gbdt.fit_s", "gbdt.fits",
                    "estimator.trainset_s"},
    "records-engine": {"synthlab.gen_s", "backends.synthetic.calls", "gbdt.fit_s",
                       "gbdt.predict_calls", "evalharness.eval_s"},
}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_and_traced_runs(name, tmp_path):
    plain = run.measure(tiny(name), 3, 0.01, False, tmp_path)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert plain["summary"]["error_rate"] == 0
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    if name == "player-eval":
        assert plain["summary"]["player_query_p50_ms"] > 0
        assert plain["summary"]["player_queries"] == 8 * 2
    if name == "desk-pipeline":
        assert 0 < plain["summary"]["accuracy"] <= 1

    traced = run.measure(tiny(name), 3, 0.01, True, tmp_path)
    assert traced["summary"]["output_sha256"] == plain["summary"]["output_sha256"]
    metrics = {key: m["value"] for key, m in traced["metrics"].items()}
    assert list(metrics) == list(tracing.PER_LAYER)
    assert [key for key in sorted(RUNS[name]) if not metrics[key] > 0] == []
    assert [key for key in sorted(BYPASSED[name]) if metrics[key] != 0] == []
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["features.dropped"] == 0 and metrics["backends.client.errors"] == 0
    spans = (tmp_path / "trace" / f"{name}-s3.spans.jsonl").read_text().splitlines()
    assert len(spans) >= metrics["trace.spans"] > 0
    assert not list(tmp_path.glob("run-*"))


def test_records_engine_warm_pass_is_all_hits(tmp_path):
    traced = run.measure(tiny("records-engine"), 5, 0.01, True, tmp_path)["metrics"]
    hits, misses = traced["backends.cache.hits"]["value"], traced["backends.cache.misses"]["value"]
    # The warm pass hits on every lookup, the cold pass on repeated keys only.
    assert hits >= misses > 0
    assert traced["backends.client.requests"]["value"] == misses


def test_failed_check_exits_nonzero_without_result(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "ACCURACY_TOLERANCE", -1.0)
    monkeypatch.setitem(workloads.WORKLOADS, "desk-pipeline", lambda: tiny("desk-pipeline"))
    code = run.main(["--workload", "desk-pipeline", "--seed", "1", "--seconds", "0.01"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and "accuracy" in err


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(range(1, 321)) == (95.0, 304)
    percentile, value = tracing.tail_percentile(range(1, 101))
    assert percentile == 90.0 and value == 90
    assert tracing.tail_percentile(range(10)) == (None, None)
