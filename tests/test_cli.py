import csv
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rankforge import cli, evalharness
from rankforge.cli import main, run_pipeline
from rankforge.config import (
    read_config_text,
    run_config_from,
    synth_config_from,
)
from rankforge.backends import SyntheticBackend
from rankforge.errors import BackendError, ConfigError
from rankforge.features import EXTRACT_BATCH, FeatureConfig, read_feature_store

TINY_SYNTH = """
seed = 77

[synth]
groups = 3
moves_per_state = 6
plies_per_match = 20
temperature_base = 2.0
temperature_decay = 0.55
strength_noise_sd = 0.5
levels = [["a", 0.25], ["b", 1.75]]
train_matches_per_group = 30
test_matches_per_group = 15

[features]
game = "synthetic"
policy_levels = ["a", "b"]
loss_selected = [["mean", 10], ["std", "all"]]

[training]
ns = [1, 3]
repetitions_per_group = 120

[gbdt]
num_trees = 25
min_samples_leaf = 8

[eval]
repetitions = 60

[ablation]
ns = [3]
"""
NO_LOSS_SYNTH = TINY_SYNTH.replace('loss_selected = [["mean", 10], ["std", "all"]]',
                                  "include_loss = false")


# ---------------------------------------------------------------------------
# config reader


def test_config_reader_scalars_and_sections():
    data = read_config_text(
        'a = 1\nb = 2.5\nc = "text"\nd = true\ne = inf\n'
        "[sec]\nx = [1, 2, 3]\n[sec.sub]\ny = -4\n"
    )
    assert data["a"] == 1 and data["b"] == 2.5 and data["c"] == "text"
    assert data["d"] is True and math.isinf(data["e"])
    assert data["sec"]["x"] == [1, 2, 3]
    assert data["sec"]["sub"]["y"] == -4


def test_config_reader_nested_and_multiline_arrays():
    data = read_config_text(
        'levels = [["a", 0.5],\n  ["b", 1.5]]\n'
    )
    assert data["levels"] == [["a", 0.5], ["b", 1.5]]


def test_config_reader_comments_and_strings_with_hash():
    data = read_config_text('x = "a # not comment"  # real comment\ny = 2 # c\n')
    assert data["x"] == "a # not comment"
    assert data["y"] == 2


def test_config_reader_errors():
    with pytest.raises(ConfigError):
        read_config_text("x 1\n")
    with pytest.raises(ConfigError):
        read_config_text("x = [1, 2\n")
    with pytest.raises(ConfigError):
        read_config_text("x = wat\n")


def test_synth_config_assembly():
    data = read_config_text(TINY_SYNTH)
    cfg = synth_config_from(data["synth"], seed=int(data["seed"]))
    assert cfg.groups == 3
    assert cfg.seed == 77
    assert cfg.level_labels() == ("a", "b")
    run = run_config_from(data)
    assert run.train_ns == [1, 3]
    assert run.features.width == 1 + 2 + 2


# ---------------------------------------------------------------------------
# ingest command


GO_OK = (
    "(;GM[1]SZ[19]PB[p1]PW[p2]BR[3d]WR[3d]RE[B+Resign]"
    + "".join(f";{'B' if i % 2 == 0 else 'W'}[{c}]"
              for i, c in enumerate(_c for row in "abcdefghijklmnopqrs"
                                    for _c in (row + "a", row + "b", row + "c")))
    + ")"
)


def _write_go_game(path: Path, plies: int, rank="3d", result="B+Resign"):
    letters = "abcdefghijklmnopqrs"
    coords = [a + b for a in letters for b in letters][:plies]
    moves = "".join(
        f";{'B' if i % 2 == 0 else 'W'}[{c}]" for i, c in enumerate(coords)
    )
    path.write_text(
        f"(;GM[1]SZ[19]PB[p1]PW[p2]BR[{rank}]WR[{rank}]RE[{result}]{moves})"
    )


def test_ingest_empty_dir_exits_zero(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    code = main(["ingest", "--game", "go", "--records-dir", str(tmp_path / "empty"),
                 "--out", str(out)])
    assert code == 1  # nonexistent directory is a configuration problem
    (tmp_path / "empty").mkdir()
    code = main(["ingest", "--game", "go", "--records-dir", str(tmp_path / "empty"),
                 "--out", str(out)])
    assert code == 0
    assert out.read_text() == ""


def test_ingest_accept_and_reject(tmp_path):
    records = tmp_path / "records"
    records.mkdir()
    _write_go_game(records / "good.sgf", 60)
    _write_go_game(records / "short.sgf", 49)
    out = tmp_path / "data.jsonl"
    drops = tmp_path / "drops.json"
    code = main(["ingest", "--game", "go", "--records-dir", str(records),
                 "--out", str(out), "--drops", str(drops)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 2  # both sides of the accepted match
    assert {l["side"] for l in lines} == {"black", "white"}
    dropped = json.loads(drops.read_text())
    assert dropped[0]["reason"] == "min_plies"
    assert dropped[0]["file"] == "short.sgf"


def test_ingest_drops_deeply_nested_sgf_without_traceback(tmp_path, capsys):
    records = tmp_path / "records"
    records.mkdir()
    (records / "deep.sgf").write_text("(;B[aa]" + "(;W[bb]" * 5000 + ")" * 5000 + ")")
    out = tmp_path / "data.jsonl"
    drops = tmp_path / "drops.json"
    code = main(["ingest", "--game", "go", "--records-dir", str(records),
                 "--out", str(out), "--drops", str(drops)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_text() == ""
    (dropped,) = json.loads(drops.read_text())
    assert dropped["file"] == "deep.sgf"
    assert dropped["reason"].startswith("parse_error:")


def test_ingest_rerun_byte_identical(tmp_path, corpus_dir):
    records = tmp_path / "records"
    records.mkdir()
    for i, src in enumerate(sorted(corpus_dir.glob("*.sgf"))[:10]):
        (records / src.name).write_text(src.read_text())
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["ingest", "--game", "go", "--records-dir", str(records),
                 "--out", str(out1)]) == 0
    assert main(["ingest", "--game", "go", "--records-dir", str(records),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_ingest_chess_collection_and_date_window(tmp_path, corpus_dir):
    records = tmp_path / "records"
    records.mkdir()
    src = sorted(corpus_dir.glob("*.pgn"))[:3]
    (records / "all.pgn").write_text("\n".join(p.read_text() for p in src))
    out = tmp_path / "chess.jsonl"
    code = main(["ingest", "--game", "chess", "--records-dir", str(records),
                 "--out", str(out), "--date-window", "2024-02-01", "2024-02-29"])
    assert code == 0
    # corpus games carry no Date tag, so the window rejects them all
    assert out.read_text() == ""


@pytest.mark.parametrize("fen_tag, movetext", [
    ('[FEN "4k3/8/8/8/8/8/8/R7 w - - 0 1"]', "1. Ra2"),
    ('[FEN "P3k3/8/8/8/8/8/8/4K3 w - - 0 1"]', "1. Ke2"),
    ('[FEN "4k3/8/8/8/8/8/8/4K3 w - - x 1"]', "1. Ke2"),
    ('[FEN "k6r/8/8/8/R7/8/8/4K3 w - - 0 1"]', "1. Rxa8 Rxa8"),
    ("", "1. e4"),
    ('[FEN "4k3/8/8/8/8/8/8/4K3 x - - 0 1"]', "1... Kd7"),
    ('[FEN "4k3/8/8/8/8/8/8/4K3 w Zq - 0 1"]', "1. Ke2"),
], ids=["no-white-king", "pawn-on-rank-8", "move-counter-not-a-number", "king-captured",
        "setup-without-fen", "side-to-move-not-w-or-b", "castling-letter-not-kqkq"])
def test_ingest_drops_a_pgn_with_a_malformed_fen(tmp_path, capsys, fen_tag, movetext):
    records = tmp_path / "records"
    records.mkdir()
    (records / "bad.pgn").write_text(
        f'[SetUp "1"]\n{fen_tag}\n[Result "*"]\n\n{movetext} *\n')
    out = tmp_path / "chess.jsonl"
    drops = tmp_path / "drops.json"
    code = main(["ingest", "--game", "chess", "--records-dir", str(records),
                 "--out", str(out), "--drops", str(drops)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_text() == ""
    (dropped,) = json.loads(drops.read_text())
    assert dropped["file"] == "bad.pgn"
    assert dropped["reason"].startswith("parse_error:")


def test_ingest_drops_a_pgn_with_a_stray_close_paren_within_a_deadline(tmp_path):
    # a ')' outside a variation once left the scanner on an empty token forever
    records = tmp_path / "records"
    records.mkdir()
    (records / "stray.pgn").write_text('[Event "x"]\n[Result "1-0"]\n\n1. e4 ) e5 1-0\n')
    out = tmp_path / "chess.jsonl"
    drops = tmp_path / "drops.json"
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "rankforge.cli", "ingest", "--game", "chess",
         "--records-dir", str(records), "--out", str(out), "--drops", str(drops)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert out.read_text() == ""
    (dropped,) = json.loads(drops.read_text())
    assert dropped["file"] == "stray.pgn"
    assert dropped["reason"].startswith("parse_error:")


# ---------------------------------------------------------------------------
# synth / extract / train / eval chain


def test_full_cli_chain(tmp_path):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "data.jsonl"
    store = tmp_path / "store.jsonl"
    model = tmp_path / "model.json"
    report = tmp_path / "report"

    assert main(["synth", "--config", str(config), "--matches", "12",
                 "--out", str(dataset)]) == 0
    assert len(dataset.read_text().splitlines()) == 36

    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(store)]) == 0
    header = json.loads(store.read_text().splitlines()[0])
    assert header["schema"]["loss_sign"] == "deterioration"

    assert main(["train", "--config", str(config), "--features", str(store),
                 "--n", "3", "--repetitions", "80", "--seed", "5",
                 "--out", str(model)]) == 0
    assert json.loads(model.read_text())["meta"]["trained_n"] == 3

    assert main(["eval", "--mode", "random", "--n", "3", "--model", str(model),
                 "--features", str(store), "--repetitions", "30",
                 "--seed", "2", "--out", str(report)]) == 0
    metrics = json.loads((report / "metrics.json").read_text())
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert metrics["accuracy_pm1"] >= metrics["accuracy"]
    assert (report / "confusion.csv").exists()


def test_report_command(tmp_path):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "data.jsonl"
    store = tmp_path / "store.jsonl"
    outdir = tmp_path / "plots"
    main(["synth", "--config", str(config), "--matches", "8", "--out", str(dataset)])
    main(["extract", "--config", str(config), "--dataset", str(dataset),
          "--out", str(store)])
    assert main(["report", "--features", str(store), "--out", str(outdir),
                 "--dataset", str(dataset), "--config", str(config)]) == 0
    assert (outdir / "prior_curves.csv").exists()
    assert (outdir / "boxplot_player.csv").exists()
    assert (outdir / "loss_by_ply.csv").exists()
    header = (outdir / "prior_curves.csv").read_text().splitlines()[0]
    assert header == "group,level,gm_mean,ci_low,ci_high,count"


def test_report_loss_by_ply_bytes_are_pinned(tmp_path):
    # 24 data points: the loss traces span two extraction batches
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "data.jsonl"
    store = tmp_path / "store.jsonl"
    outdir = tmp_path / "plots"
    assert main(["synth", "--config", str(config), "--matches", "8", "--out", str(dataset)]) == 0
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(store)]) == 0
    assert main(["report", "--features", str(store), "--out", str(outdir),
                 "--dataset", str(dataset), "--config", str(config)]) == 0
    digest = hashlib.sha256((outdir / "loss_by_ply.csv").read_bytes()).hexdigest()
    assert digest == "45224ef0770f74cca49629e04de04042e8d3a09ccf4cebf38b868dec671b09a3"


# SHA-256 of every file `pipeline` writes on TINY_SYNTH.
PIPELINE_SHA256 = {
    "ablation/ablation_per_group.csv": "2ff5cf14cbae5f3b3a60a8f4ff655961e40c407c2ced9a145e4d1818ebf21ac1",
    "ablation/ablation_summary.csv": "ad663c875ea774fb086f136284072b30f0aced924f6917a94b9fd09a88a34408",
    "eval_n1/confusion.csv": "0671a3e2344b53a07e79c3833333d12c1d7965462b404b39e2a832ecc6f0d3fd",
    "eval_n1/metrics.json": "d33fccac3b92bd4f5f597db52309ba740bc09dd065502dd04736568f02e4b697",
    "eval_n3/confusion.csv": "02c6481c572826f52c6ead2e8d43eb71c8eb3e26d78d07d0b8ff2040f342a774",
    "eval_n3/metrics.json": "867f753a1bd28671215d37f078d7c347184804da955dab09e34ef225860c8098",
    "manifest.json": "60a95c48422b3053a1f5e9b32588bd575b59bbc8b6c2a0bae5d0710ab29063c6",
    "metrics.json": "854998d7d83029cb2b21d5fd21c9583f6438847562c8b241a2a5a58f0660ee3d",
    "model_n1.json": "34d71c6233bdc42d34ce471495f5039e8c55a2f5a0721c6b9ed9ac4e8111aa05",
    "model_n3.json": "fd3417c5e1e3d4f371c015a44a56cdd47e53620a31278425e08ca1fe43a58059",
    "plotdata/loss_by_ply.csv": "fbf59829f471eb80192a5d37a32f5ca2dcfd504cc66dddbb22fa0c1df2449d24",
    "plotdata/prior_curves.csv": "3d53842e8ffa7ba66fc77d2b3fde5c47926f5a45ec4819044207a2ab4fbe1098",
    "test_dataset.jsonl": "f9a6c6514f601e691878ddc442cf20873a8476d7f091ed080e7aa2f9c3957321",
    "test_drops.json": "c22a880202bd01036ddf1a66215ec16976839f3a920b81382ef589d690f37296",
    "test_features.jsonl": "895bf99f561243f70e2d2857e95dbcb0fe48e5058e71bfd0ec8dbfef3853a591",
    "train_dataset.jsonl": "2e1bec2f21b45e382efd95723af1e1f45335ee9c47a4a9e020b49b3d2c58815d",
    "train_drops.json": "c22a880202bd01036ddf1a66215ec16976839f3a920b81382ef589d690f37296",
    "train_features.jsonl": "a7932f97ab1e4c3311d3cdf0e29b9cf26677187bfe20356392e7cbc41c4b442f",
}


def test_pipeline_end_to_end_and_rerun_identical(tmp_path):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["pipeline", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["pipeline", "--config", str(config), "--out", str(out2)]) == 0
    m1 = (out1 / "metrics.json").read_bytes()
    m2 = (out2 / "metrics.json").read_bytes()
    assert m1 == m2
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert (out1 / "model_n1.json").exists()
    assert (out1 / "model_n3.json").exists()
    assert (out1 / "eval_n3" / "metrics.json").exists()
    summary = (out1 / "ablation" / "ablation_summary.csv").read_text().splitlines()[0]
    for column in ("use_all", "wo_strength", "wo_prior", "wo_loss"):
        assert column in summary
    assert (out1 / "plotdata" / "prior_curves.csv").exists()
    assert (out1 / "plotdata" / "loss_by_ply.csv").exists()
    digests = {str(path.relative_to(out1)): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out1.rglob("*")) if path.is_file()}
    assert digests == PIPELINE_SHA256


def _count_value_calls(monkeypatch, fail=lambda states: False) -> list:
    """Record every synthetic value call's states; a call whose states
    ``fail`` selects raises BackendError."""
    calls = []
    evaluate = SyntheticBackend.evaluate_state_many

    def counted(self, states, moves=None):
        calls.append(states)
        if fail(states):
            raise BackendError("scripted")
        return evaluate(self, states, moves)

    monkeypatch.setattr(SyntheticBackend, "evaluate_state_many", counted)
    return calls


def test_pipeline_computes_losses_only_in_extraction(tmp_path, monkeypatch):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH.replace("[ablation]\nns = [3]\n", ""))
    calls = _count_value_calls(monkeypatch)
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    batches = sum(math.ceil(len((tmp_path / "run" / f"{name}_dataset.jsonl")
                                .read_text().splitlines()) / EXTRACT_BATCH)
                  for name in ("train", "test"))
    # one value call before and one after the moves per batch; none to report
    assert len(calls) == 2 * batches
    assert (tmp_path / "run" / "plotdata" / "loss_by_ply.csv").exists()


def test_pipeline_without_losses_writes_no_loss_table(tmp_path, monkeypatch):
    config = tmp_path / "run.toml"
    config.write_text(NO_LOSS_SYNTH.replace("[ablation]\nns = [3]\n", ""))
    calls = _count_value_calls(monkeypatch)
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert calls == []
    assert (tmp_path / "run" / "plotdata" / "prior_curves.csv").exists()
    assert not (tmp_path / "run" / "plotdata" / "loss_by_ply.csv").exists()


def _report_argv(tmp_path, text: str, matches: int = 8) -> list:
    """Synthesize and extract a dataset on config ``text``; the argv of a
    report with its loss table."""
    config = tmp_path / "run.toml"
    config.write_text(text)
    dataset, store = tmp_path / "data.jsonl", tmp_path / "store.jsonl"
    assert main(["synth", "--config", str(config), "--matches", str(matches),
                 "--out", str(dataset)]) == 0
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(store)]) == 0
    return ["report", "--features", str(store), "--out", str(tmp_path / "plots"),
            "--dataset", str(dataset), "--config", str(config)]


def test_report_loss_table_leaves_out_a_dropped_point(tmp_path, monkeypatch):
    argv = _report_argv(tmp_path, TINY_SYNTH)
    points = [json.loads(line) for line in (tmp_path / "data.jsonl").read_text().splitlines()]
    dropped = points[5]["match_id"]
    calls = _count_value_calls(monkeypatch, lambda states: any(f":{dropped}:" in s
                                                               for s in states))
    assert main(argv) == 0
    kept = [m["ply"] for dp in points if dp["match_id"] != dropped for m in dp["moves"]]
    with (tmp_path / "plots" / "loss_by_ply.csv").open() as fh:
        counts = {int(row["ply"]): int(row["count"]) for row in csv.DictReader(fh)}
    assert counts == {ply: kept.count(ply) for ply in sorted(set(kept))}
    assert calls


def test_report_that_drops_every_point_exits_two(tmp_path, monkeypatch, capsys):
    argv = _report_argv(tmp_path, TINY_SYNTH, matches=2)
    _count_value_calls(monkeypatch, lambda states: True)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "every data point was dropped, the first for backend_error:scripted" in err


def test_report_without_a_loss_statistic_exits_one(tmp_path, capsys):
    argv = _report_argv(tmp_path, NO_LOSS_SYNTH, matches=2)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "the report's loss table needs loss statistics in [features]" in err
    assert "enables no feature family" not in err


def test_report_through_engines_launches_only_the_value_engine(tmp_path, monkeypatch,
                                                               mock_backend_cmd):
    argv = _report_argv(tmp_path, TINY_SYNTH, matches=2)
    engine = mock_backend_cmd("inorder")
    (tmp_path / "run.toml").write_text(TINY_SYNTH + "\n[backends]\n" + "".join(
        f"{role} = '{engine}'\n" for role in ("strength", "policy", "value")))
    launched = []

    class _Launches(cli.SubprocessBackend):
        def __init__(self, descriptor, **kwargs):
            launched.append(descriptor.kind)
            super().__init__(descriptor, **kwargs)

    monkeypatch.setattr(cli, "SubprocessBackend", _Launches)
    monkeypatch.delenv("RANKFORGE_CACHE", raising=False)
    assert main(argv) == 0
    assert launched == ["value"]
    assert (tmp_path / "plots" / "loss_by_ply.csv").exists()


def test_exit_codes():
    assert main(["pipeline", "--config", "/nonexistent.toml", "--out", "/tmp/x"]) == 1
    assert main(["eval", "--mode", "random", "--n", "3", "--model", "/nope.json",
                 "--features", "/nope.jsonl", "--out", "/tmp/x"]) == 2


def test_eval_rejects_schema_mismatch(tmp_path):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "d.jsonl"
    store = tmp_path / "s.jsonl"
    model = tmp_path / "m.json"
    main(["synth", "--config", str(config), "--matches", "10", "--out", str(dataset)])
    main(["extract", "--config", str(config), "--dataset", str(dataset),
          "--out", str(store)])
    main(["train", "--config", str(config), "--features", str(store), "--n", "2",
          "--out", str(model)])
    blob = json.loads(model.read_text())
    blob["schema_id"] = "forged00000"
    model.write_text(json.dumps(blob))
    assert main(["eval", "--mode", "random", "--n", "2", "--model", str(model),
                 "--features", str(store), "--out", str(tmp_path / "rep")]) == 2


@pytest.mark.parametrize("mode", ["random", "player"])
def test_eval_group_unknown_to_model_exits_two(tmp_path, capsys, mode):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "d.jsonl"
    store = tmp_path / "s.jsonl"
    model = tmp_path / "m.json"
    main(["synth", "--config", str(config), "--matches", "6", "--out", str(dataset)])
    main(["extract", "--config", str(config), "--dataset", str(dataset),
          "--out", str(store)])
    main(["train", "--config", str(config), "--features", str(store), "--n", "1",
          "--repetitions", "20", "--out", str(model)])
    blob = json.loads(model.read_text())
    blob["meta"]["r_groups"] = 2  # the store also holds group 2
    model.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["eval", "--mode", mode, "--n", "1", "--model", str(model),
                 "--features", str(store), "--out", str(tmp_path / "rep")]) == 2
    assert "data error: group index outside [0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("config_text", [
    TINY_SYNTH.replace("seed = 77", 'seed = "abc"'),
    TINY_SYNTH.replace("groups = 3\n", ""),
    TINY_SYNTH.replace("ns = [1, 3]", 'ns = ["x"]'),
    TINY_SYNTH.replace("num_trees = 25", "num_trees = [1]"),
    "note = 2024-01-01\n" + TINY_SYNTH,
    TINY_SYNTH.replace("groups = 3\n", "groups = 101\n"),
], ids=["seed-string", "synth-without-groups", "ns-string", "num-trees-array", "date-value",
        "synth-groups-past-the-bound"])
def test_pipeline_bad_config_value_exits_one(tmp_path, config_text):
    config = tmp_path / "run.toml"
    config.write_text(config_text)
    assert config_text != TINY_SYNTH
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_ablate_matches_pipeline_ablation(tmp_path):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(run)]) == 0
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(config),
                 "--train-features", str(run / "train_features.jsonl"),
                 "--test-features", str(run / "test_features.jsonl"),
                 "--out", str(out)]) == 0
    for name in ("ablation_summary.csv", "ablation_per_group.csv"):
        assert (out / name).read_bytes() == (run / "ablation" / name).read_bytes()
    assert json.loads((out / "use_all_n3" / "metrics.json").read_text())["config"]["mask"] == "use_all"


def test_pipeline_ablation_reuses_the_models_it_trained(tmp_path, monkeypatch):
    fits = []
    for module in (cli, evalharness):
        train = module.train_meta_model
        monkeypatch.setattr(module, "train_meta_model",
                            lambda pool, spec, *a, train=train: fits.append(spec.n)
                            or train(pool, spec, *a))
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    # ns [1, 3], then 4 masks at n=3, of which use_all reuses model_n3
    assert fits == [1, 3, 3, 3, 3]


@pytest.mark.parametrize("command, config_bytes", [
    ("pipeline", b"\xff" + TINY_SYNTH.encode()),
    ("ingest", None),
    ("extract", (TINY_SYNTH + "\n[backends]\ntimeout = 5\n").encode()),
    ("extract", (TINY_SYNTH + '\n[backends]\ntimeout = "soon"\n').encode()),
    ("extract", ('backends = "engine"\n' + TINY_SYNTH).encode()),
], ids=["config-not-utf8", "date-window-not-dates", "backends-without-engine",
        "backends-timeout-string", "backends-not-a-table"])
def test_bad_input_is_config_error(tmp_path, capsys, command, config_bytes):
    config = tmp_path / "run.toml"
    if config_bytes is not None:
        config.write_bytes(config_bytes)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("")
    argv = {
        "pipeline": ["pipeline", "--config", str(config), "--out", str(tmp_path / "out")],
        "ingest": ["ingest", "--game", "go", "--records-dir", str(tmp_path),
                   "--out", str(tmp_path / "out.jsonl"), "--date-window", "foo", "bar"],
        "extract": ["extract", "--config", str(config), "--dataset", str(dataset),
                    "--out", str(tmp_path / "store.jsonl")],
    }[command]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cut_feature_store_exits_two_naming_the_line(tmp_path, capsys, command):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "d.jsonl"
    store = tmp_path / "s.jsonl"
    model = tmp_path / "m.json"
    main(["synth", "--config", str(config), "--matches", "6", "--out", str(dataset)])
    main(["extract", "--config", str(config), "--dataset", str(dataset),
          "--out", str(store)])
    main(["train", "--features", str(store), "--n", "1", "--repetitions", "20",
          "--out", str(model)])
    store.write_bytes(store.read_bytes()[:300])
    argv = {
        "train": ["train", "--features", str(store), "--n", "1", "--out", str(model)],
        "eval": ["eval", "--n", "1", "--model", str(model), "--features", str(store),
                 "--out", str(tmp_path / "rep")],
    }[command]
    assert main(argv) == 2
    assert f"{store}:1:" in capsys.readouterr().err


def _tiny_store(tmp_path):
    """(store, model) from `synth`, `extract` and `train` on TINY_SYNTH;
    `synth` gives every player id one data point."""
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "d.jsonl"
    store = tmp_path / "s.jsonl"
    model = tmp_path / "m.json"
    assert main(["synth", "--config", str(config), "--matches", "6",
                 "--out", str(dataset)]) == 0
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(store)]) == 0
    assert main(["train", "--features", str(store), "--n", "1", "--repetitions", "20",
                 "--out", str(model)]) == 0
    return store, model


@pytest.mark.parametrize("command, value", [("train", math.inf), ("train", -math.inf),
                                            ("train", math.nan), ("eval", math.inf)])
def test_non_finite_feature_value_exits_two_naming_the_line(tmp_path, capsys,
                                                            command, value):
    store, model = _tiny_store(tmp_path)
    lines = store.read_text().splitlines()
    row = json.loads(lines[1])
    row["features"][0] = value
    lines[1] = json.dumps(row, sort_keys=True)
    store.write_text("\n".join(lines) + "\n")
    argv = {
        "train": ["train", "--features", str(store), "--n", "1", "--out", str(model)],
        "eval": ["eval", "--n", "1", "--model", str(model), "--features", str(store),
                 "--out", str(tmp_path / "rep")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{store}:2: bad feature row (feature value not finite)" in capsys.readouterr().err


def _rewrite_store(store, game=None, keep=lambda row: True, group=lambda g: g):
    """Rewrite a feature store in place: its game, which rows it keeps and
    their group indexes; the schema ids follow the game."""
    header, *rows = (json.loads(line) for line in store.read_text().splitlines())
    schema = header["schema"]
    schema["config"]["game"] = game or schema["config"]["game"]
    schema["schema_id"] = FeatureConfig.from_dict(schema["config"]).schema_id()
    rows = [{**row, "group_index": group(row["group_index"]),
             "schema_id": schema["schema_id"]} for row in rows if keep(row)]
    store.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in [header, *rows]))


@pytest.mark.parametrize("game, expected", [("go", 11), ("chess", 8)])
def test_train_takes_the_group_count_from_the_game(tmp_path, game, expected):
    store, model = _tiny_store(tmp_path)
    _rewrite_store(store, game=game, group=lambda g: g + 3)  # top group 5
    assert main(["train", "--features", str(store), "--n", "1", "--repetitions", "20",
                 "--out", str(model)]) == 0
    assert json.loads(model.read_text())["meta"]["r_groups"] == expected


def test_train_takes_the_group_count_from_the_synth_config(tmp_path):
    store, model = _tiny_store(tmp_path)
    _rewrite_store(store, keep=lambda row: row["group_index"] < 2)
    assert main(["train", "--config", str(tmp_path / "run.toml"), "--features", str(store),
                 "--n", "1", "--repetitions", "20", "--out", str(model)]) == 0
    assert json.loads(model.read_text())["meta"]["r_groups"] == 3


def test_train_store_group_beyond_the_synth_groups_exits_two(tmp_path, capsys):
    store, model = _tiny_store(tmp_path)
    _rewrite_store(store, group=lambda g: 3 if g == 2 else g)
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "run.toml"), "--features", str(store),
                 "--n", "1", "--repetitions", "20", "--out", str(model)]) == 2
    assert "data error" in capsys.readouterr().err


def test_train_store_group_beyond_the_synthetic_bound_exits_two(tmp_path, capsys):
    store, model = _tiny_store(tmp_path)
    _rewrite_store(store, group=lambda g: g + 98)  # top group 100
    capsys.readouterr()
    assert main(["train", "--features", str(store), "--n", "1", "--repetitions", "20",
                 "--out", str(model)]) == 2
    assert "data error: feature store holds group 100, but synthetic has 100 groups" in (
        capsys.readouterr().err)


def test_ablate_test_store_group_beyond_the_synth_groups_exits_two(tmp_path, capsys):
    store, _ = _tiny_store(tmp_path)
    test_store = tmp_path / "test.jsonl"
    test_store.write_text(store.read_text())
    _rewrite_store(test_store, group=lambda g: 3 if g == 2 else g)
    capsys.readouterr()
    assert main(["ablate", "--config", str(tmp_path / "run.toml"),
                 "--train-features", str(store), "--test-features", str(test_store),
                 "--out", str(tmp_path / "ablate")]) == 2
    assert "data error" in capsys.readouterr().err


def test_train_on_a_store_without_rows_exits_two(tmp_path, capsys):
    store, model = _tiny_store(tmp_path)
    _rewrite_store(store, keep=lambda row: False)
    capsys.readouterr()
    assert main(["train", "--features", str(store), "--n", "1", "--out", str(model)]) == 2
    assert "data error: empty training pool" in capsys.readouterr().err


def test_eval_on_a_store_without_rows_exits_two(tmp_path, capsys):
    store, model = _tiny_store(tmp_path)
    _rewrite_store(store, keep=lambda row: False)
    capsys.readouterr()
    assert main(["eval", "--n", "1", "--model", str(model), "--features", str(store),
                 "--out", str(tmp_path / "rep")]) == 2
    assert "data error: no predictions to score" in capsys.readouterr().err


def test_eval_with_a_model_without_group_count_exits_two(tmp_path, capsys):
    store, model = _tiny_store(tmp_path)
    blob = json.loads(model.read_text())
    del blob["meta"]["r_groups"]
    model.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["eval", "--n", "1", "--model", str(model), "--features", str(store),
                 "--out", str(tmp_path / "rep")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("game, r_groups", [(None, 99999999999999999999), (None, 101),
                                            ("go", 8)],
                         ids=["beyond-int64", "beyond-synthetic-bound", "not-the-go-count"])
def test_eval_with_a_group_count_the_game_cannot_have_exits_two(tmp_path, capsys, game,
                                                                r_groups):
    store, model = _tiny_store(tmp_path)
    if game:
        _rewrite_store(store, game=game)
        assert main(["train", "--features", str(store), "--n", "1", "--repetitions", "20",
                     "--out", str(model)]) == 0
    blob = json.loads(model.read_text())
    blob["meta"]["r_groups"] = r_groups
    model.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["eval", "--n", "1", "--model", str(model), "--features", str(store),
                 "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert f"data error: model predicts into {r_groups} rank groups" in err
    assert "Traceback" not in err


def test_eval_with_a_model_node_that_is_its_own_child_exits_two_within_a_deadline(tmp_path):
    # such a node once sent the prediction walk round in a loop forever
    store, model = _tiny_store(tmp_path)
    blob = json.loads(model.read_text())
    tree = blob["trees"][0]
    assert tree["feature"][0] >= 0
    tree["left"][0] = tree["right"][0] = 0
    model.write_text(json.dumps(blob))
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "rankforge.cli", "eval", "--n", "1", "--model", str(model),
         "--features", str(store), "--out", str(tmp_path / "rep")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert f"{model}:1: bad model" in done.stderr
    assert "Traceback" not in done.stderr


def test_player_eval_with_every_player_excluded_names_the_count_and_n(tmp_path, capsys):
    store, model = _tiny_store(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--mode", "player", "--n", "3", "--model", str(model),
                 "--features", str(store), "--out", str(tmp_path / "rep")]) == 1
    assert "all 18 players have fewer than n=3 data points" in capsys.readouterr().err


def test_eval_at_another_n_than_trained_exits_two(tmp_path, capsys):
    store, model = _tiny_store(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--n", "5", "--model", str(model), "--features", str(store),
                 "--out", str(tmp_path / "rep")]) == 2
    assert "data error: model was trained for n=1, not n=5" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.fixture
def engine_extract(tmp_path, monkeypatch, mock_backend_cmd):
    """`extract` with every backend role on the mock engine, behind the
    response cache.  Returns (run, cache path); run(out) is the exit code."""
    engine = mock_backend_cmd("inorder")
    config = tmp_path / "engine.toml"
    config.write_text(TINY_SYNTH + "\n[backends]\n" + "".join(
        f"{role} = '{engine}'\n" for role in ("strength", "policy", "value")))
    dataset = tmp_path / "data.jsonl"
    assert main(["synth", "--config", str(config), "--matches", "2",
                 "--out", str(dataset)]) == 0
    cache = tmp_path / "cache.jsonl"
    monkeypatch.setenv("RANKFORGE_CACHE", str(cache))

    def run(out):
        return main(["extract", "--config", str(config), "--dataset", str(dataset),
                     "--out", str(out)])

    return run, cache


def test_extract_through_engines_warm_rerun_reads_the_cache(tmp_path, engine_extract):
    run, cache = engine_extract
    assert run(tmp_path / "cold.jsonl") == 0
    size = cache.stat().st_size
    assert size > 0
    assert run(tmp_path / "warm.jsonl") == 0
    assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
    assert cache.stat().st_size == size


def test_extract_survives_a_torn_cache_tail(tmp_path, engine_extract):
    run, cache = engine_extract
    assert run(tmp_path / "full.jsonl") == 0
    whole = cache.read_bytes()
    cache.write_bytes(whole[:-40])  # inside the last record
    assert run(tmp_path / "again.jsonl") == 0
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()
    size = cache.stat().st_size
    assert run(tmp_path / "third.jsonl") == 0
    assert (tmp_path / "third.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()
    assert cache.stat().st_size == size


def test_extract_fetches_a_non_finite_cached_value_again(tmp_path, engine_extract):
    run, cache = engine_extract
    assert run(tmp_path / "cold.jsonl") == 0
    lines = cache.read_text().splitlines()
    for i, spelling in zip((0, len(lines) // 2, -1), ("NaN", "Infinity", "-Infinity")):
        lines[i] = lines[i][:lines[i].rindex('"v": ')] + f'"v": {spelling}}}'
    cache.write_text("\n".join(lines) + "\n")
    assert run(tmp_path / "again.jsonl") == 0
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
    assert cache.read_text().splitlines()[:len(lines)] == lines
    assert len(cache.read_text().splitlines()) == len(lines) + 3


def test_extract_fetches_a_cached_prior_outside_the_floor_range_again(tmp_path,
                                                                      engine_extract):
    run, cache = engine_extract
    assert run(tmp_path / "cold.jsonl") == 0
    lines = cache.read_text().splitlines()
    policy = [i for i, line in enumerate(lines) if '"k": "policy"' in line]
    for i, value in zip((policy[0], policy[len(policy) // 2], policy[-1]), ("0.0", "-0.5", "1.5")):
        lines[i] = lines[i][:lines[i].rindex('"v": ')] + f'"v": {value}}}'
    cache.write_text("\n".join(lines) + "\n")
    assert run(tmp_path / "again.jsonl") == 0
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
    assert cache.read_text().splitlines()[:len(lines)] == lines
    assert len(cache.read_text().splitlines()) == len(lines) + 3


@pytest.mark.parametrize("field, value", [
    ("state", [1, 2]),
    ("state", {"x": 1}),
    ("state", 7),
    ("state", None),
    ("move", 5),
], ids=["state-list", "state-object", "state-number", "state-null", "move-number"])
def test_extract_with_a_non_string_state_exits_two(tmp_path, capsys, engine_extract,
                                                  field, value):
    run, _ = engine_extract
    dataset = tmp_path / "data.jsonl"
    lines = dataset.read_text().splitlines()
    point = json.loads(lines[1])
    point["moves"][3][field] = value
    lines[1] = json.dumps(point)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(tmp_path / "store.jsonl") == 2
    err = capsys.readouterr().err
    assert f"data error: {dataset}:2: bad data point" in err
    assert "Traceback" not in err


def test_extract_through_engines_opens_one_response_cache(tmp_path, monkeypatch,
                                                          engine_extract):
    run, _ = engine_extract
    opened = []

    class CountingCache(cli.ResponseCache):
        def __init__(self, path):
            opened.append(path)
            super().__init__(path)

    monkeypatch.setattr(cli, "ResponseCache", CountingCache)
    assert run(tmp_path / "store.jsonl") == 0
    assert len(opened) == 1


def test_extract_through_an_engine_of_malformed_answers_exits_two(tmp_path, capsys,
                                                                  monkeypatch):
    code = "import sys\nfor line in sys.stdin:\n    print('[1]', flush=True)\n"
    engine = f"{sys.executable} -c {shlex.quote(code)}"
    config = tmp_path / "engine.toml"
    config.write_text(TINY_SYNTH + "\n[backends]\n" + "".join(
        f"{role} = {json.dumps(engine)}\n" for role in ("strength", "policy", "value")))
    dataset = tmp_path / "data.jsonl"
    assert main(["synth", "--config", str(config), "--matches", "2",
                 "--out", str(dataset)]) == 0
    monkeypatch.delenv("RANKFORGE_CACHE", raising=False)
    capsys.readouterr()
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(tmp_path / "store.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "data error: every data point was dropped" in err
    assert "malformed backend response" in err


def test_extract_drops_the_data_point_of_a_nan_engine_answer(tmp_path, monkeypatch,
                                                            mock_backend_cmd):
    engine = mock_backend_cmd("nan x-g1-m00000:")
    config = tmp_path / "engine.toml"
    config.write_text(TINY_SYNTH + "\n[backends]\n" + "".join(
        f"{role} = '{engine}'\n" for role in ("strength", "policy", "value")))
    dataset = tmp_path / "data.jsonl"
    assert main(["synth", "--config", str(config), "--matches", "2", "--tag", "x",
                 "--out", str(dataset)]) == 0
    monkeypatch.delenv("RANKFORGE_CACHE", raising=False)
    drops = tmp_path / "drops.json"
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(tmp_path / "store.jsonl"), "--drops", str(drops)]) == 0
    (dropped,) = json.loads(drops.read_text())["dropped"]
    assert dropped["match_id"] == "x-g1-m00000"
    assert dropped["reason"].startswith("backend_error:malformed backend response")
    _, rows = read_feature_store(tmp_path / "store.jsonl")
    assert len(rows) == 5


# Per game: the [features] loss selection, the SHA-256 of the feature store
# that `ingest` and `extract` write for the corpus games through the mock
# engine, and the drop report's clamp count.  The mock's win rates lie in
# [-2, 2], so the chess logit clamps most of them.
CORPUS_STORES = {
    "go": ('[["mean", 100], ["median", "all"]]',
           "f827410e49a0e735ef5c040eacefab37b97ca7314630b2f95c88e0d574fb319e", 0),
    "chess": ('[["mean", 50], ["std", 50]]',
              "a7b6158a3961661f74aae091809cd955c353c8d308c038a4055c45ed8e0832fb", 2102),
}


@pytest.mark.parametrize("game", sorted(CORPUS_STORES))
def test_corpus_store_through_the_mock_engine_is_pinned(tmp_path, monkeypatch, corpus_dir,
                                                        mock_backend_cmd, game):
    loss_selected, expected, clamps = CORPUS_STORES[game]
    records = tmp_path / "records"
    records.mkdir()
    for src in sorted(corpus_dir.glob("*.sgf" if game == "go" else "*.pgn")):
        (records / src.name).write_bytes(src.read_bytes())
    engine = mock_backend_cmd("inorder")
    config = tmp_path / "engine.toml"
    config.write_text(
        f'[features]\ngame = "{game}"\npolicy_levels = ["a", "b"]\n'
        f"loss_selected = {loss_selected}\n\n[backends]\n"
        + "".join(f"{role} = '{engine}'\n" for role in ("strength", "policy", "value")))
    dataset, store, drops = tmp_path / "data.jsonl", tmp_path / "store.jsonl", tmp_path / "d.json"
    monkeypatch.delenv("RANKFORGE_CACHE", raising=False)
    assert main(["ingest", "--game", game, "--records-dir", str(records),
                 "--out", str(dataset)]) == 0
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(store), "--drops", str(drops)]) == 0
    report = json.loads(drops.read_text())
    assert not report["dropped"]
    assert report["winrate_clamps"] == clamps
    assert hashlib.sha256(store.read_bytes()).hexdigest() == expected


def test_report_loss_traces_without_value_backend_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_text(
        TINY_SYNTH.replace('loss_selected = [["mean", 10], ["std", "all"]]',
                           "include_loss = false")
        + "\n[backends]\nstrength = 'builtin:synthetic'\npolicy = 'builtin:synthetic'\n")
    dataset = tmp_path / "data.jsonl"
    store = tmp_path / "store.jsonl"
    assert main(["synth", "--config", str(config), "--matches", "4", "--out", str(dataset)]) == 0
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(store)]) == 0
    capsys.readouterr()
    assert main(["report", "--features", str(store), "--out", str(tmp_path / "plots"),
                 "--dataset", str(dataset), "--config", str(config)]) == 1
    assert "config error" in capsys.readouterr().err


# a line nested deeper than the JSON reader recurses
DEEP = b"[" * 100_000
GO_POINT = {"match_id": "m", "player_id": "p", "side": "black", "game": "go",
            "group_index": 0, "moves": [{"ply": 1, "state": ".", "move": "aa"}]}
STORE_CONFIG = FeatureConfig(game="go", include_priors=False, include_loss=False)
STORE_HEADER = json.dumps({"schema": {"schema_id": STORE_CONFIG.schema_id(),
                                      "config": STORE_CONFIG.to_dict()}})
STORE_ROW = {"match_id": "m", "player_id": "p", "side": "black", "group_index": 0,
             "schema_id": STORE_CONFIG.schema_id(), "features": [1.0]}
STUMP = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
         "right": [2, -1, -1], "value": [0.0, 0.0, 1.0]}


def _model_line(tree):
    return json.dumps({"format": "rankforge-gbdt/1", "base_score": 0.0, "params": {},
                       "n_features": 2, "trees": [tree]}).encode()


@pytest.mark.parametrize("command, name, content, line", [
    ("extract", "data.jsonl", b"[1,2]\n", 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "moves": 5}).encode(), 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "group_index": 99}).encode(), 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "group_index": -1}).encode(), 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "group_index": 11}).encode(), 1),
    ("extract", "data.jsonl",
     json.dumps({**GO_POINT, "game": "chess", "group_index": 8}).encode(), 1),
    ("extract", "data.jsonl",
     json.dumps({**GO_POINT, "game": "synthetic", "group_index": -1}).encode(), 1),
    ("extract", "data.jsonl", b"\xff\xfe", 1),
    ("train", "store.jsonl", b"\xff\xfe", 1),
    ("eval", "model.json", b'{"format": "rankforge-gbdt/1"', 1),
    ("eval", "model.json", b'{"format": "rankforge-gbdt/1"}', 1),
    ("extract", "cache.jsonl", b"\xff\xfe", 1),
    ("extract", "data.jsonl", DEEP, 1),
    ("train", "store.jsonl", DEEP, 1),
    ("eval", "model.json", DEEP, 1),
    ("extract", "cache.jsonl", DEEP + b"\n{}\n", 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "moves": []}).encode(), 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "moves": [
        {"ply": 3, "state": ".", "move": "aa"}, {"ply": 1, "state": ".", "move": "bb"}]}).encode(),
     1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "match_id": 7}).encode(), 1),
    ("train", "store.jsonl",
     (STORE_HEADER + "\n" + json.dumps({**STORE_ROW, "player_id": ["p"]})).encode(), 2),
    ("extract", "data.jsonl", json.dumps(GO_POINT).replace('"ply": 1', '"ply": 1e400').encode(),
     1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "moves": [
        {"ply": 1.9, "state": ".", "move": "aa"}]}).encode(), 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "moves": [
        {"ply": "2", "state": ".", "move": "aa"}]}).encode(), 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "group_index": True}).encode(), 1),
    ("extract", "data.jsonl", json.dumps({**GO_POINT, "side": "green"}).encode(), 1),
    ("train", "store.jsonl",
     (STORE_HEADER + "\n" + json.dumps({**STORE_ROW, "group_index": True})).encode(), 2),
    ("train", "store.jsonl",
     (STORE_HEADER + "\n" + json.dumps({**STORE_ROW, "group_index": 1.5})).encode(), 2),
    ("train", "store.jsonl",
     (STORE_HEADER + "\n" + json.dumps({**STORE_ROW, "side": "green"})).encode(), 2),
    ("eval", "model.json", b'{"format": "rankforge-gbdt/1", "base_score": 0, "trees": [], '
                           b'"params": {}, "n_features": 1e400}', 1),
    ("eval", "model.json", _model_line({**STUMP, "value": [0.0]}), 1),
    ("eval", "model.json", _model_line({name: [] for name in STUMP}), 1),
    ("eval", "model.json", _model_line({**STUMP, "feature": [2, -1, -1]}), 1),
    ("eval", "model.json", _model_line({**STUMP, "feature": [-2, -1, -1]}), 1),
    ("eval", "model.json", _model_line({**STUMP, "right": [3, -1, -1]}), 1),
], ids=["datapoint-not-object", "datapoint-moves-not-list", "datapoint-group-out-of-range",
        "datapoint-go-group-below-0", "datapoint-go-group-11", "datapoint-chess-group-8",
        "datapoint-synthetic-group-below-0",
        "dataset-not-utf8", "store-not-utf8", "model-cut", "model-without-fields",
        "cache-not-utf8", "dataset-deep", "store-deep", "model-deep", "cache-deep-not-last",
        "datapoint-no-moves", "datapoint-plies-not-increasing", "datapoint-match-id-not-string",
        "store-player-id-list", "datapoint-ply-1e400", "datapoint-ply-not-integer",
        "datapoint-ply-string", "datapoint-group-bool", "datapoint-side-unknown",
        "store-group-bool", "store-group-not-integer", "store-side-unknown",
        "model-n-features-1e400", "model-tree-lengths-differ", "model-tree-empty",
        "model-feature-past-n-features", "model-feature-below-leaf", "model-child-past-the-tree"])
def test_bad_artifact_exits_two_naming_the_line(tmp_path, capsys, monkeypatch,
                                                mock_backend_cmd, command, name, content, line):
    bad = tmp_path / name
    bad.write_bytes(content)
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    if name == "cache.jsonl":
        engine = mock_backend_cmd("inorder")
        config.write_text(TINY_SYNTH + "\n[backends]\n" + "".join(
            f"{role} = '{engine}'\n" for role in ("strength", "policy", "value")))
        monkeypatch.setenv("RANKFORGE_CACHE", str(bad))
    dataset = tmp_path / "data.jsonl"
    if not dataset.exists():
        dataset.write_text("")
    argv = {
        "extract": ["extract", "--config", str(config), "--dataset", str(dataset),
                    "--out", str(tmp_path / "out.jsonl")],
        "train": ["train", "--features", str(bad), "--n", "1",
                  "--out", str(tmp_path / "m.json")],
        "eval": ["eval", "--n", "1", "--model", str(bad),
                 "--features", str(tmp_path / "store.jsonl"), "--out", str(tmp_path / "rep")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{bad}:{line}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("ply", ["99", "9" * 23], ids=["past-the-match", "past-int64"])
def test_synthetic_ply_past_the_match_exits_two_naming_the_state(tmp_path, capsys, ply):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "data.jsonl"
    assert main(["synth", "--config", str(config), "--matches", "2", "--out", str(dataset)]) == 0
    lines = dataset.read_text().splitlines()
    point = json.loads(lines[0])
    state = f"syn:{point['match_id']}:{ply}"
    point["moves"][3]["state"] = state
    lines[0] = json.dumps(point)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(tmp_path / "store.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"data error: state {state!r} is outside plies 1-20 of a match" in err


@pytest.mark.parametrize("field, value", [
    ("move", "x"),
    ("move", None),
    ("state", "bogus"),
    ("state", 7),
    ("state", "syn:{uid}:99"),
], ids=["move-not-integer", "move-null", "state-not-synthetic", "state-not-string",
        "state-past-the-match"])
def test_bad_synthetic_move_or_state_exits_two(tmp_path, capsys, field, value):
    config = tmp_path / "run.toml"
    config.write_text(TINY_SYNTH)
    dataset = tmp_path / "data.jsonl"
    assert main(["synth", "--config", str(config), "--matches", "2", "--out", str(dataset)]) == 0
    lines = dataset.read_text().splitlines()
    point = json.loads(lines[1])
    if isinstance(value, str):
        value = value.format(uid=point["match_id"])
    point["moves"][3][field] = value
    lines[1] = json.dumps(point)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["extract", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(tmp_path / "store.jsonl")]) == 2
    assert "data error" in capsys.readouterr().err
