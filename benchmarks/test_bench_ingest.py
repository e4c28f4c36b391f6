"""Ingest microbenchmarks on pinned corpora.

    python3 -m pytest benchmarks --benchmark-only

The chess corpus is 40 seeded random legal games of 30 to 69 plies that
the default filter accepts, the Go corpus 20 seeded random legal games of
60 to 139 plies, each written as the records-engine benchmark writes its
corpus (workload seed 0), one PGN or SGF file per game.  Two benchmarks
time ``cli.ingest_directory`` on them: PGN parsing and SAN replay, and SGF
parsing and board replay.  One times writing the 40 chess games: random
legal playouts, the filter and ``serialize_pgn``.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from rankforge import cli
from rankforge.records import FilterConfig, filter_match, serialize_pgn, serialize_sgf

CORPUS_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"
GAMES, GO_GAMES, SEED = 40, 20, 0


def _corpus_module():
    spec = importlib.util.spec_from_file_location("make_corpus", CORPUS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _chess_games(corpus):
    texts = []
    for i in range(GAMES):
        rng = random.Random(f"chess/{SEED}/{i}")
        while True:
            record, _ = corpus.random_chess_record(rng, rng.randrange(30, 70))
            if filter_match(record).accepted:
                break
        texts.append(serialize_pgn(record))
    return texts


def _go_games(corpus):
    texts = []
    for i in range(GO_GAMES):
        rng = random.Random(f"go/{SEED}/{i}")
        record = corpus.random_go_record(rng, rng.randrange(60, 140),
                                         rng.choice(["B+Resign", "W+Resign", "B+3.5"]))
        texts.append(serialize_sgf(record))
    return texts


@pytest.fixture(scope="module")
def corpus():
    return _corpus_module()


def test_write_40_chess_games(benchmark, corpus):
    texts = benchmark.pedantic(_chess_games, args=(corpus,), rounds=3, iterations=1)
    assert len(texts) == GAMES


def test_ingest_40_chess_games(benchmark, corpus, tmp_path):
    for i, text in enumerate(_chess_games(corpus)):
        (tmp_path / f"chess_{i:03d}.pgn").write_text(text)
    datapoints, drops = benchmark.pedantic(
        cli.ingest_directory, args=(tmp_path, "chess", FilterConfig()), rounds=5, iterations=1)
    assert len(datapoints) == 2 * GAMES and not drops


def test_ingest_20_go_games(benchmark, corpus, tmp_path):
    for i, text in enumerate(_go_games(corpus)):
        (tmp_path / f"go_{i:03d}.sgf").write_text(text)
    datapoints, drops = benchmark.pedantic(
        cli.ingest_directory, args=(tmp_path, "go", FilterConfig()), rounds=5, iterations=1)
    assert len(datapoints) == 2 * GO_GAMES and not drops
