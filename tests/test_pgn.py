import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from helpers.oracles import perft, reference_legal_moves, reference_parse_san, reference_to_san

from rankforge.errors import DataError, ParseError
from rankforge.records import iter_pgn_games, parse_pgn, serialize_pgn
from rankforge.records.chess_rules import (
    INITIAL_FEN,
    Move,
    Position,
    parse_san,
    to_san,
)
from rankforge.records.pgn import parse_pgn_collection
from rankforge.records.types import BLACK, WHITE, Termination

MINIMAL = """[White "w"]
[Black "b"]
[WhiteElo "1500"]
[BlackElo "1510"]
[Result "*"]

1. e4 e5 2. Nf3 *
"""


def test_minimal_game_plies_and_ratings():
    record = parse_pgn(MINIMAL)
    assert len(record.plies) == 3
    assert record.white_label == "1500"
    assert record.black_label == "1510"
    assert record.plies[0].mover == WHITE
    assert record.plies[0].move == "e2e4"
    assert record.plies[1].mover == BLACK
    assert record.plies[2].move == "g1f3"


def test_castling_encodes_king_two_square_move():
    text = '[Result "*"]\n\n1. e4 e5 2. Nf3 Nc6 3. Bc4 Bc5 4. O-O *\n'
    record = parse_pgn(text)
    assert record.plies[-1].move == "e1g1"


def test_illegal_san_names_move_number():
    text = '[Result "*"]\n\n1. e4 e5 2. Ke3 *\n'
    with pytest.raises(ParseError) as exc_info:
        parse_pgn(text)
    assert "move 2" in str(exc_info.value)


def test_unknown_tags_ignored():
    text = '[Opening "Kings Pawn"]\n[Weird "x"]\n[Result "*"]\n\n1. e4 *\n'
    record = parse_pgn(text)
    assert len(record.plies) == 1


def test_comments_nags_variations_skipped():
    text = (
        '[Result "*"]\n\n'
        "1. e4 {best by test} e5 $1 2. Nf3 (2. f4 {gambit} exf4) 2... Nc6 *\n"
    )
    record = parse_pgn(text)
    assert [p.move for p in record.plies] == ["e2e4", "e7e5", "g1f3", "b8c6"]


@pytest.mark.parametrize("text,expected", [
    ("1. e4 (1. d4 ; c) e5 *", [({}, ["e4", "e5"], "*")]),
    ("1. e4 (1. d4 {c ) e5 *", "unterminated comment"),
    ("1. e4$1 e5 *", [({}, ["e4$1", "e5"], "*")]),
    ('1. e4 [White "x"] 1. d4 *', [({}, ["e4"], None), ({"White": "x"}, ["d4"], "*")]),
    ("1. e4 $ e5 *", [({}, ["e4", "e5"], "*")]),
], ids=["semicolon-in-variation", "comment-cut-off-in-variation", "nag-glued-to-a-move",
        "tags-after-movetext", "nag-without-digits"])
def test_movetext_edge_cases_keep_their_outcome(text, expected):
    if isinstance(expected, list):
        assert list(iter_pgn_games(text)) == expected
    else:
        with pytest.raises(ParseError, match=expected):
            list(iter_pgn_games(text))


_PGN_TEXT = st.text(alphabet='(){}[];$"\n 1.-*/0e4d5Nf3xO=Qab', max_size=50)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(_PGN_TEXT, _PGN_TEXT.map(lambda body: '[Result "*"]\n\n1. e4 ' + body)))
def test_text_over_the_delimiters_parses_or_raises_parse_error(text):
    try:
        parse_pgn_collection(text)
    except ParseError as exc:
        assert exc.offset is None or 0 <= exc.offset <= len(text)


def test_termination_tags():
    base = '[Result "1-0"]\n[Termination "{}"]\n\n1. e4 e5 2. Nf3 1-0\n'
    assert parse_pgn(base.format("Time forfeit")).termination == Termination.TIMEOUT
    assert parse_pgn(base.format("Abandoned")).termination == Termination.DISCONNECT
    assert parse_pgn(base.format("Normal")).termination == Termination.RESIGN


def test_checkmate_detected_from_final_position():
    text = '[Result "1-0"]\n\n1. e4 e5 2. Qh5 Nc6 3. Bc4 Nf6 4. Qxf7# 1-0\n'
    record = parse_pgn(text)
    assert record.termination == Termination.CHECKMATE


def test_draw_termination():
    text = '[Result "1/2-1/2"]\n\n1. e4 e5 1/2-1/2\n'
    assert parse_pgn(text).termination == Termination.DRAW


def test_date_and_time_control_mapped():
    text = (
        '[Date "2024.02.15"]\n[TimeControl "180+2"]\n[Result "*"]\n\n1. e4 *\n'
    )
    record = parse_pgn(text)
    assert record.date.isoformat() == "2024-02-15"
    assert record.time_control == "180+2"


def test_multi_game_collection():
    text = MINIMAL + "\n" + '[White "c"]\n[Black "d"]\n[Result "0-1"]\n\n1. d4 d5 0-1\n'
    records = parse_pgn_collection(text)
    assert len(records) == 2
    assert records[1].plies[0].move == "d2d4"
    with pytest.raises(ParseError):
        parse_pgn(text)


def test_setup_fen_flagged():
    text = (
        '[SetUp "1"]\n[FEN "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1"]\n'
        '[Result "*"]\n\n1. Rb3 *\n'
    )
    record = parse_pgn(text)
    assert record.setup
    assert record.plies[0].state_before.startswith("8/2p5/3p4/KP5r")


def test_san_disambiguation_parse_and_render():
    # knights on c3 and e3 both reach d5: file disambiguation required
    pos = Position.from_fen("rnbqkbnr/ppp1pppp/8/3p4/8/2N1N3/PPPPPPPP/R1BQKB1R w KQkq - 0 3")
    move = parse_san(pos, "Nexd5")
    assert move.uci() == "e3d5"
    with pytest.raises(ParseError):
        parse_san(pos, "Nxd5")  # ambiguous
    rendered = to_san(pos, Move.from_uci("c3d5"))
    assert rendered.startswith("Ncxd5")


def test_san_rank_disambiguation():
    pos = Position.from_fen("k7/8/8/8/R7/8/R7/4K3 w - - 0 1")
    assert parse_san(pos, "R4a3").uci() == "a4a3"
    assert parse_san(pos, "R2a3").uci() == "a2a3"
    assert to_san(pos, Move.from_uci("a4a3")) in ("R4a3", "R4a3+")
    with pytest.raises(ParseError):
        parse_san(pos, "Ra3")


# ---------------------------------------------------------------------------
# independent replay oracle: a second, dictionary-based board tracker


def _replay_board(moves):
    """Apply from-to(-promo) moves on a plain dict board, independently of
    the production move generator."""
    files = "abcdefgh"
    board = {}
    for f in range(8):
        board[(f, 1)] = "P"
        board[(f, 6)] = "p"
    for f, piece in enumerate("RNBQKBNR"):
        board[(f, 0)] = piece
        board[(f, 7)] = piece.lower()
    for uci in moves:
        ff, fr = files.index(uci[0]), int(uci[1]) - 1
        tf, tr = files.index(uci[2]), int(uci[3]) - 1
        piece = board.pop((ff, fr))
        if piece in "Pp" and tf != ff and (tf, tr) not in board:
            del board[(tf, fr)]  # en passant: captured pawn sits beside
        if piece == "K" and abs(tf - ff) == 2:
            rook_from = (7, 0) if tf > ff else (0, 0)
            rook_to = (5, 0) if tf > ff else (3, 0)
            board[rook_to] = board.pop(rook_from)
        if piece == "k" and abs(tf - ff) == 2:
            rook_from = (7, 7) if tf > ff else (0, 7)
            rook_to = (5, 7) if tf > ff else (3, 7)
            board[rook_to] = board.pop(rook_from)
        if len(uci) == 5:
            piece = uci[4].upper() if piece.isupper() else uci[4].lower()
        board[(tf, tr)] = piece
    return board


def _placement_of(fen):
    board = {}
    for r, row in enumerate(fen.split()[0].split("/")):
        f = 0
        for ch in row:
            if ch.isdigit():
                f += int(ch)
            else:
                board[(f, 7 - r)] = ch
                f += 1
    return board


def test_promo_ep_game_matches_independent_replay(corpus_dir):
    path = corpus_dir / "chess_promo_ep_40ply.pgn"
    record = parse_pgn(path.read_text())
    assert len(record.plies) == 40
    moves = [p.move for p in record.plies]
    assert any(len(m) == 5 for m in moves), "needs a promotion"
    for i in range(1, len(record.plies)):
        expected = _replay_board(moves[:i])
        got = _placement_of(record.plies[i].state_before)
        assert got == expected, f"divergence after ply {i}"


def test_perft_reference_counts():
    assert perft(Position.initial(), 3) == 8902
    kiwipete = Position.from_fen(
        "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1"
    )
    assert perft(kiwipete, 2) == 2039
    assert perft(kiwipete, 3) == 97862
    endgame = Position.from_fen("8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1")
    assert perft(endgame, 3) == 2812
    assert perft(endgame, 4) == 43238
    promos = Position.from_fen(
        "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1"
    )
    assert perft(promos, 2) == 264
    assert perft(promos, 3) == 9467
    position5 = Position.from_fen("rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8")
    assert perft(position5, 3) == 62379


@pytest.mark.parametrize("fen", [
    "4k3/8/8/8/8/8/8/8 w - - 0 1",
    "4k3/8/8/8/8/8/8/k3K3 w - - 0 1",
    "4k3/8/8/8/8/8/8/P3K3 w - - 0 1",
    "3pk3/8/8/8/8/8/8/4K3 b - - 0 1",
    "4k3/8/8/8/8/8/8/4K3 w - - 0 x",
    "4k3/8/8/8/8/8/8/4K3 x - - 0 1",
    "4k3/8/8/8/8/8/8/4K3 w Zq - 0 1",
    "4k3/8/8/8/8/8/8/4K3 w KK - 0 1",
], ids=["no-white-king", "two-black-kings", "pawn-on-rank-1", "pawn-on-rank-8",
        "move-counter-not-a-number", "side-to-move-not-w-or-b", "castling-letter-not-kqkq",
        "castling-letter-repeated"])
def test_from_fen_rejects_a_position_replay_cannot_work_on(fen):
    with pytest.raises(DataError):
        Position.from_fen(fen)


def test_fen_round_trip():
    fen = "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8"
    assert Position.from_fen(fen).to_fen() == fen
    assert Position.initial().to_fen() == INITIAL_FEN


def test_fen_round_trip_keeps_every_field(game_positions):
    for pos in game_positions:
        back = Position.from_fen(pos.to_fen())
        assert back.board == pos.board
        assert (back.white_to_move, back.castling, back.ep, back.halfmove, back.fullmove) == (
            pos.white_to_move, pos.castling, pos.ep, pos.halfmove, pos.fullmove)


def test_corpus_round_trip_identity(corpus_dir):
    files = sorted(corpus_dir.glob("*.pgn"))
    assert len(files) >= 25
    for path in files:
        first = parse_pgn(path.read_text())
        second = parse_pgn(serialize_pgn(first))
        assert second == first, path.name


# ---------------------------------------------------------------------------
# the replay against make-and-check references on every move

MAKE_CORPUS = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"

REFERENCE_FENS = {
    "kiwipete": "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
    "endgame": "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
    "promotions": "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1",
    # dxc6 e.p. would empty c5 and open the e7-a3 diagonal to the king;
    # d5 itself shares no line with a3
    "en-passant-pin": "8/4b3/8/2pP4/8/K7/8/7k w - c6 0 2",
    # both knights reach f3, but d2 is pinned: "Nf3" needs no disambiguation
    "pinned-knight": "4k3/8/8/6N1/1b6/8/3N4/4K3 w - - 0 1",
}

# Illegal, ambiguous, castling, promotion, en-passant and unreadable tokens
SAN_TOKENS = (
    "O-O", "O-O-O", "0-0", "0-0-0", "O-O+", "Kg1", "Kc1", "Ke2", "Kb4", "Kxe8",
    "Nf3", "Nc3", "Nd5", "Nxd5", "Ncxd5", "Nexd5", "Ng1f3", "N1f3", "Nbd2",
    "Bb5+", "Bxf7+!?", "Bd3", "Rxe8", "Rb3", "R1a3", "Ra3", "Rad1", "Rfe1",
    "Qh5", "Qxf7#", "Qd2", "e4", "e5", "a3", "exd5", "exd6", "dxc6", "dxc6 e.p.",
    "dxc6e.p.", "bxa8=Q", "bxa8=N+", "b1=Q", "axb1Q", "e8=Q", "e8", "g8=K",
    "Zz9", "", "e9",
)


def _make_corpus():
    spec = importlib.util.spec_from_file_location("make_corpus", MAKE_CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_positions(child_step=1):
    """The roots above and every ``child_step``-th position one legal move
    from them."""
    positions = []
    for fen in REFERENCE_FENS.values():
        root = Position.from_fen(fen)
        positions.append(root)
        positions.extend(root.make(m) for m in reference_legal_moves(root)[::child_step])
    return positions


@pytest.fixture(scope="module")
def game_positions():
    """Every position of four seeded random games, two of them pawn-biased
    for promotions and en passant."""
    corpus = _make_corpus()
    positions = []
    for seed in range(4):
        _, plies = corpus.random_chess_record(random.Random(seed), 120,
                                              pawn_bias=0.75 if seed % 2 else 0.0)
        positions.extend(Position.from_fen(p.state_before) for p in plies)
    return positions


def _outcome(parse, pos, token):
    try:
        return parse(pos, token).uci()
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_legal_moves_equal_make_and_check_on_every_pseudo_move(game_positions):
    pinned = checked = en_passant = 0
    for pos in game_positions + _reference_positions():
        expected = reference_legal_moves(pos)
        assert pos.legal_moves() == expected, pos.to_fen()
        checked += pos.in_check()
        pinned += not pos.in_check() and any(
            pos.board[m.from_sq].upper() != "K" and not pos.is_legal(m)
            for m in pos.pseudo_moves())
        en_passant += pos.ep is not None
    # the positions reach every branch of the fast path's precondition
    assert checked and pinned and en_passant


def test_parse_san_equals_the_reference_move_or_error():
    for pos in _reference_positions(child_step=2):
        rendered = [reference_to_san(pos, m) for m in reference_legal_moves(pos)]
        for token in (*SAN_TOKENS, *rendered):
            assert _outcome(parse_san, pos, token) == _outcome(reference_parse_san, pos, token), \
                (pos.to_fen(), token)


def test_en_passant_that_opens_a_line_to_the_king_is_illegal():
    pos = Position.from_fen(REFERENCE_FENS["en-passant-pin"])
    assert "d5c6" in [m.uci() for m in pos.pseudo_moves()]
    assert "d5c6" not in [m.uci() for m in pos.legal_moves()]
    with pytest.raises(ParseError, match="illegal move"):
        parse_san(pos, "dxc6")


def test_to_san_equals_the_reference_on_every_move(game_positions):
    for pos in game_positions[::5] + _reference_positions(child_step=2):
        for move in reference_legal_moves(pos):
            assert to_san(pos, move) == reference_to_san(pos, move), (pos.to_fen(), move)
