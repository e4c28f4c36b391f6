import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rankforge.errors import ParseError
from rankforge.records import parse_sgf, serialize_sgf
from rankforge.records.types import BLACK, WHITE, Termination

MINIMAL = "(;GM[1]SZ[19]PB[a]BR[9d]PW[b]WR[9d];B[pd];W[dp])"


def test_minimal_game():
    record = parse_sgf(MINIMAL)
    assert len(record.plies) == 2
    assert record.black_label == "9d"
    assert record.white_label == "9d"
    assert record.plies[0].mover == BLACK
    assert record.plies[0].move == "pd"
    assert record.plies[1].mover == WHITE
    assert record.plies[0].index == 1
    assert record.plies[1].index == 2


def test_resign_result_maps_to_resign():
    record = parse_sgf("(;GM[1]SZ[19]BR[3d]WR[3d]RE[B+Resign];B[pd];W[dp])")
    assert record.termination == Termination.RESIGN


@pytest.mark.parametrize(
    "result,expected",
    [
        ("W+R", Termination.RESIGN),
        ("B+3.5", Termination.PASS_PASS),
        ("W+0.5", Termination.PASS_PASS),
        ("Draw", Termination.DRAW),
        ("B+Time", Termination.TIMEOUT),
        ("W+T", Termination.TIMEOUT),
        ("B+Forfeit", Termination.DISCONNECT),
        ("?", Termination.OTHER),
        ("Void", Termination.OTHER),
    ],
)
def test_result_termination_mapping(result, expected):
    record = parse_sgf(f"(;GM[1]SZ[19]BR[1d]WR[1d]RE[{result}];B[pd];W[dp])")
    assert record.termination == expected


def test_pass_moves_preserved():
    record = parse_sgf("(;GM[1]SZ[19]BR[1d]WR[1d];B[pd];W[];B[tt])")
    assert record.plies[1].move == "pass"
    assert record.plies[2].move == "pass"


def test_variations_ignored_not_errors():
    text = "(;GM[1]SZ[19]BR[5d]WR[5d];B[pd](;W[dp];B[pp])(;W[dd];B[qq]))"
    record = parse_sgf(text)
    assert [p.move for p in record.plies] == ["pd", "dp", "pp"]


def test_deep_main_line_parses_without_recursion():
    depth = 5000
    opens = "".join(f"(;{'BW'[i % 2]}[]" for i in range(depth))
    # every seventh tree on the way out has a sibling variation to skip
    closes = "".join(")" + ("(;W[cc])" if i % 7 == 0 else "") for i in range(depth))
    text = "(;GM[1]SZ[19]BR[1d]WR[1d]" + opens + closes + ")"
    record = parse_sgf(text)
    assert len(record.plies) == depth
    assert {p.move for p in record.plies} == {"pass"}
    with pytest.raises(ParseError, match="unbalanced parentheses"):
        parse_sgf(text[:-1])


def test_unbalanced_parentheses_error_with_offset():
    with pytest.raises(ParseError) as exc_info:
        parse_sgf("(;GM[1]SZ[19]BR[1d]WR[1d];B[pd]")
    assert exc_info.value.offset is not None


def test_missing_move_property_is_error():
    with pytest.raises(ParseError):
        parse_sgf("(;GM[1]SZ[19]BR[1d]WR[1d];B[pd];C[only a comment])")


def test_handicap_setup_flagged():
    record = parse_sgf("(;GM[1]SZ[19]HA[2]AB[pd][dp]BR[1d]WR[3d];W[dd];B[pp])")
    assert record.setup


def test_broken_alternation_flagged_as_setup():
    record = parse_sgf("(;GM[1]SZ[19]BR[1d]WR[1d];B[pd];B[dp])")
    assert record.setup


def test_wrong_board_size_rejected():
    with pytest.raises(ParseError):
        parse_sgf("(;GM[1]SZ[9]BR[1d]WR[1d];B[aa])")


def test_missing_rank_labels_become_placeholder():
    record = parse_sgf("(;GM[1]SZ[19];B[pd];W[dp])")
    assert record.black_label == "?"
    assert record.white_label == "?"


def test_date_parsed():
    record = parse_sgf("(;GM[1]SZ[19]BR[1d]WR[1d]DT[2017-03-04];B[pd];W[dp])")
    assert record.date is not None
    assert record.date.year == 2017


def test_escaped_property_values():
    record = parse_sgf("(;GM[1]SZ[19]PB[we \\] win]BR[1d]WR[1d];B[pd];W[dp])")
    assert record.black_player == "we ] win"
    again = parse_sgf(serialize_sgf(record))
    assert again == record


def test_capture_reflected_in_states():
    # white stone at a1 captured by black b1+a2
    text = "(;GM[1]SZ[19]BR[1d]WR[1d];B[ba];W[aa];B[ab];W[sa])"
    record = parse_sgf(text)
    state_before_last = record.plies[3].state_before
    board = state_before_last.split("|")[0].split("/")
    assert board[0][0] == "."  # the white stone at column a, row a is gone


def test_corpus_round_trip_identity(corpus_dir):
    files = sorted(corpus_dir.glob("*.sgf"))
    assert len(files) >= 25
    for path in files:
        first = parse_sgf(path.read_text())
        second = parse_sgf(serialize_sgf(first))
        assert second == first, path.name


def test_211_ply_game_round_trips_move_list(corpus_dir):
    path = next(corpus_dir.glob("go_00_211ply.sgf"))
    record = parse_sgf(path.read_text())
    assert len(record.plies) == 211
    again = parse_sgf(serialize_sgf(record))
    assert [p.move for p in again.plies] == [p.move for p in record.plies]
    assert again == record


HEAD = "(;GM[1]SZ[19]"


@pytest.mark.parametrize("text,expected", [
    (HEAD + ";B[pd];C[abc", "unterminated property value"),
    (HEAD + ";B[pd];C[ab\\", "unterminated property value"),
    (HEAD + ";B[pd](;W[dp];B[pp])(;W[dd]\\(;B[qq]))", ["pd", "dp", "pp"]),
    (HEAD + ";B[pd](;W[dp];B[pp])(;W[dd]C[ab", "unterminated property value"),
    (HEAD + "éX[a];B[pd];W[dp])", ["pd", "dp"]),
    (HEAD + "B½[a];B[pd])", "property B without value"),
    (HEAD + "Ⅷ[a];B[pd])", "unexpected character 'Ⅷ'"),
    (HEAD + "C_[a];B[pd])", "property C without value"),
    (HEAD + "_C[a];B[pd])", "unexpected character '_'"),
    (HEAD + "PB[ab\\\r\ncd];B[pd])", {"black_player": "abcd"}),
    (HEAD + "PB[ab\\\n\rcd];B[pd])", {"black_player": "abcd"}),
    (HEAD + "PB[ab\\\ncd];B[pd])", {"black_player": "abcd"}),
    (HEAD + "PB[ab\\\rcd];B[pd])", {"black_player": "abcd"}),
], ids=["value-cut-off", "value-cut-off-after-backslash", "escaped-paren-in-skipped-variation",
        "value-cut-off-in-skipped-variation", "non-ascii-identifier", "numeral-in-identifier",
        "numeral-identifier", "underscore-in-identifier", "underscore-identifier",
        "soft-break-crlf", "soft-break-lfcr", "soft-break-lf", "soft-break-cr"])
def test_token_edge_cases_keep_their_outcome(text, expected):
    if isinstance(expected, list):
        assert [p.move for p in parse_sgf(text).plies] == expected
    elif isinstance(expected, dict):
        record = parse_sgf(text)
        assert {name: getattr(record, name) for name in expected} == expected
    else:
        with pytest.raises(ParseError, match=re.escape(expected)):
            parse_sgf(text)


def test_name_with_a_backslash_and_a_newline_round_trips():
    record = parse_sgf(MINIMAL)
    record = replace(record, black_player="a\\\nb\\", white_player="c\\\r\nd]")
    assert parse_sgf(serialize_sgf(record)) == record


_SGF_TEXT = st.text(alphabet="()[];\\ \n\tBWCpdtt1é½Ⅷ_", max_size=40)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(_SGF_TEXT, _SGF_TEXT.map(lambda body: HEAD + body)))
def test_text_over_the_delimiters_parses_or_raises_parse_error(text):
    try:
        parse_sgf(text)
    except ParseError as exc:
        assert exc.offset is None or 0 <= exc.offset <= len(text)
