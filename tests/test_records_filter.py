import datetime

import pytest
from hypothesis import given, strategies as st

from rankforge.errors import RankRangeError
from rankforge.records import (
    FilterConfig,
    filter_match,
    parse_sgf,
    rank_group_of,
    split_sides,
)
from rankforge.records.filtering import estimated_duration_seconds
from rankforge.records.types import (
    BLACK,
    WHITE,
    MatchRecord,
    Ply,
    RankGroup,
    Termination,
)

# ---------------------------------------------------------------------------
# rank groups


def test_go_group_examples():
    assert rank_group_of("2k", "go").index == 1
    assert rank_group_of("3k", "go").index == 0
    assert rank_group_of("5k", "go").index == 0
    assert rank_group_of("1d", "go").index == 2
    assert rank_group_of("9d", "go").index == 10
    assert rank_group_of("9d", "go").label == "9d"


def test_chess_group_examples():
    assert rank_group_of(1000, "chess").index == 0
    assert rank_group_of(2599, "chess").index == 7
    assert rank_group_of("1500", "chess").index == 2
    assert rank_group_of(1750, "chess").index == 3
    assert rank_group_of(1199, "chess").index == 0
    assert rank_group_of(1200, "chess").index == 1


def test_out_of_range_labels():
    for label in ("6k", "10d", "0d", "12k"):
        with pytest.raises(RankRangeError):
            rank_group_of(label, "go")
    for rating in (999, 2600, "junk"):
        with pytest.raises(RankRangeError):
            rank_group_of(rating, "chess")


@given(st.integers(min_value=1000, max_value=2598))
def test_chess_mapping_monotone(rating):
    assert rank_group_of(rating + 1, "chess").index >= rank_group_of(rating, "chess").index


def test_go_mapping_monotone_over_ladder():
    ladder = ["5k", "4k", "3k", "2k", "1k"] + [f"{d}d" for d in range(1, 10)]
    indices = [rank_group_of(label, "go").index for label in ladder]
    assert indices == sorted(indices)


# ---------------------------------------------------------------------------
# record builders


def _go_record(plies=60, black="3d", white="3d", termination=Termination.RESIGN,
               setup=False):
    ply_list = [
        Ply(index=i + 1, mover=BLACK if i % 2 == 0 else WHITE, move="aa",
            state_before="")
        for i in range(plies)
    ]
    return MatchRecord(game="go", plies=ply_list, black_label=black,
                       white_label=white, termination=termination, setup=setup)


def _chess_record(plies=30, black="1500", white="1510", time_control="180+2",
                  date=datetime.date(2024, 2, 10), termination=Termination.RESIGN,
                  setup=False):
    ply_list = [
        Ply(index=i + 1, mover=WHITE if i % 2 == 0 else BLACK, move="e2e4",
            state_before="")
        for i in range(plies)
    ]
    return MatchRecord(game="chess", plies=ply_list, black_label=black,
                       white_label=white, termination=termination,
                       time_control=time_control, date=date, setup=setup)


# Hand-labeled decision table; each row cites the selection criterion it
# exercises.  Coverage of all criteria is asserted below.
FEB_2024 = (datetime.date(2024, 2, 1), datetime.date(2024, 2, 29))

FILTER_TABLE = [
    # (criterion id, record, config, expect_accept, expected reason)
    ("go_min_plies", _go_record(plies=49, black="5d", white="5d"),
     FilterConfig(), False, "min_plies"),
    ("go_min_plies", _go_record(plies=50, black="5d", white="5d"),
     FilterConfig(), True, None),
    ("go_termination_resign", _go_record(plies=120, black="3d", white="3d",
                                         termination=Termination.RESIGN),
     FilterConfig(), True, None),
    ("go_termination_passes", _go_record(termination=Termination.PASS_PASS),
     FilterConfig(), True, None),
    ("go_termination_timeout", _go_record(termination=Termination.TIMEOUT),
     FilterConfig(), False, "termination"),
    ("go_termination_disconnect", _go_record(termination=Termination.DISCONNECT),
     FilterConfig(), False, "termination"),
    ("go_termination_other", _go_record(termination=Termination.OTHER),
     FilterConfig(), False, "termination"),
    ("go_same_group", _go_record(black="3k", white="5k"),
     FilterConfig(), True, None),  # 3k and 5k share group 0
    ("go_same_group", _go_record(black="1d", white="2d"),
     FilterConfig(), False, "cross_group"),
    ("go_unknown_rank", _go_record(black="11d", white="3d"),
     FilterConfig(), False, "unknown_rank"),
    ("go_handicap", _go_record(setup=True),
     FilterConfig(), False, "handicap"),
    ("chess_min_plies", _chess_record(plies=19),
     FilterConfig(), False, "min_plies"),
    ("chess_min_plies", _chess_record(plies=20),
     FilterConfig(), True, None),
    ("chess_blitz", _chess_record(time_control="60+0"),
     FilterConfig(), False, "time_control"),
    ("chess_blitz", _chess_record(time_control="600+5"),
     FilterConfig(), False, "time_control"),
    ("chess_blitz", _chess_record(time_control="300+3"),
     FilterConfig(), True, None),
    ("chess_blitz", _chess_record(time_control=None),
     FilterConfig(), False, "time_control"),
    ("chess_same_group", _chess_record(black="1500", white="1750"),
     FilterConfig(), False, "cross_group"),
    ("chess_same_group", _chess_record(black="1401", white="1599"),
     FilterConfig(), True, None),
    ("chess_unknown_rank", _chess_record(black="999", white="1000"),
     FilterConfig(), False, "unknown_rank"),
    ("chess_date_window", _chess_record(date=datetime.date(2024, 1, 31)),
     FilterConfig(date_window=FEB_2024), False, "date_window"),
    ("chess_date_window", _chess_record(date=datetime.date(2024, 2, 29)),
     FilterConfig(date_window=FEB_2024), True, None),
    ("chess_date_window", _chess_record(date=None),
     FilterConfig(date_window=FEB_2024), False, "date_window"),
    ("chess_setup", _chess_record(setup=True),
     FilterConfig(), False, "handicap"),
]

CRITERIA = {
    "go_min_plies", "go_termination_resign", "go_termination_passes",
    "go_termination_timeout", "go_termination_disconnect", "go_termination_other",
    "go_same_group", "go_unknown_rank", "go_handicap",
    "chess_min_plies", "chess_blitz", "chess_same_group", "chess_unknown_rank",
    "chess_date_window", "chess_setup",
}


@pytest.mark.parametrize("criterion,record,config,accept,reason",
                         FILTER_TABLE,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(FILTER_TABLE)])
def test_filter_table(criterion, record, config, accept, reason):
    decision = filter_match(record, config)
    assert decision.accepted == accept
    if not accept:
        assert decision.reason == reason
    else:
        assert decision.group is not None


def test_every_criterion_row_exercised():
    assert {row[0] for row in FILTER_TABLE} == CRITERIA


def test_filter_is_pure():
    record = _go_record()
    config = FilterConfig()
    assert filter_match(record, config) == filter_match(record, config)


@pytest.mark.parametrize("tc,expected", [
    ("180+0", 180), ("180+2", 260), ("300+3", 420), ("60+3", 180),
    ("600+0", 600), ("-", None), ("junk", None), (None, None),
])
def test_estimated_duration(tc, expected):
    assert estimated_duration_seconds(tc) == expected


def test_blitz_boundaries():
    assert filter_match(_chess_record(time_control="180+0")).accepted  # = 180
    assert not filter_match(_chess_record(time_control="179+0")).accepted
    assert filter_match(_chess_record(time_control="479+0")).accepted
    assert not filter_match(_chess_record(time_control="480+0")).accepted  # < 480


# ---------------------------------------------------------------------------
# split_sides


def _accepted_group(record):
    decision = filter_match(record)
    assert decision.accepted
    return decision.group


def test_split_four_plies_alternation():
    text = "(;GM[1]SZ[19]BR[1d]WR[1d];B[pd];W[dp];B[pp];W[dd])"
    record = parse_sgf(text)
    group = RankGroup("go", 2, "1d")
    black, white = split_sides(record, "m1", group)
    assert black.plies == (1, 3)
    assert white.plies == (2, 4)
    assert black.side == BLACK and white.side == WHITE


def test_split_51_plies_parity():
    record = _go_record(plies=51)
    black, white = split_sides(record, "m2", _accepted_group(record))
    assert len(black.plies) == 26
    assert len(white.plies) == 25


def test_split_partition_on_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.sgf"))[:6]:
        record = parse_sgf(path.read_text())
        decision = filter_match(record)
        if not decision.accepted:
            continue
        black, white = split_sides(record, path.stem, decision.group)
        black_set = set(black.plies)
        white_set = set(white.plies)
        assert black_set.isdisjoint(white_set)
        assert black_set | white_set == set(range(1, len(record.plies) + 1))


def test_split_player_ids_verbatim():
    record = _go_record()
    record.black_player = "Alice"
    record.white_player = "Bob"
    black, white = split_sides(record, "m3", _accepted_group(record))
    assert black.player_id == "Alice"
    assert white.player_id == "Bob"
