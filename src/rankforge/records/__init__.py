"""Game-record ingestion: SGF/PGN parsing, filtering, and data points."""

from .dataset import read_datapoints, write_datapoints
from .filtering import FilterConfig, FilterDecision, filter_match
from .pgn import iter_pgn_games, parse_pgn, serialize_pgn
from .ranks import GROUP_COUNTS, group_label, rank_group_of
from .sgf import parse_sgf, serialize_sgf
from .types import (
    BLACK,
    WHITE,
    DataPoint,
    MatchRecord,
    Ply,
    RankGroup,
    Termination,
    split_sides,
)

__all__ = [
    "BLACK",
    "GROUP_COUNTS",
    "WHITE",
    "DataPoint",
    "FilterConfig",
    "FilterDecision",
    "MatchRecord",
    "Ply",
    "RankGroup",
    "Termination",
    "filter_match",
    "group_label",
    "iter_pgn_games",
    "parse_pgn",
    "parse_sgf",
    "rank_group_of",
    "read_datapoints",
    "serialize_pgn",
    "serialize_sgf",
    "split_sides",
    "write_datapoints",
]
