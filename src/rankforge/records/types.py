"""Match records, plies, rank groups, and per-player data points."""

import datetime
from dataclasses import dataclass

from ..errors import DataError

BLACK = "black"
WHITE = "white"


def check_side(side: str) -> str:
    """``side`` if it is one that records write; otherwise ValueError."""
    if side not in (BLACK, WHITE):
        raise ValueError(f"side must be {BLACK!r} or {WHITE!r}, not {side!r}")
    return side


class Termination:
    PASS_PASS = "pass_pass"
    RESIGN = "resign"
    CHECKMATE = "checkmate"
    DRAW = "draw"
    TIMEOUT = "timeout"
    DISCONNECT = "disconnect"
    OTHER = "other"

    ALL = (PASS_PASS, RESIGN, CHECKMATE, DRAW, TIMEOUT, DISCONNECT, OTHER)


@dataclass(frozen=True)
class Ply:
    index: int  # 1-based, match-global
    mover: str  # black | white
    move: str  # go: board coordinate or "pass"; chess: from-to(-promotion)
    state_before: str  # canonical position encoding


@dataclass(frozen=True)
class RankGroup:
    game: str
    index: int
    label: str


@dataclass
class MatchRecord:
    game: str
    plies: list
    black_label: str
    white_label: str
    termination: str
    black_player: str = ""
    white_player: str = ""
    date: datetime.date | None = None
    time_control: str | None = None
    result: str = ""  # raw RE / Result text, kept for round-trips
    setup: bool = False  # handicap stones, FEN start, or broken alternation

    def __post_init__(self):
        if self.termination not in Termination.ALL:
            raise DataError(f"unknown termination {self.termination!r}")
        for i, ply in enumerate(self.plies):
            if ply.index != i + 1:
                raise DataError(f"ply index {ply.index} at position {i}")


@dataclass(frozen=True)
class DataPoint:
    """One player's side of one match as three equal-length columns, one
    entry per move: its match-global ply index, the state before it, and
    the move."""

    match_id: str
    player_id: str
    side: str
    group: RankGroup
    plies: tuple  # of int, strictly increasing
    states: tuple  # of str
    moves: tuple  # of str, or None

    def __post_init__(self):
        if not len(self.plies) == len(self.states) == len(self.moves):
            raise DataError("plies, states and moves must have equal lengths")
        if len(self.plies) < 1:
            raise DataError("data point needs at least one move")
        if any(b <= a for a, b in zip(self.plies, self.plies[1:])):
            raise DataError("ply indices must be strictly increasing")


def split_sides(record: MatchRecord, match_id: str, group: RankGroup):
    """Partition an accepted record's plies into the two players' data points."""
    out = []
    for side, player in ((BLACK, record.black_player), (WHITE, record.white_player)):
        plies = [ply for ply in record.plies if ply.mover == side]
        out.append(
            DataPoint(
                match_id=match_id,
                player_id=player or f"{match_id}:{side}",
                side=side,
                group=group,
                plies=tuple(ply.index for ply in plies),
                states=tuple(ply.state_before for ply in plies),
                moves=tuple(ply.move for ply in plies),
            )
        )
    return tuple(out)
