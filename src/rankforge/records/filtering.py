"""Match selection: ply minimums, termination, time control, rank grouping.

Go records are kept when they have at least 50 plies, ended by two passes
or resignation, and both players fall in the same rank group.  Chess
records need at least 20 plies, a blitz time control, both ratings in the
same group, and (when configured) a date inside the window.  Handicap or
setup games are always rejected.
"""

import datetime
from dataclasses import dataclass

from ..errors import RankRangeError
from .ranks import rank_group_of
from .types import MatchRecord, RankGroup, Termination

GO_MIN_PLIES = 50
CHESS_MIN_PLIES = 20
# Lichess estimates game duration as base + 40 * increment; blitz spans
# [180s, 480s) on that estimate.
BLITZ_MIN_SECONDS = 180
BLITZ_MAX_SECONDS = 480


@dataclass(frozen=True)
class FilterConfig:
    date_window: tuple[datetime.date, datetime.date] | None = None


@dataclass(frozen=True)
class FilterDecision:
    accepted: bool
    reason: str | None = None
    group: RankGroup | None = None

    @classmethod
    def accept(cls, group: RankGroup) -> "FilterDecision":
        return cls(accepted=True, group=group)

    @classmethod
    def reject(cls, reason: str) -> "FilterDecision":
        return cls(accepted=False, reason=reason)


def estimated_duration_seconds(time_control: str | None) -> float | None:
    """base + 40 * increment for a 'base+increment' time control."""
    if not time_control:
        return None
    parts = time_control.strip().split("+")
    if len(parts) != 2:
        return None
    try:
        base, increment = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    return base + 40 * increment


def _same_group(record: MatchRecord) -> FilterDecision:
    try:
        black = rank_group_of(record.black_label, record.game)
        white = rank_group_of(record.white_label, record.game)
    except RankRangeError:
        return FilterDecision.reject("unknown_rank")
    if black.index != white.index:
        return FilterDecision.reject("cross_group")
    return FilterDecision.accept(black)


def filter_match(record: MatchRecord, config: FilterConfig = FilterConfig()) -> FilterDecision:
    """Pure accept/reject decision for one parsed record."""
    if record.setup:
        return FilterDecision.reject("handicap")
    if record.game == "go":
        if len(record.plies) < GO_MIN_PLIES:
            return FilterDecision.reject("min_plies")
        if record.termination not in (Termination.PASS_PASS, Termination.RESIGN):
            return FilterDecision.reject("termination")
        return _same_group(record)
    if record.game == "chess":
        if len(record.plies) < CHESS_MIN_PLIES:
            return FilterDecision.reject("min_plies")
        duration = estimated_duration_seconds(record.time_control)
        if duration is None or not BLITZ_MIN_SECONDS <= duration < BLITZ_MAX_SECONDS:
            return FilterDecision.reject("time_control")
        if config.date_window is not None:
            start, end = config.date_window
            if record.date is None or not start <= record.date <= end:
                return FilterDecision.reject("date_window")
        return _same_group(record)
    return FilterDecision.reject("unknown_game")
