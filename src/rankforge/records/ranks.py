"""Rank label to rank group mapping, and the group counts.

Go has 11 groups: 3-5k, 1-2k, then 1d through 9d.  Chess has 8 groups of
200 rating points from R1000 to R2599.  Index 0 is always the weakest.
A model predicts into its game's ``GROUP_COUNTS`` entry, or, for a synthetic
run, which has none, into its ``[synth] groups``, at most
``synthlab.MAX_GROUPS``.  ``group_label`` rejects an
index below 0 or at or above the game's count; a synthetic index ``g{index}``
has no upper bound here.
"""

import re

from ..errors import ConfigError, RankRangeError
from .types import RankGroup

GROUP_COUNTS = {"go": 11, "chess": 8}

_GO_LABELS = ["3-5k", "1-2k"] + [f"{d}d" for d in range(1, 10)]
_GO_LABEL_RE = re.compile(r"^\s*(\d+)\s*(k|kyu|d|dan)\s*$", re.IGNORECASE)


def group_label(game: str, index: int) -> str:
    """The label of rank group ``index`` of ``game``."""
    count = GROUP_COUNTS.get(game)
    if index < 0 or (count is not None and index >= count):
        raise RankRangeError(f"{game} has no rank group {index}")
    if game == "go":
        return _GO_LABELS[index]
    if game == "chess":
        lo = 1000 + 200 * index
        return f"R{lo}-R{lo + 199}"
    return f"g{index}"


def rank_group_of(label, game: str) -> RankGroup:
    """Map a Go kyu/dan string or a chess rating to its rank group."""
    if game == "go":
        match = _GO_LABEL_RE.match(str(label))
        if not match:
            raise RankRangeError(f"unrecognized Go rank label {label!r}")
        number = int(match.group(1))
        unit = match.group(2).lower()[0]
        if unit == "k":
            if 3 <= number <= 5:
                index = 0
            elif 1 <= number <= 2:
                index = 1
            else:
                raise RankRangeError(f"Go kyu rank {label!r} outside 1-5k")
        else:
            if not 1 <= number <= 9:
                raise RankRangeError(f"Go dan rank {label!r} outside 1-9d")
            index = number + 1
    elif game == "chess":
        try:
            rating = int(str(label).strip())
        except ValueError:
            raise RankRangeError(f"unrecognized chess rating {label!r}") from None
        if not 1000 <= rating <= 2599:
            raise RankRangeError(f"chess rating {rating} outside [1000, 2599]")
        index = (rating - 1000) // 200
    else:
        raise ConfigError(f"no rank grouping for game {game!r}")
    return RankGroup(game=game, index=index, label=group_label(game, index))
