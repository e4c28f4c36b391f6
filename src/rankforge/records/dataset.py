"""Data point JSONL: one player's side of one match per line, in the
format of ``rankforge.artifacts``.  A line keeps one ``{"ply", "state",
"move"}`` object per move; a ``DataPoint`` holds them as three columns."""

from ..artifacts import at_line, integers, read_jsonl, strings, write_jsonl
from .ranks import group_label
from .types import DataPoint, RankGroup, check_side


def write_datapoints(path, datapoints) -> None:
    write_jsonl(path, (
        {
            "match_id": dp.match_id,
            "player_id": dp.player_id,
            "side": dp.side,
            "game": dp.group.game,
            "group_index": dp.group.index,
            "moves": [{"ply": p, "state": s, "move": m}
                      for p, s, m in zip(dp.plies, dp.states, dp.moves)],
        }
        for dp in sorted(datapoints, key=lambda dp: (dp.match_id, dp.side))
    ))


def _ply(m: dict) -> tuple[int, str, str | None]:
    (ply,), state, move = integers(m, "ply"), m["state"], m["move"]
    if not isinstance(state, str) or not (move is None or isinstance(move, str)):
        raise TypeError(f"a state must be a string and a move a string or null, "
                        f"not {type(state).__name__} and {type(move).__name__}")
    return ply, state, move


def read_datapoints(path) -> list[DataPoint]:
    """The data points of a dataset.  A line that cannot be read, or whose
    data point breaks a ``DataPoint`` check, raises DataError naming
    ``path:line``."""
    out = []
    for lineno, rec in read_jsonl(path):
        with at_line(path, lineno, "data point"):
            match_id, player_id, side = strings(rec, "match_id", "player_id", "side")
            game = rec["game"]
            (index,) = integers(rec, "group_index")
            plies, states, moves = tuple(zip(*map(_ply, rec["moves"]))) or ((), (), ())
            out.append(
                DataPoint(
                    match_id=match_id,
                    player_id=player_id,
                    side=check_side(side),
                    group=RankGroup(game=game, index=index,
                                    label=group_label(game, index)),
                    plies=plies,
                    states=states,
                    moves=moves,
                )
            )
    return out
