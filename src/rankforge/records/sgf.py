"""SGF parsing and serialization for 19x19 Go records.

Only the main line is read: at every branch point the first subtree
continues the game and the remaining variations are skipped.  Board
states are reconstructed by replaying the moves.
"""

import datetime
import re

from ..errors import ParseError
from .go_board import GoBoard
from .types import BLACK, WHITE, MatchRecord, Ply, Termination

_MOVE_PROPS = ("B", "W")
_SETUP_PROPS = ("AB", "AW", "AE", "HA")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def next(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.peek() and self.peek() in " \t\r\n":
            self.pos += 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, offset=self.pos)


def _read_prop_value(sc: _Scanner) -> str:
    # caller consumed '['; SGF escapes ']' and '\' with a backslash
    out = []
    while True:
        ch = sc.next()
        if ch == "":
            raise sc.error("unterminated property value")
        if ch == "\\":
            out.append(sc.next())
        elif ch == "]":
            return "".join(out)
        else:
            out.append(ch)


def _read_node(sc: _Scanner) -> dict:
    props: dict[str, list[str]] = {}
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if not ch.isalpha():
            return props
        ident = []
        while sc.peek().isalpha():
            ident.append(sc.next())
        name = "".join(ident)
        sc.skip_ws()
        if sc.peek() != "[":
            raise sc.error(f"property {name} without value")
        values = []
        while sc.peek() == "[":
            sc.next()
            values.append(_read_prop_value(sc))
            sc.skip_ws()
        props.setdefault(name, []).extend(values)


def _skip_subtree(sc: _Scanner) -> None:
    depth = 1
    while depth:
        ch = sc.next()
        if ch == "":
            raise sc.error("unbalanced parentheses")
        if ch == "\\":
            sc.next()
        elif ch == "[":
            _read_prop_value(sc)
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1


def _open_tree(sc: _Scanner) -> None:
    # caller consumed the tree's '('
    sc.skip_ws()
    if sc.peek() != ";":
        raise sc.error("game tree without a node")


def _main_line_nodes(sc: _Scanner) -> list[dict]:
    """The main line: each game tree's node sequence, then its first
    subtree's; sibling variations are skipped.  The descent is a loop, so
    any nesting depth parses."""
    sc.skip_ws()
    if sc.next() != "(":
        raise sc.error("SGF must start with '('")
    _open_tree(sc)
    nodes: list[dict] = []
    depth = 1  # game trees opened on the main line, not yet closed
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == ";":
            sc.next()
            nodes.append(_read_node(sc))
        elif ch == "(":
            sc.next()
            _open_tree(sc)
            depth += 1
        elif ch == ")":
            sc.next()
            break
        elif ch == "":
            raise sc.error("unbalanced parentheses")
        else:
            raise sc.error(f"unexpected character {ch!r}")
    # the innermost tree is closed; each enclosing tree ends after the
    # variations that follow its first subtree
    for _ in range(depth - 1):
        sc.skip_ws()
        while sc.peek() == "(":
            sc.next()
            _skip_subtree(sc)
            sc.skip_ws()
        if sc.next() != ")":
            raise sc.error("unbalanced parentheses")
    return nodes


def _termination_from_result(result: str) -> str:
    if not result:
        return Termination.OTHER
    text = result.strip()
    lowered = text.lower()
    if lowered in ("draw", "0", "jigo"):
        return Termination.DRAW
    if "+" in text:
        reason = text.split("+", 1)[1].strip().lower()
        if not reason:
            return Termination.OTHER
        if re.fullmatch(r"\d+(\.\d+)?", reason):
            return Termination.PASS_PASS  # scored result implies two passes
        if reason.startswith("r"):
            return Termination.RESIGN
        if reason.startswith("t"):
            return Termination.TIMEOUT
        if reason.startswith(("f", "d")):
            return Termination.DISCONNECT
    return Termination.OTHER


def _result_from_termination(termination: str) -> str:
    return {
        Termination.PASS_PASS: "B+0.5",
        Termination.RESIGN: "B+Resign",
        Termination.DRAW: "Draw",
        Termination.TIMEOUT: "B+Time",
        Termination.DISCONNECT: "B+Forfeit",
    }.get(termination, "?")


def _parse_date(value: str) -> datetime.date | None:
    try:
        return datetime.date.fromisoformat(value.strip())
    except ValueError:
        return None


def parse_sgf(text: str) -> MatchRecord:
    """Parse a single SGF game tree into a match record (main line only)."""
    sc = _Scanner(text)
    nodes = _main_line_nodes(sc)
    sc.skip_ws()
    if sc.peek():
        raise sc.error("trailing content after game tree")
    if not nodes:
        raise ParseError("empty game tree", offset=0)
    root = nodes[0]
    if "GM" in root and root["GM"][0].strip() != "1":
        raise ParseError(f"not a Go record (GM={root['GM'][0]})")
    if "SZ" in root and root["SZ"][0].strip() != "19":
        raise ParseError(f"unsupported board size SZ={root['SZ'][0]}")
    setup = any(prop in root for prop in _SETUP_PROPS)

    board = GoBoard()
    plies = []
    expected = "b"
    for node_index, node in enumerate(nodes):
        move_props = [p for p in _MOVE_PROPS if p in node]
        if node_index == 0 and not move_props:
            continue
        if not move_props:
            raise ParseError(f"node {node_index} missing move property")
        if len(move_props) == 2:
            raise ParseError(f"node {node_index} has both B and W moves")
        if any(prop in node for prop in _SETUP_PROPS):
            setup = True
        prop = move_props[0]
        colour = "b" if prop == "B" else "w"
        if colour != expected:
            setup = True  # broken alternation is handicap-like
        raw = node[prop][0].strip().lower()
        move = "pass" if raw in ("", "tt") else raw
        state = board.encode()
        try:
            board.play(colour, move)
        except Exception as exc:
            raise ParseError(f"ply {len(plies) + 1}: {exc}") from exc
        plies.append(
            Ply(
                index=len(plies) + 1,
                mover=BLACK if colour == "b" else WHITE,
                move=move,
                state_before=state,
            )
        )
        expected = "w" if colour == "b" else "b"

    result = root.get("RE", [""])[0]
    date = _parse_date(root["DT"][0]) if "DT" in root else None
    return MatchRecord(
        game="go",
        plies=plies,
        black_label=root.get("BR", ["?"])[0] or "?",
        white_label=root.get("WR", ["?"])[0] or "?",
        termination=_termination_from_result(result),
        black_player=root.get("PB", [""])[0],
        white_player=root.get("PW", [""])[0],
        date=date,
        result=result,
        setup=setup,
    )


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("]", "\\]")


def serialize_sgf(record: MatchRecord) -> str:
    """Serialize a Go record back to SGF; parse(serialize(r)) == r for
    records parse_sgf produced."""
    props = [("GM", "1"), ("FF", "4"), ("CA", "UTF-8"), ("SZ", "19")]
    if record.black_player:
        props.append(("PB", record.black_player))
    if record.white_player:
        props.append(("PW", record.white_player))
    props.append(("BR", record.black_label))
    props.append(("WR", record.white_label))
    if record.result or record.termination != Termination.OTHER:
        props.append(("RE", record.result or _result_from_termination(record.termination)))
    if record.date is not None:
        props.append(("DT", record.date.isoformat()))
    parts = ["(;" + "".join(f"{k}[{_escape(v)}]" for k, v in props)]
    for ply in record.plies:
        prop = "B" if ply.mover == BLACK else "W"
        value = "" if ply.move == "pass" else ply.move
        parts.append(f";{prop}[{value}]")
    return "".join(parts) + ")"
