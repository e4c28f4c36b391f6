"""SGF parsing and serialization for 19x19 Go records.

Only the main line is read: at every branch point the first subtree
continues the game and the remaining variations are skipped.  Board
states are reconstructed by replaying the moves.

The text is read through one token expression, ``_TOKEN``: after optional
whitespace, a tree or node delimiter, a property identifier, a bracketed
value with its escapes kept (group 5, its ``]``, is empty when the text
ends inside it), or any other character, which a backslash takes with it.
"""

import datetime
import re

from ..errors import ParseError
from .go_board import GoBoard
from .types import BLACK, WHITE, MatchRecord, Ply, Termination

_MOVE_PROPS = ("B", "W")
_SETUP_PROPS = ("AB", "AW", "AE", "HA")


# \w also holds numerals such as '½': an identifier is the run's isalpha() prefix
_TOKEN = re.compile(r"[ \t\r\n]*(([();])|([^\W\d_]+)|\[([^\\\]]*(?:\\.[^\\\]]*)*)(\]?)|\\?.)", re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)


def _main_line_nodes(text: str) -> list[dict]:
    """The main line: each game tree's node sequence, then its first
    subtree's; sibling variations are skipped.  One pass over the tokens
    keeps the main line's open trees, the current node, whether the
    innermost main-line tree has closed, and the depth of a skipped
    variation, so any nesting depth parses."""
    nodes: list[dict] = []
    node = values = name = None  # name: an identifier awaiting its first value
    trees, closed, skip = 0, False, 0
    for m in _TOKEN.finditer(text.rstrip(" \t\r\n")):  # '.' would take a trailing space
        token, punct, ident, value, close = m.groups()
        if skip:  # a sibling variation: only its nesting and its values' ends count
            if value is not None and not close:
                raise ParseError("unterminated property value", offset=len(text))
            skip += (punct == "(") - (punct == ")")
        elif not trees:
            if closed:
                raise ParseError("trailing content after game tree", offset=m.start(1))
            if punct != "(":
                raise ParseError("SGF must start with '('", offset=m.start(1))
            trees = 1
        elif closed:  # each enclosing tree ends after the variations that follow its first subtree
            if punct == ")":
                trees -= 1
            elif punct == "(":
                skip = 1
            else:
                raise ParseError("unbalanced parentheses", offset=m.start(1))
        elif node is None and punct != ";":
            raise ParseError("game tree without a node", offset=m.start(1))
        else:
            if name:
                if value is None:
                    raise ParseError(f"property {name} without value", offset=m.start(1))
                values, name = node.setdefault(name, []), None
            if value is not None and values is not None:
                if not close:
                    raise ParseError("unterminated property value", offset=len(text))
                values.append(_ESCAPE.sub(r"\1", value) if "\\" in value else value)
                continue
            values = None
            if ident and ident.isalpha():
                name = ident
            elif punct == ";":
                node = {}
                nodes.append(node)
            elif punct == "(":
                trees += 1
                node = None
            elif punct == ")":
                trees -= 1
                closed = True
            else:
                letters = ident and next(i for i, ch in enumerate(ident) if not ch.isalpha())
                if letters:
                    raise ParseError(f"property {token[:letters]} without value",
                                     offset=m.start(1) + letters)
                raise ParseError(f"unexpected character {token[0]!r}", offset=m.start(1))
    if trees or not closed:
        raise ParseError("SGF must start with '('" if not trees
                         else "game tree without a node" if node is None
                         else f"property {name} without value" if name
                         else "unbalanced parentheses", offset=len(text))
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
    nodes = _main_line_nodes(text)
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
