"""PGN parsing and serialization.

SAN movetext is resolved against the legal-move generator; each ply
records the FEN before the move and the move in from-to(-promotion) form.
Comments, variations, and numeric annotation glyphs are skipped.

Tag pairs are read with ``_TAG_RE`` and movetext through one token
expression, ``_MOVETEXT``: after optional whitespace, a word (a move, a
move number or a result), a '(', ')' or the next game's '[', a '{'
comment, a ';' comment to the end of the line, or a '$' NAG.  A variation
is skipped through ``_VARIATION``, which sees only parentheses and '{'
comments.
"""

import datetime
import re
import textwrap

from ..errors import ParseError
from .chess_rules import Move, Position, parse_san, to_san
from .types import BLACK, WHITE, MatchRecord, Ply, Termination

RESULTS = ("1-0", "0-1", "1/2-1/2", "*")

_TAG_RE = re.compile(r'[ \t\r\n]*\[\s*(\w+)\s+"((?:[^"\\]|\\.)*)"\s*\]')
_MOVE_NUMBER_RE = re.compile(r"^\d+\.*$")
# Groups: 1 a word, 2 '(', ')' or '[', 3 and 4 a comment's '{' and '}' (empty
# when the text ends inside it), 5 the letters and digits after a '$', whose
# isdigit() prefix is the NAG.
_MOVETEXT = re.compile(r"[ \t\r\n]*(?:([^ \t\r\n{();\[$][^ \t\r\n{();]*)|([()\[])"
                       r"|(\{)[^}]*(\}?)|;[^\n]*\n?|\$([^\W_]*))")
# Groups: 1 '(' or ')', 2 and 3 a comment's '{' and '}'; all are empty at the
# end of the text.
_VARIATION = re.compile(r"[^(){]*(?:([()])|(\{)[^}]*(\}?)|\Z)")


def _skip_variation(text: str, pos: int) -> int:
    """The end of the variation whose '(' ends at pos."""
    depth = 1
    for m in _VARIATION.finditer(text, pos):
        paren, brace, close = m.groups()
        if brace and not close:
            raise ParseError("unterminated comment", offset=m.end(2))
        depth += (paren == "(") - (paren == ")")
        if not depth:
            return m.end()
    raise ParseError("unterminated variation", offset=len(text))


def _scan_game(text: str, pos: int):
    """Scan one game starting at pos; returns (tags, san_tokens, result, end)."""
    tags: dict[str, str] = {}
    while match := _TAG_RE.match(text, pos):
        tags[match.group(1)] = match.group(2).replace('\\"', '"').replace("\\\\", "\\")
        pos = match.end()
    movetext = pos
    tokens: list[str] = []
    result = None
    while match := _MOVETEXT.match(text, pos):
        pos = match.end()
        word, punct, brace, close, nag = match.groups()
        if word:
            if word in RESULTS:
                result = word
                break
            if not _MOVE_NUMBER_RE.match(word):
                tokens.append(word)
        elif punct == "(":
            pos = _skip_variation(text, pos)
        elif punct == ")":
            raise ParseError("')' outside a variation", offset=pos - 1)
        elif punct:  # '[': a tag the tag pattern refused, or the next game's tags
            if match.start() == movetext:
                raise ParseError("malformed tag pair", offset=pos - 1)
            pos -= 1
            break
        elif brace and not close:
            raise ParseError("unterminated comment", offset=match.end(3))
        elif nag and not nag.isdigit():  # a word glued to the NAG starts after its digits
            pos = match.start(5) + next(i for i, ch in enumerate(nag) if not ch.isdigit())
    return tags, tokens, result, pos


def iter_pgn_games(text: str):
    """Yield (tags, san_tokens, result) for each game in the text.  A scan
    that finds neither tags nor moves (only comments, NAGs or a result)
    yields nothing; the text ends where a scan does not advance."""
    pos = 0
    while True:
        tags, tokens, result, end = _scan_game(text, pos)
        if end == pos:
            return
        if tags or tokens:
            yield tags, tokens, result
        pos = end


def _parse_date(value: str | None) -> datetime.date | None:
    if not value or "?" in value:
        return None
    for fmt in ("%Y.%m.%d", "%Y-%m-%d"):
        try:
            return datetime.datetime.strptime(value, fmt).date()
        except ValueError:
            continue
    return None


def _termination_of(tags: dict, result: str, final: Position) -> str:
    label = tags.get("Termination", "").strip().lower()
    if label.startswith("time"):
        return Termination.TIMEOUT
    if label.startswith(("abandon", "disconn")):
        return Termination.DISCONNECT
    if label.startswith(("rules", "cheat", "unterminated")):
        return Termination.OTHER
    if result == "1/2-1/2":
        return Termination.DRAW
    if result in ("1-0", "0-1"):
        return Termination.CHECKMATE if final.is_checkmate() else Termination.RESIGN
    return Termination.OTHER


def _record_from_game(tags: dict, tokens: list, result: str | None) -> MatchRecord:
    setup = False
    if tags.get("SetUp") == "1" or "FEN" in tags:
        setup = True
        if "FEN" not in tags:
            raise ParseError("SetUp tag without a FEN tag")
        position = Position.from_fen(tags["FEN"])
    else:
        position = Position.initial()
    plies = []
    for token in tokens:
        move_number = len(plies) // 2 + 1
        try:
            move = parse_san(position, token)
        except ParseError as exc:
            raise ParseError(f"move {move_number} ({token!r}): {exc}") from None
        plies.append(
            Ply(
                index=len(plies) + 1,
                mover=WHITE if position.white_to_move else BLACK,
                move=move.uci(),
                state_before=position.to_fen(),
            )
        )
        position = position.make(move)
    result = result or tags.get("Result", "*")
    return MatchRecord(
        game="chess",
        plies=plies,
        black_label=tags.get("BlackElo", "?") or "?",
        white_label=tags.get("WhiteElo", "?") or "?",
        termination=_termination_of(tags, result, position),
        black_player=tags.get("Black", ""),
        white_player=tags.get("White", ""),
        date=_parse_date(tags.get("UTCDate") or tags.get("Date")),
        time_control=tags.get("TimeControl"),
        result=result,
        setup=setup,
    )


def parse_pgn(text: str) -> MatchRecord:
    """Parse a single PGN game into a match record."""
    games = list(iter_pgn_games(text))
    if not games:
        raise ParseError("no PGN game found", offset=0)
    if len(games) > 1:
        raise ParseError("more than one game in text; use iter_pgn_games")
    return _record_from_game(*games[0])


def parse_pgn_collection(text: str):
    """Parse every game of a concatenated PGN text."""
    return [_record_from_game(*game) for game in iter_pgn_games(text)]


_TERMINATION_TAGS = {
    Termination.TIMEOUT: "Time forfeit",
    Termination.DISCONNECT: "Abandoned",
    Termination.OTHER: "Unterminated",
}


def serialize_pgn(record: MatchRecord) -> str:
    """Serialize a chess record back to PGN; parse(serialize(r)) == r for
    records parse_pgn produced.  The moves are replayed from the first
    ply's position."""
    result = record.result or ("1/2-1/2" if record.termination == Termination.DRAW else "*")
    tags = [
        ("Event", "?"),
        ("Site", "?"),
        ("Date", record.date.strftime("%Y.%m.%d") if record.date else "????.??.??"),
        ("Round", "?"),
        ("White", record.white_player or "?"),
        ("Black", record.black_player or "?"),
        ("Result", result),
    ]
    if record.white_label and record.white_label != "?":
        tags.append(("WhiteElo", record.white_label))
    if record.black_label and record.black_label != "?":
        tags.append(("BlackElo", record.black_label))
    if record.time_control:
        tags.append(("TimeControl", record.time_control))
    if record.termination in _TERMINATION_TAGS:
        tags.append(("Termination", _TERMINATION_TAGS[record.termination]))
    if record.setup and record.plies:
        tags.append(("SetUp", "1"))
        tags.append(("FEN", record.plies[0].state_before))
    lines = [f'[{name} "{value}"]' for name, value in tags]
    lines.append("")
    tokens = []
    position = Position.from_fen(record.plies[0].state_before) if record.plies else None
    for ply in record.plies:
        if position.white_to_move:
            tokens.append(f"{position.fullmove}.")
        move = Move.from_uci(ply.move)
        tokens.append(to_san(position, move))
        position = position.make(move)
    tokens.append(result)
    movetext = textwrap.wrap(" ".join(tokens), 80, break_long_words=False,
                             break_on_hyphens=False)
    return "\n".join(lines + movetext) + "\n"
