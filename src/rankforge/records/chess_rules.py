"""Chess rules: position state, legal move generation, FEN, and SAN.

Positions are FEN-equivalent and immutable from the caller's view (making
a move returns a new position).  Moves use from-square, to-square, and an
optional promotion piece; their text form is UCI-style ("e2e4", "e7e8q"),
with castling encoded as the king's two-square move.

Each rule of piece geometry is one table.  ``_STEPS`` holds the knight's
and the king's steps and ``_RAYS`` the sliders' directions, which
``pseudo_moves`` walks.  ``_LEAPERS`` holds, per attacking side, the steps
from an attacked square to the pawns, knights and king that attack it.
``_CASTLES`` has one row per wing, kingside first: the right's flag, the
king's target file, the rook's file, the files that must be empty, and the
files the king stands on or crosses, none of which may be attacked.
``to_fen`` joins the ranks and replaces each run of empty squares with its
length, longest run first, so no run is split.

``legal_moves`` runs the full legality test (make the move, then ask
whether the own king is attacked) only on moves that could fail it.  A
pseudo-move is accepted without that test when the side to move is not in
check, the moving piece is not the king, the move does not land on the
en-passant square, and its from-square shares no rank, file or diagonal
with the own king.  Such a move is legal.  The king stays where it stood,
unattacked, and no enemy piece moves.  Emptying the from-square opens no
line to the king, since the square lies on none.  Filling the to-square
can only block a line; a captured piece's square is filled by the mover,
so no line through it opens either.  En passant empties a third square
and a king move moves the king, so both take the full test.  This is the
usual pin-and-check precondition of legal move generators; the moves kept
and their order are those of filtering every pseudo-move through
``is_legal``.

``from_fen`` accepts only positions the generators can work on: one king
per side, no pawn on rank 1 or 8, a side to move of ``w`` or ``b``, and a
castling field of ``-`` or distinct letters of ``KQkq``.
"""

import re
from dataclasses import dataclass

from ..errors import DataError, ParseError

FILES = "abcdefgh"
WHITE_PIECES = "PNBRQK"
PROMOTIONS = "qrbn"

_KNIGHT = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))
_KING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_BISHOP = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_ROOK = ((1, 0), (-1, 0), (0, 1), (0, -1))
_STEPS = {"N": _KNIGHT, "K": _KING}
_RAYS = {"B": _BISHOP, "R": _ROOK, "Q": _BISHOP + _ROOK}
_LEAPERS = {
    True: ((((-1, -1), (1, -1)), "P"), (_KNIGHT, "N"), (_KING, "K")),
    False: ((((-1, 1), (1, 1)), "p"), (_KNIGHT, "n"), (_KING, "k")),
}
_CASTLES = (("K", 6, 7, (5, 6), (4, 5, 6)), ("Q", 2, 0, (1, 2, 3), (4, 3, 2)))

INITIAL_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"


def square(file: int, rank: int) -> int:
    return rank * 8 + file


def square_name(sq: int) -> str:
    return FILES[sq % 8] + str(sq // 8 + 1)


def parse_square(name: str) -> int:
    if len(name) != 2 or name[0] not in FILES or name[1] not in "12345678":
        raise DataError(f"bad square {name!r}")
    return square(FILES.index(name[0]), int(name[1]) - 1)


@dataclass(frozen=True)
class Move:
    from_sq: int
    to_sq: int
    promo: str | None = None  # one of "qrbn"

    def uci(self) -> str:
        return square_name(self.from_sq) + square_name(self.to_sq) + (self.promo or "")

    @classmethod
    def from_uci(cls, text: str) -> "Move":
        if len(text) not in (4, 5):
            raise DataError(f"bad move encoding {text!r}")
        promo = text[4].lower() if len(text) == 5 else None
        if promo is not None and promo not in PROMOTIONS:
            raise DataError(f"bad promotion in {text!r}")
        return cls(parse_square(text[:2]), parse_square(text[2:4]), promo)


class Position:
    __slots__ = ("board", "white_to_move", "castling", "ep", "halfmove", "fullmove")

    def __init__(self, board, white_to_move, castling, ep, halfmove, fullmove):
        self.board = board  # list of 64 one-char strings, "." empty, a1 = 0
        self.white_to_move = white_to_move
        self.castling = castling  # subset of "KQkq"
        self.ep = ep  # en-passant target square or None
        self.halfmove = halfmove
        self.fullmove = fullmove

    @classmethod
    def initial(cls) -> "Position":
        return cls.from_fen(INITIAL_FEN)

    @classmethod
    def from_fen(cls, fen: str) -> "Position":
        parts = fen.split()
        if len(parts) != 6:
            raise DataError(f"FEN needs 6 fields: {fen!r}")
        rows = parts[0].split("/")
        if len(rows) != 8:
            raise DataError(f"FEN board needs 8 ranks: {fen!r}")
        board = ["."] * 64
        for r, row in enumerate(rows):
            rank = 7 - r
            file = 0
            for ch in row:
                if ch.isdigit():
                    file += int(ch)
                elif ch in WHITE_PIECES or ch in WHITE_PIECES.lower():
                    if file > 7:
                        raise DataError(f"FEN rank overflow: {row!r}")
                    board[square(file, rank)] = ch
                    file += 1
                else:
                    raise DataError(f"bad FEN piece {ch!r}")
            if file != 8:
                raise DataError(f"FEN rank underflow: {row!r}")
        if board.count("K") != 1 or board.count("k") != 1:
            raise DataError(f"FEN needs one king per side: {fen!r}")
        if any(board[sq] in "Pp" for sq in (*range(8), *range(56, 64))):
            raise DataError(f"FEN has a pawn on rank 1 or 8: {fen!r}")
        if parts[1] not in ("w", "b"):
            raise DataError(f"bad FEN side to move: {fen!r}")
        castling = "" if parts[2] == "-" else parts[2]
        if set(castling) - set("KQkq") or len(set(castling)) != len(castling):
            raise DataError(f"bad FEN castling field: {fen!r}")
        ep = None if parts[3] == "-" else parse_square(parts[3])
        try:
            halfmove, fullmove = int(parts[4]), int(parts[5])
        except ValueError:
            raise DataError(f"bad FEN move counters: {fen!r}") from None
        return cls(board, parts[1] == "w", castling, ep, halfmove, fullmove)

    def to_fen(self) -> str:
        placement = "/".join("".join(self.board[sq:sq + 8]) for sq in range(56, -8, -8))
        for run in range(8, 0, -1):
            placement = placement.replace("." * run, str(run))
        return " ".join(
            [
                placement,
                "w" if self.white_to_move else "b",
                self.castling or "-",
                square_name(self.ep) if self.ep is not None else "-",
                str(self.halfmove),
                str(self.fullmove),
            ]
        )

    def _own(self, piece: str) -> bool:
        return piece != "." and (piece.isupper() == self.white_to_move)

    def _enemy(self, piece: str) -> bool:
        return piece != "." and (piece.isupper() != self.white_to_move)

    def king_square(self, white: bool) -> int:
        try:
            return self.board.index("K" if white else "k")
        except ValueError:  # captured, from a FEN whose side not to move was in check
            raise DataError(f"no {'white' if white else 'black'} king on the board") from None

    def is_attacked(self, sq: int, by_white: bool) -> bool:
        file, rank = sq % 8, sq // 8
        for steps, piece in _LEAPERS[by_white]:
            for df, dr in steps:
                f, r = file + df, rank + dr
                if 0 <= f < 8 and 0 <= r < 8 and self.board[square(f, r)] == piece:
                    return True
        for dirs, sliders in ((_BISHOP, "BQ"), (_ROOK, "RQ")):
            wanted = sliders if by_white else sliders.lower()
            for df, dr in dirs:
                f, r = file + df, rank + dr
                while 0 <= f < 8 and 0 <= r < 8:
                    piece = self.board[square(f, r)]
                    if piece != ".":
                        if piece in wanted:
                            return True
                        break
                    f += df
                    r += dr
        return False

    def in_check(self) -> bool:
        return self.is_attacked(self.king_square(self.white_to_move), not self.white_to_move)

    def pseudo_moves(self, kind: str | None = None):
        """Moves of the side to move, own king's safety unchecked; only the
        moves of one piece kind ("PNBRQK") when ``kind`` is given."""
        moves = []
        up = 1 if self.white_to_move else -1
        start_rank = 1 if self.white_to_move else 6
        last_rank = 7 if self.white_to_move else 0
        pieces = WHITE_PIECES if kind is None else kind
        if not self.white_to_move:
            pieces = pieces.lower()
        for sq in range(64):
            piece = self.board[sq]
            if piece not in pieces:
                continue
            file, rank = sq % 8, sq // 8
            piece_kind = piece.upper()
            if piece_kind == "P":
                promos = PROMOTIONS if rank + up == last_rank else (None,)
                one = square(file, rank + up)
                if self.board[one] == ".":
                    moves += [Move(sq, one, p) for p in promos]
                    two = square(file, rank + 2 * up)
                    if rank == start_rank and self.board[two] == ".":
                        moves.append(Move(sq, two))
                for df in (-1, 1):
                    f = file + df
                    if not 0 <= f < 8:
                        continue
                    target = square(f, rank + up)
                    if self._enemy(self.board[target]):
                        moves += [Move(sq, target, p) for p in promos]
                    elif target == self.ep:
                        moves.append(Move(sq, target))
            elif piece_kind in _STEPS:
                for df, dr in _STEPS[piece_kind]:
                    f, r = file + df, rank + dr
                    if 0 <= f < 8 and 0 <= r < 8 and not self._own(self.board[square(f, r)]):
                        moves.append(Move(sq, square(f, r)))
                if piece_kind == "K":
                    moves.extend(self._castling_moves(sq))
            else:
                for df, dr in _RAYS[piece_kind]:
                    f, r = file + df, rank + dr
                    while 0 <= f < 8 and 0 <= r < 8:
                        target = self.board[square(f, r)]
                        if self._own(target):
                            break
                        moves.append(Move(sq, square(f, r)))
                        if target != ".":
                            break
                        f += df
                        r += dr
        return moves

    def _castling_moves(self, king_sq: int):
        white = self.white_to_move
        rank = 0 if white else 7
        if king_sq != square(4, rank):
            return []
        return [
            Move(king_sq, square(king_file, rank))
            for flag, king_file, rook_file, empty, crossed in _CASTLES
            if (flag if white else flag.lower()) in self.castling
            and self.board[square(rook_file, rank)] == ("R" if white else "r")
            and all(self.board[square(f, rank)] == "." for f in empty)
            and not any(self.is_attacked(square(f, rank), not white) for f in crossed)
        ]

    def make(self, move: Move) -> "Position":
        board = self.board.copy()
        piece = board[move.from_sq]
        if piece == "." or not self._own(piece):
            raise DataError(f"no own piece on {square_name(move.from_sq)}")
        target = board[move.to_sq]
        captured = target != "."
        kind = piece.upper()
        ep = None
        if kind == "P" and self.ep is not None and move.to_sq == self.ep and target == ".":
            behind = square(move.to_sq % 8, move.from_sq // 8)
            board[behind] = "."
            captured = True
        board[move.from_sq] = "."
        if move.promo:
            board[move.to_sq] = move.promo.upper() if self.white_to_move else move.promo
        else:
            board[move.to_sq] = piece
        castling = self.castling
        if kind == "K":
            castling = "".join(flag for flag in castling if flag.isupper() != self.white_to_move)
            if abs(move.to_sq - move.from_sq) == 2:
                rank = move.from_sq // 8
                rook, to = (7, 5) if move.to_sq > move.from_sq else (0, 3)
                board[square(to, rank)] = board[square(rook, rank)]
                board[square(rook, rank)] = "."
        for sq, flag in ((0, "Q"), (7, "K"), (56, "q"), (63, "k")):
            if move.from_sq == sq or move.to_sq == sq:
                castling = castling.replace(flag, "")
        if kind == "P" and abs(move.to_sq // 8 - move.from_sq // 8) == 2:
            ep = square(move.from_sq % 8, (move.from_sq // 8 + move.to_sq // 8) // 2)
        return Position(
            board,
            not self.white_to_move,
            castling,
            ep,
            0 if kind == "P" or captured else self.halfmove + 1,
            self.fullmove + (0 if self.white_to_move else 1),
        )

    def is_legal(self, move: Move) -> bool:
        after = self.make(move)
        return not after.is_attacked(after.king_square(self.white_to_move), after.white_to_move)

    def legal_moves(self):
        """The legal pseudo-moves, in their order; the module docstring says
        which of them skip ``is_legal`` and why."""
        king = self.king_square(self.white_to_move)
        if self.is_attacked(king, not self.white_to_move):
            return [m for m in self.pseudo_moves() if self.is_legal(m)]
        king_file, king_rank = king % 8, king // 8
        legal = []
        for m in self.pseudo_moves():
            df, dr = m.from_sq % 8 - king_file, m.from_sq // 8 - king_rank
            if (df and dr and df != dr and df != -dr and m.to_sq != self.ep) or self.is_legal(m):
                legal.append(m)
        return legal

    def is_checkmate(self) -> bool:
        return self.in_check() and not self.legal_moves()


# ---------------------------------------------------------------------------
# SAN

_SAN_RE = re.compile(
    r"^(?P<piece>[NBRQK])?(?P<file>[a-h])?(?P<rank>[1-8])?(?P<capture>x)?"
    r"(?P<target>[a-h][1-8])(=?(?P<promo>[NBRQ]))?$"
)


def parse_san(pos: Position, text: str) -> Move:
    """Resolve a SAN token to the one legal move it names.

    Only the token's piece kind is generated, and its pseudo-moves are
    filtered by target, promotion and disambiguation first; legality is
    tested last, on the candidates left.  The move, or the error, is that
    of filtering the full legal-move list.
    """
    clean = text.strip().rstrip("+#!?")
    if clean.endswith("e.p."):
        clean = clean[:-4].strip()
    if clean in ("O-O", "0-0", "O-O-O", "0-0-0"):
        step = 2 if len(clean) == 3 else -2
        candidates = [m for m in pos.pseudo_moves("K") if m.to_sq - m.from_sq == step]
    else:
        match = _SAN_RE.match(clean)
        if not match:
            raise ParseError(f"unreadable move {text!r}")
        target = parse_square(match.group("target"))
        promo = match.group("promo")
        promo = promo.lower() if promo else None
        from_file = FILES.index(match.group("file")) if match.group("file") else None
        from_rank = int(match.group("rank")) - 1 if match.group("rank") else None
        candidates = [
            m for m in pos.pseudo_moves(match.group("piece") or "P")
            if m.to_sq == target and m.promo == promo
            and (from_file is None or m.from_sq % 8 == from_file)
            and (from_rank is None or m.from_sq // 8 == from_rank)
        ]
    candidates = [m for m in candidates if pos.is_legal(m)]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise ParseError(f"illegal move {text!r}")
    raise ParseError(f"ambiguous move {text!r}")


def to_san(pos: Position, move: Move) -> str:
    """Minimal SAN for a legal move, with +/# suffix."""
    piece = pos.board[move.from_sq]
    if piece == ".":
        raise DataError(f"no piece on {square_name(move.from_sq)}")
    kind = piece.upper()
    target = pos.board[move.to_sq]
    is_ep = kind == "P" and pos.ep is not None and move.to_sq == pos.ep and target == "."
    capture = target != "." or is_ep
    if kind == "K" and abs(move.to_sq - move.from_sq) == 2:
        core = "O-O" if move.to_sq > move.from_sq else "O-O-O"
    elif kind == "P":
        core = square_name(move.to_sq)
        if capture:
            core = FILES[move.from_sq % 8] + "x" + core
        if move.promo:
            core += "=" + move.promo.upper()
    else:
        others = [
            m for m in pos.pseudo_moves(kind)
            if m.to_sq == move.to_sq and m.from_sq != move.from_sq and pos.is_legal(m)
        ]
        disambig = ""
        if others:
            same_file = any(m.from_sq % 8 == move.from_sq % 8 for m in others)
            same_rank = any(m.from_sq // 8 == move.from_sq // 8 for m in others)
            if not same_file:
                disambig = FILES[move.from_sq % 8]
            elif not same_rank:
                disambig = str(move.from_sq // 8 + 1)
            else:
                disambig = square_name(move.from_sq)
        core = kind + disambig + ("x" if capture else "") + square_name(move.to_sq)
    after = pos.make(move)
    if after.in_check():
        core += "#" if not after.legal_moves() else "+"
    return core
