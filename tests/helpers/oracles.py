"""Independent brute-force oracles shared by unit and acceptance tests."""

import json

import numpy as np

from rankforge.errors import DataError, ParseError
from rankforge.records.chess_rules import _SAN_RE, FILES, parse_square, square_name


def brute_force_first_split(X, y, min_samples_leaf=1):
    """Exhaustive search over all (feature, midpoint threshold) pairs for the
    split minimizing total SSE; ties to lower feature then lower threshold.
    Plain-Python, coded independently of the production split search."""
    n, d = X.shape
    best = None  # (sse, feature, threshold)
    for f in range(d):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2
            left = [y[i] for i in range(n) if X[i, f] <= threshold]
            right = [y[i] for i in range(n) if X[i, f] > threshold]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            mean_l = sum(left) / len(left)
            mean_r = sum(right) / len(right)
            sse = (sum((v - mean_l) ** 2 for v in left)
                   + sum((v - mean_r) ** 2 for v in right))
            key = (round(sse, 9), f, threshold)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[1], best[2]


def best_split_for_feature(x, residuals, min_samples_leaf):
    """Best (gain, threshold) splitting one feature column, or None: the
    per-feature search that stably argsorts the node's own rows.

    Gain is the exact SSE reduction: S_l^2/n_l + S_r^2/n_r - S^2/n.
    """
    n = len(x)
    if n < 2 * min_samples_leaf:
        return None
    order = np.argsort(x, kind="stable")
    xs = x[order]
    rs = residuals[order]
    csum = np.cumsum(rs)
    total = csum[-1]
    n_left = np.arange(1, n)
    n_right = n - n_left
    valid = (
        (xs[:-1] < xs[1:])
        & (n_left >= min_samples_leaf)
        & (n_right >= min_samples_leaf)
    )
    if not valid.any():
        return None
    s_left = csum[:-1]
    gain = s_left * s_left / n_left + (total - s_left) ** 2 / n_right - total * total / n
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))  # first max = lowest threshold
    threshold = (xs[best] + xs[best + 1]) / 2.0
    return float(gain[best]), float(threshold)


def reference_search_node(node, columns, residuals, features, params):
    """Drop-in for `rankforge.gbdt._search_node` that loops over the
    features, sorting the node's rows anew for each one, and keeps a
    feature's best split only when its gain is strictly larger than every
    lower feature's (so ties go to the lower feature)."""
    best = None
    for k, f in enumerate(features):
        found = best_split_for_feature(
            columns[k, node.indices], residuals[node.indices], params.min_samples_leaf
        )
        if found is None:
            continue
        gain, threshold = found
        if gain <= params.min_gain:
            continue
        if best is None or gain > best[0]:
            best = (gain, int(f), threshold)
    node.best = best


# ---------------------------------------------------------------------------
# chess replay references: legality by make-and-check on every pseudo-move


def reference_legal_moves(pos):
    """Every pseudo-move that passes ``is_legal``, in generation order."""
    return [m for m in pos.pseudo_moves() if pos.is_legal(m)]


def perft(pos, depth: int) -> int:
    """Leaf count of the legal-move tree ``depth`` plies deep, through the
    production ``legal_moves``; compared with published reference counts."""
    if depth == 0:
        return 1
    return sum(perft(pos.make(move), depth - 1) for move in pos.legal_moves())


def reference_parse_san(pos, text):
    """Resolve a SAN token by filtering the full legal-move list."""
    clean = text.strip().rstrip("+#!?")
    if clean.endswith("e.p."):
        clean = clean[:-4].strip()
    if clean in ("O-O", "0-0"):
        candidates = [
            m for m in reference_legal_moves(pos)
            if pos.board[m.from_sq].upper() == "K" and m.to_sq - m.from_sq == 2
        ]
    elif clean in ("O-O-O", "0-0-0"):
        candidates = [
            m for m in reference_legal_moves(pos)
            if pos.board[m.from_sq].upper() == "K" and m.from_sq - m.to_sq == 2
        ]
    else:
        match = _SAN_RE.match(clean)
        if not match:
            raise ParseError(f"unreadable move {text!r}")
        piece = match.group("piece") or "P"
        target = parse_square(match.group("target"))
        promo = match.group("promo")
        promo = promo.lower() if promo else None
        from_file = FILES.index(match.group("file")) if match.group("file") else None
        from_rank = int(match.group("rank")) - 1 if match.group("rank") else None
        candidates = []
        for m in reference_legal_moves(pos):
            if m.to_sq != target or pos.board[m.from_sq].upper() != piece:
                continue
            if m.promo != promo:
                continue
            if from_file is not None and m.from_sq % 8 != from_file:
                continue
            if from_rank is not None and m.from_sq // 8 != from_rank:
                continue
            candidates.append(m)
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise ParseError(f"illegal move {text!r}")
    raise ParseError(f"ambiguous move {text!r}")


def reference_to_san(pos, move):
    """Minimal SAN for a legal move, disambiguated against the full
    legal-move list, with +/# suffix."""
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
            m for m in reference_legal_moves(pos)
            if m.to_sq == move.to_sq
            and m.from_sq != move.from_sq
            and pos.board[m.from_sq].upper() == kind
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
        core += "#" if not reference_legal_moves(after) else "+"
    return core


def reference_loss_stat(losses, stat: str, n_cut: int | None) -> tuple[float, bool]:
    """(value, empty) of one loss statistic over (ply, loss) pairs: the
    losses at plies <= n_cut (all when n_cut is None) as a list, reduced
    with numpy; 0.0 and empty=True when no move survives the cut."""
    kept = [loss for ply, loss in losses if n_cut is None or ply <= n_cut]
    if not kept:
        return 0.0, True
    arr = np.asarray(kept, dtype=float)
    if stat == "mean":
        return float(arr.mean()), False
    if stat == "median":
        return float(np.median(arr)), False
    return float(arr.std(ddof=0)), False


def model_json(model) -> str:
    """A model's dict as one JSON text with sorted keys, for byte comparisons."""
    return json.dumps(model.to_dict(), sort_keys=True)


def reference_loss_by_ply_rows(traces):
    """Fig-3-style table from (ply, loss) pairs, grouped in a dict of lists:
    each ply's losses in input order."""
    by_ply: dict[int, list[float]] = {}
    for ply, loss in traces:
        by_ply.setdefault(int(ply), []).append(float(loss))
    out = []
    for ply in sorted(by_ply):
        arr = np.asarray(by_ply[ply])
        out.append({
            "ply": ply,
            "mean_loss": float(arr.mean()),
            "std_loss": float(arr.std(ddof=0)),
            "count": len(arr),
        })
    return out
