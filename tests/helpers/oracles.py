"""Independent brute-force oracles shared by unit and acceptance tests."""

import numpy as np


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
