"""Reference values for the compute workloads, written without qbounds.

q comes from a Collatz-Wielandt power iteration on an arc-list matvec, so
it shares no code with qbounds.spectral: for a strongly connected digraph
Q = D + A is irreducible with a positive diagonal, every iterate stays
positive, and min/max of (Qx)_i / x_i enclose q. The bound row restates
the catalog formulas as numpy expressions, with the same inapplicability
reasons as qbounds.bounds.
"""

import numpy as np

_NOT_SC = "not strongly connected"
_NEEDS_N3 = "needs at least 3 vertices"


def strongly_connected(n, src, dst) -> bool:
    """Every vertex reaches vertex 0 and is reached from it."""
    for tails, heads in ((src, dst), (dst, src)):
        nbrs = [[] for _ in range(n)]
        for i, j in zip(tails.tolist(), heads.tolist()):
            nbrs[i].append(j)
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for w in nbrs[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if not all(seen):
            return False
    return True


def q_enclosure(n, src, dst, tol=1e-10, max_iter=10_000_000):
    """(lo, hi, iterations) with lo <= q <= hi and hi - lo <= tol, for a
    strongly connected digraph given as 0-based arc arrays."""
    if not strongly_connected(n, src, dst):
        raise ValueError("the reference enclosure needs a strongly connected digraph")
    outdeg = np.bincount(src, minlength=n).astype(float)
    x = np.ones(n)
    for iteration in range(1, max_iter + 1):
        y = outdeg * x + np.bincount(src, weights=x[dst], minlength=n)
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol:
            return lo, hi, iteration
        x = y / y.max()
    raise RuntimeError(f"reference power iteration did not reach {tol}")


def bound_row(n, src, dst) -> dict:
    """{bound id: (value, reason)} with exactly one of the two set."""
    m = len(src)
    d = np.bincount(src, minlength=n).astype(float)
    t = np.bincount(src, weights=d[dst], minlength=n)
    insum = np.bincount(dst, weights=d[src], minlength=n)
    sc = strongly_connected(n, src, dst)
    di, dj, ti, tj = d[src], d[dst], t[src], t[dst]
    row = {}

    def arc_bound(bid, needs_sc, term):
        if needs_sc and not sc:
            row[bid] = (None, _NOT_SC)
        else:
            row[bid] = (float(term().max()), None)

    arc_bound("arc_deg_sum", True, lambda: di + dj)
    positive = d > 0
    row["deg_plus_avg"] = (float((d[positive] + t[positive] / d[positive]).max()), None)

    def oval_avg():
        mi, mj = ti / di, tj / dj
        return (di + dj + np.sqrt((di - dj) ** 2 + 4.0 * mi * mj)) / 2.0

    arc_bound("oval_avg", True, oval_avg)
    row["indeg_sqrt"] = (
        (float((d + np.sqrt(insum)).max()), None) if sc else (None, _NOT_SC)
    )

    degs = np.sort(d)[::-1]
    prefix = np.concatenate(([0.0], np.cumsum(degs)))[:-1]
    surplus = prefix - np.arange(n) * degs
    hong = (
        degs[0] + 2 * degs - 1 + np.sqrt((2 * degs - degs[0] + 1) ** 2 + 8 * surplus)
    ) / 2.0
    row["hong_you"] = (float(hong.min()), None)

    hi_deg, lo_deg = int(d.max()), int(d.min())
    if not sc:
        row["deg_extremes"] = (None, _NOT_SC)
    elif n < 3:
        row["deg_extremes"] = (None, _NEEDS_N3)
    else:
        extra = m - lo_deg * (n - 1)
        row["deg_extremes"] = (
            max(hi_deg + lo_deg - 1 + extra / hi_deg, lo_deg + 1 + extra / 2), None
        )

    arc_bound(
        "oval_geomean", True,
        lambda: (di + dj + np.sqrt((di - dj) ** 2 + 4.0 * (np.sqrt(ti) * np.sqrt(tj)))) / 2.0,
    )

    zero_heads = np.flatnonzero((d == 0)[dst])
    if zero_heads.size:
        head = int(dst[zero_heads].min())
        reason = (
            f"arc head {head} has outdegree 0, so its average "
            f"2-outdegree is undefined"
        )
        for bid in ("weight_sqrt_prod", "weight_deg_sum", "weight_sqrt_sum",
                    "weight_sum_sqrt"):
            row[bid] = (None, reason)
    else:
        mi, mj = ti / di, tj / dj
        arc_bound("weight_sqrt_prod", False,
                  lambda: di * np.sqrt(mi / dj) + dj * np.sqrt(mj / di))
        arc_bound("weight_deg_sum", False,
                  lambda: (di * di + ti + dj * dj + tj) / (di + dj))
        arc_bound("weight_sqrt_sum", False,
                  lambda: (di * np.sqrt(di + mi) + dj * np.sqrt(dj + mj))
                  / np.sqrt(di + dj))
        arc_bound("weight_sum_sqrt", False,
                  lambda: (di * (np.sqrt(di) + np.sqrt(mi))
                           + dj * (np.sqrt(dj) + np.sqrt(mj)))
                  / (np.sqrt(di) + np.sqrt(dj)))

    threshold = (m - (n - 1)) / 2
    if not sc:
        row["maxdeg_plus_2"] = (None, _NOT_SC)
    elif n < 3:
        row["maxdeg_plus_2"] = (None, _NEEDS_N3)
    elif lo_deg != 1:
        row["maxdeg_plus_2"] = (None, f"min outdegree is {lo_deg}, needs 1")
    elif hi_deg < threshold:
        row["maxdeg_plus_2"] = (
            None, f"max outdegree {hi_deg} below (m-(n-1))/2 = {threshold}"
        )
    else:
        row["maxdeg_plus_2"] = (float(hi_deg + 2), None)
    return row
