"""Closed-form upper bounds on the signless Laplacian spectral radius.

Every bound evaluates to a BoundValue. A bound whose hypotheses fail on
the given digraph is not an error: it comes back inapplicable, carrying a
reason instead of a number, so a full row can always be assembled for
side-by-side comparison. all_bounds returns that row in a fixed column
order (ROW_ORDER) used everywhere downstream.

Notation in the terms below and in the README bound catalog: d(i) is
the outdegree of i, t(i) the sum of outdegrees over the out-neighbors of
i (2-outdegree), and m(i) = t(i)/d(i) the average 2-outdegree, undefined
when d(i) = 0. Note d(i) * m(i) = t(i), which several formulas exploit
to stay on integer arithmetic as long as possible.

Each bound's term is written once, as a numpy expression over integer
degree data. all_bounds feeds it one digraph's arc or vertex arrays,
witness_value the witness's own entries, and BoundColumns a batch of
adjacency tensors broadcast over (N, n, n). All three run the same IEEE
operations in the same order, so their values agree bitwise.
"""

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .digraph import Digraph, is_strongly_connected


class BoundId(enum.Enum):
    ARC_DEG_SUM = "arc_deg_sum"
    DEG_PLUS_AVG = "deg_plus_avg"
    OVAL_AVG = "oval_avg"
    INDEG_SQRT = "indeg_sqrt"
    HONG_YOU = "hong_you"
    DEG_EXTREMES = "deg_extremes"
    OVAL_GEOMEAN = "oval_geomean"
    GENERIC_WEIGHT = "generic_weight"
    WEIGHT_SQRT_PROD = "weight_sqrt_prod"
    WEIGHT_DEG_SUM = "weight_deg_sum"
    WEIGHT_SQRT_SUM = "weight_sqrt_sum"
    WEIGHT_SUM_SQRT = "weight_sum_sqrt"
    MAXDEG_PLUS_2 = "maxdeg_plus_2"


# Fixed comparison-row order: the five classical bounds, then the newer
# family, with the conditional maxdeg_plus_2 bound appended last.
TABLE_ORDER = (
    BoundId.ARC_DEG_SUM,
    BoundId.DEG_PLUS_AVG,
    BoundId.OVAL_AVG,
    BoundId.INDEG_SQRT,
    BoundId.HONG_YOU,
    BoundId.DEG_EXTREMES,
    BoundId.OVAL_GEOMEAN,
    BoundId.WEIGHT_SQRT_PROD,
    BoundId.WEIGHT_DEG_SUM,
    BoundId.WEIGHT_SQRT_SUM,
    BoundId.WEIGHT_SUM_SQRT,
)
ROW_ORDER = TABLE_ORDER + (BoundId.MAXDEG_PLUS_2,)


ArcWeightFunction = Callable[[int, int], float]


@dataclass(frozen=True)
class BoundValue:
    """Evaluated bound: either a finite nonnegative value with an optional
    witness, or inapplicable with a reason.

    witness is the arc (i, j) for arc-maximum bounds, the vertex for
    vertex-maximum bounds, and the 0-based position into the
    non-increasing outdegree sort for hong_you. Ties resolve to the
    lexicographically first arc / smallest vertex / smallest position.
    """

    id: BoundId
    value: float | None
    reason: str | None = None
    witness: object = None

    def __post_init__(self):
        if self.value is None:
            if not self.reason:
                raise ValueError(f"inapplicable bound {self.id} needs a reason")
        else:
            if not math.isfinite(self.value) or self.value < 0:
                raise ValueError(
                    f"bound {self.id} produced a non-finite or negative value "
                    f"{self.value}"
                )

    @property
    def applicable(self) -> bool:
        return self.value is not None


# --- terms: arrays or numpy scalars in, same shape out -----------------------
#
# Arc terms take the endpoint data d(i), d(j), t(i), t(j); vertex terms take
# d, t and the in-neighbor outdegree sum of each vertex.


def _term_arc_deg_sum(di, dj, ti, tj):
    return np.add(di, dj, dtype=float)


def _term_oval_avg(di, dj, ti, tj):
    mi = ti / di
    mj = tj / dj
    return (di + dj + np.sqrt((di - dj) ** 2 + 4.0 * mi * mj)) / 2.0


def _term_oval_geomean(di, dj, ti, tj):
    # d(i) m(i) = t(i), so the geometric-mean radicand is sqrt(t(i) t(j))
    inner = np.sqrt(ti) * np.sqrt(tj)
    return (di + dj + np.sqrt((di - dj) ** 2 + 4.0 * inner)) / 2.0


def _term_weight_sqrt_prod(di, dj, ti, tj):
    mi = ti / di
    mj = tj / dj
    return di * np.sqrt(mi / dj) + dj * np.sqrt(mj / di)


def _term_weight_deg_sum(di, dj, ti, tj):
    # integer numerator and denominator: d(i)(d(i)+m(i)) = d(i)^2 + t(i)
    return (di * di + ti + dj * dj + tj) / (di + dj)


def _term_weight_sqrt_sum(di, dj, ti, tj):
    mi = ti / di
    mj = tj / dj
    return (di * np.sqrt(di + mi) + dj * np.sqrt(dj + mj)) / np.sqrt(di + dj)


def _term_weight_sum_sqrt(di, dj, ti, tj):
    mi = ti / di
    mj = tj / dj
    return (
        di * (np.sqrt(di) + np.sqrt(mi)) + dj * (np.sqrt(dj) + np.sqrt(mj))
    ) / (np.sqrt(di) + np.sqrt(dj))


def _term_deg_plus_avg(d, t, insum):
    return d + t / d


def _term_indeg_sqrt(d, t, insum):
    return d + np.sqrt(insum)


def _term_hong_you(d1, di, prefix, pos):
    """Term at 0-based position pos of the non-increasing outdegree sort:
    d1 is the largest outdegree, di the one at pos, and prefix the sum of
    the pos entries before it."""
    surplus = prefix - pos * di  # sum of (d_k - d_i) over k before pos
    return (
        d1 + 2 * di - 1 + np.sqrt((2 * di - d1 + 1) ** 2 + 8 * surplus)
    ) / 2.0


def _term_deg_extremes(n, m, hi, lo):
    surplus = m - lo * (n - 1)
    return np.maximum(hi + lo - 1 + surplus / hi, lo + 1 + surplus / 2)


def _term_maxdeg_plus_2(n, m, hi, lo):
    return np.add(hi, 2, dtype=float)


# --- applicability -------------------------------------------------------------
#
# A condition is (holds, reason): holds maps a _Shape to a bool or a bool
# array, reason renders the failure for one digraph's _Shape.


class _Shape(NamedTuple):
    """Graph-level data the applicability conditions read: scalars for one
    digraph, arrays over a batch. zero_head is the smallest arc head of
    outdegree 0, or -1."""

    n: object
    m: object
    lo: object
    hi: object
    strongly: object
    zero_head: object

    def take(self, rows):
        return _Shape(
            self.n, self.m[rows], self.lo[rows], self.hi[rows],
            self.strongly[rows], self.zero_head[rows],
        )


_SC = (lambda s: s.strongly, lambda s: "not strongly connected")
_N3 = (lambda s: s.n >= 3, lambda s: "needs at least 3 vertices")
_MIN_OUTDEG_1 = (
    lambda s: s.lo == 1, lambda s: f"min outdegree is {s.lo}, needs 1"
)
_MAX_OUTDEG_SIDE = (
    lambda s: s.hi >= (s.m - (s.n - 1)) / 2,
    lambda s: f"max outdegree {s.hi} below (m-(n-1))/2 = {(s.m - (s.n - 1)) / 2}",
)
_HEADS_POSITIVE = (
    lambda s: s.zero_head < 0,
    lambda s: (
        f"arc head {s.zero_head} has outdegree 0, so its average "
        f"2-outdegree is undefined"
    ),
)


def _reason(conditions, shape):
    """Reason of the first failing condition for one digraph, or None."""
    for holds, reason in conditions:
        if not holds(shape):
            return reason(shape)
    return None


# --- the bound table -----------------------------------------------------------
#
# kind says what the term ranges over and what the witness is: "arc"
# (maximum over arcs), "vertex" (maximum over vertices of positive
# outdegree), "position" (minimum over sorted-outdegree positions) or
# "graph" (one value, no witness).


class _Spec(NamedTuple):
    kind: str
    term: Callable
    conditions: tuple = ()


_SPECS = {
    BoundId.ARC_DEG_SUM: _Spec("arc", _term_arc_deg_sum, (_SC,)),
    BoundId.DEG_PLUS_AVG: _Spec("vertex", _term_deg_plus_avg),
    BoundId.OVAL_AVG: _Spec("arc", _term_oval_avg, (_SC,)),
    BoundId.INDEG_SQRT: _Spec("vertex", _term_indeg_sqrt, (_SC,)),
    BoundId.HONG_YOU: _Spec("position", _term_hong_you),
    BoundId.DEG_EXTREMES: _Spec("graph", _term_deg_extremes, (_SC, _N3)),
    BoundId.OVAL_GEOMEAN: _Spec("arc", _term_oval_geomean, (_SC,)),
    BoundId.WEIGHT_SQRT_PROD: _Spec(
        "arc", _term_weight_sqrt_prod, (_HEADS_POSITIVE,)
    ),
    BoundId.WEIGHT_DEG_SUM: _Spec("arc", _term_weight_deg_sum, (_HEADS_POSITIVE,)),
    BoundId.WEIGHT_SQRT_SUM: _Spec(
        "arc", _term_weight_sqrt_sum, (_HEADS_POSITIVE,)
    ),
    BoundId.WEIGHT_SUM_SQRT: _Spec(
        "arc", _term_weight_sum_sqrt, (_HEADS_POSITIVE,)
    ),
    BoundId.MAXDEG_PLUS_2: _Spec(
        "graph", _term_maxdeg_plus_2,
        (_SC, _N3, _MIN_OUTDEG_1, _MAX_OUTDEG_SIDE),
    ),
}


# --- one digraph ------------------------------------------------------------------


def _shape(g: Digraph) -> _Shape:
    data = g.data
    d, dst = data.outdeg, data.dst
    zero_heads = dst[d[dst] == 0]
    return _Shape(
        n=g.n,
        m=g.m,
        lo=int(d.min()),
        hi=int(d.max()),
        strongly=is_strongly_connected(g),
        zero_head=int(zero_heads.min()) if zero_heads.size else -1,
    )


def _sorted_prefix(d):
    """Non-increasing outdegrees and the sum of the entries before each
    position."""
    degs = np.sort(d)[::-1]
    return degs, np.cumsum(degs) - degs


def _evaluate(bid: BoundId, g: Digraph, shape: _Shape) -> BoundValue:
    spec = _SPECS[bid]
    reason = _reason(spec.conditions, shape)
    if reason is not None:
        return BoundValue(bid, None, reason)
    data = g.data
    d, t = data.outdeg, data.two_outdeg
    if spec.kind == "arc":
        src, dst = data.src, data.dst
        values = spec.term(d[src], d[dst], t[src], t[dst])
        k = int(np.argmax(values))  # first maximizer in sorted arc order
        return BoundValue(bid, float(values[k]),
                          witness=(int(src[k]), int(dst[k])))
    if spec.kind == "vertex":
        # m(i) is undefined at outdegree 0; the max runs over the rest
        (vertices,) = np.nonzero(d > 0)
        values = spec.term(d[vertices], t[vertices], data.insum[vertices])
        k = int(np.argmax(values))
        return BoundValue(bid, float(values[k]), witness=int(vertices[k]))
    if spec.kind == "position":
        degs, prefix = _sorted_prefix(d)
        values = spec.term(degs[0], degs, prefix, np.arange(degs.size))
        k = int(np.argmin(values))
        return BoundValue(bid, float(values[k]), witness=k)
    value = spec.term(shape.n, shape.m, shape.hi, shape.lo)
    return BoundValue(bid, float(value))


# --- public API -------------------------------------------------------------


def bound_generic_f(g: Digraph, f: ArcWeightFunction) -> BoundValue:
    """Arc-weight bound: max over arcs (i, j) of (F(i) + F(j)) / f(i, j),
    where F(v) = sum of f(v, k) over out-neighbors k of v.

    f must be positive and finite on every arc; that is checked up front
    and violations raise ValueError. Values of f off the arc set never
    enter the computation. The bound is scale-invariant in f and collapses
    to arc_deg_sum when f is constant.
    """
    data = g.data
    arcs = g.sorted_arcs()
    weights = np.array([float(f(i, j)) for i, j in arcs])
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0.0)))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"arc weight function must be positive and finite on every "
            f"arc; got f{arcs[k]} = {float(weights[k])}"
        )
    row = np.bincount(data.src, weights, g.n)  # summed in arc order
    values = (row[data.src] + row[data.dst]) / weights
    k = int(np.argmax(values))  # first maximizer in sorted arc order
    return BoundValue(BoundId.GENERIC_WEIGHT, float(values[k]), witness=arcs[k])


def all_bounds(g: Digraph) -> tuple:
    """Evaluate the full comparison row in ROW_ORDER.

    Per-bound hypothesis failures surface as inapplicable entries, never
    exceptions, so the row always has all twelve columns.
    """
    shape = _shape(g)
    return tuple(_evaluate(bid, g, shape) for bid in ROW_ORDER)


def witness_value(g: Digraph, bv: BoundValue) -> float | None:
    """Recompute the term the witness claims attains the bound.

    Returns None for bounds without witness semantics (deg_extremes,
    maxdeg_plus_2) and for inapplicable values. The replay evaluates the
    evaluator's own term at the witness alone, so a valid witness
    reproduces the stored value exactly.
    """
    if bv.value is None or bv.witness is None:
        return None
    spec = _SPECS[bv.id]
    data = g.data
    d, t = data.outdeg, data.two_outdeg
    if spec.kind == "arc":
        i, j = bv.witness
        return float(spec.term(d[i], d[j], t[i], t[j]))
    if spec.kind == "vertex":
        v = bv.witness
        return float(spec.term(d[v], t[v], data.insum[v]))
    if spec.kind == "position":
        degs, prefix = _sorted_prefix(d)
        pos = bv.witness
        return float(spec.term(degs[0], degs[pos], prefix[pos], pos))
    return None


# --- batches -----------------------------------------------------------------


def _per_vertex(index, weights, count, n):
    """Integer sums of weights into a (count, n) array at flat index."""
    sums = np.bincount(index, weights, count * n)
    return sums.astype(np.int64).reshape(count, n)


class BoundColumns:
    """Bound values over a batch of digraphs on the same n vertices.

    adj is a boolean tensor of shape (N, n, n) with adj[k, i, j] set when
    digraph k has the arc i -> j; like a Digraph, each has at least one
    arc and no loop. strongly flags the strongly connected ones.
    applicable(bid) flags the digraphs that meet the bound's hypotheses,
    and values(bid) equals, bitwise, the value all_bounds reports for
    each digraph, NaN for an inapplicable one. Reasons are left to
    all_bounds, which renders them for one digraph at a time.
    """

    def __init__(self, adj, strongly):
        self.adj = adj = np.asarray(adj, dtype=bool)
        count, n = adj.shape[:2]
        if adj[:, np.arange(n), np.arange(n)].any():
            raise ValueError("loop arcs are not allowed")
        k, i, j = np.nonzero(adj)
        self.outdeg = d = adj.sum(axis=2)
        if not d.any(axis=1).all():
            raise ValueError("every digraph needs at least one arc")
        self.two_outdeg = _per_vertex(k * n + i, d[k, j], count, n)
        self.insum = _per_vertex(k * n + j, d[k, i], count, n)
        heads = adj.any(axis=1) & (d == 0)
        self.shape = _Shape(
            n=adj.shape[1],
            m=d.sum(axis=1),
            lo=d.min(axis=1),
            hi=d.max(axis=1),
            strongly=np.asarray(strongly, dtype=bool),
            zero_head=np.where(heads.any(axis=1), heads.argmax(axis=1), -1),
        )

    def __len__(self):
        return len(self.adj)

    def select(self, rows) -> "BoundColumns":
        """The digraphs at rows (a boolean mask or indices), in order."""
        picked = object.__new__(BoundColumns)
        picked.adj = self.adj[rows]
        picked.outdeg = self.outdeg[rows]
        picked.two_outdeg = self.two_outdeg[rows]
        picked.insum = self.insum[rows]
        picked.shape = self.shape.take(rows)
        return picked

    def applicable(self, bid: BoundId):
        mask = np.ones(len(self), dtype=bool)
        for holds, _ in _SPECS[bid].conditions:
            mask &= holds(self.shape)
        return mask

    def values(self, bid: BoundId):
        """Float array over the batch, NaN where the bound is inapplicable."""
        spec = _SPECS[bid]
        d, t, s = self.outdeg, self.two_outdeg, self.shape
        # inapplicable digraphs and vertices of outdegree 0 may divide by
        # zero; both are masked out below
        with np.errstate(divide="ignore", invalid="ignore"):
            if spec.kind == "arc":
                # arcs come grouped by digraph, at least one per digraph
                k, i, j = np.nonzero(self.adj)
                terms = spec.term(d[k, i], d[k, j], t[k, i], t[k, j])
                values = np.maximum.reduceat(terms, np.cumsum(s.m) - s.m)
            elif spec.kind == "vertex":
                terms = spec.term(d, t, self.insum)
                values = np.where(d > 0, terms, -np.inf).max(axis=1)
            elif spec.kind == "position":
                degs = -np.sort(-d, axis=1)
                prefix = np.cumsum(degs, axis=1) - degs
                pos = np.arange(s.n)
                values = spec.term(degs[:, :1], degs, prefix, pos).min(axis=1)
            else:
                values = spec.term(s.n, s.m, s.hi, s.lo)
        return np.where(self.applicable(bid), values, np.nan)
