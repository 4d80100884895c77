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
degree data, and evaluated in one place: BoundColumns, over a ragged
batch of digraphs of any sizes laid out one after another. all_bounds is
a batch of one that renders the reasons; witness_value feeds the term
the witness's own entries. Elementwise IEEE operations and exact maxima
and minima give every digraph the same values and witnesses in any
batch.
"""

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .digraph import Classification, Digraph, _arc_ends


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
# A condition is (holds, reason): holds maps a batch's _Shape to a bool
# array, reason renders the failure for one digraph's _Shape.


class _Shape(NamedTuple):
    """Graph-level data the applicability conditions read: arrays over a
    batch, or one digraph's Python scalars to render a reason. zero_head
    is the smallest arc head of outdegree 0, or -1."""

    n: object
    m: object
    lo: object
    hi: object
    strongly: object
    zero_head: object


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
# "graph" (one value, no witness). The table is written in the fixed
# comparison-row order, ROW_ORDER: the five classical bounds, then the
# newer family, with the conditional maxdeg_plus_2 bound appended last.


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
    BoundId.WEIGHT_SQRT_PROD: _Spec("arc", _term_weight_sqrt_prod, (_HEADS_POSITIVE,)),
    BoundId.WEIGHT_DEG_SUM: _Spec("arc", _term_weight_deg_sum, (_HEADS_POSITIVE,)),
    BoundId.WEIGHT_SQRT_SUM: _Spec("arc", _term_weight_sqrt_sum, (_HEADS_POSITIVE,)),
    BoundId.WEIGHT_SUM_SQRT: _Spec("arc", _term_weight_sum_sqrt, (_HEADS_POSITIVE,)),
    BoundId.MAXDEG_PLUS_2: _Spec(
        "graph", _term_maxdeg_plus_2,
        (_SC, _N3, _MIN_OUTDEG_1, _MAX_OUTDEG_SIDE),
    ),
}

ROW_ORDER = tuple(_SPECS)
TABLE_ORDER = ROW_ORDER[:-1]


# --- public API -------------------------------------------------------------


def bound_generic_f(g: Digraph, f: ArcWeightFunction) -> BoundValue:
    """Arc-weight bound: max over arcs (i, j) of (F(i) + F(j)) / f(i, j),
    where F(v) = sum of f(v, k) over out-neighbors k of v.

    f must be positive and finite on every arc; that is checked up front
    and violations raise ValueError. Values of f off the arc set never
    enter the computation. The bound is scale-invariant in f and collapses
    to arc_deg_sum when f is constant.
    """
    src, dst = _arc_ends(g)
    arcs = g.sorted_arcs()
    weights = np.array([float(f(i, j)) for i, j in arcs])
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0.0)))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"arc weight function must be positive and finite on every "
            f"arc; got f{arcs[k]} = {float(weights[k])}"
        )
    row = np.bincount(src, weights, g.n)  # summed in arc order
    values = (row[src] + row[dst]) / weights
    k = int(np.argmax(values))  # first maximizer in sorted arc order
    return BoundValue(BoundId.GENERIC_WEIGHT, float(values[k]), witness=arcs[k])


def all_bounds(g: Digraph) -> tuple:
    """Evaluate the full comparison row in ROW_ORDER, as a batch of one.

    Per-bound hypothesis failures surface as inapplicable entries, never
    exceptions, so the row always has all twelve columns.
    """
    cols = BoundColumns.from_graphs([g])
    shape = _Shape(*(field[0].item() for field in cols.shape))
    row = []
    for bid in ROW_ORDER:
        reason = _reason(_SPECS[bid].conditions, shape)
        if reason is not None:
            row.append(BoundValue(bid, None, reason))
            continue
        values, witnesses = cols.values(bid)
        w = witnesses.item()
        if _SPECS[bid].kind == "arc":
            w = (int(cols.tail[w]), int(cols.head[w]))
        row.append(BoundValue(bid, values.item(), witness=None if w == -1 else w))
    return tuple(row)


def witness_value(g: Digraph, bv: BoundValue) -> float | None:
    """Recompute the term the witness claims attains the bound.

    Returns None for bounds without witness semantics (deg_extremes,
    maxdeg_plus_2, whatever witness they carry) and for inapplicable
    values. The replay evaluates the evaluator's own term at the witness
    alone, so a valid witness reproduces the stored value exactly. A
    value it could not have given raises ValueError: a bound outside
    ROW_ORDER (generic_weight), an arc witness that is not an arc of g,
    or a position or vertex witness that is not an integer (bool and
    float included), lies outside [0, n), or is a vertex of outdegree 0.
    """
    if bv.id not in _SPECS:
        raise ValueError(f"{bv.id.value} has no term in the bound table to replay")
    kind, w = _SPECS[bv.id].kind, bv.witness
    if bv.value is None or w is None or kind == "graph":
        return None
    cols = BoundColumns.from_graphs([g])
    if kind == "arc":  # replayed by its index among the sorted arcs
        pair = isinstance(w, tuple) and len(w) == 2 and all(
            np.issubdtype(type(x), np.integer) and 0 <= x < g.n for x in w)
        at = np.flatnonzero((cols.tail == w[0]) & (cols.head == w[1])) if pair else ()
        if len(at) != 1:
            raise ValueError(f"{bv.id.value} witness {w!r} is not an arc of g")
        (w,) = at
    elif not np.issubdtype(type(w), np.integer):  # refuses bool and float
        raise ValueError(f"{bv.id.value} witness {w!r} is not an integer")
    elif not 0 <= w < g.n:
        raise ValueError(f"{bv.id.value} witness {w!r} lies outside [0, {g.n})")
    elif kind == "vertex" and cols.outdeg[w] == 0:
        raise ValueError(f"{bv.id.value} witness {w!r} has outdegree 0")
    return float(cols.replay(bv.id, w))


# --- batches -----------------------------------------------------------------

# BoundColumns.slices cuts a list of digraphs into batches of at most
# _SLICE_ARCS arcs (a larger digraph makes a batch alone), which bounds
# the working memory of a batch of bounds and of spectral_radii. On the
# 600-graph sweep corpus (139,136 arcs; 46.8 MB of process with its
# graph data built) a sweep's peak RSS is 63.2 MB in one batch, 53.7 MB
# with batches of 2^15 arcs, 51.2 MB with 2^14, 50.2 MB with 2^13 and
# 49.2 MB one graph at a time. Of 2^13 and 2^14, 2^14 gave the faster
# sweep_corpus bench: median wall time 0.285 against 0.305 s over 10
# runs each on a shared 2-core x86-64 host.
_SLICE_ARCS = 1 << 14


# The most vertices BoundColumns(adj) takes: its strong connectivity runs
# on int64 bitmask rows, one bit per vertex. from_graphs takes any n.
MAX_TENSOR_N = 62


def _unpack(rows):
    """The boolean (N, n, n) tensor of vertex-major bit rows, int64 (n, N)
    with bit j of rows[i, k] for the arc i -> j of digraph k. They are
    transposed to little-endian (N, n) rows, whose bytes unpack in order."""
    n, count = rows.shape
    octets = np.ascontiguousarray(rows.T, dtype="<i8").view(np.uint8)
    return np.unpackbits(octets.reshape(count, n, 8), axis=2, count=n,
                         bitorder="little").view(bool)


def _closure(rows):
    """Warshall's transitive closure of a batch of vertex-major bit rows,
    int64 (n, N): bit j of reach[i, k] says that i reaches j in digraph k,
    or i == j. Each vertex's rows are contiguous, so a step ORs in the
    whole row reach[k]."""
    n = rows.shape[0]
    reach = rows | np.left_shift(1, np.arange(n, dtype=np.int64))[:, None]
    for k in range(n):
        # -(bit k) is all ones where i reaches k, and then i reaches what k does
        reach |= -((reach >> k) & 1) & reach[k]
    return reach


class BoundColumns:
    """Bound values over a ragged batch: digraphs of any sizes laid out
    one after another. Digraph k owns the vertices from vertex_start[k]
    and the arcs from arc_start[k] on, arcs in sorted (tail, head) order.
    Arrays per arc: tail, head (vertices numbered across the batch) and
    arc_graph; per vertex: outdeg, two_outdeg, insum, vertex_graph and
    component_of (strong components, numbered in each digraph); per
    digraph: component_count and shape (shape.strongly: one component).

    BoundColumns(adj), a tensor batch of a boolean (N, n, n) tensor
    (adj[k, i, j] for the arc i -> j of digraph k; each with an arc and
    no loop, n at most MAX_TENSOR_N), computes the vertex columns and the
    shape at once from the tensor, and numbers the components by their
    lowest vertices from a bitmask closure; its arc arrays are laid out
    on first use, as are those of its selections. from_graphs(graphs)
    lays out a nonempty list of Digraphs of any n from their arc keys,
    components in the order of their GraphData. slices(graphs) cuts a
    list into batches of at most _SLICE_ARCS arcs. values(bid) gives each
    digraph's value and witness, bitwise those of all_bounds, a batch of
    one that renders the reasons; values_only(bid) the values alone,
    without the two passes that find the witnesses, and classification()
    the flags of classify, also a batch of one.
    """

    def __init__(self, adj, _reach=None):  # _reach: a caller's closure of adj
        adj = np.array(adj, dtype=bool)  # its own copy: the arcs are read from it later
        if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
            raise ValueError(f"adj must have shape (N, n, n), got {adj.shape}")
        count, n = adj.shape[:2]
        if n > MAX_TENSOR_N:
            raise ValueError(
                f"BoundColumns(adj) takes at most {MAX_TENSOR_N} vertices, got "
                f"n = {n}; lay out larger digraphs with BoundColumns.from_graphs")
        if adj[:, np.arange(n), np.arange(n)].any():
            raise ValueError("loop arcs are not allowed")
        a = adj.astype(np.float32)  # exact: t(i) and insum are at most 61 * 61
        d = np.einsum("kij->ki", a)
        insum = np.einsum("kij,ki->kj", a, d)
        degrees = [x.astype(np.int64) for x in (d, np.einsum("kij,kj->ki", a, d), insum)]
        # reductions over each digraph's vertices run on vertex-major (n, N)
        # arrays, the outdegrees' copy and the closure, combining whole rows
        outdeg = np.ascontiguousarray(degrees[0].T)
        m, lo = outdeg.sum(axis=0), outdeg.min(axis=0)
        if not m.all():
            raise ValueError("every digraph needs at least one arc")
        if _reach is None:  # the closure of the tensor's bit rows
            packed = np.packbits(adj, axis=2, bitorder="little")
            _reach = _closure(np.ascontiguousarray(sum(
                packed[:, :, b].astype(np.int64) << 8 * b
                for b in range(packed.shape[2])).T))
        # one component in a strongly connected digraph; elsewhere i and j
        # share one when they reach the same vertices, numbered by lowest vertex
        component_of = np.zeros((count, n), dtype=np.intp)
        component_count = np.ones(count, dtype=np.intp)
        (split,) = np.nonzero(np.bitwise_and.reduce(_reach, axis=0) != (1 << n) - 1)
        if split.size:
            reach = _reach[:, split].T
            lowest = (reach[:, :, None] == reach[:, None, :]).argmax(axis=2)
            ids = np.take_along_axis(
                np.cumsum(lowest == np.arange(n), axis=1) - 1, lowest, axis=1)
            component_of[split], component_count[split] = ids, ids.max(axis=1) + 1
        # every tail has outdegree >= 1, so the heads are the vertices of
        # positive insum; only a digraph with a vertex of outdegree 0 has one
        zero_head = np.full(count, -1)
        (some,) = np.nonzero(lo == 0)
        if some.size:
            zero_heads = (insum[some] > 0) & (d[some] == 0)
            zero_head[some] = np.where(zero_heads.any(axis=1), zero_heads.argmax(axis=1), -1)
        self._adj = adj
        self._lay_out([x.ravel() for x in degrees],
                      _Shape(np.full(count, n), m, lo, outdeg.max(axis=0),
                             component_count == 1, zero_head),
                      component_of.ravel(), component_count)

    def __getattr__(self, name):
        """A tensor batch lays out its arcs when one of them is first read."""
        if name not in ("tail", "head", "arc_graph", "arc_start"):
            raise AttributeError(name)
        n = self._adj.shape[1]
        tail, j = np.divmod(np.flatnonzero(self._adj), n)  # tail = k n + i, arc i -> j
        self._arcs(tail, tail - tail % n + j)
        return getattr(self, name)

    @classmethod
    def from_graphs(cls, graphs) -> "BoundColumns":
        """The batch of a nonempty list of Digraphs, in order, each with its
        strong components in GraphData's numbering."""
        if not graphs:
            raise ValueError("from_graphs needs a nonempty list of digraphs, got none")
        n, m = np.array([g.n for g in graphs]), np.array([g.m for g in graphs])
        count = np.array([g.data.component_count for g in graphs])
        size, starts = n.sum(), np.cumsum(n) - n
        src, dst = np.divmod(np.concatenate([g._keys for g in graphs]), np.repeat(n, m))
        offset = np.repeat(starts, m)
        tail, head = src + offset, dst + offset
        d = np.bincount(tail, minlength=size)
        zero_head = np.minimum.reduceat(np.where(d[head] == 0, dst, size),
                                        np.cumsum(m) - m)
        zero_head[zero_head == size] = -1
        cols = object.__new__(cls)
        cols._lay_out([d, np.bincount(tail, d[head], size).astype(np.int64),
                       np.bincount(head, d[tail], size).astype(np.int64)],
                      _Shape(n, m, np.minimum.reduceat(d, starts),
                             np.maximum.reduceat(d, starts), count == 1, zero_head),
                      np.concatenate([g.data.component_of for g in graphs]), count)
        cols._arcs(tail, head)
        return cols

    @classmethod
    def slices(cls, graphs):
        """(start, batch) for consecutive runs of graphs holding at most
        _SLICE_ARCS arcs each, or one larger digraph."""
        start, arcs = 0, 0
        for k, g in enumerate(graphs):
            if arcs and arcs + g.m > _SLICE_ARCS:
                yield start, cls.from_graphs(graphs[start:k])
                start, arcs = k, 0
            arcs += g.m
        if arcs:
            yield start, cls.from_graphs(graphs[start:])

    def _lay_out(self, degrees, shape, component_of, component_count):
        """Digraphs of shape.n vertices; degrees is (outdeg, two_outdeg, insum)."""
        self.outdeg, self.two_outdeg, self.insum = degrees
        self.vertex_graph = np.arange(len(shape.n)).repeat(shape.n)
        self.vertex_start = np.cumsum(shape.n) - shape.n
        self.shape, self.component_of, self.component_count = (
            shape, component_of, component_count)

    def _arcs(self, tail, head):
        """The arcs tail -> head, in sorted order, numbered across the batch."""
        self.tail, self.head = tail, head
        self.arc_graph = self.vertex_graph[tail]
        self.arc_start = np.cumsum(self.shape.m) - self.shape.m

    def __len__(self):
        return len(self.vertex_start)

    def select(self, rows) -> "BoundColumns":
        """The digraphs that a boolean mask over the batch picks, in order."""
        kept = rows[self.vertex_graph]
        picked = object.__new__(BoundColumns)
        picked._lay_out([x[kept] for x in (self.outdeg, self.two_outdeg, self.insum)],
                        _Shape(*(field[rows] for field in self.shape)),
                        self.component_of[kept], self.component_count[rows])
        if "_adj" in vars(self):
            picked._adj = self._adj[rows]
        else:
            arcs, renumber = rows[self.arc_graph], np.cumsum(kept) - 1
            picked._arcs(renumber[self.tail[arcs]], renumber[self.head[arcs]])
        return picked

    def applicable(self, bid: BoundId):
        mask = np.ones(len(self), dtype=bool)
        for holds, _ in _SPECS[bid].conditions:
            mask &= holds(self.shape)
        return mask

    def in_g_star_class(self):
        """The G* class over the batch: the hypotheses of maxdeg_plus_2
        (its n >= 3 is implied by the rest) and an arc from a
        max-outdegree vertex to one of outdegree at least 2."""
        d = self.outdeg
        hubs = d[self.tail] == self.shape.hi[self.arc_graph]
        found = np.logical_or.reduceat(hubs & (d[self.head] >= 2), self.arc_start)
        return self.applicable(BoundId.MAXDEG_PLUS_2) & found

    def classification(self) -> Classification:
        """The flags of classify over the batch, as bool arrays. Bipartite
        semiregular is the working definition of the README's "Two fine
        points": every arc bidirected, positive outdegrees, and parts of a
        proper 2-coloring with one outdegree each."""
        s, d, size = self.shape, self.outdeg, len(self.outdeg)
        di, dj, own = d[self.tail], d[self.head], self.arc_graph
        # every arc is bidirected when the reversed arcs, sorted, are the
        # arcs; reversal keeps each digraph's arcs in its own block
        bidirected = np.logical_and.reduceat(
            np.sort(self.head * size + self.tail) == self.tail * size + self.head,
            self.arc_start)
        regular, possible = s.lo == s.hi, bidirected & (s.lo > 0)
        # with two outdegrees the parts are the outdegree classes, which
        # every arc joins; with one, the digraph is 2-colorable when no
        # vertex shares a strong component of the bipartite double cover
        # (arcs i -> j + n and i + n -> j) with its copy: only an odd
        # cycle joins them
        semiregular = possible & ~regular & np.logical_and.reduceat(
            (np.minimum(di, dj) == s.lo[own]) & (np.maximum(di, dj) == s.hi[own]),
            self.arc_start)
        for k in np.flatnonzero(possible & regular).tolist():
            n, arcs = s.n[k], slice(self.arc_start[k], self.arc_start[k] + s.m[k])
            i, j = (ends[arcs] - self.vertex_start[k] for ends in (self.tail, self.head))
            cover = Digraph.from_arrays(2 * n, np.r_[i, i + n], np.r_[j + n, j])
            component_of = cover.data.component_of
            semiregular[k] = (component_of[:n] != component_of[n:]).all()
        return Classification(
            is_strongly_connected=s.strongly,
            is_regular=regular,
            is_directed_cycle=s.strongly & (s.hi == 1),
            # a center of outdegree n - 1, every arc bidirected: the star
            is_bidirectional_star=(bidirected & (s.hi == s.n - 1)
                                   & (s.m == 2 * (s.n - 1))),
            is_bipartite_semiregular=semiregular,
            is_in_g_star_class=self.in_g_star_class(),
        )

    def _inputs(self, kind, at=slice(None)):
        """The term's arguments at the elements at: arcs, vertices, sorted
        positions or digraphs, by kind."""
        d, t = self.outdeg, self.two_outdeg
        if kind == "arc":
            i, j = self.tail[at], self.head[at]
            return d[i], d[j], t[i], t[j]
        if kind == "vertex":
            return d[at], t[at], self.insum[at]
        if kind == "position":
            # each digraph's outdegrees sorted non-increasing; at each
            # position the largest, the one there, the sum of those before
            key = self.vertex_graph * (int(d.max(initial=0)) + 1)
            degs = key - np.sort(key - d)
            before = np.cumsum(degs) - degs
            first = self.vertex_start[self.vertex_graph]
            pos = np.arange(len(d)) - first
            return degs[first][at], degs[at], (before - before[first])[at], pos[at]
        s = self.shape
        return s.n[at], s.m[at], s.hi[at], s.lo[at]

    def _reduced(self, bid: BoundId):
        """(values, terms): each digraph's best term, NaN where the bound
        is inapplicable, and the terms it was taken from."""
        spec = _SPECS[bid]
        terms = best = self.replay(bid)
        if spec.kind == "vertex":
            # m(i) is undefined at outdegree 0; the max runs over the rest
            terms = np.where(self.outdeg > 0, terms, -np.inf)
        if spec.kind != "graph":
            starts = self.arc_start if spec.kind == "arc" else self.vertex_start
            reduce = np.minimum if spec.kind == "position" else np.maximum
            best = reduce.reduceat(terms, starts)
        return np.where(self.applicable(bid), best, np.nan), terms

    def values_only(self, bid: BoundId):
        """The values of values(bid), without finding the witnesses."""
        return self._reduced(bid)[0]

    def values(self, bid: BoundId):
        """(values, witnesses) over the batch, NaN and -1 where the bound
        is inapplicable. A witness is the batch index of the first arc,
        vertex or sorted position attaining the value; a graph bound has
        none, -1."""
        kind = _SPECS[bid].kind
        values, terms = self._reduced(bid)
        if kind == "graph":
            return values, np.full(len(self), -1)
        starts, owner = ((self.arc_start, self.arc_graph) if kind == "arc"
                         else (self.vertex_start, self.vertex_graph))
        # the first element of each digraph attaining its value
        first = np.where(terms == values[owner], np.arange(len(terms)), len(terms))
        first = np.minimum.reduceat(first, starts)
        return values, np.where(np.isnan(values), -1, first)

    def replay(self, bid: BoundId, at=slice(None)):
        """The bound's term at any elements of its kind, given as batch
        indices of arcs, vertices, sorted positions or digraphs (all of
        them by default): the witnesses of values(bid), say, meaningless
        at -1. Inapplicable digraphs and vertices of outdegree 0 may
        divide by zero, silently; the caller masks them out."""
        spec = _SPECS[bid]
        with np.errstate(divide="ignore", invalid="ignore"):
            return spec.term(*self._inputs(spec.kind, at))

