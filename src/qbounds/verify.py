"""Verification machinery: invariant sweeps over graph corpora, exhaustive
reconstruction of small digraphs from target value rows, and the
smallest-bound ranking report.

Reconstruction searches the space of labeled digraphs on n vertices for
arc sets whose computed spectral radius and bound row agree with a target
row within a tolerance. The target can fix the arc count m (enumeration
over arc subsets of that size), fix a per-vertex outdegree sequence
(enumeration over out-neighborhood choices), or leave both open, which is
only allowed up to n = 5. Matches are deduplicated up to digraph
isomorphism via a minimum-bitstring canonical form.

The search streams the space in chunks of adjacency tensors. Structural
constraints, strong connectivity and the target's bound columns are
evaluated as numpy expressions (bounds.BoundColumns, bitwise equal to
all_bounds), and q as an interval. Only candidates that could still match
or beat the nearest miss reach the scalar path (spectral_radius,
all_bounds), which produces every reported number. The nearest miss is
therefore exact in every mode.
"""

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass
from math import comb
from typing import Mapping

import numpy as np

from . import bounds as _bounds
from .bounds import BoundColumns, BoundId, BoundValue, all_bounds, witness_value
from .digraph import (
    Digraph,
    classify,
    degree_profile,
    gen_random_strongly_connected,
    is_strongly_connected,
)
from .edgelist import serialize_edge_list
from .spectral import (DEFAULT_TOL, oval_containment, similarity_row_sums,
                       spectral_radius)

DOMINANCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# corpora


@dataclass(frozen=True)
class RandomCorpusSpec:
    """Deterministic random corpus: a master Random(seed) draws, per graph,
    n uniformly from [n_min, n_max], an arc probability from the given
    tuple, and a 64-bit seed for gen_random_strongly_connected."""

    count: int
    n_min: int
    n_max: int
    arc_probabilities: tuple
    seed: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.n_min < 2 or self.n_max < self.n_min:
            raise ValueError("need 2 <= n_min <= n_max")
        if not self.arc_probabilities:
            raise ValueError("need at least one arc probability")
        object.__setattr__(
            self, "arc_probabilities", tuple(self.arc_probabilities)
        )


def random_corpus(spec: RandomCorpusSpec) -> list:
    master = random.Random(spec.seed)
    corpus = []
    for k in range(spec.count):
        n = master.randint(spec.n_min, spec.n_max)
        p = master.choice(spec.arc_probabilities)
        seed = master.getrandbits(64)
        g = gen_random_strongly_connected(n, p, seed)
        corpus.append((f"random#{k}(n={n},p={p},seed={seed})", g))
    return corpus


# ---------------------------------------------------------------------------
# invariant sweep


@dataclass(frozen=True)
class GraphCase:
    label: str
    g: Digraph
    q: float
    row: tuple


def _inv_degree_consistency(case):
    profile = degree_profile(case.g)
    if sum(profile.outdeg) != case.g.m or sum(profile.indeg) != case.g.m:
        return f"degree sums disagree with arc count {case.g.m}"
    return None


def _inv_dominance(case):
    for bv in case.row:
        if bv.value is not None and case.q > bv.value + DOMINANCE_TOL:
            return (
                f"q = {case.q!r} exceeds {bv.id.value} = {bv.value!r}"
            )
    return None


def _row_sum_bracket(case, kind, name):
    """q against the min and max row sums of a matrix similar to Q."""
    sums = similarity_row_sums(case.g, kind)
    lo, hi = min(sums), max(sums)
    if not (lo - DOMINANCE_TOL <= case.q <= hi + DOMINANCE_TOL):
        return f"q = {case.q!r} outside {name} row-sum bracket [{lo!r}, {hi!r}]"
    return None


def _inv_bracket_plain_rows(case):
    return _row_sum_bracket(case, "plain_Q", "plain")


def _inv_bracket_deg_avg(case):
    if case.g.data.outdeg.min() == 0:
        return None
    return _row_sum_bracket(case, "deg_inverse", "degree-average")


def _inv_oval_contains_q(case):
    if not is_strongly_connected(case.g):
        return None
    check = oval_containment(case.g, case.q)
    if not check.contained:
        return f"q = {case.q!r} escapes every per-arc oval"
    return None


def _inv_regular_equality(case):
    d = case.g.data.outdeg
    if d.min() != d.max():
        return None
    expected = 2.0 * int(d.max())
    if abs(case.q - expected) > DOMINANCE_TOL:
        return f"regular digraph with q = {case.q!r}, expected {expected}"
    return None


def _inv_semiregular_equality(case):
    flags = classify(case.g)
    if not (flags.is_bipartite_semiregular and flags.is_strongly_connected):
        return None
    geo = next(bv for bv in case.row if bv.id == BoundId.OVAL_GEOMEAN)
    if geo.value is None or abs(geo.value - case.q) > DOMINANCE_TOL:
        return (
            f"bipartite semiregular digraph should attain oval_geomean; "
            f"q = {case.q!r}, bound = {geo.value!r}"
        )
    return None


def _inv_q_exceeds_max_outdeg(case):
    # A theorem: for a strongly connected digraph with n >= 2, Q is
    # irreducible, so its radius exceeds that of every proper principal
    # submatrix (Perron-Frobenius; Horn & Johnson, Matrix Analysis, ch. 8),
    # among them the 1x1 block max outdegree. A failure is a solver bug.
    if not is_strongly_connected(case.g):
        return None
    max_outdeg = int(case.g.data.outdeg.max())
    if case.q <= max_outdeg - DOMINANCE_TOL:
        return f"q = {case.q!r} not above max outdegree {max_outdeg}"
    return None


def _inv_witness_consistency(case):
    for bv in case.row:
        replay = witness_value(case.g, bv)
        if replay is not None and replay != bv.value:
            return (
                f"witness replay for {bv.id.value} gives {replay!r}, "
                f"stored {bv.value!r}"
            )
    return None


INVARIANTS = {
    "degree_consistency": _inv_degree_consistency,
    "dominance": _inv_dominance,
    "bracket_plain_rows": _inv_bracket_plain_rows,
    "bracket_deg_avg": _inv_bracket_deg_avg,
    "oval_contains_q": _inv_oval_contains_q,
    "regular_equality": _inv_regular_equality,
    "semiregular_equality": _inv_semiregular_equality,
    "q_exceeds_max_outdeg": _inv_q_exceeds_max_outdeg,
    "witness_consistency": _inv_witness_consistency,
}


@dataclass(frozen=True)
class SweepFailure:
    label: str
    invariant: str
    detail: str
    edge_list: str


@dataclass(frozen=True)
class SweepReport:
    description: str
    graph_count: int
    invariants: tuple
    checks_run: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def sweep(corpus, description="") -> SweepReport:
    """Run every entry of INVARIANTS over (label, digraph) pairs, with q
    from spectral_radius at its default tolerance.

    Failures are data: each carries the offending graph serialized in the
    edge-list format so a report is reproducible on its own.
    """
    names = tuple(INVARIANTS)
    corpus = list(corpus)
    failures = []
    checks = 0
    for label, g in corpus:
        q = spectral_radius(g).q
        case = GraphCase(label=label, g=g, q=q, row=all_bounds(g))
        for name in names:
            checks += 1
            detail = INVARIANTS[name](case)
            if detail is not None:
                failures.append(
                    SweepFailure(
                        label=label,
                        invariant=name,
                        detail=detail,
                        edge_list=serialize_edge_list(g),
                    )
                )
    return SweepReport(
        description=description,
        graph_count=len(corpus),
        invariants=names,
        checks_run=checks,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# isomorphism canonical form


def canonical_form(g: Digraph):
    """Minimum adjacency bitstring over all vertex relabelings.

    Factorial cost; meant for the small matches that come out of a
    reconstruction (n <= 6), not for bulk candidate filtering.
    """
    n = g.n
    best = None
    for perm in itertools.permutations(range(n)):
        bits = 0
        for i, j in g.arcs:
            bits |= 1 << (perm[i] * n + perm[j])
        if best is None or bits < best:
            best = bits
    return (n, best)


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class ReconstructionTarget:
    """Search target: expected q and bound-row values, plus structural
    constraints narrowing the candidate space.

    row maps BoundId to the expected value, given as a mapping (kept in
    ROW_ORDER) or as (BoundId, value) pairs; every key must be a bound of
    ROW_ORDER, named once. Inapplicable candidates never match a numeric
    expectation. tolerance applies to q and every row entry (absolute
    deviation). q, tolerance and the row values must be finite.
    Structural constraints: require_strongly_connected; require_g_star
    (the G* class of classify); m fixes the arc count; outdeg_sequence
    fixes the outdegree of each vertex in order and switches enumeration
    to per-vertex out-neighborhood choices.
    """

    n: int
    q: float
    row: tuple = ()
    m: int | None = None
    tolerance: float = 5e-4
    require_strongly_connected: bool = True
    require_g_star: bool = False
    outdeg_sequence: tuple | None = None
    name: str = ""

    def __post_init__(self):
        row = self.row
        keys = list(row) if isinstance(row, Mapping) else [bid for bid, _ in row]
        for k, bid in enumerate(keys):
            if bid not in _bounds.ROW_ORDER:
                raise ValueError(f"row key {bid!r} is not a bound of ROW_ORDER")
            if bid in keys[:k]:
                raise ValueError(f"row names {bid.value} more than once")
        if isinstance(row, Mapping):
            row = [(bid, float(row[bid])) for bid in _bounds.ROW_ORDER if bid in row]
        object.__setattr__(self, "row", tuple(row))
        if self.outdeg_sequence is not None:
            object.__setattr__(
                self, "outdeg_sequence", tuple(self.outdeg_sequence)
            )
        if self.n < 2:
            raise ValueError("target needs n >= 2")
        if not math.isfinite(self.q):
            raise ValueError(f"target q must be finite, got {self.q}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(
                f"tolerance must be positive and finite, got {self.tolerance}"
            )
        for bid, value in self.row:
            if not math.isfinite(value):
                raise ValueError(
                    f"target value for {bid.value} must be finite, got {value}"
                )


@dataclass(frozen=True)
class ReconstructionMatch:
    digraph: Digraph
    q: float
    row: tuple
    max_deviation: float


@dataclass(frozen=True)
class ReconstructionStages:
    """Where the candidates left the search. The first four counts add up
    to candidates_visited; matched counts the scalar-evaluated candidates
    within tolerance, before isomorphism deduplication."""

    structurally_rejected: int
    bound_rejected: int
    q_enclosed: int
    scalar_evaluated: int
    matched: int


@dataclass(frozen=True)
class ReconstructionReport:
    target: ReconstructionTarget
    matches: tuple
    candidates_visited: int
    nearest_miss: ReconstructionMatch | None
    stages: ReconstructionStages

    @property
    def found(self) -> bool:
        return bool(self.matches)


# Candidates are enumerated and filtered this many at a time. The chunk
# bounds the search's working memory: a few (chunk, n, n) arrays.
_CHUNK = 512

# Most Collatz-Wielandt steps spent on one candidate's q interval.
_CW_ITERATIONS = 64

# Widening of every q interval on top of the solver tolerance; it covers
# the rounding of both the interval and spectral_radius.
_Q_SLACK = 1e-9

# Bound columns in evaluation order: degree-sequence columns first, arc
# scans after, so that most rejections happen on the cheap columns.
_COLUMN_ORDER = (
    BoundId.DEG_PLUS_AVG,
    BoundId.HONG_YOU,
    BoundId.DEG_EXTREMES,
    BoundId.MAXDEG_PLUS_2,
    BoundId.ARC_DEG_SUM,
    BoundId.INDEG_SQRT,
    BoundId.WEIGHT_DEG_SUM,
    BoundId.OVAL_AVG,
    BoundId.OVAL_GEOMEAN,
    BoundId.WEIGHT_SQRT_PROD,
    BoundId.WEIGHT_SQRT_SUM,
    BoundId.WEIGHT_SUM_SQRT,
)


def _chunks(total, decode):
    """decode(indices) for consecutive index ranges of _CHUNK covering
    0 .. total - 1."""
    for start in range(0, total, _CHUNK):
        yield decode(np.arange(start, min(start + _CHUNK, total)))


def _candidate_space(target: ReconstructionTarget):
    """Iterator over the target's candidates as boolean adjacency chunks
    of shape (c, n, n), in enumeration order. Bad constraints raise
    ValueError here, before any candidate is built.

    With an outdegree sequence the candidates run through the product of
    per-vertex out-neighborhood combinations, the last vertex fastest;
    with a fixed m through the combinations of arc slots; otherwise
    through arc-slot bitmasks 1 .. 2^(n(n-1)) - 1, slot b in bit b. Arc
    slots are the pairs (i, j), i != j, in lexicographic order.
    """
    n = target.n
    slots = np.array([i * n + j for i in range(n) for j in range(n) if i != j])

    def on_slots(chosen):
        """Adjacency chunk from a (c, len(slots)) 0/1 matrix over slots."""
        flat = np.zeros((len(chosen), n * n), dtype=bool)
        flat[:, slots] = chosen
        return flat.reshape(-1, n, n)

    if target.outdeg_sequence is not None:
        seq = target.outdeg_sequence
        if len(seq) != n:
            raise ValueError("outdeg_sequence length must equal n")
        if any(d < 0 or d > n - 1 for d in seq):
            raise ValueError("outdegrees must lie in [0, n-1]")
        if sum(seq) < 1:
            raise ValueError("outdeg_sequence must place at least one arc")
        if target.m is not None and sum(seq) != target.m:
            raise ValueError(
                f"outdeg_sequence sums to {sum(seq)} but m = {target.m}"
            )
        # pools[i][c] is the out-neighborhood row of vertex i's c-th choice
        pools = []
        for i, d in enumerate(seq):
            others = [j for j in range(n) if j != i]
            rows = np.zeros((comb(n - 1, d), n), dtype=bool)
            for c, nbrs in enumerate(itertools.combinations(others, d)):
                rows[c, list(nbrs)] = True
            pools.append(rows)

        def decode_sequence(index):
            adj = np.empty((len(index), n, n), dtype=bool)
            for i in reversed(range(n)):
                index, choice = np.divmod(index, len(pools[i]))
                adj[:, i] = pools[i][choice]
            return adj

        total = math.prod(len(rows) for rows in pools)
        return _chunks(total, decode_sequence)
    if target.m is not None:
        m = target.m
        if not 1 <= m <= len(slots):
            raise ValueError(
                f"m must lie in [1, {len(slots)}] for n = {n}, got {m}"
            )
        combos = itertools.combinations(range(len(slots)), m)

        def decode_fixed_m(index):
            picked = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.islice(combos, len(index))
                ),
                dtype=np.intp, count=len(index) * m,
            ).reshape(-1, m)
            chosen = np.zeros((len(index), len(slots)), dtype=bool)
            chosen[np.arange(len(index))[:, None], picked] = True
            return on_slots(chosen)

        total = comb(len(slots), m)
        return _chunks(total, decode_fixed_m)
    if n > 5:
        raise ValueError(
            "unconstrained enumeration above n = 5 is not desk scale; fix the "
            "arc count m or supply an outdegree sequence"
        )
    k = len(slots)

    def decode_subsets(index):
        return on_slots(((index[:, None] + 1) >> np.arange(k)) & 1)

    total = (1 << k) - 1
    return _chunks(total, decode_subsets)


def _strongly_connected(adj):
    """Strong connectivity of each digraph in an adjacency batch, from
    Warshall's transitive closure on bitmask rows: bit j of reach[:, i]
    says that i reaches j. Rows wider than int64 fall back to Python
    integers."""
    n = adj.shape[1]
    bits = np.array([1 << j for j in range(n)], dtype=np.int64 if n < 63 else object)
    reach = (adj * bits).sum(axis=2) | bits
    for k in range(n):
        reach |= np.where(reach & bits[k], reach[:, k:k + 1], 0)
    return (reach == (1 << n) - 1).all(axis=1)


def _in_g_star_class(cols: BoundColumns):
    """classify(g).is_in_g_star_class over a batch: the hypotheses of
    maxdeg_plus_2 (its n >= 3 is implied by the rest) and a max-outdegree
    vertex with an out-neighbor of outdegree at least 2."""
    d = cols.outdeg
    hubs = d == cols.shape.hi[:, None]
    reach_two = (cols.adj & (d[:, None, :] >= 2)).any(axis=2)
    return cols.applicable(BoundId.MAXDEG_PLUS_2) & (hubs & reach_two).any(axis=1)


def _row_deviation(target, q, row_by_id):
    devs = [abs(q - target.q)]
    for bid, expected in target.row:
        bv = row_by_id[bid]
        if bv.value is None:
            return math.inf
        devs.append(abs(bv.value - expected))
    return max(devs)


class _Search:
    """One reconstruction, fed the candidate space chunk by chunk in
    enumeration order.

    A candidate is settled, and never built as a Digraph, once it provably
    can neither match nor beat the nearest miss so far (ties go to the
    earlier candidate). Its row deviation is exact, because BoundColumns
    agrees bitwise with all_bounds; its q deviation is bounded below by a
    q interval. Every other candidate goes through the scalar path
    (spectral_radius, all_bounds, _row_deviation), so every reported
    number comes from there. Which candidates settle, and at which stage,
    does not depend on _CHUNK.
    """

    def __init__(self, target: ReconstructionTarget):
        self.target = target
        expected = dict(target.row)
        self.columns = [
            (bid, expected[bid]) for bid in _COLUMN_ORDER if bid in expected
        ]
        self.slack = DEFAULT_TOL + _Q_SLACK
        self.visited = 0
        self.counts = {
            f.name: 0 for f in dataclasses.fields(ReconstructionStages)
        }
        self.matches = []
        self.nearest = None

    def best(self):
        """Deviation a candidate must undercut to become the nearest miss;
        once something matches no nearest miss is reported."""
        if self.matches:
            return -math.inf
        return self.nearest.max_deviation if self.nearest else math.inf

    def settled(self, dev, q_lo, q_hi, best):
        """Whether the deviation, bounded below from the exact row deviation
        and the q interval, exceeds the tolerance and is no better than
        best. Works elementwise on arrays."""
        q_gap = np.maximum(
            q_lo - self.slack - self.target.q, self.target.q - q_hi - self.slack
        )
        lower = np.maximum(dev, q_gap)
        return (lower > self.target.tolerance) & (lower >= best)

    def visit(self, adj):
        self.visited += len(adj)
        cols = BoundColumns(adj, _strongly_connected(adj))
        keep = self.structural(cols)
        self.counts["structurally_rejected"] += int(np.count_nonzero(~keep))
        cols = cols.select(keep)

        # exact row deviation, column by column, dropping candidates as
        # soon as it settles them
        best = self.best()
        dev = np.zeros(len(cols))
        for bid, expected in self.columns:
            values = cols.values(bid)
            dev = np.maximum(
                dev, np.where(np.isnan(values), np.inf, np.abs(values - expected))
            )
            out = self.settled(dev, -np.inf, np.inf, best)
            if out.any():
                self.counts["bound_rejected"] += int(np.count_nonzero(out))
                cols, dev = cols.select(~out), dev[~out]

        q_lo, q_hi = self.q_interval(cols, dev, best)
        # the nearest miss moves as candidates are evaluated, in order
        for k in range(len(cols)):
            best = self.best()
            if self.settled(dev[k], -np.inf, np.inf, best):
                self.counts["bound_rejected"] += 1
            elif self.settled(dev[k], q_lo[k], q_hi[k], best):
                self.counts["q_enclosed"] += 1
            else:
                self.evaluate(cols.adj[k])

    def structural(self, cols: BoundColumns):
        target = self.target
        keep = np.ones(len(cols), dtype=bool)
        if target.require_strongly_connected:
            keep &= cols.shape.strongly
        if target.require_g_star:
            keep &= _in_g_star_class(cols)
        return keep

    def q_interval(self, cols: BoundColumns, dev, best):
        """An interval holding q for every candidate: the row-sum bracket
        [2 min d, 2 max d], narrowed by Collatz-Wielandt ratios of Q + I
        for the candidates the bracket leaves unsettled."""
        q_lo = 2.0 * cols.shape.lo
        q_hi = 2.0 * cols.shape.hi
        (active,) = np.nonzero(~self.settled(dev, q_lo, q_hi, best))
        if not active.size:
            return q_lo, q_hi
        n = cols.shape.n
        # Q + I keeps the iterate positive; its radius is q + 1
        shifted = cols.adj[active] + np.eye(n) * (cols.outdeg[active] + 1)[:, None]
        x = np.ones((active.size, n))
        for _ in range(_CW_ITERATIONS):
            y = (shifted * x[:, None, :]).sum(axis=2)
            ratios = y / x
            q_lo[active] = np.maximum(q_lo[active], ratios.min(axis=1) - 1.0)
            q_hi[active] = np.minimum(q_hi[active], ratios.max(axis=1) - 1.0)
            open_ = ~self.settled(dev[active], q_lo[active], q_hi[active], best)
            if not open_.any():
                break
            active, shifted, y = active[open_], shifted[open_], y[open_]
            x = y / y.max(axis=1, keepdims=True)
        return q_lo, q_hi

    def evaluate(self, adj):
        target = self.target
        src, dst = np.nonzero(adj)
        g = Digraph(target.n, frozenset(zip(src.tolist(), dst.tolist())))
        result = spectral_radius(g)
        row = all_bounds(g)
        deviation = _row_deviation(target, result.q, {bv.id: bv for bv in row})
        candidate = ReconstructionMatch(
            digraph=g, q=result.q, row=row, max_deviation=deviation
        )
        self.counts["scalar_evaluated"] += 1
        if deviation <= target.tolerance:
            self.counts["matched"] += 1
            self.matches.append(candidate)
        elif math.isfinite(deviation) and deviation < self.best():
            self.nearest = candidate


def reconstruct(target: ReconstructionTarget) -> ReconstructionReport:
    """Exhaustively search the target's candidate space for digraphs whose
    computed q (spectral_radius at its default tolerance) and bound row
    sit within tolerance of the target.

    candidates_visited counts every enumerated arc set, before any
    filtering. Matches are reduced to one representative per isomorphism
    class, in candidate order. Without a match, the nearest miss is exact:
    the constraint-satisfying candidate of smallest maximum deviation, the
    earliest one on ties. stages says where the candidates left the
    search.
    """
    chunks = _candidate_space(target)
    search = _Search(target)
    for adj in chunks:
        search.visit(adj)

    unique = []
    seen = set()
    for match in search.matches:
        key = canonical_form(match.digraph)
        if key not in seen:
            seen.add(key)
            unique.append(match)
    return ReconstructionReport(
        target=target,
        matches=tuple(unique),
        candidates_visited=search.visited,
        nearest_miss=search.nearest if not unique else None,
        stages=ReconstructionStages(**search.counts),
    )


# Bundled reference targets. gstar pins a 4-vertex, 9-arc family where the
# conditional maxdeg_plus_2 bound beats the arc degree sum; g1 is a full
# 4-vertex comparison row; g2 is a 6-vertex row kept as golden expected
# values, searchable once the caller narrows the space (m or an outdegree
# sequence), since 2^30 arc subsets are out of desk range.
PRESETS = {
    "gstar": ReconstructionTarget(
        n=4,
        m=9,
        q=4.7321,
        row={BoundId.ARC_DEG_SUM: 6.0, BoundId.MAXDEG_PLUS_2: 5.0},
        require_g_star=True,
        name="gstar",
    ),
    "g1": ReconstructionTarget(
        n=4,
        q=3.0,
        row={
            BoundId.ARC_DEG_SUM: 4.0,
            BoundId.DEG_PLUS_AVG: 3.5,
            BoundId.OVAL_AVG: 3.3028,
            BoundId.INDEG_SQRT: 3.4142,
            BoundId.HONG_YOU: 3.5616,
            BoundId.DEG_EXTREMES: 3.5,
            BoundId.OVAL_GEOMEAN: 3.5651,
            BoundId.WEIGHT_SQRT_PROD: 3.4495,
            BoundId.WEIGHT_DEG_SUM: 3.3333,
            BoundId.WEIGHT_SQRT_SUM: 3.6029,
            BoundId.WEIGHT_SUM_SQRT: 3.5731,
        },
        name="g1",
    ),
    "g2": ReconstructionTarget(
        n=6,
        q=4.1984,
        row={
            BoundId.ARC_DEG_SUM: 5.0,
            BoundId.DEG_PLUS_AVG: 4.6667,
            BoundId.OVAL_AVG: 4.6016,
            BoundId.INDEG_SQRT: 5.0,
            BoundId.HONG_YOU: 4.7321,
            BoundId.DEG_EXTREMES: 5.5,
            BoundId.OVAL_GEOMEAN: 4.7913,
            BoundId.WEIGHT_SQRT_PROD: 4.5644,
            BoundId.WEIGHT_DEG_SUM: 4.6,
            BoundId.WEIGHT_SQRT_SUM: 4.7956,
            BoundId.WEIGHT_SUM_SQRT: 4.7866,
        },
        name="g2",
    ),
}


# ---------------------------------------------------------------------------
# smallest-bound ranking


@dataclass(frozen=True)
class RemarkReport:
    """Comparison record around the conditional maxdeg_plus_2 bound and the
    ranking of the eleven always-reported bounds.

    For members of the g-star class, maxdeg_plus_2 <= arc_deg_sum must
    hold (the max-outdegree vertex has an out-neighbor of outdegree >= 2,
    so some arc already sums past max outdegree + 2).
    """

    in_g_star_class: bool
    maxdeg_plus_2: BoundValue
    arc_deg_sum: BoundValue
    g_star_inequality_holds: bool | None
    ranking: tuple
    smallest: BoundId | None
    second_smallest: BoundId | None


def remark_check(g: Digraph) -> RemarkReport:
    flags = classify(g)
    row = all_bounds(g)
    row_by_id = {bv.id: bv for bv in row}
    plus2 = row_by_id[BoundId.MAXDEG_PLUS_2]
    arcsum = row_by_id[BoundId.ARC_DEG_SUM]
    holds = None
    if flags.is_in_g_star_class and plus2.value is not None and arcsum.value is not None:
        holds = plus2.value <= arcsum.value
    applicable = [
        (bv.id, bv.value)
        for bv in row
        if bv.id in _bounds.TABLE_ORDER and bv.value is not None
    ]
    order_index = {bid: k for k, bid in enumerate(_bounds.TABLE_ORDER)}
    ranking = tuple(
        sorted(applicable, key=lambda item: (item[1], order_index[item[0]]))
    )
    return RemarkReport(
        in_g_star_class=flags.is_in_g_star_class,
        maxdeg_plus_2=plus2,
        arc_deg_sum=arcsum,
        g_star_inequality_holds=holds,
        ranking=ranking,
        smallest=ranking[0][0] if ranking else None,
        second_smallest=ranking[1][0] if len(ranking) > 1 else None,
    )
