"""Verification machinery: invariant sweeps over graph corpora and
exhaustive reconstruction of small digraphs from target value rows.

Reconstruction searches the space of labeled digraphs on n vertices for
arc sets whose computed spectral radius and bound row agree with a target
row within a tolerance. The target can fix the arc count m (enumeration
over arc subsets of that size), fix a per-vertex outdegree sequence
(enumeration over out-neighborhood choices), or leave both open. A space
of more candidates than the budget (DEFAULT_MAX_CANDIDATES unless the
caller raises it) is refused before the search starts. Matches are
deduplicated up to digraph isomorphism via a minimum-bitstring canonical
form, whose n! relabelings count against the same budget.

The search streams the space in chunks of bounds' int64 bit rows, one
per vertex, held vertex-major: a chunk of c candidates is an (n, c)
array, so that a reduction over each candidate's vertices combines
contiguous rows. Strong connectivity is settled on their closure, and the
rest are laid out as a bounds.BoundColumns tensor batch, the chunk's one
store of candidates from then on, which lays out arcs only when an arc
column or the solver reads them: the G* constraint and the target's
bound columns, read without witnesses, are numpy expressions over it,
bitwise equal to all_bounds. They give the exact row deviation, and q
enters as an interval: the row-sum bracket, narrowed by a short budgeted
run of the solver's own per-block Collatz-Wielandt enclosure. The
candidates that could still match or beat the nearest miss are solved
for q in one solver call per chunk, on that batch, so the nearest miss
is exact in every mode. Only the reported digraphs, rows of its tensor,
are built as Digraphs.
"""

import dataclasses
import itertools
import math
import numbers
import random
from dataclasses import dataclass
from math import comb
from typing import Mapping, NamedTuple

import numpy as np

from . import bounds as _bounds
from . import spectral as _spectral
from .bounds import BoundColumns, BoundId, all_bounds
from .digraph import Digraph, gen_random_strongly_connected
from .edgelist import serialize_edge_list
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL

DOMINANCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# corpora


@dataclass(frozen=True)
class RandomCorpusSpec:
    """Deterministic random corpus: a master Random(seed) draws, per graph,
    n uniformly from [n_min, n_max], an arc probability from the given
    tuple, and a 64-bit seed for gen_random_strongly_connected. A bad
    spec, non-integer (bool included) counts or seed too, raises
    ValueError at construction."""

    count: int
    n_min: int
    n_max: int
    arc_probabilities: tuple
    seed: int

    def __post_init__(self):
        for name in ("count", "n_min", "n_max", "seed"):
            value = getattr(self, name)
            if not np.issubdtype(type(value), np.integer):  # refuses bool
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # random.Random wants int
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if self.n_min < 2 or self.n_max < self.n_min:
            raise ValueError(f"need 2 <= n_min <= n_max, got {self.n_min}, {self.n_max}")
        probs = tuple(self.arc_probabilities)
        if not probs:
            raise ValueError("need at least one arc probability")
        # NaN fails too, and so does a value that is not a real number
        if not all(isinstance(p, numbers.Real) and 0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"arc probabilities must lie in [0, 1], got {probs}")
        object.__setattr__(self, "arc_probabilities", probs)


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


class SweepSlice(NamedTuple):
    """The BoundColumns batch of a run of sweep digraphs, q per digraph and
    the batch's bound row {bid: (values, witnesses)} in ROW_ORDER."""

    cols: BoundColumns
    q: np.ndarray
    row: dict

    @classmethod
    def of(cls, graphs, q, cols=None) -> "SweepSlice":
        """The slice of nonempty graphs and their q; cols is their batch."""
        cols = BoundColumns.from_graphs(graphs) if cols is None else cols
        row = {bid: cols.values(bid) for bid in _bounds.ROW_ORDER}
        return cls(cols, np.asarray(q, dtype=float), row)


def _details(flags, render):
    """render(k) for each digraph k that flags marks, None elsewhere."""
    return [render(k) if flag else None for k, flag in enumerate(flags.tolist())]


def _first_bound(s, off, render):
    """render(bid, k) for each digraph k that a row of off, one per bound,
    marks, bid the first such bound; None elsewhere."""
    bids, first = list(s.row), off.argmax(axis=0)
    return _details(off.any(axis=0), lambda k: render(bids[first[k]], k))


def _inv_degree_consistency(s):
    cols, m = s.cols, s.cols.shape.m
    degrees = np.array([cols.outdeg, np.bincount(cols.head, minlength=len(cols.outdeg))])
    off = (np.add.reduceat(degrees, cols.vertex_start, axis=1) != m).any(axis=0)
    return _details(off, lambda k: f"degree sums disagree with arc count {m[k].item()}")


def _inv_dominance(s):
    # NaN, an inapplicable bound, is never exceeded
    off = np.array([s.q > v + DOMINANCE_TOL for v, _ in s.row.values()])
    return _first_bound(s, off, lambda bid, k: (
        f"q = {s.q[k].item()!r} exceeds {bid.value} = {s.row[bid][0][k].item()!r}"
    ))


def _row_sum_bracket(s, lo, hi, name, where=True):
    """q against the min and max row sums of a matrix similar to Q, on the
    digraphs where the matrix is defined."""
    inside = (lo - DOMINANCE_TOL <= s.q) & (s.q <= hi + DOMINANCE_TOL)
    return _details(where & ~inside, lambda k: (
        f"q = {s.q[k].item()!r} outside {name} row-sum bracket "
        f"[{lo[k].item()!r}, {hi[k].item()!r}]"
    ))


def _inv_bracket_plain_rows(s):
    # rows of Q: 2 d(i)
    shape = s.cols.shape
    return _row_sum_bracket(s, 2.0 * shape.lo, 2.0 * shape.hi, "plain")


def _inv_bracket_deg_avg(s):
    # rows of D^-1 Q D: d(i) + m(i), defined when every outdegree is positive
    cols = s.cols
    sums = cols.replay(BoundId.DEG_PLUS_AVG)
    return _row_sum_bracket(s, np.minimum.reduceat(sums, cols.vertex_start),
                            np.maximum.reduceat(sums, cols.vertex_start),
                            "degree-average", cols.shape.lo > 0)


def _inv_oval_contains_q(s):
    escapes = s.cols.shape.strongly & (_spectral._first_oval(s.cols, s.q) < 0)
    return _details(escapes, lambda k: f"q = {s.q[k].item()!r} escapes every per-arc oval")


def _inv_regular_equality(s):
    shape = s.cols.shape
    expected = 2.0 * shape.hi
    return _details(
        (shape.lo == shape.hi) & (np.abs(s.q - expected) > DOMINANCE_TOL),
        lambda k: (f"regular digraph with q = {s.q[k].item()!r}, "
                   f"expected {expected[k].item()}"))


def _inv_semiregular_equality(s):
    # oval_geomean applies to every strongly connected digraph
    flags = s.cols.classification()
    geo = s.row[BoundId.OVAL_GEOMEAN][0]
    return _details(
        flags.is_bipartite_semiregular & flags.is_strongly_connected
        & (np.abs(geo - s.q) > DOMINANCE_TOL),
        lambda k: ("bipartite semiregular digraph should attain oval_geomean; "
                   f"q = {s.q[k].item()!r}, bound = {geo[k].item()!r}"))


def _inv_q_exceeds_max_outdeg(s):
    # A theorem: for a strongly connected digraph with n >= 2, Q is
    # irreducible, so its radius exceeds that of every proper principal
    # submatrix (Perron-Frobenius; Horn & Johnson, Matrix Analysis, ch. 8),
    # among them the 1x1 block max outdegree. A failure is a solver bug.
    shape = s.cols.shape
    return _details(
        shape.strongly & (s.q <= shape.hi - DOMINANCE_TOL),
        lambda k: (f"q = {s.q[k].item()!r} not above max outdegree "
                   f"{shape.hi[k].item()}"))


def _inv_witness_consistency(s):
    # graph bounds and inapplicable ones have witness -1 and are skipped
    replays = {bid: s.cols.replay(bid, w) for bid, (_, w) in s.row.items()}
    off = np.array([(w >= 0) & (replays[bid] != v) for bid, (v, w) in s.row.items()])
    return _first_bound(s, off, lambda bid, k: (
        f"witness replay for {bid.value} gives {replays[bid][k].item()!r}, "
        f"stored {s.row[bid][0][k].item()!r}"
    ))


# Each invariant is the one implementation of its rule: it takes a
# SweepSlice and returns a failure detail or None per digraph of the slice.
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
    """Run every entry of INVARIANTS over (label, digraph) pairs. Each
    slice of BoundColumns.slices is laid out once, solved for q at the
    default tolerance and handed to each invariant once, in corpus
    order, so a ConvergenceError names the first failing digraph.

    Failures are data, in corpus order and then INVARIANTS order: each
    carries the offending graph serialized in the edge-list format so a
    report is reproducible on its own.
    """
    names = tuple(INVARIANTS)
    corpus = list(corpus)
    graphs = [g for _, g in corpus]
    failures = []
    for start, cols in BoundColumns.slices(graphs):
        stop = start + len(cols)
        q = [r.q for r in _spectral._solve(cols, DEFAULT_TOL, DEFAULT_MAX_ITER)]
        s = SweepSlice.of(graphs[start:stop], q, cols)
        details = zip(*(INVARIANTS[name](s) for name in names))
        for (label, g), found in zip(corpus[start:stop], details):
            failures.extend(
                SweepFailure(label=label, invariant=name, detail=detail,
                             edge_list=serialize_edge_list(g))
                for name, detail in zip(names, found) if detail is not None
            )
    return SweepReport(
        description=description,
        graph_count=len(corpus),
        invariants=names,
        checks_run=len(corpus) * len(names),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# isomorphism canonical form


def canonical_form(g: Digraph):
    """(n, form): the least bitstring with bit perm[i] * n + perm[j] for each
    arc i -> j over all n! relabelings perm; n! above DEFAULT_MAX_CANDIDATES
    (n >= 11) raises CandidateBudgetError before anything is built."""
    _refuse_relabelings(g.n, DEFAULT_MAX_CANDIDATES, "a canonical form")
    rows = np.bincount(g._keys // g.n, np.ldexp(1.0, g._keys % g.n), g.n)
    return _canonical_forms(rows.astype(np.int64)[:, None])[0]


def _refuse_relabelings(n, budget, what, advice=""):
    if math.factorial(n) > budget:
        raise CandidateBudgetError(f"{what} on n = {n} vertices takes {math.factorial(n):,} "
                                   f"relabelings, over the budget of {budget:,}{advice}")


# Relabelings x digraphs x n held at once, split evenly; cache-sized blocks run fastest.
_RELABEL_CELLS = 1 << 16


def _canonical_forms(rows) -> list:
    """canonical_form of each digraph of int64 bit rows (n, N), bit j of rows[i, k] for
    the arc i -> j of digraph k. Per block of relabelings perm, a matmul by 2^perm[j]
    relabels every row's 0/1 columns, one per perm adds row i into float64 key
    perm[i] // per_key, and a survivor pass keeps the least keys, highest first."""
    n, count = rows.shape
    per_key = 53 // n  # keys sum distinct powers of two below 2^53: exact for n <= 53
    keys, relabelings = -(-n // per_key), math.factorial(n)
    group = min(count, max(1, math.isqrt(_RELABEL_CELLS // n)))
    block = min(relabelings, max(1, _RELABEL_CELLS // (n * group)))
    perms = itertools.chain.from_iterable(itertools.permutations(range(n)))
    best = np.full((keys, count), np.inf)
    for start in range(0, relabelings, block):
        perm = np.fromiter(perms, np.intp, min(block, relabelings - start) * n).reshape(-1, n)
        (key, place), weights = np.divmod(perm, per_key), np.ldexp(1.0, perm)
        to_keys = np.ldexp(1.0 * (key[:, None] == np.arange(keys)[:, None]), n * place[:, None])
        for part in (slice(first, first + group) for first in range(0, count, group)):
            relabeled = weights @ ((rows[:, None, part] >> np.arange(n)[:, None]) & 1)
            cand = np.concatenate([best[None, :, part], to_keys @ relabeled.transpose(1, 0, 2)])
            for c in reversed(range(keys)):  # the least key among those tied above it
                alive = (cand[:, c + 1:] == best[c + 1:, part]).all(axis=1)
                best[c, part] = cand[:, c].min(axis=0, where=alive, initial=np.inf)
    forms = sum(k << n * per_key * c for c, k in enumerate(best.astype(np.int64).astype(object)))
    return [(n, form) for form in forms.tolist()]


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
    deviation). q, tolerance and the row values must be finite real
    numbers; n, m and the outdegrees integers (Python or numpy ints, not
    bools).
    Structural constraints: require_strongly_connected; require_g_star
    (the G* class of classify); m fixes the arc count, in [1, n(n-1)];
    outdeg_sequence fixes the outdegree of each vertex in order, n entries
    in [0, n-1] with a positive sum (m, if given), and switches enumeration to
    per-vertex out-neighborhood choices. A bad target raises ValueError.
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
        pairs = list(row.items()) if isinstance(row, Mapping) else list(row)
        keys = [bid for bid, _ in pairs]
        for k, (bid, value) in enumerate(pairs):
            if bid not in _bounds.ROW_ORDER:
                raise ValueError(f"row key {bid!r} is not a bound of ROW_ORDER")
            if bid in keys[:k]:
                raise ValueError(f"row names {bid.value} more than once")
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(
                    f"target value for {bid.value} must be finite, got {value}")
        if isinstance(row, Mapping):
            row = [(bid, float(row[bid])) for bid in _bounds.ROW_ORDER if bid in row]
        object.__setattr__(self, "row", tuple(row))
        if self.outdeg_sequence is not None:
            object.__setattr__(self, "outdeg_sequence", tuple(self.outdeg_sequence))
        counts = [("n", self.n), ("m", self.m)]
        counts += [("outdeg_sequence entry", d) for d in self.outdeg_sequence or ()]
        for name, value in counts:
            if value is not None and not np.issubdtype(type(value), np.integer):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 2:
            raise ValueError("target needs n >= 2")
        if not (isinstance(self.q, numbers.Real) and math.isfinite(self.q)):
            raise ValueError(f"target q must be finite, got {self.q}")
        tol = self.tolerance
        if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be positive and finite, got {tol}")
        n, seq = self.n, self.outdeg_sequence
        if seq is not None:
            if len(seq) != n:
                raise ValueError("outdeg_sequence length must equal n")
            if any(d < 0 or d > n - 1 for d in seq):
                raise ValueError("outdegrees must lie in [0, n-1]")
            if sum(seq) < 1:
                raise ValueError("outdeg_sequence must place at least one arc")
            if self.m is not None and sum(seq) != self.m:
                raise ValueError(f"outdeg_sequence sums to {sum(seq)} but m = {self.m}")
        if self.m is not None and not 1 <= self.m <= n * (n - 1):
            raise ValueError(f"m must lie in [1, {n * (n - 1)}] for n = {n}, got {self.m}")


@dataclass(frozen=True)
class ReconstructionMatch:
    digraph: Digraph
    q: float
    row: tuple
    max_deviation: float


@dataclass(frozen=True)
class ReconstructionStages:
    """Where the candidates left the search. The first four counts add up
    to candidates_visited; matched counts the evaluated candidates within
    tolerance, before isomorphism deduplication."""

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


# A chunk of candidates, enumerated and filtered together, holds at most
# _CHUNK candidates and _CHUNK_CELLS adjacency cells; it bounds the
# search's working memory, a few (chunk, n, n) arrays. Smaller chunks pay
# more numpy call overhead. Larger ones give the first chunk, searched
# before any nearest miss exists, more q intervals to enclose. At n = 62
# the 3,782 single-arc candidates took 0.100 s in chunks of 2,048 and
# 0.091 s in chunks of 512 (one core of a shared 2-core x86-64 machine).
_CHUNK = 2048
_CHUNK_CELLS = 1 << 21

# The matvec budget of the q interval's run of the solver.
_CW_ITERATIONS = 64

# Widening of every q interval: the solver tolerance, plus 1e-9 for the
# rounding of both the interval and the solver.
_Q_SLACK = DEFAULT_TOL + 1e-9


# The largest candidate space a search takes unless the caller raises the
# budget: 3.5 to 7 s at the 0.4 to 0.9 us per candidate measured on the
# unconstrained n = 5 space, with a full bound row, one column or q alone
# (one core of a shared 2-core x86-64 machine). A search that solves many
# of its candidates costs more: the reducible n = 5, q = 3.0 target
# solves 59,970 of 1,048,575 at about 3 us per candidate, some 27 s at
# this budget.
DEFAULT_MAX_CANDIDATES = 1 << 23


class CandidateBudgetError(ValueError):
    """A candidate space larger than the search budget."""


def _candidate_space(target: ReconstructionTarget, max_candidates: int):
    """Generator of the target's candidates as vertex-major int64 bit-row
    chunks of shape (n, c), bit j of rows[i, k] for the arc i -> j of
    candidate k, c <= _CHUNK and c n^2 <= _CHUNK_CELLS, in enumeration
    order. Vertex-major, each vertex's rows are contiguous, so the
    search's reductions over a candidate's n vertices combine whole rows
    instead of running along an n-wide inner axis. The
    target has validated its constraints; the refusals left here, on the
    first chunk and before anything is built, are n above
    bounds.MAX_TENSOR_N (ValueError), which no narrowing helps, and then a space
    of more than max_candidates candidates (CandidateBudgetError). The
    count is exact: at n <= 62 the largest, 2^3782 - 1, takes microseconds.

    With an outdegree sequence the candidates run through the product of
    per-vertex out-neighborhood combinations, the last vertex fastest;
    with a fixed m through the combinations of arc slots; otherwise
    through arc-slot bitmasks 1 .. 2^(n(n-1)) - 1, slot b in bit b. Arc
    slots are the pairs (i, j), i != j, in lexicographic order, so vertex
    i owns the slots i(n - 1) to i(n - 1) + n - 2.
    """
    n, m, seq = target.n, target.m, target.outdeg_sequence
    if n > _bounds.MAX_TENSOR_N:
        raise ValueError(
            f"n = {n} is above the search limit of {_bounds.MAX_TENSOR_N} vertices")
    if seq is not None:
        total = math.prod(comb(n - 1, d) for d in seq)
    elif m is not None:
        total = comb(n * (n - 1), m)
    else:
        total = (1 << int(n * (n - 1))) - 1  # a numpy n would wrap the shift
    if total > max_candidates:
        # a count past 2^128 runs to hundreds of digits; it is not printed
        count = f"{total:,}" if total <= 1 << 128 else "more than 2^128"
        raise CandidateBudgetError(
            f"{count} candidates exceed the budget of {max_candidates:,} and are "
            f"not desk scale; fix the arc count m or supply an outdegree "
            f"sequence, or raise max_candidates"
        )
    if seq is not None:
        # pools[i][c] is the bit row of vertex i's c-th out-neighborhood
        pools = [np.array([sum(1 << j for j in nbrs) for nbrs in itertools.combinations(
                     [j for j in range(n) if j != i], d)], dtype=np.int64)
                 for i, d in enumerate(seq)]
    elif m is not None:
        combos = itertools.combinations(range(n * (n - 1)), m)
    size = min(_CHUNK, _CHUNK_CELLS // (n * n))
    for start in range(0, total, size):
        index = np.arange(start, min(start + size, total))
        c = len(index)
        rows = np.zeros((n, c), dtype=np.int64)
        if seq is not None:
            for i in reversed(range(n)):
                index, choice = np.divmod(index, len(pools[i]))
                rows[i] = pools[i][choice]
        elif m is not None:
            picked = np.fromiter(itertools.chain.from_iterable(itertools.islice(
                combos, c)), dtype=np.intp, count=c * m)
            # slot s is the arc from i = s // (n - 1) to its (s % (n - 1))-th
            # other vertex; a row's bits are distinct, so adding them packs them
            i, other = np.divmod(picked.reshape(-1, m), n - 1)
            np.add.at(rows.reshape(-1), i * c + np.arange(c)[:, None],
                      np.left_shift(1, other + (other >= i)))
        else:
            # vertex i's slots are the n - 1 bits of the mask from i(n - 1) on,
            # one per other vertex; those above i move up one place
            for i in range(n):
                own = ((index + 1) >> i * (n - 1)) & ((1 << (n - 1)) - 1)
                low = own & ((1 << i) - 1)
                rows[i] = low | (own - low) << 1
        yield rows


class _Search:
    """One reconstruction, fed the candidate space chunk by chunk in
    enumeration order.

    A candidate is settled, and never solved, once it provably can
    neither match nor beat the nearest miss so far (ties go to the
    earlier candidate). Its row deviation is exact, because BoundColumns
    agrees bitwise with all_bounds; its q deviation is bounded below by a
    q interval. The chunk's other candidates are solved in one call on
    their selection of its batch, and its decisions replay in enumeration
    order; matches and the nearest miss are rows of the batch's tensor.
    The stages do not depend on _CHUNK or on the column order: a chunk runs
    first the columns that have settled the most, and stops once empty.
    """

    def __init__(self, target: ReconstructionTarget):
        self.target = target
        # (bid, expected value) in kind order, arc columns last: arc terms
        # scan every arc, the other kinds read per-vertex or per-digraph
        # degree data. Columns that settled equally many keep this order
        self.columns = sorted(
            target.row, key=lambda column: _bounds._SPECS[column[0]].kind == "arc")
        self.settled_by = dict.fromkeys(self.columns, 0)
        self.visited = 0
        self.counts = {f.name: 0 for f in dataclasses.fields(ReconstructionStages)}
        self.matches = []
        self.nearest = None
        # the deviation a candidate must undercut to become the nearest
        # miss; -inf once something matches, as no nearest miss is reported
        self.best = math.inf

    def settled(self, dev, q_lo, q_hi, best):
        """Whether the deviation, bounded below from the exact row deviation
        and the q interval, exceeds the tolerance and is no better than
        best. Works elementwise on arrays."""
        q_gap = np.maximum(
            q_lo - _Q_SLACK - self.target.q, self.target.q - q_hi - _Q_SLACK
        )
        lower = np.maximum(dev, q_gap)
        return (lower > self.target.tolerance) & (lower >= best)

    def visit(self, rows):
        n, count = rows.shape
        self.visited += count
        # strong connectivity is settled on the bit rows, and only the rest
        # are laid out: from here on the batch holds the candidates
        reach = _bounds._closure(rows)
        if self.target.require_strongly_connected:
            strongly = np.bitwise_and.reduce(reach, axis=0) == (1 << n) - 1
            rows, reach = rows[:, strongly], reach[:, strongly]
        cols = BoundColumns(_bounds._unpack(rows), _reach=reach)
        if self.target.require_g_star:
            cols = cols.select(cols.in_g_star_class())
        self.counts["structurally_rejected"] += count - len(cols)

        # exact row deviation, column by column, dropping candidates as
        # soon as it settles them; self.best holds until the replay
        dev = np.zeros(len(cols))
        for bid, expected in self.columns:
            if not len(dev):
                break
            values = cols.values_only(bid)
            dev = np.maximum(
                dev, np.where(np.isnan(values), np.inf, np.abs(values - expected))
            )
            out = self.settled(dev, -np.inf, np.inf, self.best)
            if out.any():
                settled = int(np.count_nonzero(out))
                self.settled_by[bid, expected] += settled
                self.counts["bound_rejected"] += settled
                cols, dev = cols.select(~out), dev[~out]
        self.columns = sorted(self.settled_by, key=lambda c: -self.settled_by[c])
        if not len(dev):  # best, matches and the nearest miss stay as they are
            return

        q_lo, q_hi = self.q_interval(cols, dev)
        # solve only what may be open: a deviation is at most its ceiling,
        # so a lower bound at self.best or an earlier ceiling settles it
        tq, tol = self.target.q, self.target.tolerance
        ceiling = np.maximum(dev, np.maximum(q_hi - tq, tq - q_lo) + _Q_SLACK)
        ceilings = np.minimum.accumulate(np.append(self.best, ceiling))
        solve = ~self.settled(dev, q_lo, q_hi, ceilings[:-1])
        q = np.full(len(cols), np.nan)
        if solve.any():  # most chunks of a strongly connected search solve none
            q[solve] = [r.q for r in _spectral._solve(
                cols.select(solve), DEFAULT_TOL, DEFAULT_MAX_ITER)]
        full = np.where(solve, np.maximum(dev, np.abs(q - tq)), np.inf)
        # the replay: best before each candidate, the running minimum of the
        # deviations before it, -inf after a match; settled ones never lower it
        best = np.minimum.accumulate(
            np.append(self.best, np.where(full <= tol, -np.inf, full)))
        by_row = self.settled(dev, -np.inf, np.inf, best[:-1])
        by_q = self.settled(dev, q_lo, q_hi, best[:-1])
        self.counts["bound_rejected"] += int(np.count_nonzero(by_row))
        self.counts["q_enclosed"] += int(np.count_nonzero(by_q & ~by_row))
        self.counts["scalar_evaluated"] += int(np.count_nonzero(~by_q))
        matched = [(cols._adj[k], q[k].item(), full[k].item())
                   for k in np.flatnonzero(full <= tol).tolist()]
        self.counts["matched"] += len(matched)
        self.matches += matched
        if -math.inf < best[-1] < self.best:  # the first of the smallest
            k = int(full.argmin())
            self.nearest = cols._adj[k], q[k].item(), full[k].item()
        self.best = best[-1].item()

    def q_interval(self, cols: BoundColumns, dev):
        """An interval holding q for every candidate: the row-sum bracket
        [2 min d, 2 max d], its lower end raised to max d (rho(Q) >= max
        Q_ii), narrowed, for the candidates it leaves unsettled, by one
        _CW_ITERATIONS-matvec run of the solver's per-block enclosure.
        A candidate's ends are the largest of its blocks' ends. A block
        also stops once it lies wholly outside the q that self.best and
        the tolerance leave open, where more steps would decide nothing."""
        q_lo, q_hi = np.maximum(2.0 * cols.shape.lo, cols.shape.hi), 2.0 * cols.shape.hi
        active = ~self.settled(dev, q_lo, q_hi, self.best)
        if not active.any():
            return q_lo, q_hi
        tq, reach = self.target.q, max(self.target.tolerance, self.best) + _Q_SLACK
        first, _, blocks = _spectral._enclose(cols.select(active), DEFAULT_TOL,
                                              _CW_ITERATIONS, (tq - reach, tq + reach))
        lo, hi = np.maximum.reduceat(blocks[3:], first, axis=1)
        q_lo[active], q_hi[active] = np.maximum(q_lo[active], lo), np.minimum(q_hi[active], hi)
        return q_lo, q_hi


def reconstruct(target: ReconstructionTarget,
                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> ReconstructionReport:
    """Exhaustively search the target's candidate space for digraphs whose
    computed q (spectral_radii at its default tolerance) and bound row
    sit within tolerance of the target.

    Before the search starts, a budget that is not an integer (bool and
    float included) or is below 1 is refused with ValueError, then n
    above bounds.MAX_TENSOR_N = 62 with ValueError, and then a space of
    more than max_candidates candidates (a product of binomials for an
    outdegree sequence, one binomial for a fixed m, 2^(n(n-1)) - 1
    otherwise) with CandidateBudgetError, a ValueError; the default
    budget, 2^23, takes 3.5 to 7 s, or some 27 s where many candidates
    reach the solver, as in the reducible n = 5, q = 3.0 search.

    candidates_visited counts every enumerated arc set, before any
    filtering. Matches are reduced to one representative per isomorphism
    class, in candidate order. That takes n! relabelings when there are
    two or more, so it too is refused with CandidateBudgetError, after
    the search, when n! exceeds max_candidates (from n = 11 under the
    default budget). Without a match, the nearest miss is exact:
    the constraint-satisfying candidate of smallest maximum deviation, the
    earliest one on ties. stages says where the candidates left the
    search.
    """
    if not np.issubdtype(type(max_candidates), np.integer):  # refuses bool
        raise ValueError(f"max_candidates must be an integer, got {max_candidates!r}")
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be positive, got {max_candidates}")
    search = _Search(target)
    for rows in _candidate_space(target, max_candidates):
        search.visit(rows)

    found = search.matches
    if len(found) > 1:  # one match needs no permutation array
        _refuse_relabelings(target.n, max_candidates, f"deduplicating {len(found):,} matches",
                            "; narrow the target or raise max_candidates")
        rows = np.array([a for a, _, _ in found]) @ (1 << np.arange(target.n))
        unique = {}
        for form, match in zip(_canonical_forms(rows.T), found):
            unique.setdefault(form, match)
        found = list(unique.values())
    matches = tuple(_rendered(*match) for match in found)
    return ReconstructionReport(
        target=target,
        matches=matches,
        candidates_visited=search.visited,
        nearest_miss=(_rendered(*search.nearest)
                      if search.nearest and not matches else None),
        stages=ReconstructionStages(**search.counts),
    )


def _rendered(adj, q, deviation) -> ReconstructionMatch:
    """A reported digraph, built from its adjacency row, with its bound row."""
    g = Digraph.from_arrays(len(adj), *np.nonzero(adj))
    return ReconstructionMatch(g, q, all_bounds(g), deviation)


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
