"""Digraphs on 0..n-1 with outdegree statistics, SCCs, and generators.

A digraph here is a finite set of ordered arcs (i, j) with i != j: no loops,
no parallel arcs, and at least one arc. Most of the package is driven by
outdegree data:

* outdegree d+(i): number of arcs leaving i
* 2-outdegree t+(i): sum of d+(j) over the out-neighbors j of i
* average 2-outdegree m+(i) = t+(i) / d+(i), undefined when d+(i) = 0

A Digraph holds n and its sorted int64 arc keys and caches one thing
more, on first use: its strong components (GraphData). Everything else
is computed where it is read: the arc arrays by one divmod of the keys,
the degrees by np.bincount over them.
"""

import functools
import itertools
import random
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

_INT = (int, np.integer)


class Digraph:
    """Immutable digraph on vertices 0..n-1 with a nonempty arc set.

    A Digraph holds n and its arc keys i * n + j, a sorted,
    duplicate-free, read-only int64 array (so n is at most 3,037,000,499),
    whichever constructor built it. Equality, hashing, repr, m and
    sorted_arcs read the keys, and copies and pickles carry nothing else;
    the arcs frozenset and data, its strong components, are cached views,
    and the arc arrays and degrees are computed where they are read.
    Digraph(n, arcs) checks an iterable of (i, j) tuples one at a time,
    from_arrays checks integer arrays with array operations. n and the
    endpoints are Python or numpy ints; anything else, bool included, and
    any malformed arc raise ValueError.
    """

    def __init__(self, n, arcs):
        n = _order(n)
        arcs = tuple(arcs)
        for arc in arcs:
            if not (isinstance(arc, tuple) and len(arc) == 2):
                raise ValueError(f"an arc must be a 2-tuple (i, j), got {arc!r}")
            i, j = arc
            if (not (isinstance(i, _INT) and isinstance(j, _INT))
                    or type(i) is bool or type(j) is bool):
                raise ValueError(f"arc endpoints must be integers, got ({i!r}, {j!r})")
            if i == j:
                raise ValueError(f"loop arc ({i}, {j}) is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"arc ({i}, {j}) out of range for n={n}")
        if not arcs:
            raise ValueError("digraph must have at least one arc")
        ends = np.fromiter(itertools.chain.from_iterable(arcs), np.int64, 2 * len(arcs))
        self.__dict__.update(n=n, _keys=_sorted_keys(n, ends[0::2], ends[1::2]))

    @classmethod
    def from_arrays(cls, n, src, dst) -> "Digraph":
        """The digraph with the arcs src[k] -> dst[k]; duplicates collapse.
        src and dst are 1-D integer arrays of one length, bool refused."""
        n = _order(n)
        src, dst = np.asarray(src), np.asarray(dst)
        for ends in (src, dst):
            if ends.ndim != 1 or ends.dtype.kind not in "iu":
                raise ValueError(f"arc endpoints must be a 1-D integer array, "
                                 f"got {ends.dtype} of shape {ends.shape}")
        if src.size != dst.size:
            raise ValueError(f"{src.size} tails but {dst.size} heads")
        if not src.size:
            raise ValueError("digraph must have at least one arc")
        bad = (src == dst) | (src < 0) | (dst < 0) | (src >= n) | (dst >= n)
        if bad.any():  # the per-arc check raises, naming the first faulty arc
            k = bad.argmax()
            cls(n, [(int(src[k]), int(dst[k]))])
        g = object.__new__(cls)
        g.__dict__.update(n=n, _keys=_sorted_keys(n, src, dst))
        return g

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @functools.cached_property
    def arcs(self) -> frozenset:
        """The arc set as (i, j) tuples, built from the keys on first use."""
        return frozenset(self.sorted_arcs())

    @functools.cached_property
    def data(self) -> "GraphData":
        """The strong components, found on first use; they never go stale."""
        return _build_graph_data(self)

    @property
    def m(self) -> int:
        """Number of arcs."""
        return self._keys.size

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._keys, other._keys)

    def __hash__(self):
        return hash((self.n, self._keys.tobytes()))

    def __getstate__(self):
        return {"n": self.n, "_keys": self._keys}

    def __setstate__(self, state):
        state["_keys"].flags.writeable = False
        self.__dict__.update(state)

    def sorted_arcs(self) -> list:
        src, dst = _arc_ends(self)
        return list(zip(src.tolist(), dst.tolist()))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={self.sorted_arcs()})"


def _order(n) -> int:
    """The vertex count n as a Python int, checked: an integer (bool
    refused), positive, and small enough that every arc key fits int64."""
    if type(n) is bool or not isinstance(n, _INT):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n * n > 2**63:  # the largest key, n * n - 1, must fit int64
        raise ValueError(f"vertex count {n} is too large: arc keys i * n + j "
                         f"must fit int64")
    return n


def _sorted_keys(n: int, src, dst) -> np.ndarray:
    """The arc keys src * n + dst of checked endpoints: sorted,
    duplicate-free and read-only."""
    # int64 arithmetic whatever the endpoints' int type: i * n on an
    # np.int32 endpoint would wrap once n > 46,340
    keys = np.asarray(src, np.int64) * n + np.asarray(dst, np.int64)
    keys.sort()  # np.unique hashes: some 60 times slower on a million keys
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    keys.flags.writeable = False
    return keys


def _arc_ends(g: Digraph):
    """The arc tails and heads of g in sorted (tail, head) order, as two
    int64 arrays computed from its keys."""
    return np.divmod(g._keys, g.n)


def from_arc_list(n: int, pairs) -> Digraph:
    """The digraph with the arcs (i, j) of an iterable of pairs of any
    sequence type, such as lists or array rows; duplicates collapse."""
    return Digraph(n, map(tuple, pairs))


@dataclass(frozen=True, eq=False)
class GraphData:
    """The strong components of one digraph, all that a Digraph caches.

    component_of     read-only intp array: the strong component of each
                     vertex, numbered as in SccDecomposition
    component_count  the number of strong components
    """

    component_of: np.ndarray
    component_count: int


def _build_graph_data(g: Digraph) -> GraphData:
    n = g.n
    src, dst = _arc_ends(g)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    count, component_of = _tarjan(n, offsets.tolist(), dst.tolist())
    component_of = np.array(component_of, dtype=np.intp)
    component_of.flags.writeable = False
    return GraphData(component_of, count)


def _tarjan(n: int, offsets: list, heads: list):
    """Tarjan's algorithm over CSR out-neighbor lists, iterative to stay
    clear of recursion limits. Returns the number of components and the
    component of each vertex, components numbered in reverse topological
    order."""
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    component_of = [0] * n
    stack = []
    count = 0
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [(root, iter(heads[offsets[root]:offsets[root + 1]]))]
        while work:
            v, neighbor_iter = work[-1]
            advanced = False
            for w in neighbor_iter:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(heads[offsets[w]:offsets[w + 1]])))
                    advanced = True
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    component_of[w] = count
                    if w == v:
                        break
                count += 1
    return count, component_of


def _split(values: np.ndarray, counts: np.ndarray) -> list:
    """values cut into consecutive lists of the given lengths."""
    values = values.tolist()
    ends = np.cumsum(counts).tolist()
    return [values[end - count:end] for end, count in zip(ends, counts.tolist())]


def adjacency(g: Digraph):
    """Sorted out- and in-neighbor lists."""
    src, dst = _arc_ends(g)
    tails_by_head = src[np.argsort(dst, kind="stable")]
    return (_split(dst, np.bincount(src, minlength=g.n)),
            _split(tails_by_head, np.bincount(dst, minlength=g.n)))


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degree data plus graph-level extremes.

    avg_two_outdeg holds None at vertices with outdegree zero; the quantity
    is a ratio with d+(i) in the denominator and has no meaningful default.
    """

    outdeg: tuple
    indeg: tuple
    two_outdeg: tuple
    avg_two_outdeg: tuple
    max_outdeg: int
    min_outdeg: int
    arc_count: int


def degree_profile(g: Digraph) -> DegreeProfile:
    src, dst = _arc_ends(g)
    degrees = np.bincount(src, minlength=g.n)
    outdeg = tuple(degrees.tolist())
    two_outdeg = tuple(np.bincount(src, degrees[dst], g.n).astype(np.int64).tolist())
    avg = tuple((t / d) if d > 0 else None for d, t in zip(outdeg, two_outdeg))
    return DegreeProfile(
        outdeg=outdeg,
        indeg=tuple(np.bincount(dst, minlength=g.n).tolist()),
        two_outdeg=two_outdeg,
        avg_two_outdeg=avg,
        max_outdeg=max(outdeg),
        min_outdeg=min(outdeg),
        arc_count=g.m,
    )


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components in reverse topological order.

    components lists the SCCs of the condensation so that every
    cross-component arc runs from a later-listed component to an
    earlier-listed one (sinks of the condensation come first). Vertices
    within a component are sorted. component_of[v] is the index of the
    component containing v.
    """

    component_of: tuple
    components: tuple


def scc(g: Digraph) -> SccDecomposition:
    """The strong components found by Tarjan's algorithm, listed from the
    cached component_of on each call."""
    component_of = g.data.component_of
    # a stable sort by component keeps each component's vertices ascending
    members = _split(np.argsort(component_of, kind="stable"), np.bincount(component_of))
    return SccDecomposition(tuple(component_of.tolist()), tuple(map(tuple, members)))


def is_strongly_connected(g: Digraph) -> bool:
    return g.data.component_count == 1


@dataclass(frozen=True)
class Classification:
    """The structural flags of the bound catalog's equality cases: bools
    from classify, bool arrays from bounds.BoundColumns.classification."""

    is_strongly_connected: bool
    is_regular: bool
    is_directed_cycle: bool
    is_bidirectional_star: bool
    is_bipartite_semiregular: bool
    is_in_g_star_class: bool


def classify(g: Digraph) -> Classification:
    """The flags of g, as a batch of one."""
    from .bounds import BoundColumns  # bounds imports this module

    flags = vars(BoundColumns.from_graphs([g]).classification())
    return Classification(**{name: flag.item() for name, flag in flags.items()})


# ---------------------------------------------------------------------------
# generators


def gen_directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise ValueError("directed cycle needs n >= 2")
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def gen_bidirectional_complete(n: int) -> Digraph:
    if n < 2:
        raise ValueError("bidirectional complete digraph needs n >= 2")
    return Digraph(n, itertools.permutations(range(n), 2))


def gen_bidirectional_star(n: int) -> Digraph:
    if n < 3:
        raise ValueError("bidirectional star needs n >= 3")
    return _bidirected(n, [(0, leaf) for leaf in range(1, n)])


def _bidirected(vertex_count, edges) -> Digraph:
    """The digraph carrying both arcs of every edge (a, b)."""
    return Digraph(vertex_count, [*edges, *((b, a) for a, b in edges)])


def gen_bipartite_semiregular(p: int, q: int, r: int, s: int) -> Digraph:
    """Bidirected bipartite digraph: part X of size p with outdegree r,
    part Y of size q with outdegree s. Feasibility needs p*r = q*s,
    r <= q, s <= p.

    Construction: x_i pairs with the r consecutive y's starting at i*r
    (mod q), then deterministic degree-preserving 2-swaps merge underlying
    components where possible. Sparse parameter sets (fewer undirected
    edges than p + q - 1) cannot be connected; the semiregular structure
    still holds per component.
    """
    if min(p, q, r, s) < 1:
        raise ValueError("all of p, q, r, s must be at least 1")
    if r > q or s > p or p * r != q * s:
        raise ValueError(
            f"infeasible bipartite parameters: need r <= q, s <= p and p*r == q*s, "
            f"got p={p}, q={q}, r={r}, s={s}"
        )
    edges = {(i, p + (i * r + t) % q) for i in range(p) for t in range(r)}

    n = p + q
    for _ in range(n):
        # components of the underlying graph, ordered by smallest vertex
        comps = sorted(scc(_bidirected(n, edges)).components)
        if len(comps) <= 1:
            break
        first = sorted(e for e in edges if e[0] in comps[0])
        improved = False
        for comp in comps[1:]:
            rest = sorted(e for e in edges if e[0] in comp)
            for (x1, y1), (x2, y2) in itertools.product(first, rest):
                trial = (edges - {(x1, y1), (x2, y2)}) | {(x1, y2), (x2, y1)}
                if _bidirected(n, trial).data.component_count < len(comps):
                    edges = trial
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return _bidirected(n, edges)


def gen_random_strongly_connected(n: int, arc_probability: float, seed: int) -> Digraph:
    """Seeded random strongly connected digraph.

    Procedure (fixed, so a seed pins the exact arc set):
      1. rng = random.Random(seed); shuffle 0..n-1 (Fisher-Yates) into a
         random Hamiltonian cycle, whose arcs are always included.
      2. Visit the remaining ordered pairs (i, j), i != j, in lexicographic
         order and include each independently when rng.random() falls
         below arc_probability.
    """
    if n < 2:
        raise ValueError("random strongly connected digraph needs n >= 2")
    if not 0.0 <= arc_probability <= 1.0:
        raise ValueError(f"arc_probability must lie in [0, 1], got {arc_probability}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    cycle = {(perm[k], perm[(k + 1) % n]) for k in range(n)}
    arcs = set(cycle)
    for i in range(n):
        for j in range(n):
            if i != j and (i, j) not in cycle and rng.random() < arc_probability:
                arcs.add((i, j))
    return Digraph(n, arcs)
