"""Digraphs on 0..n-1 with outdegree statistics, SCCs, and generators.

A digraph here is a finite set of ordered arcs (i, j) with i != j: no loops,
no parallel arcs, and at least one arc. Most of the package is driven by
outdegree data:

* outdegree d+(i): number of arcs leaving i
* 2-outdegree t+(i): sum of d+(j) over the out-neighbors j of i
* average 2-outdegree m+(i) = t+(i) / d+(i), undefined when d+(i) = 0

Everything derived from the arc set (the sorted arc arrays, the degrees
and the strong components) is computed once per Digraph, on first use,
into its GraphData. adjacency, degree_profile, scc and
is_strongly_connected are views over it.
"""

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

_INT = (int, np.integer)


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph on vertices 0..n-1 with a nonempty arc set. n
    and the arc endpoints are Python or numpy ints; anything else, bool
    included, raises ValueError."""

    n: int
    arcs: frozenset

    def __post_init__(self):
        if type(self.n) is bool or not isinstance(self.n, _INT):
            raise ValueError(f"vertex count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        for arc in self.arcs:
            i, j = arc
            if (not (isinstance(i, _INT) and isinstance(j, _INT))
                    or type(i) is bool or type(j) is bool):
                raise ValueError(f"arc endpoints must be integers, got ({i!r}, {j!r})")
            if i == j:
                raise ValueError(f"loop arc ({i}, {j}) is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"arc ({i}, {j}) out of range for n={self.n}")
        if not self.arcs:
            raise ValueError("digraph must have at least one arc")

    @property
    def m(self) -> int:
        """Number of arcs."""
        return len(self.arcs)

    @functools.cached_property
    def data(self) -> "GraphData":
        """The graph data, built on first use. The arc set is frozen, so it
        never goes stale; it is not a field, so equality, hashing and repr
        do not see it."""
        return _build_graph_data(self)

    def __getstate__(self):
        # copies and pickles rebuild the data on demand rather than carry
        # arrays that would come back writable
        return {"n": self.n, "arcs": self.arcs}

    def sorted_arcs(self) -> list:
        return list(zip(self.data.src.tolist(), self.data.dst.tolist()))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={self.sorted_arcs()})"


def from_arc_list(n: int, pairs) -> Digraph:
    """Build a digraph from an iterable of (i, j) pairs; duplicates collapse."""
    return Digraph(n, frozenset((i, j) for i, j in pairs))


@dataclass(frozen=True, eq=False)
class GraphData:
    """What the package reads of one digraph, as read-only integer arrays.

    src, dst      arc tails and heads in sorted (src, dst) order
    outdeg        d+(i);  indeg: d-(i)
    two_outdeg    t+(i), the sum of d+(j) over out-neighbors j
    component_of  index of the strong component holding each vertex
    components    the strong components as in SccDecomposition
    """

    src: np.ndarray
    dst: np.ndarray
    outdeg: np.ndarray
    indeg: np.ndarray
    two_outdeg: np.ndarray
    component_of: np.ndarray
    components: tuple


def _build_graph_data(g: Digraph) -> GraphData:
    n = g.n
    # int64 arithmetic whatever the endpoints' int type: i * n on an
    # np.int32 endpoint would wrap once n > 46,340
    ends = np.fromiter(itertools.chain.from_iterable(g.arcs), np.int64, 2 * g.m)
    keys = ends[0::2] * n + ends[1::2]
    keys.sort()
    src, dst = np.divmod(keys, n)
    outdeg = np.bincount(src, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(outdeg)))
    components, component_of = _tarjan(n, offsets.tolist(), dst.tolist())
    arrays = dict(
        src=src,
        dst=dst,
        outdeg=outdeg,
        indeg=np.bincount(dst, minlength=n),
        two_outdeg=np.bincount(src, outdeg[dst], n).astype(np.int64),
        component_of=np.array(component_of, dtype=np.intp),
    )
    for array in arrays.values():
        array.flags.writeable = False
    return GraphData(components=components, **arrays)


def _tarjan(n: int, offsets: list, heads: list):
    """Tarjan's algorithm over CSR out-neighbor lists, iterative to stay
    clear of recursion limits. Returns the components, sorted vertex
    tuples in reverse topological order, and the component of each
    vertex."""
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    component_of = [0] * n
    stack = []
    components = []
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
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    component_of[w] = len(components)
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
    return tuple(components), component_of


def _split(values: np.ndarray, counts: np.ndarray) -> list:
    """values cut into consecutive lists of the given lengths."""
    values = values.tolist()
    ends = np.cumsum(counts).tolist()
    return [values[end - count:end] for end, count in zip(ends, counts.tolist())]


def adjacency(g: Digraph):
    """Sorted out- and in-neighbor lists."""
    data = g.data
    tails_by_head = data.src[np.argsort(data.dst, kind="stable")]
    return _split(data.dst, data.outdeg), _split(tails_by_head, data.indeg)


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
    data = g.data
    outdeg = tuple(data.outdeg.tolist())
    two_outdeg = tuple(data.two_outdeg.tolist())
    avg = tuple((t / d) if d > 0 else None for d, t in zip(outdeg, two_outdeg))
    return DegreeProfile(
        outdeg=outdeg,
        indeg=tuple(data.indeg.tolist()),
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
    """The strong components found by Tarjan's algorithm."""
    data = g.data
    return SccDecomposition(tuple(data.component_of.tolist()), data.components)


def is_strongly_connected(g: Digraph) -> bool:
    return len(g.data.components) == 1


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
    return Digraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def gen_bidirectional_complete(n: int) -> Digraph:
    if n < 2:
        raise ValueError("bidirectional complete digraph needs n >= 2")
    return Digraph(n, frozenset((i, j) for i in range(n) for j in range(n) if i != j))


def gen_bidirectional_star(n: int) -> Digraph:
    if n < 3:
        raise ValueError("bidirectional star needs n >= 3")
    arcs = set()
    for leaf in range(1, n):
        arcs.add((0, leaf))
        arcs.add((leaf, 0))
    return Digraph(n, frozenset(arcs))


def _bidirected(vertex_count, edges) -> Digraph:
    """The digraph carrying both arcs of every edge (a, b)."""
    return Digraph(vertex_count, frozenset(edges) | {(b, a) for a, b in edges})


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
        comps = sorted(_bidirected(n, edges).data.components)
        if len(comps) <= 1:
            break
        first = sorted(e for e in edges if e[0] in comps[0])
        improved = False
        for comp in comps[1:]:
            rest = sorted(e for e in edges if e[0] in comp)
            for (x1, y1), (x2, y2) in itertools.product(first, rest):
                trial = (edges - {(x1, y1), (x2, y2)}) | {(x1, y2), (x2, y1)}
                if len(_bidirected(n, trial).data.components) < len(comps):
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
    return Digraph(n, frozenset(arcs))
