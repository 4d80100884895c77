"""Signless Laplacian of a digraph and its spectral radius.

Q(G) = D(G) + A(G) where D is the diagonal matrix of outdegrees and A the
adjacency matrix. Q is entrywise nonnegative, so its spectral radius q(G)
is a real eigenvalue (Perron-Frobenius).

The radius is computed blockwise: permuting vertices into reverse
topological SCC order makes Q block triangular, so the spectrum of Q is
the union of the spectra of the diagonal blocks Q[S] taken over the
strongly connected components S. Each block keeps the full-graph
outdegrees on its diagonal. Blocks of size one contribute their diagonal
entry directly; larger blocks are irreducible with strictly positive
diagonal, hence primitive. Every positive vector x gives the two-sided
Collatz-Wielandt enclosure min_i (Q[S]x)_i / x_i <= rho(Q[S]) <=
max_i (Q[S]x)_i / x_i, and a block is done when that enclosure is
narrower than the tolerance.

A block is iterated in two phases. It starts from the all-ones vector
with power steps, which converge like (|lambda_2| / rho)^k; nearly every
block closes this way. A block still open after _NODA_AFTER matvecs and
with at most _NODA_MAX vertices switches to Noda's shifted inverse
iteration x <- (hi I - Q[S])^-1 x, hi the current upper end (T. Noda,
Numer. Math. 17, 1971), which keeps x positive and converges
superlinearly on irreducible nonnegative matrices (L. Elsner, Linear
Algebra Appl. 15, 1976). Each solve is followed by the same matvec
check, and from the switch on the block's enclosure is the running
[max lo, min hi] over its iterates.

No n x n matrix is built for the whole graph. Each block is read from
the sorted arc arrays and multiplies straight from its arc lists, as
diag * x + bincount(src, x[dst]), with no BLAS call. The solver runs
the blocks of one bounds.BoundColumns batch, the layout the bound table
and the sweep invariants read, in lockstep, as one disjoint union of
arc lists, each block bitwise as it would run alone. A batch holds O(n + m) floats for its n vertices and m arcs, plus one
dense n_b x n_b shifted matrix (and the solver's copy of it) per block
of at most _NODA_MAX vertices taking Noda steps.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import BoundColumns
from .digraph import Digraph, adjacency, is_strongly_connected


class ConvergenceError(RuntimeError):
    """A block's iteration failed to reach the requested tolerance.

    lo and hi are the tightest Collatz-Wielandt enclosure reached for the
    block that failed: that of the last iterate during power steps (the
    two ends tighten monotonically), the running one once the block has
    switched to Noda steps. They bracket that block's radius, so lo is a
    lower bound on q.
    """

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(f"{message}; best enclosure [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi


DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000

# A block still open after _NODA_AFTER power steps switches to Noda
# steps when it has at most _NODA_MAX vertices (its dense shifted matrix
# then takes at most 2 MB), for at most _NODA_STEPS solves. On a directed
# 400-cycle plus one chord, where |lambda_2| / rho = 1 - O(1/n^2), power
# steps alone need 52,294 matvecs; the switch closes the 1e-12 gap after
# 1,008 matvecs and 8 solves. Of 80 random Hamiltonian cycles plus 1 to
# 10 random arcs with n = 100..500, 54 switched and none took more than
# 7 solves or 1,007 matvecs.
_NODA_AFTER = 1000
_NODA_MAX = 512
_NODA_STEPS = 64

@dataclass(frozen=True)
class SpectralResult:
    """q is the max over per_component block radii, each the midpoint of
    its block's Collatz-Wielandt enclosure. [lo, hi] encloses q: lo is
    the max over blocks of the lower ends and hi the max of the upper
    ends (a size-one block gives lo = hi = its diagonal entry), so
    hi - lo is at most the tolerance. residual is the worst final-iterate
    defect ||Q[S]x - q_S x||_inf / ||x||_inf over the iterated blocks
    (size-one blocks are exact and contribute zero). For a block closed
    by power steps it is at most half that block's enclosure width; for a
    block that took Noda steps, whose enclosure may join the ends of two
    iterates, it is at most the distance from q_S to the farther end of
    the final iterate's own enclosure. iterations counts block
    matrix-vector products across all blocks; Noda solves are not
    counted."""

    q: float
    residual: float
    iterations: int
    per_component: tuple
    lo: float
    hi: float


def _dense_q(diag: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The one place that lays out Q, for build_q and for a block's Noda
    steps: diag on the diagonal, 1.0 at every arc (src, dst), zero
    elsewhere."""
    q = np.diag(diag.astype(float))
    q[src, dst] = 1.0
    return q


def build_q(g: Digraph) -> np.ndarray:
    """Dense signless Laplacian D + A as a float array."""
    data = g.data
    return _dense_q(data.outdeg, data.src, data.dst)


def _noda_step(shifted: np.ndarray, shifted_diag: np.ndarray, x: np.ndarray):
    """(hi I - B)^-1 x normalised to max 1, given -B in shifted and
    hi - diag in shifted_diag; None when the solve raises or the result
    is not finite and strictly positive."""
    np.fill_diagonal(shifted, shifted_diag)
    with np.errstate(all="ignore"):
        try:
            z = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            return None
        z = z / z.max()
    return z if np.isfinite(z).all() and (z > 0).all() else None


def _lockstep(diag, src, dst, sizes, tol, max_iter):
    """Collatz-Wielandt iteration on primitive blocks laid out one after
    another, block b on the sizes[b] vertices from sum(sizes[:b]) on, with
    diagonal diag and the arcs src -> dst inside the blocks, each row's
    arcs in sorted order. The blocks advance together: each step is one
    y = diag * x + bincount(src, x[dst]) over the whole union, which sums
    every row as its block alone would.

    Every iterate x is positive, so the min and max of (Bx)_i / x_i over
    a block's rows enclose its spectral radius; the first _NODA_AFTER
    iterates are power steps x <- Bx / max(Bx), on which they tighten.
    A block of at most _NODA_MAX vertices still open then takes up to
    _NODA_STEPS Noda steps x <- (hi I - B)^-1 x, normalised to max 1,
    and keeps the running enclosure [max lo, min hi] over its iterates;
    a solve that raises or gives a vector that is not finite and
    positive sends it back to power steps. A block leaves the union at
    the iterate where hi - lo <= tol. The result holds five rows, one
    column per block: the midpoint, the defect ||Bx - rho x||_inf /
    ||x||_inf of that iterate, the matvec count, lo and hi. Open blocks
    keep their order, so when blocks are still open after max_iter
    matvecs, ConvergenceError names the first of them.
    """
    closed = np.empty((5, len(sizes)))
    owners = np.arange(len(sizes))  # the column of each open block
    starts = np.cumsum(sizes) - sizes
    noda = []  # from the switch on, per block: [-B, solves] or None
    x = np.ones(len(diag))
    for iteration in range(1, max_iter + 1):
        y = diag * x + np.bincount(src, weights=x[dst], minlength=len(x))
        ratios = y / x
        hi = np.maximum.reduceat(ratios, starts)
        lo = np.minimum.reduceat(ratios, starts)
        if iteration > _NODA_AFTER:
            switched = sizes <= _NODA_MAX  # as at the switch: sizes never change
            lo = np.where(switched, np.maximum(lo, prev_lo), lo)
            hi = np.where(switched, np.minimum(hi, prev_hi), hi)
        done = hi - lo <= tol
        if np.count_nonzero(done):
            rho = 0.5 * (hi + lo)
            residual = (np.maximum.reduceat(np.abs(y - rho.repeat(sizes) * x), starts)
                        / np.maximum.reduceat(x, starts))
            closure = np.array([rho, residual, np.full_like(rho, iteration), lo, hi])
            closed[:, owners[done]] = closure[:, done]
            keep = ~done
            if not keep.any():
                return closed
            # drop the closed blocks and renumber the vertices left
            open_vertex = np.repeat(keep, sizes)
            renumber = np.cumsum(open_vertex) - 1
            arcs = open_vertex[src]
            src, dst = renumber[src[arcs]], renumber[dst[arcs]]
            x, y, diag = x[open_vertex], y[open_vertex], diag[open_vertex]
            lo, hi, sizes, owners = lo[keep], hi[keep], sizes[keep], owners[keep]
            starts = np.cumsum(sizes) - sizes
            noda = [state for state, k in zip(noda, keep.tolist()) if k]
        prev_lo, prev_hi = lo, hi
        if iteration == _NODA_AFTER:
            noda = [None] * len(sizes)
            for b in np.flatnonzero(sizes <= _NODA_MAX).tolist():
                a, n_b = starts[b], sizes[b]
                arcs = (src >= a) & (src < a + n_b)
                noda[b] = [-_dense_q(diag[a:a + n_b], src[arcs] - a, dst[arcs] - a), 0]
        # entries of y are positive, so each block's max is its sup norm
        x_next = y / np.maximum.reduceat(y, starts).repeat(sizes)
        for b, state in enumerate(noda):
            if state is None or state[1] >= _NODA_STEPS:
                continue
            state[1] += 1
            part = slice(starts[b], starts[b] + sizes[b])
            z = _noda_step(state[0], hi[b] - diag[part], x[part])
            if z is None:
                noda[b] = None
            else:
                x_next[part] = z
        x = x_next
    raise ConvergenceError(
        f"power iteration did not close a two-sided gap of {tol} within "
        f"{max_iter} iterations (block size {sizes[0]})",
        float(lo[0]), float(hi[0]))


def _solve(cols: BoundColumns, tol, max_iter) -> list:
    """The SpectralResult of each digraph of a BoundColumns batch, in
    order, per_component in the batch's component order. A stable sort
    by component label puts every block of size > 1 on consecutive
    vertices in vertex order, _lockstep runs those blocks together, and
    a size-one block is its outdegree, exactly. Each result is bitwise
    independent of the rest of the batch. A block still open after
    max_iter matvecs raises ConvergenceError for the first such digraph."""
    first = np.cumsum(cols.component_count) - cols.component_count
    label = first[cols.vertex_graph] + cols.component_of  # across the batch
    outdeg = cols.outdeg.astype(float)
    sizes = np.bincount(label)
    exact = np.empty(len(sizes))
    exact[label] = outdeg  # the radius of a size-one block
    zero = np.zeros(len(sizes))
    # per block: value, residual, matvecs, lo, hi
    blocks = np.array([exact, zero, zero, exact, exact])
    big = sizes > 1
    if big.any():
        order = np.argsort(label, kind="stable")
        order = order[big[label[order]]]
        # an arc inside a component has both ends in a block of size > 1
        number = np.empty(len(label), dtype=np.intp)
        number[order] = np.arange(len(order))
        inside = label[cols.tail] == label[cols.head]
        blocks[:, big] = _lockstep(outdeg[order], number[cols.tail[inside]],
                                   number[cols.head[inside]], sizes[big],
                                   tol, max_iter)
    best = np.maximum.reduceat(blocks, first, axis=1).tolist()
    matvecs = np.add.reduceat(blocks[2], first).astype(int).tolist()
    values = blocks[0].tolist()
    return [
        SpectralResult(q=q, residual=residual, iterations=iterations,
                       per_component=tuple(enumerate(values[start:start + count])),
                       lo=lo, hi=hi)
        for q, residual, _, lo, hi, iterations, start, count
        in zip(*best, matvecs, first.tolist(), cols.component_count.tolist())
    ]


def spectral_radii(graphs, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> list:
    """The SpectralResult of each digraph in graphs, in order, solved one
    batch of BoundColumns.slices at a time. tol must be a positive finite
    real and max_iter an integer, not a bool, of at least 1. A block
    still open after max_iter matvecs raises ConvergenceError for the
    first such graph in input order, with the message and enclosure
    spectral_radius gives; no later batch runs."""
    if not (isinstance(tol, numbers.Real) and tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not np.issubdtype(type(max_iter), np.integer) or max_iter < 1:  # refuses bool
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    return [result for _, cols in BoundColumns.slices(list(graphs))
            for result in _solve(cols, tol, max_iter)]


def spectral_radius(g: Digraph, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Spectral radius of Q(G) via per-SCC iteration: spectral_radii([g])."""
    return spectral_radii([g], tol, max_iter)[0]


@dataclass(frozen=True)
class OvalCheck:
    contained: bool
    witness_arc: tuple | None


def oval_containment(g: Digraph, value: float) -> OvalCheck:
    """Whether value lies in the union of the per-arc Cassini ovals
    |z - d(i)| * |z - d(j)| <= r(i) * r(j) of P = D^-1/2 Q D^1/2, where
    r(i), the off-diagonal row sum of P at i, sums sqrt(d(j)/d(i)) over
    the out-neighbors j of i. For a strongly connected digraph every
    eigenvalue of Q lies in that union, so the computed q must test as
    contained.

    The witness is the lexicographically first arc whose oval contains
    the value.
    """
    if not is_strongly_connected(g):
        raise ValueError("oval containment needs a strongly connected digraph")
    data = g.data
    src, dst = data.src, data.dst
    center = data.outdeg.astype(float)
    out, _ = adjacency(g)
    d = data.outdeg.tolist()
    radius = np.array([sum(math.sqrt(d[j] / d[i]) for j in out[i])
                       for i in range(g.n)])
    lhs = np.abs(value - center[src]) * np.abs(value - center[dst])
    rhs = radius[src] * radius[dst]
    # Equality cases (e.g. the bidirectional star) put the spectral
    # radius exactly on the boundary, where the radius product can
    # round one ulp short; allow a relative slack of 1e-9.
    inside = lhs <= rhs + 1e-9 * np.maximum(1.0, rhs)
    k = int(np.argmax(inside))  # first contained arc in sorted arc order
    if not inside[k]:
        return OvalCheck(contained=False, witness_arc=None)
    return OvalCheck(contained=True, witness_arc=(int(src[k]), int(dst[k])))
