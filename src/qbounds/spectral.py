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
block closes this way. A block still open after _NODA_AFTER matvecs
switches to Noda's shifted inverse iteration x <- (hi I - Q[S])^-1 x, hi
the current upper end (T. Noda, Numer. Math. 17, 1971), which keeps x
positive and converges superlinearly on irreducible nonnegative matrices
(L. Elsner, Linear Algebra Appl. 15, 1976), when its kernel has at most
_NODA_MAX vertices. Each solve eliminates the block's pass-through
vertices, those with one in-arc and one out-arc inside it, along their
chains (Kron reduction: F. Dorfler and F. Bullo, IEEE TCAS-I 60, 2013),
solves the dense system of the k kernel vertices left and fills the
chains back in. Each solve is followed by the same matvec check, and
from the switch on a block's enclosure is a running one, floored at its
largest diagonal entry (_lockstep), so solve rounding costs speed, never
certification.

No n x n matrix is built for the whole graph. Each block is read from
the sorted arc arrays and multiplies straight from its arc lists, as
diag * x + bincount(src, x[dst]), with no BLAS call. The solver runs
the blocks of one bounds.BoundColumns batch, the layout the bound table
and the sweep invariants read, in lockstep, as one disjoint union of
arc lists, each block bitwise as it would run alone. A batch holds
O(n + m) floats for its n vertices and m arcs, plus one k x k kernel
matrix (and the solver's copy of it) per block taking Noda steps.

That lockstep loop is the package's one Collatz-Wielandt engine, and
it never raises: every block still open at the matvec budget max_iter
leaves with its last enclosure, which still brackets its radius. _solve
reduces the blocks to one q per digraph and raises ConvergenceError for
the first block left open; only spectral_radii builds SpectralResults.
The reconstruct search's q interval runs the same loop with a budget of
a few dozen matvecs and a window (a, b) of the q it can still use: a
block also leaves once its enclosure lies wholly below a or above b, as
more steps would not change what the search decides.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bounds import BoundColumns
from .digraph import Digraph, _arc_ends


class ConvergenceError(RuntimeError):
    """A block's iteration failed to reach the requested tolerance.

    lo and hi are the enclosure _lockstep holds for the block that
    failed. They bracket that block's radius, so lo is a lower bound on q.
    An end that is not finite, as when an iterate entry underflows to 0,
    is replaced by the block's bracket [max d, 2 max d].
    """

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(f"{message}; best enclosure [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi


DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000

# Noda steps of two solves run at iterates _NODA_AFTER to _NODA_AFTER +
# _NODA_STEPS - 1, on the open blocks whose kernel has at most _NODA_MAX
# vertices (its k x k matrix then takes at most 2 MB).
# On a directed 400-cycle plus one chord, where |lambda_2| / rho =
# 1 - O(1/n^2) and k = 2, power steps alone need 52,294 matvecs; the
# switch closes the 1e-12 gap after 1,008 matvecs and 8 steps, and at
# n = 8,000 after 1,024 matvecs and 24 steps. Of 80 random Hamiltonian
# cycles plus 1 to 10 random arcs with n = 100..500, 60 switched and
# none took more than 8 steps or 1,008 matvecs.
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
    before the switch it is at most half that block's enclosure width;
    after it, at most the distance from q_S to the farther end of the
    final iterate's own enclosure. iterations counts block matrix-vector
    products across all blocks; Noda solves are not counted."""

    q: float
    residual: float
    iterations: int
    per_component: tuple
    lo: float
    hi: float


def build_q(g: Digraph) -> np.ndarray:
    """Dense signless Laplacian D + A as a float array."""
    src, dst = _arc_ends(g)
    q = np.diag(np.bincount(src, minlength=g.n).astype(float))
    q[src, dst] = 1.0
    return q


_Chains = namedtuple("_Chains", "diag src dst kernel succ rounds end head first cells")


def _contract(diag, src, dst):
    """The _Chains of one block B = diag(diag) + A for its Noda steps, or
    None when its kernel has more than _NODA_MAX vertices.

    A pass-through vertex has one in-arc and one out-arc inside the block;
    the others form the kernel (a block that is one cycle keeps vertex 0
    there). Each run of pass-through vertices u -> v1 ... vL -> w between
    kernel vertices is a chain. succ points from each v to the next
    vertex of its chain, or to the sentinel n_b after vL, and end holds
    the kernel row of w (of v itself for a kernel vertex); rounds pointer
    jumps take every succ to the sentinel. The kernel matrix entries are
    numbered by cell i * k + j: the k diagonal cells, one cell per arc
    between kernel vertices, then one per chain, whose v1 is in first and
    whose u's row is in head.
    """
    n = len(diag)
    through = (np.bincount(src, minlength=n) == 1) & (np.bincount(dst, minlength=n) == 1)
    through[0] &= not through.all()
    kernel = np.flatnonzero(~through)
    k = len(kernel)
    if k > _NODA_MAX:
        return None
    index = np.cumsum(~through) - 1  # a kernel vertex's row
    succ = np.full(n + 1, n)
    end = np.arange(n)
    out = through[src]
    succ[src[out]] = np.where(through[dst[out]], dst[out], n)
    end[src[out]] = dst[out]
    rounds, jump = 0, succ
    while (jump[:n] < n).any():
        jump, end, rounds = jump[jump], end[end], rounds + 1
    direct = ~out & ~through[dst]
    chain = ~out & through[dst]
    head, first = index[src[chain]], dst[chain]
    cells = np.concatenate((np.arange(k) * (k + 1), index[src[direct]] * k + index[dst[direct]],
                            head * k + index[end[first]]))
    return _Chains(diag, src, dst, kernel, succ, rounds, index[end], head, first, cells)


def _noda_step(chains, h, x):
    """(h I - B)^-1 x normalised to max 1, for a block contracted by
    _contract and h above its radius; None when a solve raises or the
    result is not finite and strictly positive.

    With r_v = 1 / (h - d_v), a chain's solution is z_v = alpha_v +
    beta_v z_w, from alpha_v = r_v (x_v + alpha_next) and beta_v = r_v
    beta_next. Pointer jumping composes these maps in rounds steps and
    never divides by a product of the r_v: beta_v may underflow on a long
    chain, but z_v >= alpha_v >= r_v x_v stays positive. The kernel
    system has h - d_u on its diagonal, -1 at each arc between kernel
    vertices and -beta_v1 at each chain's (u, w), with alpha_v1 added to
    the right-hand side at u. Its columns are scaled by x on the kernel,
    which is close to the Perron vector, so that the solve's normwise
    error is relative to each entry of z, however small. One step of
    iterative refinement follows, on the residual x - (h I - B) z taken
    from the block's arc lists.
    """
    diag, src, dst, kernel, succ, rounds, end, head, first, cells = chains
    k, scale = len(kernel), x[kernel]
    shifted = h - diag
    with np.errstate(all="ignore"):
        r = 1.0 / shifted

        def solve(rhs):
            beta, alpha, jump = np.append(r, 1.0), np.append(r * rhs, 0.0), succ
            for _ in range(rounds):
                alpha = alpha + beta * alpha[jump]
                beta = beta * beta[jump]
                jump = jump[jump]
            weights = np.concatenate((shifted[kernel], np.full(len(cells) - k - len(first), -1.0),
                                      -beta[first]))
            matrix = np.bincount(cells, weights, k * k).reshape(k, k) * scale
            rhs_kernel = rhs[kernel] + np.bincount(head, alpha[first], k)
            z_kernel = scale * np.linalg.solve(matrix, rhs_kernel)
            z = alpha[:-1] + beta[:-1] * z_kernel[end]
            z[kernel] = z_kernel
            return z

        try:
            z = solve(x)
            z = z + solve(x - shifted * z + np.bincount(src, z[dst], minlength=len(x)))
        except np.linalg.LinAlgError:
            return None
        z = z / z.max()
    return z if np.isfinite(z).all() and (z > 0).all() else None


def _lockstep(diag, src, dst, sizes, tol, max_iter, window):
    """Collatz-Wielandt iteration on primitive blocks laid out one after
    another, block b on the sizes[b] vertices from sum(sizes[:b]) on, with
    diagonal diag and the arcs src -> dst inside the blocks, each row's
    arcs in sorted order. The blocks advance together: each step is one
    y = diag * x + bincount(src, x[dst]) over the whole union, which sums
    every row as its block alone would.

    Every iterate x is positive, so the min and max of (Bx)_i / x_i over
    a block's rows enclose its spectral radius. Before the switch at
    iterate _NODA_AFTER, a block's enclosure is that of its last power
    step x <- Bx / max(Bx). At the switch lo is raised to the block's
    largest diagonal entry, as rho(B) >= max_i B_ii (R. A. Horn and C. R.
    Johnson, Matrix Analysis, ch. 8), and from then on the block keeps
    the running enclosure [max lo, min hi] over its iterates. At iterates
    _NODA_AFTER to _NODA_AFTER + _NODA_STEPS - 1, a block with _contract
    chains takes Noda steps x <- (hi I - B)^-1 x, normalised to max 1;
    one that raises or gives a vector that is not finite and positive
    drops the chains. A block leaves the union at the iterate where hi -
    lo <= tol, or, when window is a pair (a, b) and not None, where hi <
    a or lo > b, and every block still open leaves at iterate max_iter.
    The result holds five rows, one column per block: the midpoint, the
    defect ||Bx - rho x||_inf / ||x||_inf of that iterate, the matvec
    count, lo and hi. An iterate entry that underflows to 0 makes an end
    nan or inf, and the block then stays open to max_iter.
    """
    closed = np.empty((5, len(sizes)))
    owners = np.arange(len(sizes))  # the column of each open block
    starts = np.cumsum(sizes) - sizes
    noda = []  # from the switch on, per open block: its _contract chains or None
    x = np.ones(len(diag))
    for iteration in range(1, max_iter + 1):
        y = diag * x + np.bincount(src, weights=x[dst], minlength=len(x))
        ratios = y / x
        hi = np.maximum.reduceat(ratios, starts)
        lo = np.minimum.reduceat(ratios, starts)
        if iteration == _NODA_AFTER:
            lo = np.maximum(lo, np.maximum.reduceat(diag, starts))  # rho(B) >= max_i B_ii
        elif iteration > _NODA_AFTER:
            lo, hi = np.maximum(lo, prev_lo), np.minimum(hi, prev_hi)
        done = hi - lo <= tol if iteration < max_iter else np.ones(len(hi), bool)
        if window is not None:
            done |= (hi < window[0]) | (lo > window[1])
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
            noda = [chains for chains, k in zip(noda, keep.tolist()) if k]
        prev_lo, prev_hi = lo, hi
        if iteration == _NODA_AFTER:
            for a, n_b in zip(starts.tolist(), sizes.tolist()):
                arcs = (src >= a) & (src < a + n_b)
                noda.append(_contract(diag[a:a + n_b], src[arcs] - a, dst[arcs] - a))
        # entries of y are positive, so each block's max is its sup norm
        x_next = y / np.maximum.reduceat(y, starts).repeat(sizes)
        if iteration < _NODA_AFTER + _NODA_STEPS:
            for b, chains in enumerate(noda):
                if chains is None:
                    continue
                part = slice(starts[b], starts[b] + sizes[b])
                z = _noda_step(chains, hi[b], x[part])
                if z is None:
                    noda[b] = None
                else:
                    x_next[part] = z
        x = x_next


def _enclose(cols: BoundColumns, tol, max_iter, window=None):
    """The Collatz-Wielandt enclosure of every block of a BoundColumns
    batch, as (first, label, blocks): blocks holds the five _lockstep
    rows, one column per block in the batch's component order, the
    blocks of digraph k from column first[k] on, and label is each
    vertex's column. A stable sort by label puts every block of size > 1
    on consecutive vertices in vertex order, _lockstep runs those blocks
    together, with tol, max_iter and window as it takes them, and a
    size-one block is its outdegree, exactly. Each column is bitwise
    independent of the rest of the batch."""
    first = np.cumsum(cols.component_count) - cols.component_count
    label = first[cols.vertex_graph] + cols.component_of  # across the batch
    outdeg = cols.outdeg.astype(float)
    sizes = np.bincount(label)
    blocks = np.zeros((5, len(sizes)))  # per block: value, residual, matvecs, lo, hi
    blocks[np.ix_([0, 3, 4], label)] = outdeg  # the radius of a size-one block
    big = sizes > 1
    if big.any():
        order = np.argsort(label, kind="stable")
        order = order[big[label[order]]]
        # an arc inside a component has both ends in a block of size > 1
        number = np.empty(len(label), dtype=np.intp)
        number[order] = np.arange(len(order))
        inside = label[cols.tail] == label[cols.head]
        with np.errstate(divide="ignore", invalid="ignore"):  # x_i = 0 gives nan or inf
            blocks[:, big] = _lockstep(outdeg[order], number[cols.tail[inside]],
                                       number[cols.head[inside]], sizes[big],
                                       tol, max_iter, window)
    return first, label, blocks


def _solve(cols: BoundColumns, tol, max_iter):
    """Each digraph's q of a BoundColumns batch, in order, the max of its
    block midpoints, with _enclose's first and blocks. A block still open
    after max_iter matvecs raises ConvergenceError for the first such
    digraph, with an end that is not finite replaced by the bracket
    [max d, 2 max d] of the block's diagonal and row sums."""
    first, label, blocks = _enclose(cols, tol, max_iter)
    wide = ~(blocks[4] - blocks[3] <= tol)  # a nan end is wide too
    if wide.any():
        b = int(wide.argmax())
        ends, peak = blocks[3:, b], float(cols.outdeg[label == b].max())
        raise ConvergenceError(
            f"power iteration did not close a two-sided gap of {tol} within "
            f"{max_iter} iterations (block size {np.count_nonzero(label == b)})",
            *np.where(np.isfinite(ends), ends, [peak, 2 * peak]).tolist())
    return np.maximum.reduceat(blocks[0], first), first, blocks


def spectral_radii(graphs, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> list:
    """The SpectralResult of each digraph in graphs, in order, built from
    _solve one batch of BoundColumns.slices at a time. tol must be a
    positive finite real and max_iter an integer, not a bool, of at least
    1. A block still open after max_iter matvecs raises ConvergenceError
    for the first such graph in input order, with the message and
    enclosure spectral_radius gives; no later batch runs."""
    if not (isinstance(tol, numbers.Real) and tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not np.issubdtype(type(max_iter), np.integer) or max_iter < 1:  # refuses bool
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    results = []
    for _, cols in BoundColumns.slices(list(graphs)):
        q, first, blocks = _solve(cols, tol, max_iter)
        residual, lo, hi = np.maximum.reduceat(blocks[[1, 3, 4]], first, axis=1).tolist()
        matvecs = np.add.reduceat(blocks[2], first).astype(int).tolist()
        results.extend(
            SpectralResult(q=q, residual=residual, iterations=iterations, lo=lo, hi=hi,
                           per_component=tuple(enumerate(values.tolist())))
            for q, residual, lo, hi, iterations, values
            in zip(q.tolist(), residual, lo, hi, matvecs, np.split(blocks[0], first[1:])))
    return results


def spectral_radius(g: Digraph, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Spectral radius of Q(G) via per-SCC iteration: spectral_radii([g])."""
    return spectral_radii([g], tol, max_iter)[0]


@dataclass(frozen=True)
class OvalCheck:
    contained: bool
    witness_arc: tuple | None


def _first_oval(cols: BoundColumns, values):
    """Per digraph k, the batch index of its first sorted arc whose oval
    holds values[k], or -1; each r(i) sums from 0.0 in sorted arc order."""
    d, tail, head = cols.outdeg.astype(float), cols.tail, cols.head
    radius = np.bincount(tail, np.sqrt(d[head] / d[tail]), len(d))
    value = np.asarray(values, dtype=float)[cols.arc_graph]
    lhs = np.abs(value - d[tail]) * np.abs(value - d[head])
    rhs = radius[tail] * radius[head]
    # Equality cases (e.g. the bidirectional star) put the spectral
    # radius exactly on the boundary, where the radius product can
    # round one ulp short; allow a relative slack of 1e-9.
    inside = lhs <= rhs + 1e-9 * np.maximum(1.0, rhs)
    first = np.minimum.reduceat(np.where(inside, np.arange(len(tail)), len(tail)), cols.arc_start)
    return np.where(first < len(tail), first, -1)


def oval_containment(g: Digraph, value: float) -> OvalCheck:
    """Whether value lies in the union of the per-arc Cassini ovals
    |z - d(i)| * |z - d(j)| <= r(i) * r(j) of P = D^-1/2 Q D^1/2, where
    r(i), the off-diagonal row sum of P at i, sums sqrt(d(j)/d(i)) over
    the out-neighbors j of i. For a strongly connected digraph every
    eigenvalue of Q lies in that union, so the computed q must test as
    contained. It is a batch of one of the sweep's oval test.

    The witness is the lexicographically first arc whose oval contains
    the value.
    """
    cols = BoundColumns.from_graphs([g])
    if not cols.shape.strongly[0]:
        raise ValueError("oval containment needs a strongly connected digraph")
    (k,) = _first_oval(cols, [value]).tolist()
    return OvalCheck(k >= 0, (int(cols.tail[k]), int(cols.head[k])) if k >= 0 else None)
