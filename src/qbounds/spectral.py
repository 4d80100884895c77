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
the sorted arc arrays and multiplies either as a dense n_b x n_b array,
when it is full enough that a gemv beats a gather (n_b^2 <= _DENSE_FILL
* (m_b + n_b)), or straight from its arc lists. Either way the solver
holds O(n + m) floats, plus one dense n_b x n_b shifted matrix (and the
solver's copy of it) while a block of at most _NODA_MAX vertices takes
Noda steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .digraph import (
    DegreeProfile,
    Digraph,
    adjacency,
    degree_profile,
    is_strongly_connected,
)


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

# A block is stored dense when n_b^2 <= _DENSE_FILL * (m_b + n_b). A gemv
# streams n_b^2 floats; the arc lists gather and scatter m_b entries at a
# few times the cost per entry plus a fixed numpy overhead. One matvec on
# one x86-64 core (OpenBLAS, one thread): n_b = 60 with 400 arcs (ratio
# 7.8) takes 2.5 us dense and 5.7 us from arcs; n_b = 200 with 1,600 arcs
# (ratio 22) 9.4 us and 12.1 us; n_b = 400 with 401 arcs 25 us and 6.1 us.
# Beyond 8 the two are close, and 8 bounds dense storage by 8 (m + n)
# floats.
_DENSE_FILL = 8

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
    """The one place that lays out Q: diag on the diagonal, 1.0 at every
    arc (src, dst), zero elsewhere."""
    q = np.diag(diag.astype(float))
    q[src, dst] = 1.0
    return q


def build_q(g: Digraph) -> np.ndarray:
    """Dense signless Laplacian D + A as a float array."""
    data = g.data
    return _dense_q(data.outdeg, data.src, data.dst)


def _block_matvec(diag: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """x -> Q[S] x for the block with diagonal diag and local arcs
    (src, dst): a dense gemv when the block is full enough, else a
    gather over the arcs summed by bincount in arc order."""
    size = len(diag)
    if size * size <= _DENSE_FILL * (len(src) + size):
        block = _dense_q(diag, src, dst)
        return lambda x: block @ x
    return lambda x: diag * x + np.bincount(src, weights=x[dst], minlength=size)


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


def _power_iteration(diag: np.ndarray, src: np.ndarray, dst: np.ndarray,
                     tol: float, max_iter: int):
    """Collatz-Wielandt iteration on the primitive block with diagonal
    diag and local arcs (src, dst).

    Every iterate x is strictly positive, so lo = min_i (Bx)_i / x_i and
    hi = max_i (Bx)_i / x_i enclose the spectral radius. The first
    _NODA_AFTER iterates are power steps x <- Bx / max(Bx), on which hi
    is non-increasing and lo non-decreasing. A block of at most
    _NODA_MAX vertices that is still open then takes up to _NODA_STEPS
    Noda steps x <- (hi I - B)^-1 x, normalised to max 1, with hi the
    current upper end, and keeps the running enclosure [max lo, min hi]
    over its iterates. A solve that raises or gives a vector that is not
    finite and positive ends the Noda steps; the block goes on with power
    steps. Stop when hi - lo <= tol and report the midpoint, the defect
    ||Bx - rho x||_inf / ||x||_inf of the last iterate, the number of
    matvecs and the enclosure (lo, hi).
    """
    size = len(diag)
    matvec = _block_matvec(diag, src, dst)
    switched = False  # from the switch on, lo and hi are running bounds
    shifted = None  # -B with its diagonal left to fill, while Noda steps last
    solves = 0
    x = np.ones(size)
    for iteration in range(1, max_iter + 1):
        y = matvec(x)
        ratios = y / x
        hi = float(ratios.max())
        lo = float(ratios.min())
        if switched:
            lo, hi = max(lo, prev_lo), min(hi, prev_hi)
        if hi - lo <= tol:
            rho = 0.5 * (hi + lo)
            residual = float(np.abs(y - rho * x).max() / np.abs(x).max())
            return rho, residual, iteration, lo, hi
        prev_lo, prev_hi = lo, hi
        if iteration == _NODA_AFTER and size <= _NODA_MAX:
            switched = True
            shifted = -_dense_q(diag, src, dst)
        z = None
        if shifted is not None and solves < _NODA_STEPS:
            solves += 1
            z = _noda_step(shifted, hi - diag, x)
            if z is None:
                shifted = None
        # entries of y are positive, so max() is the sup norm
        x = y / y.max() if z is None else z
    raise ConvergenceError(
        f"power iteration did not close a two-sided gap of {tol} within "
        f"{max_iter} iterations (block size {size})",
        lo,
        hi,
    )


def spectral_radius(g: Digraph, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Spectral radius of Q(G) via per-SCC power iteration."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    data = g.data
    src, dst, component_of = data.src, data.dst, data.component_of
    outdeg = data.outdeg.astype(float)

    # Local ids: each component lists its vertices in increasing order, so
    # a stable sort by component id lines them up in that order.
    sizes = np.bincount(component_of)
    by_component = np.argsort(component_of, kind="stable")
    local = np.empty(g.n, dtype=np.intp)
    local[by_component] = np.arange(g.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    # Intra-block arcs grouped by component; the stable sort keeps each
    # block's arcs in sorted (src, dst) order, which fixes the summation
    # order of the arc-list matvec.
    arc_component = component_of[src]
    inside = arc_component == component_of[dst]
    order = np.argsort(arc_component[inside], kind="stable")
    block_src = local[src[inside]][order]
    block_dst = local[dst[inside]][order]
    arc_start = np.concatenate(
        ([0], np.cumsum(np.bincount(arc_component[inside], minlength=len(sizes))))
    )

    per_component = []
    enclosures = []
    total_iterations = 0
    worst_residual = 0.0
    for cid, comp in enumerate(data.components):
        if len(comp) == 1:
            value = block_lo = block_hi = float(outdeg[comp[0]])
        else:
            arcs = slice(arc_start[cid], arc_start[cid + 1])
            value, block_residual, block_iterations, block_lo, block_hi = (
                _power_iteration(outdeg[list(comp)], block_src[arcs],
                                 block_dst[arcs], tol, max_iter)
            )
            total_iterations += block_iterations
            worst_residual = max(worst_residual, block_residual)
        per_component.append((cid, value))
        enclosures.append((block_lo, block_hi))
    return SpectralResult(
        q=max(value for _, value in per_component),
        residual=worst_residual,
        iterations=total_iterations,
        per_component=tuple(per_component),
        lo=max(lo for lo, _ in enclosures),
        hi=max(hi for _, hi in enclosures),
    )


_SIMILARITY_KINDS = ("plain_Q", "deg_inverse", "deg_sqrt")


def similarity_row_sums(g: Digraph, kind: str) -> list:
    """Row sums of Q under a diagonal similarity, in closed form.

    plain_Q      -> 2 d+(i)
    deg_inverse  -> d+(i) + m+(i)            (rows of D^-1 Q D)
    deg_sqrt     -> d+(i) + sum over out-neighbors j of sqrt(d+(j)/d+(i))
                                              (rows of D^-1/2 Q D^1/2)

    The two D-inverse kinds need every outdegree positive.
    """
    if kind not in _SIMILARITY_KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {_SIMILARITY_KINDS}")
    profile = degree_profile(g)
    if kind == "plain_Q":
        return [2.0 * d for d in profile.outdeg]
    if profile.min_outdeg == 0:
        raise ValueError(
            f"kind {kind!r} conjugates by a power of D and needs every "
            f"outdegree positive; vertex "
            f"{profile.outdeg.index(0)} has outdegree 0"
        )
    if kind == "deg_inverse":
        return [d + t / d for d, t in zip(profile.outdeg, profile.two_outdeg)]
    return [d + s for d, s in zip(profile.outdeg, _sqrt_ratio_sums(g, profile))]


def _sqrt_ratio_sums(g: Digraph, profile: DegreeProfile) -> list:
    """Off-diagonal row sums of P = D^-1/2 Q D^1/2: the sum of
    sqrt(d+(j)/d+(i)) over the out-neighbors j of each vertex i."""
    out, _ = adjacency(g)
    return [
        sum(math.sqrt(profile.outdeg[j] / profile.outdeg[i]) for j in out[i])
        for i in range(g.n)
    ]


@dataclass(frozen=True)
class OvalCheck:
    contained: bool
    witness_arc: tuple | None


def oval_containment(g: Digraph, value: float) -> OvalCheck:
    """Whether value lies in the union of the per-arc Cassini ovals
    |z - d(i)| * |z - d(j)| <= r(i) * r(j) of P = D^-1/2 Q D^1/2, where
    r(i) is the off-diagonal row sum of P at i. For a strongly connected
    digraph every eigenvalue of Q lies in that union, so the computed q
    must test as contained.

    The witness is the lexicographically first arc whose oval contains
    the value.
    """
    if not is_strongly_connected(g):
        raise ValueError("oval containment needs a strongly connected digraph")
    data = g.data
    src, dst = data.src, data.dst
    center = data.outdeg.astype(float)
    radius = np.array(_sqrt_ratio_sums(g, degree_profile(g)))
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
