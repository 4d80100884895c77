"""Independent reference implementations used only by the test suite.

The spectral oracle goes through the characteristic polynomial and
polynomial root finding, sharing no code path with the power iteration
under test.  The reachability oracle recomputes strong components from
the boolean transitive closure instead of a DFS.  The reconstruction
oracle evaluates every candidate on the scalar path, with no batching
and no filter ahead of spectral_radius.  The per-block solver is a frozen
copy of the one-block-at-a-time loop that spectral_radii replaced: the
batched solver must reproduce it bitwise.  Likewise the bound row and the
sweep are frozen copies of the one-graph-at-a-time evaluator and sweep
loop that the ragged BoundColumns batch replaced; the sweep runs its own
copies of the nine scalar invariants, not verify.INVARIANTS, and tests
q against the Cassini ovals with a frozen copy of the per-graph loop
that oval_containment replaced. Arc arrays
and degrees are read from sorted_arcs() and counted arc by arc, and
strong components are read from scc(), never from a digraph's cache.
"""

import functools
import itertools
import math

import numpy as np

from qbounds import (
    BoundId,
    BoundValue,
    Digraph,
    ROW_ORDER,
    ReconstructionMatch,
    SweepFailure,
    SweepReport,
    all_bounds,
    bounds,
    build_q,
    classify,
    degree_profile,
    is_strongly_connected,
    scc,
    serialize_edge_list,
    spectral,
    spectral_radius,
    verify,
    witness_value,
)
from qbounds.spectral import ConvergenceError, OvalCheck, SpectralResult


def arc_arrays(g: Digraph):
    """The tails and heads of g's arcs in sorted order, from sorted_arcs()."""
    arcs = np.array(g.sorted_arcs(), dtype=np.int64)
    return arcs[:, 0], arcs[:, 1]


def degrees(g: Digraph):
    """The outdegree d+ and 2-outdegree t+ of every vertex of g, counted
    arc by arc."""
    src, dst = arc_arrays(g)
    d = np.zeros(g.n, dtype=np.int64)
    np.add.at(d, src, 1)
    t = np.zeros(g.n, dtype=np.int64)
    np.add.at(t, src, d[dst])
    return d, t


def char_poly_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - M), highest power first (monic).

    Faddeev-LeVerrier recursion: exact in float arithmetic for the small
    integer matrices the tests feed it (all intermediates are integers of
    modest size).
    """
    n = matrix.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    aux = np.zeros_like(matrix)
    for k in range(1, n + 1):
        aux = matrix @ aux + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(matrix @ aux) / k
    return coeffs


def spectral_radius_oracle(g: Digraph) -> float:
    """Largest eigenvalue modulus of Q(g), computed block by block.

    Grouping vertices by strong component makes Q block triangular, so
    its spectrum is the union of the diagonal-block spectra.  Root
    finding on the characteristic polynomial of the whole matrix loses
    about a third of the mantissa whenever two blocks tie (repeated
    roots); within a single block the dominant root is simple, which
    keeps the per-block polynomial well conditioned.
    """
    q = build_q(g)
    radius = 0.0
    for component in scc_oracle(g):
        idx = sorted(component)
        block = q[np.ix_(idx, idx)]
        roots = np.roots(char_poly_coefficients(block))
        radius = max(radius, float(np.abs(roots).max()))
    return radius


def oval_containment_oracle(g: Digraph, value: float) -> OvalCheck:
    """oval_containment of a strongly connected g as a per-graph loop:
    each r(i) a Python sum of sqrt(d(j) / d(i)) over i's sorted
    out-neighbors from 0.0, then the per-arc oval test with the same 1e-9
    slack, arc by arc in sorted order until one holds the value."""
    d = degrees(g)[0].tolist()
    arcs = g.sorted_arcs()
    radius = [0.0] * g.n
    for i, j in arcs:
        radius[i] += math.sqrt(d[j] / d[i])
    for i, j in arcs:
        rhs = radius[i] * radius[j]
        if abs(value - d[i]) * abs(value - d[j]) <= rhs + 1e-9 * max(1.0, rhs):
            return OvalCheck(contained=True, witness_arc=(i, j))
    return OvalCheck(contained=False, witness_arc=None)


def reachability_matrix(g: Digraph) -> np.ndarray:
    reach = np.eye(g.n, dtype=bool)
    for i, j in g.arcs:
        reach[i, j] = True
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            return reach
        reach = nxt


def scc_oracle(g: Digraph) -> frozenset:
    """Strong components as a frozenset of frozensets of vertices."""
    reach = reachability_matrix(g)
    mutual = reach & reach.T
    return frozenset(
        frozenset(np.flatnonzero(mutual[v]).tolist()) for v in range(g.n)
    )


def is_strongly_connected_oracle(g: Digraph) -> bool:
    return bool(reachability_matrix(g).all())


def generic_f_oracle(g: Digraph, f) -> tuple:
    """(value, witness) of bound_generic_f by a loop over the sorted arcs:
    row sums accumulated arc by arc, the first maximizer kept."""
    arcs = sorted(g.arcs)
    weights = {arc: float(f(*arc)) for arc in arcs}
    row = [0.0] * g.n
    for (i, _), w in weights.items():
        row[i] += w
    best = witness = None
    for i, j in arcs:
        value = (row[i] + row[j]) / weights[i, j]
        if best is None or value > best:
            best, witness = value, (i, j)
    return best, witness


def classify_oracle(g: Digraph) -> dict:
    """The flags of classify from their definitions over the arc set:
    strong connectivity from the transitive closure, and brute force over
    the centers and over the 2-colorings of the vertices, tried only when
    the arc count or the bidirected arcs leave the flag open."""
    n, arcs = g.n, set(g.arcs)
    out = [sum(1 for i, _ in arcs if i == v) for v in range(n)]
    strongly = is_strongly_connected_oracle(g)
    star = len(arcs) == 2 * (n - 1) and any(
        arcs == {(c, v) for v in range(n) if v != c} | {(v, c) for v in range(n) if v != c}
        for c in range(n)
    )
    semiregular = all((j, i) in arcs for i, j in arcs) and any(
        all(colors[i] != colors[j] for i, j in arcs)
        and all(
            len({out[v] for v in range(n) if colors[v] == side}) == 1
            for side in (0, 1)
        )
        for colors in itertools.product((0, 1), repeat=n)
    )
    hi = max(out)
    g_star = (
        strongly
        and min(out) == 1
        and hi >= (len(arcs) - (n - 1)) / 2
        and any(out[i] == hi and out[j] >= 2 for i, j in arcs)
    )
    return {
        "is_strongly_connected": strongly,
        "is_regular": min(out) == hi,
        # one cycle through every vertex: one arc leaving each
        "is_directed_cycle": strongly and out == [1] * n,
        "is_bidirectional_star": star,
        "is_bipartite_semiregular": semiregular,
        "is_in_g_star_class": g_star,
    }


def _candidate_arc_sets(target):
    """Every arc set of the target's candidate space, in the order
    reconstruct documents."""
    n = target.n
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    if target.outdeg_sequence is not None:
        pools = [
            list(itertools.combinations([j for j in range(n) if j != i], d))
            for i, d in enumerate(target.outdeg_sequence)
        ]
        for choice in itertools.product(*pools):
            yield frozenset((i, j) for i, nbrs in enumerate(choice) for j in nbrs)
    elif target.m is not None:
        for combo in itertools.combinations(slots, target.m):
            yield frozenset(combo)
    else:
        for mask in range(1, 1 << len(slots)):
            yield frozenset(s for b, s in enumerate(slots) if mask >> b & 1)


def reconstruct_oracle(target):
    """Brute-force reconstruct: every candidate that passes the structural
    constraints goes through spectral_radius and all_bounds, one digraph
    at a time.

    Returns (candidates visited, matches up to isomorphism, nearest miss),
    with the nearest miss None when something matches.
    """
    visited = 0
    matches = []
    nearest = None
    for arcs in _candidate_arc_sets(target):
        visited += 1
        g = Digraph(target.n, arcs)
        if target.require_strongly_connected and not is_strongly_connected(g):
            continue
        if target.require_g_star and not classify(g).is_in_g_star_class:
            continue
        q = spectral_radius(g).q
        row = all_bounds(g)
        values = {bv.id: bv.value for bv in row}
        deviations = [abs(q - target.q)]
        for bid, expected in target.row:
            value = values[bid]
            deviations.append(math.inf if value is None else abs(value - expected))
        candidate = ReconstructionMatch(
            digraph=g, q=q, row=row, max_deviation=max(deviations)
        )
        if candidate.max_deviation <= target.tolerance:
            matches.append(candidate)
        elif math.isfinite(candidate.max_deviation) and (
            nearest is None or candidate.max_deviation < nearest.max_deviation
        ):
            nearest = candidate
    unique = {}
    for match in matches:
        unique.setdefault(canonical_form_oracle(match.digraph), match)
    return visited, tuple(unique.values()), None if unique else nearest


def canonical_form_oracle(g: Digraph):
    """Minimum adjacency bitstring over all vertex relabelings, one
    permutation and one arc at a time."""
    n = g.n
    best = None
    for perm in itertools.permutations(range(n)):
        bits = 0
        for i, j in g.arcs:
            bits |= 1 << (perm[i] * n + perm[j])
        if best is None or bits < best:
            best = bits
    return (n, best)


# --- the per-block solver, one block at a time --------------------------------
# It reads the tuning constants from spectral at call time, so a test that
# patches them patches both solvers alike.


def _block_matvec(diag, src, dst):
    return lambda x: diag * x + np.bincount(src, weights=x[dst], minlength=len(diag))


def _power_iteration(diag, src, dst, tol, max_iter):
    size = len(diag)
    matvec = _block_matvec(diag, src, dst)
    chains = None
    switched = False
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
        if iteration == spectral._NODA_AFTER:
            # the solver's own contraction and Noda step: this oracle
            # checks the lockstep batching, not the step
            chains = spectral._contract(diag, src, dst)
            switched = chains is not None
        z = None
        if chains is not None and solves < spectral._NODA_STEPS:
            solves += 1
            z = spectral._noda_step(chains, hi, x)
            if z is None:
                chains = None
        x = y / y.max() if z is None else z
    raise ConvergenceError(
        f"power iteration did not close a two-sided gap of {tol} within "
        f"{max_iter} iterations (block size {size})",
        lo,
        hi,
    )


def per_block_spectral_radius(g: Digraph, tol=spectral.DEFAULT_TOL,
                              max_iter=spectral.DEFAULT_MAX_ITER) -> SpectralResult:
    """spectral_radius(g) as computed one strong component after another,
    each block with its own power and Noda steps."""
    decomposition = scc(g)
    src, dst = arc_arrays(g)
    component_of = np.array(decomposition.component_of)
    outdeg = degrees(g)[0].astype(float)
    sizes = np.bincount(component_of)
    by_component = np.argsort(component_of, kind="stable")
    local = np.empty(g.n, dtype=np.intp)
    local[by_component] = np.arange(g.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
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
    for cid, comp in enumerate(decomposition.components):
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


# --- the bound row and the sweep, one graph at a time --------------------------
# They read the bound table from bounds and the solver from verify at call
# time, so a test that patches those patches both sides alike. The sweep
# oracle runs frozen copies of the one-graph-at-a-time invariants that the
# slice invariants of verify.INVARIANTS replaced.

DOMINANCE_TOL = verify.DOMINANCE_TOL


class GraphCase:
    """One graph as an invariant reads it: label, digraph g, computed q,
    and row, its all_bounds row. A row not given is built on first use,
    so a sweep builds it only for the graphs whose checks read it."""

    def __init__(self, label: str, g: Digraph, q: float, row: tuple | None = None):
        self.label, self.g, self.q = label, g, q
        if row is not None:
            self.row = row

    @functools.cached_property
    def row(self) -> tuple:
        return all_bounds(self.g)


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


def _row_sum_bracket(case, sums, name):
    """q against the min and max row sums of a matrix similar to Q."""
    lo, hi = float(sums.min()), float(sums.max())
    if not (lo - DOMINANCE_TOL <= case.q <= hi + DOMINANCE_TOL):
        return f"q = {case.q!r} outside {name} row-sum bracket [{lo!r}, {hi!r}]"
    return None


def _inv_bracket_plain_rows(case):
    # rows of Q: 2 d(i)
    return _row_sum_bracket(case, 2.0 * degrees(case.g)[0], "plain")


def _inv_bracket_deg_avg(case):
    # rows of D^-1 Q D: d(i) + m(i), defined when every outdegree is positive
    d, t = degrees(case.g)
    if d.min() == 0:
        return None
    return _row_sum_bracket(case, d + t / d, "degree-average")


def _inv_oval_contains_q(case):
    if not is_strongly_connected(case.g):
        return None
    check = oval_containment_oracle(case.g, case.q)
    if not check.contained:
        return f"q = {case.q!r} escapes every per-arc oval"
    return None


def _inv_regular_equality(case):
    d = degrees(case.g)[0]
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
    max_outdeg = int(degrees(case.g)[0].max())
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


SCALAR_INVARIANTS = {
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


def _shape_oracle(g: Digraph):
    d, dst = degrees(g)[0], arc_arrays(g)[1]
    zero_heads = dst[d[dst] == 0]
    return bounds._Shape(
        n=g.n,
        m=g.m,
        lo=int(d.min()),
        hi=int(d.max()),
        strongly=is_strongly_connected(g),
        zero_head=int(zero_heads.min()) if zero_heads.size else -1,
    )


def _evaluate_oracle(bid, g: Digraph, shape) -> BoundValue:
    spec = bounds._SPECS[bid]
    reason = bounds._reason(spec.conditions, shape)
    if reason is not None:
        return BoundValue(bid, None, reason)
    d, t = degrees(g)
    src, dst = arc_arrays(g)
    if spec.kind == "arc":
        values = spec.term(d[src], d[dst], t[src], t[dst])
        k = int(np.argmax(values))  # first maximizer in sorted arc order
        return BoundValue(bid, float(values[k]),
                          witness=(int(src[k]), int(dst[k])))
    if spec.kind == "vertex":
        (vertices,) = np.nonzero(d > 0)
        insum = np.zeros(g.n, dtype=np.int64)
        np.add.at(insum, dst, d[src])
        values = spec.term(d[vertices], t[vertices], insum[vertices])
        k = int(np.argmax(values))
        return BoundValue(bid, float(values[k]), witness=int(vertices[k]))
    if spec.kind == "position":
        degs = np.sort(d)[::-1]
        prefix = np.cumsum(degs) - degs
        values = spec.term(degs[0], degs, prefix, np.arange(degs.size))
        k = int(np.argmin(values))
        return BoundValue(bid, float(values[k]), witness=k)
    value = spec.term(shape.n, shape.m, shape.hi, shape.lo)
    return BoundValue(bid, float(value))


def bound_row_oracle(g: Digraph) -> tuple:
    """The all_bounds row of g from per-graph arrays: np.argmax or
    np.argmin over the digraph's own arcs, vertices or sorted positions."""
    shape = _shape_oracle(g)
    return tuple(_evaluate_oracle(bid, g, shape) for bid in ROW_ORDER)


def sweep_oracle(corpus, description="") -> SweepReport:
    """sweep as a loop that builds every graph's all_bounds row and runs
    every scalar invariant on every graph."""
    names = tuple(SCALAR_INVARIANTS)
    corpus = list(corpus)
    failures = []
    radii = spectral.spectral_radii(g for _, g in corpus)
    for (label, g), radius in zip(corpus, radii):
        case = GraphCase(label=label, g=g, q=radius.q, row=all_bounds(g))
        for name in names:
            detail = SCALAR_INVARIANTS[name](case)
            if detail is not None:
                failures.append(SweepFailure(
                    label=label, invariant=name, detail=detail,
                    edge_list=serialize_edge_list(g),
                ))
    return SweepReport(
        description=description,
        graph_count=len(corpus),
        invariants=names,
        checks_run=len(corpus) * len(names),
        failures=tuple(failures),
    )
