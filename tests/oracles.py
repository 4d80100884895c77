"""Independent reference implementations used only by the test suite.

The spectral oracle goes through the characteristic polynomial and
polynomial root finding, sharing no code path with the power iteration
under test.  The reachability oracle recomputes strong components from
the boolean transitive closure instead of a DFS.  The reconstruction
oracle evaluates every candidate on the scalar path, with no batching
and no filter ahead of spectral_radius.
"""

import itertools
import math

import numpy as np

from qbounds import (
    Digraph,
    ReconstructionMatch,
    all_bounds,
    build_q,
    canonical_form,
    classify,
    is_strongly_connected,
    spectral_radius,
)


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
    """The flags of classify that look past the degree extremes, from
    their definitions over the arc set, by brute force over the centers
    and over the 2-colorings of the vertices."""
    n, arcs = g.n, set(g.arcs)
    out = [sum(1 for i, _ in arcs if i == v) for v in range(n)]
    star = any(
        arcs == {(c, v) for v in range(n) if v != c} | {(v, c) for v in range(n) if v != c}
        for c in range(n)
    )
    semiregular = any(
        all(colors[i] != colors[j] and (j, i) in arcs for i, j in arcs)
        and all(
            len({out[v] for v in range(n) if colors[v] == side}) == 1
            for side in (0, 1)
        )
        for colors in itertools.product((0, 1), repeat=n)
    )
    hi = max(out)
    g_star = (
        is_strongly_connected_oracle(g)
        and min(out) == 1
        and hi >= (len(arcs) - (n - 1)) / 2
        and any(out[i] == hi and out[j] >= 2 for i, j in arcs)
    )
    return {
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
        unique.setdefault(canonical_form(match.digraph), match)
    return visited, tuple(unique.values()), None if unique else nearest
