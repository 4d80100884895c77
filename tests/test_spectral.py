import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbounds import (
    INVARIANTS,
    ConvergenceError,
    SweepSlice,
    bounds,
    build_q,
    degree_profile,
    from_arc_list,
    gen_bidirectional_complete,
    gen_bidirectional_star,
    gen_directed_cycle,
    gen_random_strongly_connected,
    oval_containment,
    scc,
    spectral,
    spectral_radii,
    spectral_radius,
)

from conftest import digraphs, exhaustive_sc, sc_digraphs
from oracles import (arc_arrays, bit_rows, degrees, oval_containment_oracle,
                     per_block_spectral_radius, result_fields, solved_fields,
                     spectral_radius_oracle)


def test_build_q_entries(star4):
    q = build_q(star4)
    expected = np.array(
        [
            [3, 1, 1, 1],
            [1, 1, 0, 0],
            [1, 0, 1, 0],
            [1, 0, 0, 1],
        ],
        dtype=float,
    )
    assert (q == expected).all()


@given(digraphs())
def test_build_q_row_sums_are_twice_outdegrees(g):
    q = build_q(g)
    p = degree_profile(g)
    assert (q.sum(axis=1) == 2 * np.array(p.outdeg)).all()


# --- known closed forms -------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 11))
def test_directed_cycle_radius_is_two(n):
    r = spectral_radius(gen_directed_cycle(n))
    assert r.q == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("n", range(3, 11))
def test_star_radius_is_n(n):
    r = spectral_radius(gen_bidirectional_star(n))
    assert r.q == pytest.approx(float(n), abs=1e-9)


@pytest.mark.parametrize("k", range(2, 7))
def test_complete_radius(k):
    r = spectral_radius(gen_bidirectional_complete(k))
    assert r.q == pytest.approx(2.0 * (k - 1), abs=1e-9)


def test_single_arc_radius(arc2):
    # Q = [[1, 1], [0, 0]]: eigenvalues 1 and 0
    r = spectral_radius(arc2)
    assert r.q == 1.0


def test_path_radius_and_components(path3):
    r = spectral_radius(path3)
    assert r.q == 1.0
    assert sorted(radius for _, radius in r.per_component) == [0.0, 1.0, 1.0]


def test_two_islands_block_radii(two_islands):
    r = spectral_radius(two_islands)
    assert r.q == pytest.approx(4.0, abs=1e-9)
    assert sorted(radius for _, radius in r.per_component) == pytest.approx(
        [2.0, 4.0], abs=1e-9
    )


def test_result_reports_residual_and_iterations(c3):
    r = spectral_radius(c3)
    assert r.residual <= 1e-12
    assert r.iterations >= 1


# --- argument validation and failure modes -----------------------------------


def test_bad_tolerance_rejected(c3):
    with pytest.raises(ValueError):
        spectral_radius(c3, tol=0.0)
    with pytest.raises(ValueError):
        spectral_radius(c3, tol=-1e-9)


@pytest.mark.parametrize("tol", [math.inf, math.nan, "x", None])
def test_non_finite_tolerance_rejected(c3, tol):
    # an infinite tolerance would close every enclosure after one step;
    # a value that is not a real number is a ValueError too, not a
    # TypeError from the comparison
    with pytest.raises(ValueError, match="tol must be positive"):
        spectral_radii([c3], tol=tol)


def test_bad_max_iter_rejected(c3):
    with pytest.raises(ValueError):
        spectral_radius(c3, max_iter=0)
    # not a TypeError from range
    with pytest.raises(ValueError, match="2.5"):
        spectral_radii([c3], max_iter=2.5)
    # a bool is an int to isinstance, but True is no iteration budget
    with pytest.raises(ValueError, match="True"):
        spectral_radii([c3], max_iter=True)
    assert spectral_radii([c3], max_iter=np.int64(1)) == [spectral_radius(c3)]


def test_non_convergence_raises(star4):
    # after one matvec from the all-ones vector the enclosure is still
    # [2, 6], so a one-iteration budget must fail and report it
    with pytest.raises(ConvergenceError) as info:
        spectral_radius(star4, max_iter=1)
    assert info.value.lo == 2.0
    assert info.value.hi == 6.0
    assert "[2.0, 6.0]" in str(info.value)


# --- oracle agreement ---------------------------------------------------------


@given(digraphs(max_n=6))
def test_matches_char_poly_oracle(g):
    ours = spectral_radius(g).q
    assert ours == pytest.approx(spectral_radius_oracle(g), abs=1e-6)


@given(sc_digraphs(max_n=8))
def test_matches_oracle_on_strongly_connected(g):
    ours = spectral_radius(g).q
    assert ours == pytest.approx(spectral_radius_oracle(g), abs=1e-6)


@given(digraphs(max_n=6), st.floats(min_value=1e-10, max_value=1e-6))
def test_tolerance_controls_enclosure(g, tol):
    r = spectral_radius(g, tol=tol)
    assert r.residual <= tol
    assert r.q == pytest.approx(spectral_radius_oracle(g), abs=max(tol * 10, 1e-8))


# --- block storage: every block multiplies from its arc lists -----------------


def _assert_matches_oracle(g):
    """Compare spectral_radius(g), whose blocks multiply from their arc
    lists, with the dense eigenvalue oracle; every component reports,
    in component order."""
    r = spectral_radius(g)
    assert r.q == pytest.approx(spectral_radius_oracle(g), abs=1e-6)
    assert r.residual <= spectral.DEFAULT_TOL
    assert [cid for cid, _ in r.per_component] == list(range(len(scc(g).components)))


def _union(*parts, links=()):
    """Disjoint union of digraphs, relabeled in order, plus the given arcs
    between the relabeled vertices."""
    arcs, offset = list(links), 0
    for part in parts:
        arcs += [(i + offset, j + offset) for i, j in part.arcs]
        offset += part.n
    return from_arc_list(offset, arcs)


MULTI_SCC_GRAPHS = {
    # two directed triangles, one feeding the other and that one a 2-cycle;
    # the arc leaving each triangle raises the same diagonal entry, so the
    # two triangle radii tie
    "tied_cycles": _union(gen_directed_cycle(3), gen_directed_cycle(3),
                          gen_directed_cycle(2), links=[(0, 3), (4, 6)]),
    # bidirectional star on 4 and bidirectional triangle both have radius 4
    "tied_star_triangle": _union(gen_bidirectional_star(4),
                                 gen_bidirectional_complete(3)),
    # every triangle vertex also leaves the block, so its diagonal is 2 and
    # the block radius 3 exceeds the 2-cycle's 2
    "cross_arcs_raise_diagonal": _union(gen_directed_cycle(3), gen_directed_cycle(2),
                                        links=[(0, 3), (1, 3), (2, 4)]),
    # a chain of three strong components of sizes 4, 2 and 5
    "chain": _union(gen_directed_cycle(4), gen_bidirectional_complete(2),
                    gen_directed_cycle(5), links=[(0, 4), (2, 5), (4, 6), (5, 9)]),
}


@pytest.mark.parametrize("name", sorted(MULTI_SCC_GRAPHS))
def test_block_storage_sides_agree_on_multi_scc_graphs(name):
    _assert_matches_oracle(MULTI_SCC_GRAPHS[name])


@given(digraphs(max_n=8))
def test_block_storage_sides_agree(g):
    _assert_matches_oracle(g)


@given(sc_digraphs(max_n=8))
def test_block_storage_sides_agree_strongly_connected(g):
    _assert_matches_oracle(g)


def test_sparse_block_takes_arc_lists():
    # the cycle's one block multiplies from its 4,000 arcs; a dense Q plus
    # a dense copy of that block would take 256 MB
    g = gen_directed_cycle(4000)
    tracemalloc.start()
    try:
        r = spectral_radius(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.q == 2.0
    assert peak < 16 * 2**20


_TWO_K100 = _union(gen_bidirectional_complete(100), gen_bidirectional_complete(100),
                   links=[(0, 100), (100, 0)])


@pytest.mark.parametrize("g", [gen_random_strongly_connected(300, 0.5, 1), _TWO_K100],
                         ids=["random_300", "two_k100"])
def test_dense_blocks_take_arc_lists(g):
    # blocks this full multiply from their arcs as well: 45,160 arcs on
    # 300 vertices, and 19,802 on 200
    _assert_certified(spectral_radius(g), g)


# --- row-sum brackets and similarity transforms -------------------------------


@given(sc_digraphs())
def test_plain_row_sums_bracket_q(g):
    r = spectral_radius(g)
    sums = build_q(g).sum(axis=1)
    lo, hi = sums.min(), sums.max()
    assert lo - 1e-9 <= r.q <= hi + 1e-9
    p = degree_profile(g)
    assert lo == 2.0 * p.min_outdeg
    assert hi == 2.0 * p.max_outdeg


def _bracket_details(g, q):
    # a slice of one digraph with the chosen q
    s = SweepSlice.of(bounds.BoundColumns.from_graphs([g]), [q])
    return [INVARIANTS[name](s)[0] for name in ("bracket_plain_rows", "bracket_deg_avg")]


@given(sc_digraphs())
def test_row_sum_brackets_hold_q(g):
    # similarity transforms preserve the spectrum, so both brackets hold q
    assert _bracket_details(g, spectral_radius(g).q) == [None, None]


def test_deg_avg_bracket_closed_form(star4):
    # D^{-1} Q D has row sums d(i) + m(i): 3 + 1 at the center, 1 + 3 at a leaf
    q = 4.0 + 1e-6
    s = SweepSlice.of(bounds.BoundColumns.from_graphs([star4]), [q])
    (detail,) = INVARIANTS["bracket_deg_avg"](s)
    assert detail == f"q = {q!r} outside degree-average row-sum bracket [4.0, 4.0]"


def test_deg_avg_bracket_skips_zero_outdegree(path3):
    # D^{-1} Q D needs every outdegree positive; path3 ends in a sink
    plain, deg_avg = _bracket_details(path3, 100.0)
    assert deg_avg is None
    assert plain == "q = 100.0 outside plain row-sum bracket [0.0, 2.0]"


def test_row_sum_brackets_reject_wrong_q(c3):
    plain, deg_avg = _bracket_details(c3, 2.5)
    assert plain == "q = 2.5 outside plain row-sum bracket [2.0, 2.0]"
    assert deg_avg == "q = 2.5 outside degree-average row-sum bracket [2.0, 2.0]"


# --- ovals --------------------------------------------------------------------


def test_oval_containment_requires_strong_connectivity(path3):
    with pytest.raises(ValueError):
        oval_containment(path3, 1.0)


@given(sc_digraphs())
def test_q_lies_in_some_oval(g):
    r = spectral_radius(g)
    check = oval_containment(g, r.q)
    assert check.contained
    assert check.witness_arc in g.arcs


@given(sc_digraphs())
def test_far_point_escapes_ovals(g):
    p = degree_profile(g)
    way_out = 4.0 * p.max_outdeg + 10.0
    assert not oval_containment(g, way_out).contained


def test_oval_witness_is_lexicographically_first(k3):
    # symmetric graph: every arc's oval contains q, the first arc wins
    r = spectral_radius(k3)
    assert oval_containment(k3, r.q).witness_arc == (0, 1)


def test_oval_containment_equals_the_per_graph_loop():
    # every strongly connected labeled digraph with n <= 4, at q, on both
    # sides of it, far above it and at 0: contained or not, and the witness
    graphs = [g for n in (2, 3, 4) for g in exhaustive_sc(n)]
    escaped = 0
    for g, r in zip(graphs, spectral_radii(graphs)):
        for value in (r.q, r.q - 1e-9, r.q + 1e-9, r.q + 10.0, 0.0):
            check = oval_containment(g, value)
            assert check == oval_containment_oracle(g, value), (g, value)
            escaped += not check.contained
    assert 0 < escaped < 5 * len(graphs)


# --- Noda steps for blocks that power steps close slowly -----------------------


def _cycle_plus_chord(n):
    """Directed n-cycle plus the chord 0 -> 2: one block with
    |lambda_2| / rho = 1 - O(1/n^2)."""
    return from_arc_list(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 2)])


def _cycle_plus_random_arcs(n, extra, seed):
    """A random Hamiltonian cycle plus `extra` distinct random arcs."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    arcs = {(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)}
    while len(arcs) < n + extra:
        i, j = rng.integers(0, n, 2)
        if i != j:
            arcs.add((int(i), int(j)))
    return from_arc_list(n, sorted(arcs))


def _counting_steps(mp, replace=None):
    """Wrap spectral._noda_step so Noda steps are counted (a step makes
    two np.linalg.solve calls), optionally replacing the result of
    np.linalg.solve; returns the list of the steps' shifts."""
    calls = []
    real_step = spectral._noda_step

    def step(chains, h, x):
        calls.append(h)
        return real_step(chains, h, x)

    mp.setattr(spectral, "_noda_step", step)
    if replace is not None:
        mp.setattr(spectral.np.linalg, "solve", replace)
    return calls


def _without_noda(g, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_NODA_MAX", 0)
        return spectral_radius(g, **kwargs)


def _assert_certified(r, g, tol=spectral.DEFAULT_TOL):
    assert r.lo <= r.q <= r.hi
    assert r.hi - r.lo <= tol
    assert abs(r.q - max(np.linalg.eigvals(build_q(g)).real)) <= 1e-9


SLOW_BLOCK_GRAPHS = {
    # power steps alone need 52,294 matvecs
    "cycle_400_plus_chord": _cycle_plus_chord(400),
    # power steps alone leave a gap of 8e-6 after 400,000 matvecs
    "cycle_500_plus_50_arcs": _cycle_plus_random_arcs(500, 50, seed=0),
    # the slow block feeds a 3-cycle, a 2-cycle and the arc 305 -> 306,
    # whose ends are size-one blocks; only the slow block has arcs out
    # of it, so it alone has a raised diagonal and sets q
    "reducible": _union(_cycle_plus_chord(300), gen_directed_cycle(3),
                        gen_directed_cycle(2), from_arc_list(2, [(0, 1)]),
                        links=[(1, 300), (150, 303), (200, 305)]),
}


@pytest.mark.parametrize("name", sorted(SLOW_BLOCK_GRAPHS))
def test_noda_steps_close_slow_blocks(name):
    g = SLOW_BLOCK_GRAPHS[name]
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_steps(mp)
        r = spectral_radius(g)
    _assert_certified(r, g)
    assert spectral._NODA_AFTER < r.iterations < 2000
    assert 1 <= len(calls) <= spectral._NODA_STEPS


def test_noda_block_sets_q_of_reducible_graph():
    g = SLOW_BLOCK_GRAPHS["reducible"]
    r = spectral_radius(g)
    radii = dict(r.per_component)
    slow = scc(g).component_of[0]
    assert len(scc(g).components) == 5
    assert r.q == radii[slow] > 2.0
    others = sorted(v for cid, v in radii.items() if cid != slow)
    assert others == pytest.approx([0.0, 1.0, 2.0, 2.0], abs=1e-12)


def test_noda_budget_exhaustion_reports_running_enclosure():
    g = _cycle_plus_chord(400)
    q = spectral_radius(g).q
    with pytest.raises(ConvergenceError) as power_only:
        _without_noda(g, max_iter=spectral._NODA_AFTER + 2)
    with pytest.raises(ConvergenceError) as noda:
        spectral_radius(g, max_iter=spectral._NODA_AFTER + 2)
    e, p = noda.value, power_only.value
    assert e.lo <= q <= e.hi
    assert p.lo <= e.lo and e.hi <= p.hi
    assert e.hi - e.lo < p.hi - p.lo


def test_noda_switch_respects_block_size_limit():
    g = _cycle_plus_chord(60)
    with pytest.MonkeyPatch.context() as mp:
        # its kernel is {0, 2}: the cap is on k, not on the 60 vertices
        mp.setattr(spectral, "_NODA_MAX", 1)
        calls = _counting_steps(mp)
        r = spectral_radius(g)
    assert calls == []
    assert r == _without_noda(g)


@given(digraphs())
def test_noda_switch_leaves_fast_blocks_bitwise_equal(g):
    off = _without_noda(g)
    assert off.iterations <= spectral._NODA_AFTER
    assert spectral_radius(g) == off
    assert off.lo <= off.q <= off.hi
    assert off.hi - off.lo <= spectral.DEFAULT_TOL


def test_noda_switch_leaves_fast_corpus_blocks_bitwise_equal():
    from qbounds import RandomCorpusSpec, random_corpus

    corpus = random_corpus(RandomCorpusSpec(600, 3, 60, (0.02, 0.05, 0.1, 0.5), seed=0))
    slow = []
    for label, g in corpus:
        off, on = _without_noda(g), spectral_radius(g)
        if off.iterations <= spectral._NODA_AFTER:
            assert on == off, label
        else:
            slow.append(label)
            _assert_certified(on, g)
            assert abs(on.q - off.q) <= spectral.DEFAULT_TOL
    # every corpus graph is one strong component; only one needs more
    # than _NODA_AFTER power steps (1,020)
    assert len(slow) == 1


@pytest.mark.parametrize("failure", ["raises", "zero_entry"])
def test_failed_solve_finishes_block_on_power_steps(failure):
    def replace(a, b):
        if failure == "raises":
            raise np.linalg.LinAlgError("singular matrix")
        z = np.ones_like(b)
        z[0] = 0.0
        return z

    g = _cycle_plus_chord(50)
    off = _without_noda(g)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_steps(mp, replace)
        r = spectral_radius(g)
    assert len(calls) == 1
    _assert_certified(r, g)
    assert spectral._NODA_AFTER < r.iterations <= off.iterations
    assert abs(r.q - off.q) <= spectral.DEFAULT_TOL


def test_noda_solves_stop_at_budget():
    g = _cycle_plus_chord(400)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_NODA_STEPS", 1)
        calls = _counting_steps(mp)
        r = spectral_radius(g)
    assert len(calls) == 1
    _assert_certified(r, g)


def test_noda_steps_keep_small_entries_accurate():
    # the Perron vector's entries span many orders of magnitude here: the
    # step closes the block in 2 steps, but without its kernel column
    # scaling it takes all 64, and without its refinement step 19
    g = _cycle_plus_random_arcs(400, 15, seed=10)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_steps(mp)
        r = spectral_radius(g)
    _assert_certified(r, g)
    assert len(calls) <= 4


def test_noda_steps_close_the_8000_cycle_plus_chord():
    # power steps alone exit after 1,000,000 matvecs; its kernel is {0, 2},
    # so a Noda step costs O(n) and no 8,000 x 8,000 array (512 MB) is made
    g = _cycle_plus_chord(8000)
    g.data  # graph data are not the solver's memory
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_steps(mp)
        tracemalloc.start()
        try:
            r = spectral_radius(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert r.lo <= r.q <= r.hi
    assert r.hi - r.lo <= spectral.DEFAULT_TOL
    assert spectral._NODA_AFTER < r.iterations < 2000
    assert 1 <= len(calls) <= spectral._NODA_STEPS
    assert peak < 16 * 2**20


@pytest.mark.parametrize("noda_max", [spectral._NODA_MAX, 0])
def test_diagonal_floor_closes_a_block_at_the_switch(noda_max):
    # q exceeds the largest outdegree, 3, by less than one ulp: after
    # 1,000 power steps hi reads 3.0 while the iterate's lo is 2.06, and
    # a Noda step at shift 3.0 divides by zero. The floor lo >= max_i
    # B_ii closes it at the switch, whether or not the block has chains;
    # max_iter keeps a regression from running 1,000,000 matvecs.
    g = _cycle_plus_random_arcs(20000, 200, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_NODA_MAX", noda_max)
        calls = _counting_steps(mp)
        r = spectral_radius(g, max_iter=2_000)
    assert calls == []
    assert r.iterations <= spectral._NODA_AFTER
    assert r.lo >= degrees(g)[0].max() == 3
    assert r.lo <= r.q <= r.hi
    assert r.hi - r.lo <= 1e-12


@pytest.mark.parametrize("noda_max", [spectral._NODA_MAX, 0])
def test_running_enclosure_keeps_the_floor_past_the_switch(noda_max):
    # a bidirected star on {0, 1, 2} (rho = 2 + sqrt(3)) whose center
    # also starts a 1,200-vertex chain back to vertex 1: far along the
    # chain every power iterate up to 1,001 has ratio exactly 2, below
    # the center's outdegree 3
    n = 1203
    g = from_arc_list(n, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3)]
                      + [(v, v + 1) for v in range(3, n - 1)] + [(n - 1, 1)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_NODA_MAX", noda_max)
        with pytest.raises(ConvergenceError) as info:
            spectral_radius(g, max_iter=spectral._NODA_AFTER + 1)
    e = info.value
    assert e.lo >= degrees(g)[0].max() == 3
    assert e.lo <= 2 + math.sqrt(3) <= e.hi


def test_convergence_error_never_carries_nan():
    # a bidirected K4 whose vertex 0 starts a 600-vertex chain back to
    # vertex 1: the Perron entries decay along the chain until the iterate
    # underflows to 0 there, so both ends read nan from then on; the error
    # holds the block's bracket [max d, 2 max d] instead, with no division
    # warning (warnings are errors here)
    n = 604
    k4 = [(i, j) for i in range(4) for j in range(4) if i != j]
    g = from_arc_list(n, k4 + [(0, 4)] + [(v, v + 1) for v in range(4, n - 1)] + [(n - 1, 1)])
    with pytest.raises(ConvergenceError) as info:
        spectral_radius(g, max_iter=2000)
    e = info.value
    q = np.linalg.eigvals(build_q(g)).real.max()
    assert math.isfinite(e.lo) and math.isfinite(e.hi)
    assert e.lo <= q <= e.hi
    assert "nan" not in str(e)


# --- the chain-contracted Noda step -------------------------------------------


def _slow_block(g):
    """Diagonal and arcs of the largest strong component of g, renumbered
    from 0 in vertex order."""
    component_of = np.array(scc(g).component_of)
    src, dst = arc_arrays(g)
    label = np.argmax(np.bincount(component_of))
    vertices = np.flatnonzero(component_of == label)
    local = np.full(g.n, -1)
    local[vertices] = np.arange(len(vertices))
    inside = (component_of[src] == label) & (component_of[dst] == label)
    return degrees(g)[0][vertices].astype(float), local[src[inside]], local[dst[inside]]


def _assert_step_solves_dense(diag, src, dst, h):
    """The contracted step agrees componentwise with np.linalg.solve of the
    dense shifted block, normalised to max 1; returns the _Chains."""
    chains = spectral._contract(diag, src, dst)
    shifted = np.diag(h - diag)
    shifted[src, dst] = -1.0
    x = np.random.default_rng(0).uniform(0.5, 1.5, len(diag))
    expected = np.linalg.solve(shifted, x)
    z = spectral._noda_step(chains, h, x)
    np.testing.assert_allclose(z, expected / expected.max(), rtol=1e-12, atol=0)
    return chains


@pytest.mark.parametrize("name", sorted(SLOW_BLOCK_GRAPHS))
def test_contracted_step_solves_the_shifted_block(name):
    g = SLOW_BLOCK_GRAPHS[name]
    diag, src, dst = _slow_block(g)
    chains = _assert_step_solves_dense(diag, src, dst, spectral_radius(g).q * (1 + 1e-6))
    assert len(chains.kernel) < len(diag)


def _arcs(*paths):
    return np.array([(a, b) for path in paths for a, b in zip(path, path[1:])]).T


CONTRACTION_CASES = {
    # every vertex is pass-through: vertex 0 stays in the kernel
    "one_cycle": ([1.0, 2.5, 1.0, 4.0, 1.5, 1.0], _arcs([0, 1, 2, 3, 4, 5, 0]), 1),
    # two chains 0 -> 1 and the arc 0 -> 1 between the same kernel pair
    "parallel_chains": ([3.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                        _arcs([0, 2, 3, 1], [0, 4, 1], [0, 1, 5, 0]), 2),
    # two chains from kernel vertex 0 back to itself
    "chains_to_self": ([2.0, 1.0, 1.0, 1.5, 1.0, 1.0], _arcs([0, 1, 2, 0], [0, 3, 4, 5, 0]), 1),
    # no pass-through vertex: the kernel is the whole block
    "no_chain": ([3.0, 3.0, 3.0, 4.0],
                 _arcs(*[[i, j] for i in range(4) for j in range(4) if i != j]), 4),
}


@pytest.mark.parametrize("name", sorted(CONTRACTION_CASES))
def test_contracted_step_structures(name, monkeypatch):
    diag, (src, dst), k = CONTRACTION_CASES[name]
    diag = np.array(diag)
    order = np.lexsort((dst, src))  # each row's arcs in sorted order
    src, dst = src[order], dst[order]
    dense = np.diag(diag)
    dense[src, dst] = 1.0
    h = max(np.linalg.eigvals(dense).real) * (1 + 1e-6)
    chains = _assert_step_solves_dense(diag, src, dst, h)
    assert len(chains.kernel) == k
    monkeypatch.setattr(spectral, "_NODA_MAX", k - 1)
    assert spectral._contract(diag, src, dst) is None


def test_contracted_step_on_a_chain_whose_products_underflow():
    # a 1,200-cycle whose vertex 0 has diagonal 6 (as if arcs left the
    # block): rho = 6 to double precision, r_v = 1 / (h - 1) < 1/5 on the
    # chain, and the running product of the r_v underflows to 0
    n = 1200
    diag = np.ones(n)
    diag[0] = 6.0
    src, dst = np.arange(n), (np.arange(n) + 1) % n
    h = 6.0 * (1 + 1e-6)
    assert np.prod(1.0 / (h - diag[1:])) == 0.0
    chains = _assert_step_solves_dense(diag, src, dst, h)
    assert len(chains.kernel) == 1
    z = spectral._noda_step(chains, h, np.ones(n))
    assert (z > 0).all()


def test_result_enclosure_of_size_one_blocks(path3):
    r = spectral_radius(path3)
    assert r.lo == r.hi == r.q == 1.0


# --- lockstep batches: bitwise equal to the per-block solver ------------------


def _batch_corpus():
    from qbounds import RandomCorpusSpec, random_corpus

    corpus = random_corpus(RandomCorpusSpec(600, 3, 60, (0.02, 0.05, 0.1, 0.5), seed=0))
    graphs = [g for _, g in corpus]
    graphs += MULTI_SCC_GRAPHS.values()
    graphs += SLOW_BLOCK_GRAPHS.values()
    random.Random(0).shuffle(graphs)
    return graphs


def test_batch_is_bitwise_equal_to_per_block_solver():
    graphs = _batch_corpus()
    expected = [per_block_spectral_radius(g) for g in graphs]
    # one mixed batch: blocks of every size and fill, multi-block graphs
    # and the blocks that take Noda steps
    assert spectral_radii(graphs) == expected
    # batches of one graph, and batches of a few small graphs
    for cap in (1, 24):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_SLICE_ARCS", cap)
            assert spectral_radii(graphs) == expected
    # one graph at a time: a result does not depend on the rest of its batch
    assert [spectral_radius(g) for g in graphs] == expected


@given(digraphs())
def test_batch_of_forced_storage_is_bitwise_equal(g):
    # the default batches, batches of one graph, and of a few small graphs
    for cap in (bounds._SLICE_ARCS, 1, 24):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_SLICE_ARCS", cap)
            batch = spectral_radii([g, gen_directed_cycle(5), g])
            assert batch[0] == batch[2] == per_block_spectral_radius(g)


def test_batch_memory_is_bounded_by_group_size():
    # 800 complete 40-vertex blocks hold 1,280,000 vertices and arcs; in
    # one batch their arc arrays would peak near 39 MB, in batches of
    # _SLICE_ARCS arcs near 1 MB
    g = gen_bidirectional_complete(40)
    tracemalloc.start()
    try:
        batch = spectral_radii([g] * 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch == [spectral_radius(g)] * 800
    assert peak < 8 * 2**20


def test_empty_batch():
    assert spectral_radii([]) == []


def test_tensor_batches_solve_as_graph_batches():
    # every labeled 4-vertex digraph: the closure numbers the components in
    # another order than Tarjan, so only per_component's order may differ
    pool = [(i, j) for i in range(4) for j in range(4) if i != j]
    graphs = [from_arc_list(4, [a for b, a in enumerate(pool) if mask >> b & 1])
              for mask in range(1, 1 << len(pool))]
    rows = bit_rows(graphs)
    cols = bounds.BoundColumns(rows)
    expected = spectral_radii(graphs)
    assert len(expected) == 4095
    for got, want in zip(solved_fields(cols), map(result_fields, expected)):
        assert got[:5] == want[:5]  # q, lo, hi, residual, matvecs
        assert sorted(got[5]) == sorted(want[5])
    # a selection, taken twice as the search does, solves as the batch of
    # the digraphs it keeps, on either layout
    first = np.random.default_rng(4).random(len(graphs)) < 0.5
    second = np.arange(np.count_nonzero(first)) % 3 != 1
    kept = np.flatnonzero(first)[second]
    assert (solved_fields(cols.select(first).select(second))
            == solved_fields(bounds.BoundColumns(rows[:, kept])))
    assert (solved_fields(bounds.BoundColumns.from_graphs(graphs).select(first).select(second))
            == list(map(result_fields, spectral_radii([graphs[k] for k in kept.tolist()]))))


def test_budgeted_enclosure_is_the_solver_run_cut_short():
    # one mixed batch, strong digraphs and reducible ones, run by _enclose
    # with a budget of 64 matvecs and the window (3, 5) beside the full
    # solve: a block closed within the budget ends bitwise as it does in
    # the solve, a block stopped by the window lies wholly outside it,
    # and each digraph's interval holds its q
    from qbounds import RandomCorpusSpec, random_corpus

    graphs = [g for _, g in random_corpus(RandomCorpusSpec(30, 3, 12, (0.2, 0.5), seed=1))]
    graphs += [_cycle_plus_chord(60), gen_bidirectional_star(5)]
    graphs += MULTI_SCC_GRAPHS.values()
    cols = bounds.BoundColumns.from_graphs(graphs)
    tol, a, b = spectral.DEFAULT_TOL, 3.0, 5.0
    first, _, full = spectral._enclose(cols, tol, spectral.DEFAULT_MAX_ITER)
    _, _, cut = spectral._enclose(cols, tol, 64, (a, b))
    closed = cut[4] - cut[3] <= tol
    stopped = ~closed & (cut[2] < 64)
    assert closed.any() and stopped.any() and (~closed & ~stopped).any()
    assert cut[:, closed].tolist() == full[:, closed].tolist()
    assert ((cut[4, stopped] < a) | (cut[3, stopped] > b)).all()
    lo, hi = np.maximum.reduceat(cut[3:], first, axis=1)
    for k, (q, q_lo, q_hi, *_) in enumerate(solved_fields(cols)):
        assert lo[k] <= q <= hi[k]
        if closed[first[k]:first[k] + cols.component_count[k]].all():
            assert (lo[k], hi[k]) == (q_lo, q_hi)


def _convergence_error(g, max_iter):
    with pytest.raises(ConvergenceError) as info:
        per_block_spectral_radius(g, max_iter=max_iter)
    return info.value


# a triangle with one chord needs 25 matvecs; the cycle and K3 need one
_TRIANGLE_WITH_CHORD = from_arc_list(3, [(0, 1), (1, 2), (2, 0), (0, 2)])


@pytest.mark.parametrize("batch, max_iter, first", [
    # only the triangle with a chord fails
    ([gen_directed_cycle(4), _TRIANGLE_WITH_CHORD, gen_bidirectional_complete(3)], 5, 1),
    ([_TRIANGLE_WITH_CHORD, gen_directed_cycle(4), gen_bidirectional_complete(3)], 5, 0),
    # every graph fails after one matvec; neither the later block of the
    # first graph nor the arc-list block of the last may win
    ([MULTI_SCC_GRAPHS["chain"], gen_bidirectional_star(4), _cycle_plus_chord(400)], 1, 0),
])
def test_batch_raises_for_the_first_failing_graph(batch, max_iter, first):
    expected = _convergence_error(batch[first], max_iter)
    with pytest.raises(ConvergenceError) as info:
        spectral_radii(batch, max_iter=max_iter)
    assert str(info.value) == str(expected)
    assert (info.value.lo, info.value.hi) == (expected.lo, expected.hi)


def test_batch_stops_at_its_first_failing_group(monkeypatch):
    # with batches of one graph the failing triangle is the first batch:
    # its error is raised at once and the later batches never run
    calls = []
    lockstep = spectral._lockstep

    def counted(*args):
        calls.append(args[3].tolist())
        return lockstep(*args)

    monkeypatch.setattr(bounds, "_SLICE_ARCS", 1)
    monkeypatch.setattr(spectral, "_lockstep", counted)
    batch = [_TRIANGLE_WITH_CHORD, gen_directed_cycle(4), gen_bidirectional_complete(3)]
    expected = _convergence_error(batch[0], 5)
    with pytest.raises(ConvergenceError) as info:
        spectral_radii(batch, max_iter=5)
    assert calls == [[3]]  # block sizes of the one batch that ran
    assert str(info.value) == str(expected)
    assert (info.value.lo, info.value.hi) == (expected.lo, expected.hi)
