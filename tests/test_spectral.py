import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbounds import (
    ConvergenceError,
    OvalRegion,
    build_q,
    degree_profile,
    from_arc_list,
    gen_bidirectional_complete,
    gen_bidirectional_star,
    gen_directed_cycle,
    oval_containment,
    row_sum_bracket,
    similarity_row_sums,
    spectral,
    spectral_radius,
)

from conftest import digraphs, sc_digraphs
from oracles import spectral_radius_oracle


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


def test_bad_max_iter_rejected(c3):
    with pytest.raises(ValueError):
        spectral_radius(c3, max_iter=0)


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


# --- block storage: dense gemv and arc-list matvec ------------------------------


def _assert_sides_agree(g):
    """Run spectral_radius(g) with every block forced dense, then with
    every block forced onto arc lists (where building a dense block
    fails), and compare both with each other and with the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_DENSE_FILL", math.inf)
        dense = spectral_radius(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_DENSE_FILL", 0)
        mp.setattr(spectral, "_dense_q", None)
        arcs = spectral_radius(g)
    assert abs(dense.q - arcs.q) <= 1e-12
    oracle = spectral_radius_oracle(g)
    for r in (dense, arcs):
        assert r.q == pytest.approx(oracle, abs=1e-6)
        assert r.residual <= spectral.DEFAULT_TOL
    assert [cid for cid, _ in dense.per_component] == [
        cid for cid, _ in arcs.per_component
    ]


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
    _assert_sides_agree(MULTI_SCC_GRAPHS[name])


@given(digraphs(max_n=8))
def test_block_storage_sides_agree(g):
    _assert_sides_agree(g)


@given(sc_digraphs(max_n=8))
def test_block_storage_sides_agree_strongly_connected(g):
    _assert_sides_agree(g)


def test_sparse_block_takes_arc_lists():
    # n_b^2 = 16e6 far exceeds _DENSE_FILL * (m_b + n_b) = 64,000, so the
    # cycle multiplies from its arcs; a dense Q plus a dense copy of its
    # one block would take 256 MB
    g = gen_directed_cycle(4000)
    tracemalloc.start()
    try:
        r = spectral_radius(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.q == 2.0
    assert peak < 16 * 2**20


# --- row-sum brackets and similarity transforms -------------------------------


def test_row_sum_bracket_plain(k3):
    lo, hi = row_sum_bracket(build_q(k3))
    assert lo == hi == 4.0


def test_row_sum_bracket_rejects_negative():
    with pytest.raises(ValueError):
        row_sum_bracket(np.array([[1.0, -0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        row_sum_bracket(np.zeros((2, 3)))


@given(sc_digraphs())
def test_plain_row_sums_bracket_q(g):
    r = spectral_radius(g)
    lo, hi = row_sum_bracket(build_q(g))
    assert lo - 1e-9 <= r.q <= hi + 1e-9
    p = degree_profile(g)
    assert lo == 2.0 * p.min_outdeg
    assert hi == 2.0 * p.max_outdeg


@given(sc_digraphs())
def test_similarity_row_sums_bracket_q(g):
    # similarity transforms preserve the spectrum, so every kind brackets q
    r = spectral_radius(g)
    for kind in ("plain_Q", "deg_inverse", "deg_sqrt"):
        sums = similarity_row_sums(g, kind)
        assert min(sums) - 1e-9 <= r.q <= max(sums) + 1e-9


def test_similarity_row_sums_deg_inverse_closed_form(star4):
    # D^{-1} Q D has row sums d(i) + m(i)
    sums = similarity_row_sums(star4, "deg_inverse")
    assert sums == pytest.approx((3 + 1.0, 1 + 3.0, 1 + 3.0, 1 + 3.0))


def test_similarity_rejects_zero_outdegree(path3):
    with pytest.raises(ValueError):
        similarity_row_sums(path3, "deg_inverse")


def test_similarity_rejects_unknown_kind(c3):
    with pytest.raises(ValueError):
        similarity_row_sums(c3, "nope")


# --- ovals --------------------------------------------------------------------


def test_oval_region_contains():
    region = OvalRegion(center_i=2.0, center_j=4.0, radius_i=1.0, radius_j=2.0)
    assert region.contains(3.0)  # |1| * |1| <= 2
    assert not region.contains(8.0)


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
