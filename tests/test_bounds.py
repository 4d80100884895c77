import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbounds import (
    BoundColumns,
    BoundId,
    BoundValue,
    Digraph,
    ROW_ORDER,
    TABLE_ORDER,
    all_bounds,
    bound_generic_f,
    classify,
    degree_profile,
    from_arc_list,
    gen_bidirectional_complete,
    gen_directed_cycle,
    is_strongly_connected,
    spectral_radius,
    verify,
    witness_value,
)

from conftest import bound, sc_digraphs, digraphs
from oracles import generic_f_oracle

SQRT3 = math.sqrt(3.0)


def _row_dict(g):
    return {bv.id: bv for bv in all_bounds(g)}


# --- fixed rows ---------------------------------------------------------------


def test_row_order_and_length(c3):
    row = all_bounds(c3)
    assert tuple(bv.id for bv in row) == ROW_ORDER
    assert len(row) == 12
    assert BoundId.GENERIC_WEIGHT not in {bv.id for bv in row}


def test_readme_catalog_lists_the_row_in_order():
    # the README table is the formula list users read; it must not drift
    readme = Path(__file__).parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    catalog = text.split("## Bound catalog", 1)[1].split("\n## ", 1)[0]
    ids = [
        line.split("|")[1].strip().strip("`")
        for line in catalog.splitlines()
        if line.startswith("| `")
    ]
    assert ids == [bid.value for bid in ROW_ORDER]


def test_directed_triangle_row(c3):
    row = _row_dict(c3)
    for bid in TABLE_ORDER:
        if bid == BoundId.DEG_EXTREMES:
            continue
        assert row[bid].value == pytest.approx(2.0, abs=1e-12), bid
    # the extreme-degree bound is strictly loose on directed cycles
    assert row[BoundId.DEG_EXTREMES].value == 2.5
    assert row[BoundId.MAXDEG_PLUS_2].value == 3.0


def test_star_row(star4):
    row = _row_dict(star4)
    assert row[BoundId.INDEG_SQRT].value == pytest.approx(3.0 + SQRT3, abs=1e-12)
    assert row[BoundId.MAXDEG_PLUS_2].value == 5.0
    for bid in TABLE_ORDER:
        if bid in (BoundId.INDEG_SQRT, BoundId.MAXDEG_PLUS_2):
            continue
        assert row[bid].value == pytest.approx(4.0, abs=1e-12), bid


def test_star_deg_extremes_equality_is_exact():
    # equality case: the bound returns the order of the star, as a clean float
    for n in range(3, 12):
        star = from_arc_list(
            n, [(0, k) for k in range(1, n)] + [(k, 0) for k in range(1, n)]
        )
        assert bound(star, BoundId.DEG_EXTREMES).value == float(n)


def test_complete_bidirectional_equalities():
    for k in range(3, 7):
        g = gen_bidirectional_complete(k)
        target = 2.0 * (k - 1)
        assert bound(g, BoundId.DEG_EXTREMES).value == target
        assert bound(g, BoundId.OVAL_GEOMEAN).value == target
        assert bound(g, BoundId.DEG_PLUS_AVG).value == target


def test_path_row_applicability(path3):
    row = _row_dict(path3)
    applicable = {bid for bid, bv in row.items() if bv.applicable}
    assert applicable == {BoundId.DEG_PLUS_AVG, BoundId.HONG_YOU}
    assert row[BoundId.DEG_PLUS_AVG].value == 2.0
    assert row[BoundId.HONG_YOU].value == 2.0
    assert row[BoundId.ARC_DEG_SUM].reason == "not strongly connected"
    assert "outdegree 0" in row[BoundId.WEIGHT_DEG_SUM].reason


def test_two_vertex_cycle_row():
    g = from_arc_list(2, [(0, 1), (1, 0)])
    row = _row_dict(g)
    assert row[BoundId.ARC_DEG_SUM].value == 2.0
    assert row[BoundId.DEG_EXTREMES].reason == "needs at least 3 vertices"
    assert row[BoundId.MAXDEG_PLUS_2].reason == "needs at least 3 vertices"


def test_maxdeg_plus_2_needs_min_outdegree_one(k3):
    bv = bound(k3, BoundId.MAXDEG_PLUS_2)
    assert not bv.applicable
    assert bv.reason == "min outdegree is 2, needs 1"


def test_maxdeg_plus_2_threshold_reason():
    # 6 vertices, 12 arcs, max outdegree 3 < (12 - 5) / 2 = 3.5
    arcs = [
        (0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (2, 3),
        (2, 4), (3, 0), (3, 5), (4, 0), (4, 3), (5, 1),
    ]
    bv = bound(from_arc_list(6, arcs), BoundId.MAXDEG_PLUS_2)
    assert not bv.applicable
    assert "below (m-(n-1))/2 = 3.5" in bv.reason


def test_g_star_example_bound():
    g = from_arc_list(3, [(0, 1), (0, 2), (1, 0), (2, 0), (1, 2)])
    bv = bound(g, BoundId.MAXDEG_PLUS_2)
    assert bv.value == 4.0


# --- witnesses ----------------------------------------------------------------


def test_arc_witness_ties_resolve_lexicographically(k3):
    assert bound(k3, BoundId.ARC_DEG_SUM).witness == (0, 1)
    assert bound(k3, BoundId.WEIGHT_DEG_SUM).witness == (0, 1)


def test_vertex_witness_ties_resolve_to_smallest(c3):
    assert bound(c3, BoundId.DEG_PLUS_AVG).witness == 0
    assert bound(c3, BoundId.INDEG_SQRT).witness == 0


def test_hong_you_witness_is_sorted_position(star4):
    bv = bound(star4, BoundId.HONG_YOU)
    assert isinstance(bv.witness, int)
    assert 0 <= bv.witness < star4.n


def test_structural_bounds_have_no_witness(c3):
    assert bound(c3, BoundId.DEG_EXTREMES).witness is None
    assert bound(c3, BoundId.MAXDEG_PLUS_2).witness is None


@given(sc_digraphs())
def test_witness_replay_reproduces_value(g):
    for bv in all_bounds(g):
        replay = witness_value(g, bv)
        if bv.witness is not None:
            assert replay == bv.value  # same code path, bitwise equal
        else:
            assert replay is None


def test_witness_value_inapplicable_returns_none(path3):
    bv = bound(path3, BoundId.ARC_DEG_SUM)
    assert witness_value(path3, bv) is None


# --- dominance and cross-bound relations ---------------------------------------


@given(sc_digraphs())
def test_every_applicable_bound_dominates_q(g):
    q = spectral_radius(g).q
    for bv in all_bounds(g):
        if bv.applicable:
            assert q <= bv.value + 1e-9, bv.id


@given(digraphs())
def test_rows_never_raise_on_arbitrary_digraphs(g):
    row = all_bounds(g)
    for bv in row:
        assert bv.applicable or bv.reason


@given(sc_digraphs())
def test_oval_variants_share_arc_structure(g):
    # the two oval-shaped bounds scan the same arcs; neither dominates the
    # other in general, but both must sit at or above the arc degree mean
    avg = bound(g, BoundId.OVAL_AVG)
    geo = bound(g, BoundId.OVAL_GEOMEAN)
    p = degree_profile(g)
    for bv in (avg, geo):
        i, j = bv.witness
        assert bv.value >= (p.outdeg[i] + p.outdeg[j]) / 2.0 - 1e-12


@given(sc_digraphs())
def test_deg_plus_avg_never_beats_arc_deg_sum_on_regular(g):
    p = degree_profile(g)
    if p.max_outdeg != p.min_outdeg:
        return
    d = p.max_outdeg
    assert bound(g, BoundId.ARC_DEG_SUM).value == 2.0 * d
    assert bound(g, BoundId.DEG_PLUS_AVG).value == pytest.approx(
        2.0 * d, abs=1e-12
    )


# --- generic arc-weight bound ---------------------------------------------------


@given(sc_digraphs())
def test_generic_constant_weight_collapses_to_arc_deg_sum(g):
    generic = bound_generic_f(g, lambda i, j: 1.0)
    assert generic.value == bound(g, BoundId.ARC_DEG_SUM).value


@given(sc_digraphs(), st.sampled_from((0.5, 3.0)))
def test_generic_weight_scale_invariance(g, c):
    p = degree_profile(g)
    base = bound_generic_f(g, lambda i, j: p.outdeg[i] + p.outdeg[j])
    scaled = bound_generic_f(g, lambda i, j: c * (p.outdeg[i] + p.outdeg[j]))
    assert scaled.value == pytest.approx(base.value, abs=1e-12)


@given(sc_digraphs())
def test_generic_weight_dominates_q(g):
    q = spectral_radius(g).q
    p = degree_profile(g)
    for f in (
        lambda i, j: 1.0,
        lambda i, j: math.sqrt(p.outdeg[i] * p.outdeg[j]),
        lambda i, j: p.outdeg[i] + p.outdeg[j],
    ):
        assert q <= bound_generic_f(g, f).value + 1e-9


@given(sc_digraphs())
def test_closed_forms_upper_bound_generic(g):
    # each closed form replaces a neighbor sum by its Cauchy-Schwarz
    # majorant, so the generic value never exceeds it
    p = degree_profile(g)
    d = p.outdeg
    pairs = [
        (BoundId.WEIGHT_SQRT_PROD, lambda i, j: math.sqrt(d[i] * d[j])),
        (BoundId.WEIGHT_DEG_SUM, lambda i, j: float(d[i] + d[j])),
        (BoundId.WEIGHT_SQRT_SUM, lambda i, j: math.sqrt(d[i] + d[j])),
        (BoundId.WEIGHT_SUM_SQRT, lambda i, j: math.sqrt(d[i]) + math.sqrt(d[j])),
    ]
    for bid, f in pairs:
        assert bound_generic_f(g, f).value <= bound(g, bid).value + 1e-12


@given(sc_digraphs())
def test_deg_sum_weight_closed_form_is_exact(g):
    # the d(i)+d(j) specialisation needs no inequality, so the closed form
    # and the generic evaluation agree bitwise
    p = degree_profile(g)
    f = lambda i, j: float(p.outdeg[i] + p.outdeg[j])
    assert bound_generic_f(g, f).value == bound(g, BoundId.WEIGHT_DEG_SUM).value


@given(digraphs())
def test_generic_weight_equals_loop_reference(g):
    # same summation order as the arc-by-arc loop, so bitwise equal, and
    # the same first-maximizer witness on ties
    for f in (
        lambda i, j: 1.0,
        lambda i, j: math.sqrt(i + 2 * j + 1),
        lambda i, j: 1.0 + (3 * i + j) % 5 / 7,
    ):
        bv = bound_generic_f(g, f)
        assert (bv.value, bv.witness) == generic_f_oracle(g, f)


def test_generic_rejects_nonpositive_weight(c3):
    with pytest.raises(ValueError, match="positive and finite"):
        bound_generic_f(c3, lambda i, j: 0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        bound_generic_f(c3, lambda i, j: -2.0)


def test_generic_rejects_nonfinite_weight(c3):
    with pytest.raises(ValueError, match="f\\(0, 1\\)"):
        bound_generic_f(c3, lambda i, j: math.inf)


def test_generic_weight_off_arc_values_ignored(c3):
    # f is only ever queried on arcs; poison off-arc pairs to prove it
    def f(i, j):
        if (i, j) not in c3.arcs:
            raise AssertionError("queried a non-arc")
        return 1.0

    assert bound_generic_f(c3, f).value == 2.0


# --- BoundValue invariants -------------------------------------------------------


def test_bound_value_requires_reason_when_inapplicable():
    with pytest.raises(ValueError):
        BoundValue(BoundId.ARC_DEG_SUM, None)


def test_bound_value_rejects_negative_or_nan():
    with pytest.raises(ValueError):
        BoundValue(BoundId.ARC_DEG_SUM, -1.0)
    with pytest.raises(ValueError):
        BoundValue(BoundId.ARC_DEG_SUM, math.nan)


def test_hong_you_regular_closed_form():
    for k in range(2, 6):
        g = gen_bidirectional_complete(k)
        assert bound(g, BoundId.HONG_YOU).value == pytest.approx(
            2.0 * (k - 1), abs=1e-12
        )


def test_deg_extremes_loose_on_long_cycles():
    # 2.5 regardless of length: surplus is always 1 for a directed cycle
    for n in range(3, 9):
        assert bound(gen_directed_cycle(n), BoundId.DEG_EXTREMES).value == 2.5


# --- batched columns ----------------------------------------------------------


def _batch(graphs):
    n = graphs[0].n
    adj = np.zeros((len(graphs), n, n), dtype=bool)
    for k, g in enumerate(graphs):
        for i, j in g.arcs:
            adj[k, i, j] = True
    return BoundColumns(adj, [is_strongly_connected(g) for g in graphs])


def _assert_columns_match_rows(graphs):
    columns = _batch(graphs)
    rows = [all_bounds(g) for g in graphs]
    # the batched g-star check agrees with the scalar one in classify
    assert verify._in_g_star_class(columns).tolist() == [
        classify(g).is_in_g_star_class for g in graphs
    ]
    for c, bid in enumerate(ROW_ORDER):
        values = columns.values(bid)
        for k, row in enumerate(rows):
            bv = row[c]
            if bv.value is None:
                assert math.isnan(values[k])
            else:
                assert values[k] == bv.value, (bid, graphs[k])  # bitwise


def test_batched_columns_equal_rows_on_every_4_vertex_digraph():
    pool = [(i, j) for i in range(4) for j in range(4) if i != j]
    graphs = [
        Digraph(4, frozenset(a for b, a in enumerate(pool) if mask >> b & 1))
        for mask in range(1, 1 << len(pool))
    ]
    assert len(graphs) == 4095
    _assert_columns_match_rows(graphs)


@given(st.lists(digraphs(), min_size=1, max_size=4))
def test_batched_columns_equal_rows(graphs):
    n = max(g.n for g in graphs)
    _assert_columns_match_rows([Digraph(n, g.arcs) for g in graphs])


def test_batched_columns_reject_empty_and_looped_digraphs():
    adj = np.zeros((2, 3, 3), dtype=bool)
    adj[0, 0, 1] = True
    with pytest.raises(ValueError, match="at least one arc"):
        BoundColumns(adj, [False, False])
    adj[1, 2, 2] = True
    with pytest.raises(ValueError, match="loop"):
        BoundColumns(adj, [False, False])
