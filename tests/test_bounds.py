import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
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
    RandomCorpusSpec,
    TABLE_ORDER,
    all_bounds,
    bound_generic_f,
    degree_profile,
    from_arc_list,
    gen_bidirectional_complete,
    gen_bidirectional_star,
    gen_bipartite_semiregular,
    gen_directed_cycle,
    is_strongly_connected,
    random_corpus,
    scc,
    spectral_radius,
    witness_value,
)
import qbounds.bounds as bounds

from conftest import bound, sc_digraphs, digraphs, strong_partition
from oracles import (arc_arrays, bit_rows, bound_row_oracle, classify_oracle, generic_f_oracle,
                     solved_fields)

SQRT3 = math.sqrt(3.0)


def _row_dict(g):
    return {bv.id: bv for bv in all_bounds(g)}


# --- fixed rows ---------------------------------------------------------------


def test_row_order_and_length(c3):
    row = all_bounds(c3)
    assert tuple(bv.id for bv in row) == ROW_ORDER
    assert len(row) == 12
    assert BoundId.GENERIC_WEIGHT not in {bv.id for bv in row}
    # the bound table is the one statement of the order
    assert ROW_ORDER == tuple(bounds._SPECS)
    assert TABLE_ORDER == ROW_ORDER[:-1]


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


def test_arc_witness_replay_leaves_the_arcs_view_unbuilt():
    # the tuple frozenset of a million-arc digraph costs some 115 MB
    g = Digraph.from_arrays(4, [0, 1, 2, 3, 0, 2], [1, 2, 3, 0, 2, 0])
    arc_witnesses = [bv for bv in all_bounds(g) if isinstance(bv.witness, tuple)]
    assert arc_witnesses
    for bv in arc_witnesses:
        assert witness_value(g, bv) == bv.value
    assert "arcs" not in vars(g)


def test_witness_value_inapplicable_returns_none(path3, star4):
    bv = bound(path3, BoundId.ARC_DEG_SUM)
    assert witness_value(path3, bv) is None
    # a graph bound has no witness semantics, whatever witness it carries
    bv = dataclasses.replace(bound(star4, BoundId.DEG_EXTREMES), witness=3)
    assert bv.applicable
    assert witness_value(star4, bv) is None


@pytest.mark.parametrize("bid, witness, refusal", [
    # a negative index would wrap to the last vertex and replay 4.0
    (BoundId.DEG_PLUS_AVG, -1, "witness -1 lies outside"),
    (BoundId.DEG_PLUS_AVG, 4, "witness 4 lies outside"),
    (BoundId.INDEG_SQRT, 7, "witness 7 lies outside"),
    (BoundId.HONG_YOU, -2, "witness -2 lies outside"),
    (BoundId.HONG_YOU, 4, "witness 4 lies outside"),
    (BoundId.ARC_DEG_SUM, (0, 0), r"witness \(0, 0\) is not an arc"),
    (BoundId.OVAL_AVG, (1, 2), r"witness \(1, 2\) is not an arc"),
    # a bound outside the table has no term to replay, whatever its witness
    (BoundId.GENERIC_WEIGHT, (0, 1), "has no term in the bound table"),
    # only Python and numpy integers name a vertex, a position or an arc
    (BoundId.HONG_YOU, True, "witness True is not an integer"),
    (BoundId.INDEG_SQRT, 1.5, "witness 1.5 is not an integer"),
    (BoundId.ARC_DEG_SUM, [0, 1], r"witness \[0, 1\] is not an arc"),
    (BoundId.ARC_DEG_SUM, (0.0, 1), r"witness \(0.0, 1\) is not an arc"),
    (BoundId.ARC_DEG_SUM, (0, 10**30), rf"witness \(0, {10**30}\) is not an arc"),
    (BoundId.OVAL_AVG, (0, 1, 2), r"witness \(0, 1, 2\) is not an arc"),
])
def test_witness_value_refuses_witnesses_outside_g(star4, bid, witness, refusal):
    bv = (bound_generic_f(star4, lambda i, j: 1.0) if bid is BoundId.GENERIC_WEIGHT
          else bound(star4, bid))
    bv = dataclasses.replace(bv, witness=witness)
    with pytest.raises(ValueError, match=f"{bid.value} {refusal}"):
        witness_value(star4, bv)


def test_witness_value_refuses_a_vertex_of_outdegree_0(path3):
    # deg_plus_avg ranges over the vertices of positive outdegree
    bv = bound(path3, BoundId.DEG_PLUS_AVG)
    assert witness_value(path3, bv) == bv.value
    with pytest.raises(ValueError, match="witness 2 has outdegree 0"):
        witness_value(path3, dataclasses.replace(bv, witness=2))


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
    return BoundColumns(bit_rows(graphs))


def _witness(cols, k, w, like):
    """The batch witness w of digraph k in the form of the BoundValue
    witness like: a local arc (i, j), a local vertex or position, or
    None for -1."""
    if w < 0:
        return None
    start = cols.vertex_start[k]
    if isinstance(like, tuple):
        return (int(cols.tail[w] - start), int(cols.head[w] - start))
    return int(w - start)


def _assert_columns_match_rows(graphs):
    columns = _batch(graphs)
    rows = [all_bounds(g) for g in graphs]
    # the batched structure checks agree with their definitions
    assert columns.shape.strongly.tolist() == [is_strongly_connected(g) for g in graphs]
    assert strong_partition(columns) == strong_partition(BoundColumns.from_graphs(graphs))
    assert columns.in_g_star_class().tolist() == [
        classify_oracle(g)["is_in_g_star_class"] for g in graphs
    ]
    for c, bid in enumerate(ROW_ORDER):
        values, witnesses = columns.values(bid)
        for k, row in enumerate(rows):
            bv = row[c]
            if bv.value is None:
                assert math.isnan(values[k])
                assert witnesses[k] == -1
            else:
                assert values[k] == bv.value, (bid, graphs[k])  # bitwise
                assert _witness(columns, k, witnesses[k], bv.witness) == bv.witness


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


@pytest.mark.parametrize("n", [8, 9, 62])
def test_strongly_connected_bit_rows_cross_bytes(n):
    # the batch unpacks the rows' bytes: n = 9 crosses a byte boundary
    # and n = 62 reaches bit 61, the top one used
    rng = np.random.default_rng(n)
    p = np.linspace(1.0, 6.0, 60)[:, None, None] * math.log(n) / n / 2
    adj = rng.random((60, n, n)) < p
    adj[:, np.arange(n), np.arange(n)] = False
    cycle = np.roll(np.eye(n, dtype=bool), 1, axis=1)  # i -> i + 1 mod n
    adj[0] = cycle
    adj[1] = cycle
    adj[1, n - 2, n - 1] = False  # the last vertex loses its only in-arc
    graphs = [Digraph(n, frozenset(zip(*map(np.ndarray.tolist, np.nonzero(a)))))
              for a in adj]
    expected = [is_strongly_connected(g) for g in graphs]
    assert expected[:2] == [True, False] and True in expected[2:]
    assert False in expected[2:]
    columns = BoundColumns(bit_rows(graphs))
    assert columns.shape.strongly.tolist() == expected
    # the closure numbers the strong components Tarjan finds
    assert columns.component_count.tolist() == [len(scc(g).components) for g in graphs]
    assert strong_partition(columns) == strong_partition(BoundColumns.from_graphs(graphs))


def _vertex_major_bit_rows(n, count=40):
    """count random loop-free digraphs on n vertices, sparse to dense, each
    with the arc 0 -> 1: their boolean (count, n, n) tensor and their
    vertex-major int64 (n, count) bit rows, bit j of rows[i, k] for the
    arc i -> j of digraph k."""
    rng = np.random.default_rng(n)
    p = np.linspace(0.2, 3.0, count)[:, None, None] * math.log(n + 1) / n
    adj = rng.random((count, n, n)) < p
    adj[:, np.arange(n), np.arange(n)] = False
    adj[:, 0, 1] = True
    rows = (adj.astype(np.int64) << np.arange(n)).sum(axis=2)  # distinct bits
    return adj, np.ascontiguousarray(rows.T)


@pytest.mark.parametrize("n", [2, 7, 8, 9, 33, 62])
def test_closure_of_vertex_major_bit_rows_equals_warshall(n):
    # n = 9 and 33 cross a byte and a word of bits, n = 62 reaches bit 61
    adj, rows = _vertex_major_bit_rows(n)
    reach = bounds._closure(rows)
    assert reach.dtype == np.int64 and reach.shape == (n, len(adj))
    for k, a in enumerate(adj):
        expected = a | np.eye(n, dtype=bool)
        for via in range(n):  # Warshall on booleans
            expected |= expected[:, via, None] & expected[via]
        got = (reach[:, k, None] >> np.arange(n)) & 1
        assert got.astype(bool).tolist() == expected.tolist(), k


@pytest.mark.parametrize("n", [2, 7, 8, 9, 33, 62])
def test_tensor_batch_takes_the_closure_of_its_bit_rows(n):
    # the search hands BoundColumns its rows with their closure; the
    # batch gets the same columns from its own closure of the rows
    adj, rows = _vertex_major_bit_rows(n)
    assert bounds._unpack(rows).tolist() == adj.tolist()
    own = BoundColumns(rows)
    given = BoundColumns(rows, _reach=bounds._closure(rows))
    # split digraphs and arc heads of outdegree 0 are among them
    assert 0 < own.shape.strongly.sum() < len(adj)
    assert (own.shape.zero_head >= 0).any()
    arrays = ["outdeg", "two_outdeg", "insum", "component_of", "component_count"]
    for name, got, expected in zip(
            arrays + [f"shape.{field}" for field in bounds._Shape._fields],
            [getattr(given, name) for name in arrays] + list(given.shape),
            [getattr(own, name) for name in arrays] + list(own.shape)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("read_arcs", [False, True])
def test_tensor_batch_selections_equal_graph_batches(read_arcs):
    # a tensor batch computes its columns and shape densely, select carries
    # them over, and the arcs are laid out on first use: taken twice, as
    # the search does, with or without arcs read on the way, a selection
    # holds bitwise the arrays of the graph batch of the digraphs it keeps
    graphs = _every_4_vertex_digraph()
    rows = bit_rows(graphs)
    cols = BoundColumns(rows)
    rows[:] = 0  # the batch reads its arcs from rows of its own
    with pytest.raises(AttributeError, match="no_such_array"):
        cols.no_such_array
    # copies and pickles of the unread batch, which look __setstate__ up
    # through __getattr__, lay out the arcs of the graph batch
    whole = BoundColumns.from_graphs(graphs)
    for twin in (copy.deepcopy(cols), pickle.loads(pickle.dumps(cols))):
        assert "tail" not in vars(twin)
        for name in ("tail", "head", "arc_graph", "arc_start"):
            assert getattr(twin, name).tobytes() == getattr(whole, name).tobytes()
    assert "tail" not in vars(cols)
    rng = np.random.default_rng(5)
    first = rng.random(len(graphs)) < 0.5
    if read_arcs:
        cols.values(BoundId.OVAL_AVG)
    picked = cols.select(first)
    if read_arcs:
        picked.in_g_star_class()
    second = rng.random(len(picked)) < 0.5
    picked = picked.select(second)
    kept = [graphs[k] for k in np.flatnonzero(first)[second].tolist()]
    want = BoundColumns.from_graphs(kept)
    # vertices of outdegree 0, some of them arc heads, are among them
    assert (want.outdeg == 0).any() and (want.shape.zero_head >= 0).any()
    arrays = ["tail", "head", "arc_graph", "arc_start", "outdeg", "two_outdeg",
              "insum", "vertex_graph", "vertex_start", "component_count"]
    for name, got, expected in zip(
            arrays + [f"shape.{field}" for field in bounds._Shape._fields],
            [getattr(picked, name) for name in arrays] + list(picked.shape),
            [getattr(want, name) for name in arrays] + list(want.shape)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
    # the closure numbers the components by lowest vertex, Tarjan otherwise
    assert strong_partition(picked) == strong_partition(want)
    for bid in ROW_ORDER:
        for got, expected in zip(picked.values(bid), want.values(bid)):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    for got, expected in zip(dataclasses.astuple(picked.classification()),
                             dataclasses.astuple(want.classification())):
        assert got.tolist() == expected.tolist()
    for got, expected in zip(solved_fields(picked), solved_fields(want)):
        assert got[:5] == expected[:5]  # q, lo, hi, residual, matvecs
        assert sorted(got[5]) == sorted(expected[5])


def test_values_only_equals_values_bitwise():
    # on a tensor batch and a ragged one, both with inapplicable entries
    path = from_arc_list(3, [(2, 0), (0, 1)])
    ragged = _sweep_corpus()[:40] + [path, from_arc_list(2, [(1, 0)])]
    for cols in (_batch(_every_4_vertex_digraph()), BoundColumns.from_graphs(ragged)):
        inapplicable = 0
        for bid in ROW_ORDER:
            got, (want, _) = cols.values_only(bid), cols.values(bid)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), bid
            inapplicable += int(np.isnan(got).sum())
        assert inapplicable


def _bidirected_cycles(*lengths):
    """Disjoint bidirected cycles of the given lengths, side by side."""
    arcs, first = [], 0
    for n in lengths:
        for i in range(n):
            j = first + (i + 1) % n
            arcs += [(first + i, j), (j, first + i)]
        first += n
    return from_arc_list(first, arcs)


def _classification_cases():
    """Digraphs on every side of the structural flags."""
    k12 = [(0, 1), (1, 0), (0, 2), (2, 0)]
    return [
        gen_bipartite_semiregular(3, 3, 2, 2),  # r = s
        gen_bipartite_semiregular(2, 4, 2, 1),  # r != s
        gen_bipartite_semiregular(3, 6, 4, 2),
        from_arc_list(6, k12 + [(3, 4), (4, 3), (3, 5), (5, 3)]),  # equal stars
        from_arc_list(7, k12 + [(3, j) for j in (4, 5, 6)]
                      + [(j, 3) for j in (4, 5, 6)]),  # unequal stars
        _bidirected_cycles(5),
        _bidirected_cycles(6),
        _bidirected_cycles(5, 6),  # an odd cycle next to an even one
        _bidirected_cycles(4, 6),
        _bidirected_cycles(3, 3),
        gen_bidirectional_star(4),
        gen_bidirectional_star(7),
        from_arc_list(2, [(0, 1), (1, 0)]),
        gen_directed_cycle(5),
        gen_bidirectional_complete(4),
        from_arc_list(3, [(0, 1), (0, 2), (1, 0), (2, 0), (1, 2)]),  # in G*
        from_arc_list(3, [(0, 1), (1, 2)]),
        # bipartite, one outdegree per side, but 0 -> 2 is one-way
        from_arc_list(5, [(0, 2), (0, 4), (1, 2), (1, 3), (2, 1), (3, 0), (4, 0)]),
    ]


def _assert_classification_equals_oracle(cols, graphs):
    flags = cols.classification()
    expected = [classify_oracle(g) for g in graphs]
    for field in dataclasses.fields(flags):
        column = getattr(flags, field.name)
        assert column.dtype == bool, field.name
        assert column.tolist() == [e[field.name] for e in expected], field.name


def test_classification_equals_oracle_on_ragged_batches():
    cases = _classification_cases()
    flags = [classify_oracle(g) for g in cases]
    for name in ("is_bipartite_semiregular", "is_bidirectional_star"):
        assert {f[name] for f in flags} == {True, False}
    graphs = cases + _sweep_corpus()
    random.Random(1).shuffle(graphs)
    _assert_classification_equals_oracle(BoundColumns.from_graphs(graphs), graphs)
    for g in cases:
        _assert_classification_equals_oracle(BoundColumns.from_graphs([g]), [g])


def test_classification_equals_oracle_on_tensor_batches():
    six = [g for g in _classification_cases() if g.n == 6]
    assert len(six) == 5
    for graphs in (six, _every_4_vertex_digraph()):
        _assert_classification_equals_oracle(_batch(graphs), graphs)


def _every_bidirected_digraph(n):
    """Every labeled digraph on n vertices with each arc bidirected."""
    pairs = list(itertools.combinations(range(n), 2))
    return [
        from_arc_list(n, [arc for b, (i, j) in enumerate(pairs) if mask >> b & 1
                          for arc in ((i, j), (j, i))])
        for mask in range(1, 1 << len(pairs))
    ]


def test_classification_equals_oracle_on_every_bidirected_digraph():
    # the regular ones take the double-cover path, the rest the degree
    # classes; both sides of the flag occur
    graphs = [g for n in range(2, 6) for g in _every_bidirected_digraph(n)]
    assert len(graphs) == 1 + 7 + 63 + 1023
    flags = {classify_oracle(g)["is_bipartite_semiregular"] for g in graphs}
    assert flags == {True, False}
    _assert_classification_equals_oracle(BoundColumns.from_graphs(graphs), graphs)
    for n in range(2, 6):
        same_n = _every_bidirected_digraph(n)
        _assert_classification_equals_oracle(_batch(same_n), same_n)


def _cube():
    """The bidirected 3-cube: vertices 0..7, arcs between labels one bit
    apart."""
    return from_arc_list(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4)])


@pytest.mark.parametrize("g, bipartite", [
    (_bidirected_cycles(6), True),
    (_bidirected_cycles(5), False),
    (gen_bidirectional_complete(4), False),
    (_cube(), True),
    (_bidirected_cycles(4, 6), True),
    (_bidirected_cycles(4, 5), False),
], ids=["C6", "C5", "K4", "cube", "C4+C6", "C4+C5"])
def test_regular_bipartite_semiregular_cases(g, bipartite):
    assert classify_oracle(g)["is_bipartite_semiregular"] is bipartite
    flags = BoundColumns.from_graphs([g]).classification()
    assert flags.is_regular.tolist() == [True]
    assert flags.is_bipartite_semiregular.tolist() == [bipartite]


@given(st.lists(digraphs(), min_size=1, max_size=6), st.data())
def test_classification_equals_oracle_on_mixed_batches(graphs, data):
    # each digraph with its arcs made bidirected or not, so the 2-coloring
    # is reached
    graphs = [Digraph(g.n, g.arcs | {(j, i) for i, j in g.arcs})
              if data.draw(st.booleans()) else g for g in graphs]
    _assert_classification_equals_oracle(BoundColumns.from_graphs(graphs), graphs)


def test_batched_columns_reject_empty_and_looped_digraphs():
    rows = np.zeros((3, 2), dtype=np.int64)
    rows[0, 0] = 1 << 1  # the arc 0 -> 1 of digraph 0
    with pytest.raises(ValueError, match="at least one arc"):
        BoundColumns(rows)
    rows[2, 1] = 1 << 2  # the loop 2 -> 2 of digraph 1
    with pytest.raises(ValueError, match="loop"):
        BoundColumns(rows)


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3)])
def test_batched_columns_refuse_a_tensor_that_is_not_square(shape):
    # an adjacency tensor is not a batch of bit rows: on (2, 3, 4), digraph
    # 0's arc 1 -> 3 would land on digraph 1, and the (3, 3) matrix is
    # boolean, where bit rows are integers
    adj = np.zeros(shape, dtype=bool)
    adj[..., 1, 2 if len(shape) == 2 else 3] = True
    with pytest.raises(ValueError, match=re.escape(f"(n, N) integers, got bool {shape}")):
        BoundColumns(adj)


def test_tensor_batch_refuses_malformed_bit_rows():
    # the rows of two digraphs on 3 vertices, each with the arc 1 -> 2
    good = np.zeros((3, 2), dtype=np.int64)
    good[1] = 1 << 2
    assert BoundColumns(good).shape.m.tolist() == [1, 1]
    # an array that is not 2-D: a boolean (N, n, n) tensor, a square one,
    # a single row
    for rows in (np.zeros((2, 3, 4), dtype=bool), np.zeros((2, 3, 3), dtype=np.int64),
                 good[1]):
        refusal = r"bit rows must be \(n, N\) integers, got .* " + re.escape(f"{rows.shape}")
        with pytest.raises(ValueError, match=refusal):
            BoundColumns(rows)
    # bool and float rows are not bit rows: a float 0.5 never becomes an arc
    for dtype in (bool, np.float32, np.float64):
        with pytest.raises(ValueError, match=f"integers, got {np.dtype(dtype)} \\(3, 2\\)"):
            BoundColumns(good.astype(dtype))
    with pytest.raises(ValueError, match="integers, got float64"):
        BoundColumns(np.where(good > 0, 4.5, 0.5))
    # a bit at or above n, among them the sign bit of a negative row
    for bad in (1 << 3, 1 << 62, -4, -(1 << 63)):
        rows = good.copy()
        rows[2, 1] = bad
        with pytest.raises(ValueError, match="only hold bits below n = 3"):
            BoundColumns(rows)
    rows = good.astype(np.uint64)
    rows[0, 0] = np.uint64(1) << np.uint64(63)
    with pytest.raises(ValueError, match="only hold bits below n = 3"):
        BoundColumns(rows)
    rows = good.copy()
    rows[0, 1] = 1  # the loop 0 -> 0
    with pytest.raises(ValueError, match="loop arcs are not allowed"):
        BoundColumns(rows)
    # a digraph with no arc, here on no vertex too
    for rows in (np.c_[good, np.zeros(3, np.int64)], np.zeros((0, 2), np.int64)):
        with pytest.raises(ValueError, match="at least one arc"):
            BoundColumns(rows)
    for n in (63, 64):
        with pytest.raises(ValueError, match=f"at most 62 vertices, got n = {n}.*from_graphs"):
            BoundColumns(np.zeros((n, 1), dtype=np.int64))
    # the batch never writes into the caller's rows
    assert good.tolist() == [[0, 0], [4, 4], [0, 0]]


def test_graph_batches_refuse_an_empty_list():
    with pytest.raises(ValueError, match="nonempty list of digraphs"):
        BoundColumns.from_graphs([])


# --- the ragged batch against the per-graph evaluator ------------------------


def _sweep_corpus():
    # the benchmark's sweep corpus: 600 digraphs, n = 3..60
    spec = RandomCorpusSpec(count=600, n_min=3, n_max=60,
                            arc_probabilities=(0.02, 0.05, 0.1, 0.5), seed=0)
    return [g for _, g in random_corpus(spec)]


def _every_4_vertex_digraph():
    pool = [(i, j) for i in range(4) for j in range(4) if i != j]
    return [
        Digraph(4, frozenset(a for b, a in enumerate(pool) if mask >> b & 1))
        for mask in range(1, 1 << len(pool))
    ]


def _assert_batch_equals_oracle(cols, graphs):
    """Values and witnesses of a batch, bitwise those of the per-graph
    evaluator, and all_bounds (reasons included) equal to its row."""
    rows = [bound_row_oracle(g) for g in graphs]
    assert len(cols) == len(graphs)
    for c, bid in enumerate(ROW_ORDER):
        values, witnesses = cols.values(bid)
        for k, row in enumerate(rows):
            bv = row[c]
            if bv.value is None:
                assert math.isnan(values[k]) and witnesses[k] == -1
            else:
                assert values[k] == bv.value, (bid, graphs[k])
                assert _witness(cols, k, witnesses[k], bv.witness) == bv.witness
    for g, row in zip(graphs, rows):
        # repr also tells a numpy scalar from a Python one
        assert repr(all_bounds(g)) == repr(row)


def test_ragged_batch_equals_oracle_on_sweep_corpus():
    graphs = _sweep_corpus()
    random.Random(0).shuffle(graphs)
    _assert_batch_equals_oracle(BoundColumns.from_graphs(graphs), graphs)


def test_ragged_batch_equals_oracle_on_every_4_vertex_digraph():
    graphs = _every_4_vertex_digraph()
    assert len(graphs) == 4095
    _assert_batch_equals_oracle(BoundColumns.from_graphs(graphs), graphs)


@given(st.lists(digraphs(), min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_ragged_batch_equals_oracle_on_mixed_batches(graphs, rng):
    # every batch also holds a 2-vertex digraph and a path, which is not
    # strongly connected and has an arc head of outdegree 0
    graphs = graphs + [from_arc_list(2, [(1, 0)]), from_arc_list(3, [(2, 0), (0, 1)])]
    rng.shuffle(graphs)
    _assert_batch_equals_oracle(BoundColumns.from_graphs(graphs), graphs)


@pytest.mark.parametrize("cap", [1, 200])
def test_slices_equal_oracle_under_a_tiny_cap(monkeypatch, cap):
    monkeypatch.setattr(bounds, "_SLICE_ARCS", cap)
    graphs = _sweep_corpus()[:80]
    covered = 0
    for start, cols in BoundColumns.slices(graphs):
        part = graphs[start:start + len(cols)]
        assert start == covered
        assert len(part) == 1 or sum(g.m for g in part) <= cap
        _assert_batch_equals_oracle(cols, part)
        covered += len(cols)
    assert covered == len(graphs)
