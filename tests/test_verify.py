import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbounds import (
    BoundColumns,
    BoundId,
    Digraph,
    INVARIANTS,
    PRESETS,
    RandomCorpusSpec,
    ReconstructionTarget,
    SweepSlice,
    all_bounds,
    canonical_form,
    classify,
    degree_profile,
    from_arc_list,
    gen_bidirectional_complete,
    gen_bidirectional_star,
    gen_bipartite_semiregular,
    gen_directed_cycle,
    is_strongly_connected,
    random_corpus,
    reconstruct,
    spectral_radius,
    sweep,
)
import qbounds.bounds as bounds
import qbounds.verify as verify

from conftest import digraphs
from oracles import (
    SCALAR_INVARIANTS,
    GraphCase,
    canonical_form_oracle,
    reconstruct_oracle,
    sweep_oracle,
)


# --- corpus -------------------------------------------------------------------


def test_random_corpus_is_deterministic():
    spec = RandomCorpusSpec(
        count=10, n_min=3, n_max=6, arc_probabilities=(0.2, 0.5), seed=7
    )
    a = random_corpus(spec)
    b = random_corpus(spec)
    assert [label for label, _ in a] == [label for label, _ in b]
    assert [g for _, g in a] == [g for _, g in b]


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        RandomCorpusSpec(count=-1, n_min=3, n_max=5, arc_probabilities=(0.2,), seed=0)
    with pytest.raises(ValueError):
        RandomCorpusSpec(count=1, n_min=5, n_max=3, arc_probabilities=(0.2,), seed=0)
    with pytest.raises(ValueError):
        RandomCorpusSpec(count=1, n_min=3, n_max=5, arc_probabilities=(), seed=0)


@pytest.mark.parametrize("p", [float("nan"), 1.5, -0.1, "a"])
def test_corpus_spec_checks_probabilities_at_construction(p):
    # before, the spec built and random_corpus failed mid-generation; a
    # string raised TypeError from the comparison
    with pytest.raises(ValueError, match=re.escape("must lie in [0, 1]")):
        RandomCorpusSpec(count=2, n_min=3, n_max=4, arc_probabilities=(0.5, p), seed=0)
    assert RandomCorpusSpec(2, 3, 4, (0.0, 1.0), 0).arc_probabilities == (0.0, 1.0)


@pytest.mark.parametrize("args", [
    (2.5, 3, 4, (0.5,), 0),
    (2, 3.5, 4, (0.5,), 0),
    (2, 3, 4, (0.5,), 1.5),
    (True, 3, 4, (0.5,), 0),
])
def test_corpus_spec_checks_integers_at_construction(args):
    # before, the spec built: random_corpus raised TypeError on the float
    # count and ValueError mid-run on the float n_min, and seeded itself
    # with the float seed
    with pytest.raises(ValueError, match="must be an integer, got"):
        RandomCorpusSpec(*args)


def test_corpus_spec_takes_numpy_integers():
    spec = RandomCorpusSpec(np.int64(3), np.int64(3), np.int64(5), (0.5,), np.int64(7))
    assert random_corpus(spec) == random_corpus(RandomCorpusSpec(3, 3, 5, (0.5,), 7))


# --- invariant sweep ------------------------------------------------------------


def test_sweep_passes_on_seeded_corpus():
    spec = RandomCorpusSpec(
        count=40, n_min=3, n_max=9, arc_probabilities=(0.2, 0.5), seed=11
    )
    report = sweep(random_corpus(spec), description="unit sweep")
    assert report.passed
    assert report.graph_count == 40
    assert report.checks_run == 40 * len(INVARIANTS)
    assert report.failures == ()


def test_sweep_runs_on_handmade_corpus(c3, star4, two_islands, path3):
    corpus = [("c3", c3), ("star", star4), ("islands", two_islands), ("path", path3)]
    report = sweep(corpus)
    assert report.passed


def test_sweep_reports_failures(monkeypatch, c3, star4):
    def always_unhappy(s):
        return [f"synthetic failure for digraph {k}" for k in range(len(s.graphs))]

    monkeypatch.setitem(INVARIANTS, "always_unhappy", always_unhappy)
    report = sweep([("c3", c3), ("star", star4)])
    assert not report.passed
    assert len(report.failures) == 2
    failure = report.failures[0]
    assert failure.invariant == "always_unhappy"
    assert failure.label == "c3"
    assert "synthetic failure" in failure.detail
    # the failing graph travels with the report as a parsable edge list
    assert failure.edge_list.startswith("n 3")


def _perturbations():
    """Ways to move q, cycled over a corpus: far off, and onto each side
    of every threshold an array invariant tests."""
    tol = verify.DOMINANCE_TOL

    def up(x):
        return math.nextafter(x, math.inf)

    def down(x):
        return math.nextafter(x, -math.inf)

    def extremes(g):
        d = g.data.outdeg
        return int(d.min()), int(d.max())

    def lowest_bound(g):
        return min(bv.value for bv in all_bounds(g) if bv.applicable)

    def deg_avg_low(g):
        d = g.data.outdeg
        if d.min() == 0:
            return math.inf
        return float((d + g.data.two_outdeg / d).min())

    return [
        lambda g, q: q,
        lambda g, q: q + 10.0,
        lambda g, q: q - 10.0,
        lambda g, q: q + 1e-8,
        lambda g, q: 2.0 * extremes(g)[1] + tol,
        lambda g, q: up(2.0 * extremes(g)[1] + tol),
        lambda g, q: 2.0 * extremes(g)[0] - tol,
        lambda g, q: down(2.0 * extremes(g)[0] - tol),
        lambda g, q: extremes(g)[1] - tol,
        lambda g, q: up(extremes(g)[1] - tol),
        lambda g, q: lowest_bound(g) + tol,
        lambda g, q: up(lowest_bound(g) + tol),
        lambda g, q: min(q, deg_avg_low(g) - tol),
        lambda g, q: min(q, down(deg_avg_low(g) - tol)),
    ]


def _oracle_corpus(c3, star4, two_islands, path3, arc2):
    spec = RandomCorpusSpec(
        count=150, n_min=2, n_max=9, arc_probabilities=(0.0, 0.2, 0.5, 1.0), seed=5
    )
    handmade = [("c3", c3), ("star", star4), ("islands", two_islands),
                ("path", path3), ("arc", arc2),
                ("k4", gen_bidirectional_complete(4)),
                ("semiregular", gen_bipartite_semiregular(2, 4, 2, 1))]
    return random_corpus(spec) + handmade * 2


@pytest.mark.parametrize("cap", [None, 1, 24])
def test_sweep_equals_oracle_with_perturbed_q(monkeypatch, cap, c3, star4,
                                               two_islands, path3, arc2):
    corpus = _oracle_corpus(c3, star4, two_islands, path3, arc2)
    solve, moves = verify.spectral_radii, _perturbations()

    def perturbed(graphs):
        graphs = list(graphs)
        return [dataclasses.replace(r, q=moves[k % len(moves)](g, r.q))
                for k, (g, r) in enumerate(zip(graphs, solve(graphs)))]

    monkeypatch.setattr(verify, "spectral_radii", perturbed)
    if cap is not None:
        monkeypatch.setattr(bounds, "_SLICE_ARCS", cap)
    report = sweep(corpus, description="perturbed")
    assert report == sweep_oracle(corpus, description="perturbed")
    # every invariant with an array form but the witness replay is tripped
    tripped = {failure.invariant for failure in report.failures}
    assert tripped >= {"dominance", "bracket_plain_rows", "bracket_deg_avg",
                       "regular_equality", "q_exceeds_max_outdeg"}


@pytest.mark.parametrize("bid, first", [(BoundId.HONG_YOU, "vertex_start"),
                                        (BoundId.OVAL_AVG, "arc_start")])
def test_sweep_equals_oracle_with_a_corrupted_witness(monkeypatch, bid, first, c3,
                                                       star4, two_islands, path3, arc2):
    # the bound's witness names the first sorted position or arc of every
    # digraph instead of the one attaining the value
    values = bounds.BoundColumns.values

    def corrupted(cols, which):
        got, witnesses = values(cols, which)
        if which is bid:
            witnesses = np.where(witnesses >= 0, getattr(cols, first), -1)
        return got, witnesses

    monkeypatch.setattr(bounds.BoundColumns, "values", corrupted)
    corpus = _oracle_corpus(c3, star4, two_islands, path3, arc2)
    report = sweep(corpus)
    assert report == sweep_oracle(corpus)
    assert {f.invariant for f in report.failures} == {"witness_consistency"}


@pytest.mark.parametrize("n", [3, 4])
def test_sweep_equals_oracle_on_every_labeled_digraph(n):
    # all 2^(n(n-1)) - 1 arc sets: sinks, sources, isolated vertices and
    # digraphs that are not strongly connected among them
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    corpus = [(f"mask {mask}", Digraph(n, frozenset(
        s for b, s in enumerate(slots) if mask >> b & 1)))
        for mask in range(1, 1 << len(slots))]
    report = sweep(corpus)
    assert report.graph_count == 2 ** len(slots) - 1
    assert report.passed
    assert report == sweep_oracle(corpus)


def test_semiregular_equality_skips_a_one_way_bipartite_digraph():
    # Bipartite {1, 2} | {3, 4, 5} with constant outdegree on each side and
    # q = oval_geomean, but 1 -> 3 has no reverse arc, so classify's working
    # definition (README "Two fine points") does not call it semiregular
    # and the invariant does not look at it. Pinned until the paper's
    # definition settles the question.
    g = from_arc_list(5, [(0, 2), (0, 4), (1, 2), (1, 3), (2, 1), (3, 0), (4, 0)])
    q = spectral_radius(g).q
    geo = all_bounds(g)[bounds.ROW_ORDER.index(BoundId.OVAL_GEOMEAN)].value
    assert q == pytest.approx(3.0, abs=1e-12)
    assert geo == pytest.approx(3.0, abs=1e-12)
    assert not classify(g).is_bipartite_semiregular
    s = SweepSlice.of([g], [q])
    assert INVARIANTS["semiregular_equality"](s) == [None]


def test_semiregular_equality_failure_renders_as_the_scalar_copy():
    # a q shifted by 1e-6 off oval_geomean on one semiregular digraph of
    # the slice; the star next to it is semiregular too and keeps its q
    graphs = [gen_directed_cycle(3), gen_bipartite_semiregular(2, 3, 3, 2),
              gen_bidirectional_star(4)]
    q = [spectral_radius(g).q for g in graphs]
    q[1] += 1e-6
    details = INVARIANTS["semiregular_equality"](SweepSlice.of(graphs, q))
    assert details == [SCALAR_INVARIANTS["semiregular_equality"](GraphCase("", g, x))
                       for g, x in zip(graphs, q)]
    assert [d is None for d in details] == [True, False, True]


def test_empty_corpus_passes_trivially():
    report = sweep([])
    assert report.passed
    assert report.graph_count == 0
    assert report.checks_run == 0


# --- canonical forms -------------------------------------------------------------


def test_canonical_form_identifies_isomorphs():
    a = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    b = from_arc_list(3, [(1, 0), (0, 2), (2, 1)])  # relabeled triangle
    assert canonical_form(a) == canonical_form(b)


def test_canonical_form_separates_non_isomorphs():
    cycle = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    path = from_arc_list(3, [(0, 1), (1, 2)])
    assert canonical_form(cycle) != canonical_form(path)


@given(digraphs(max_n=5), st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Digraph(g.n, frozenset((perm[i], perm[j]) for i, j in g.arcs))
    assert canonical_form(g) == canonical_form(relabeled)


@given(digraphs(max_n=6))
def test_canonical_form_matches_brute_force(g):
    assert canonical_form(g) == canonical_form_oracle(g)


def test_canonical_form_of_full_and_single_arc_digraphs():
    # the smallest bitstring puts the single arc at bit 1, (0, 1); the
    # complete digraph sets every off-diagonal bit
    assert canonical_form(from_arc_list(4, [(2, 1)])) == (4, 1 << 1)
    full = from_arc_list(6, [(i, j) for i in range(6) for j in range(6) if i != j])
    assert canonical_form(full) == canonical_form_oracle(full)


def test_canonical_form_refuses_past_the_budget(monkeypatch):
    def unbuilt(graphs):
        raise AssertionError("the permutation array was built")

    monkeypatch.setattr(verify, "_canonical_forms", unbuilt)
    # 11! = 39,916,800 relabelings exceed the default budget of 2^23; an
    # (n!, n) array would take 3.5 GB
    with pytest.raises(verify.CandidateBudgetError,
                       match="n = 11 vertices takes 39,916,800 relabelings"):
        canonical_form(from_arc_list(11, [(0, 1)]))


# --- reconstruction ---------------------------------------------------------------


def _c3_target(**overrides):
    base = dict(
        n=3,
        q=2.0,
        row={BoundId.ARC_DEG_SUM: 2.0, BoundId.DEG_EXTREMES: 2.5},
        tolerance=1e-6,
        name="triangle",
    )
    base.update(overrides)
    return ReconstructionTarget(**base)


def test_reconstruct_finds_directed_triangle():
    report = reconstruct(_c3_target())
    assert report.candidates_visited == 63  # all nonempty arc subsets on n=3
    assert report.found
    assert len(report.matches) == 1
    match = report.matches[0]
    assert canonical_form(match.digraph) == canonical_form(gen_directed_cycle(3))
    assert match.max_deviation <= 1e-9
    assert report.nearest_miss is None


def test_match_refeed_reproduces_stored_row_bitwise():
    match = reconstruct(_c3_target()).matches[0]
    assert spectral_radius(match.digraph).q == match.q
    assert tuple(all_bounds(match.digraph)) == tuple(match.row)


def test_reconstruct_merges_isomorphic_matches():
    # the triangle has two labeled orientations; one class must survive
    report = reconstruct(_c3_target())
    assert len(report.matches) == 1


def test_reconstruct_reports_nearest_miss():
    report = reconstruct(_c3_target(q=2.3))
    assert not report.found
    assert report.nearest_miss is not None
    assert report.nearest_miss.max_deviation == pytest.approx(0.3, abs=1e-6)


def test_reconstruct_fixed_m_mode():
    target = _c3_target(m=3)
    report = reconstruct(target)
    assert report.candidates_visited == 20  # C(6, 3)
    assert report.found


def test_reconstruct_outdeg_sequence_mode():
    target = _c3_target(outdeg_sequence=(1, 1, 1))
    report = reconstruct(target)
    assert report.candidates_visited == 8  # 2^3 neighbor choices
    assert report.found


def test_reconstruct_chunk_boundaries_equivalent(monkeypatch):
    full = reconstruct(_c3_target())
    for chunk in (1, 7):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        chunked = reconstruct(_c3_target())
        # matches, nearest miss and stage counts all carry across chunks
        assert chunked == full
        assert [canonical_form(m.digraph) for m in chunked.matches] == [
            canonical_form(m.digraph) for m in full.matches
        ]


def test_reconstruct_chunk_boundaries_nearest_miss(monkeypatch):
    full = reconstruct(_c3_target(q=2.3))
    for chunk in (1, 7):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        report = reconstruct(_c3_target(q=2.3))
        assert report == full
        assert not report.found
        assert report.nearest_miss is not None
        # exact: everything matches except q, so the deviation is the q gap
        assert report.nearest_miss.max_deviation == pytest.approx(0.3, abs=1e-6)


# targets the engine must reproduce exactly: each mode of the candidate
# space, matches and misses, every structural constraint, a q-only row,
# inapplicable columns and digraphs that are not strongly connected
EQUIVALENCE_TARGETS = {
    "triangle": _c3_target(),
    "triangle_miss": _c3_target(q=2.3),
    "gstar": PRESETS["gstar"],
    "g1": PRESETS["g1"],
    "q_only": ReconstructionTarget(n=4, q=3.3, tolerance=1e-3),
    "reducible": ReconstructionTarget(
        n=4, q=3.2,
        row={BoundId.DEG_PLUS_AVG: 3.0, BoundId.HONG_YOU: 3.0},
        require_strongly_connected=False, tolerance=1e-2,
    ),
    "degree_bounded": ReconstructionTarget(
        n=4, q=3.6,
        row={BoundId.WEIGHT_SQRT_SUM: 3.9, BoundId.MAXDEG_PLUS_2: 5.0},
        require_g_star=True,
    ),
    "fixed_m": ReconstructionTarget(
        n=4, m=6, q=3.2,
        row={BoundId.OVAL_AVG: 3.3, BoundId.INDEG_SQRT: 3.5},
        tolerance=1e-2,
    ),
    "outdeg_sequence": ReconstructionTarget(
        n=5, q=3.9, outdeg_sequence=(2, 2, 1, 1, 2),
        row={BoundId.WEIGHT_DEG_SUM: 3.8, BoundId.OVAL_GEOMEAN: 3.9},
    ),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_TARGETS))
def test_reconstruct_equals_scalar_oracle(name):
    target = EQUIVALENCE_TARGETS[name]
    report = reconstruct(target)
    visited, matches, nearest = reconstruct_oracle(target)
    assert report.candidates_visited == visited
    assert len(report.matches) == len(matches)
    for got, want in zip(report.matches, matches):
        assert got.digraph == want.digraph
        assert got.q == want.q
        assert got.row == want.row
        assert got.max_deviation == want.max_deviation
    if nearest is None:
        assert report.nearest_miss is None
    else:
        got = report.nearest_miss
        assert got.digraph == nearest.digraph
        assert got.q == nearest.q
        assert got.row == nearest.row
        assert got.max_deviation == nearest.max_deviation


@settings(max_examples=60)
@given(st.data())
def test_reconstruct_equals_scalar_oracle_on_drawn_targets(data):
    # targets taken from a real digraph's row, shifted by a drawn amount,
    # land on exact ties and on the tolerance boundary
    g = data.draw(digraphs(min_n=3, max_n=4))
    row = {bv.id: bv.value for bv in all_bounds(g) if bv.applicable}
    ids = data.draw(st.lists(st.sampled_from(sorted(row, key=str)), unique=True,
                             max_size=4))
    shift = data.draw(st.sampled_from((0.0, 1e-3, 0.05, 0.3)))
    target = ReconstructionTarget(
        n=g.n,
        q=spectral_radius(g).q + shift,
        row={bid: row[bid] + shift for bid in ids},
        m=g.m if g.n == 4 else None,
        tolerance=data.draw(st.sampled_from((1e-9, 1e-3, 0.05))),
        require_strongly_connected=data.draw(st.booleans()),
    )
    report = reconstruct(target)
    visited, matches, nearest = reconstruct_oracle(target)
    assert report.candidates_visited == visited
    assert report.matches == matches
    assert report.nearest_miss == nearest


# structurally_rejected, bound_rejected, q_enclosed, scalar_evaluated and
# matched of each target: which candidates reach the scalar path is part
# of the search's contract
EQUIVALENCE_STAGES = {
    "degree_bounded": (2907, 1185, 0, 3, 0),
    "fixed_m": (608, 311, 0, 5, 0),
    "g1": (2489, 1531, 45, 30, 24),
    "gstar": (112, 0, 57, 51, 48),
    "outdeg_sequence": (2079, 638, 698, 41, 0),
    "q_only": (2489, 0, 1574, 32, 0),
    "reducible": (0, 3497, 540, 58, 0),
    "triangle": (45, 15, 0, 3, 2),
    "triangle_miss": (45, 15, 0, 3, 0),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_TARGETS))
def test_reconstruct_stage_counts_add_up(name):
    report = reconstruct(EQUIVALENCE_TARGETS[name])
    stages = report.stages
    assert (
        stages.structurally_rejected
        + stages.bound_rejected
        + stages.q_enclosed
        + stages.scalar_evaluated
    ) == report.candidates_visited
    assert len(report.matches) <= stages.matched <= stages.scalar_evaluated
    assert reconstruct(EQUIVALENCE_TARGETS[name]).stages == stages
    assert dataclasses.astuple(stages) == EQUIVALENCE_STAGES[name]


@pytest.mark.parametrize("name", ["g1", "gstar", "reducible"])
@pytest.mark.parametrize("limit, value", [
    ("_CHUNK", 512), ("_CHUNK", 2048), ("_CHUNK", 4096),
    ("_CHUNK_CELLS", 100 * 4 ** 2),  # 100 candidates of 4 vertices
])
def test_reconstruct_chunk_sizes_equivalent(monkeypatch, name, limit, value):
    # g1 and reducible span 4,095 candidates, so the chunk sizes cut their
    # spaces at different places
    full = reconstruct(EQUIVALENCE_TARGETS[name])
    monkeypatch.setattr(verify, limit, value)
    report = reconstruct(EQUIVALENCE_TARGETS[name])
    assert report == full
    assert dataclasses.astuple(report.stages) == EQUIVALENCE_STAGES[name]


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_TARGETS))
def test_reconstruct_column_order_is_immaterial(monkeypatch, name):
    # within a chunk the row deviation only grows column by column, and
    # best holds until the stretch loop, so the column loop settles the
    # same candidates in any order
    full = reconstruct(EQUIVALENCE_TARGETS[name])
    init = verify._Search.__init__

    def reversed_columns(self, target):
        init(self, target)
        self.columns = self.columns[::-1]

    monkeypatch.setattr(verify._Search, "__init__", reversed_columns)
    report = reconstruct(EQUIVALENCE_TARGETS[name])
    assert report == full
    assert dataclasses.astuple(report.stages) == EQUIVALENCE_STAGES[name]


def test_search_takes_degree_columns_before_arc_scans():
    columns = verify._Search(PRESETS["g1"]).columns
    arcs = [bounds._SPECS[bid].kind == "arc" for bid, _ in columns]
    assert len(columns) == 11
    assert arcs == sorted(arcs)
    assert dict(columns) == dict(PRESETS["g1"].row)


@pytest.mark.parametrize("bid", bounds.ROW_ORDER, ids=lambda bid: bid.value)
def test_every_row_column_enters_the_deviation(bid):
    # the directed triangle has q = 2 and every bound applies to it, so a
    # search that dropped the column would match it
    report = reconstruct(ReconstructionTarget(n=3, q=2.0, row={bid: 1e6}))
    assert not report.found
    assert report.nearest_miss.max_deviation > 1e5


@pytest.mark.parametrize("name, reported", [("g1", 1), ("gstar", 2),
                                            ("triangle_miss", 1)])
def test_reconstruct_renders_rows_of_reported_digraphs_only(monkeypatch, name,
                                                            reported):
    # the search decides from the batch row deviation and q alone
    rendered = []

    def counting_all_bounds(g):
        rendered.append(g)
        return all_bounds(g)

    monkeypatch.setattr(verify, "all_bounds", counting_all_bounds)
    report = reconstruct(EQUIVALENCE_TARGETS[name])
    shown = [m.digraph for m in report.matches]
    shown += [report.nearest_miss.digraph] if report.nearest_miss else []
    assert len(rendered) == reported
    assert rendered == shown


@pytest.mark.parametrize("n", [62, 63, 64])
def test_batched_strong_connectivity_on_wide_rows(n):
    # int64 reach bitmasks hold n = 62; a wider tensor is refused, and
    # from_graphs lays out digraphs of any n
    cycle = [(i, (i + 1) % n) for i in range(n)]
    graphs = [
        Digraph(n, frozenset(cycle)),
        Digraph(n, frozenset(cycle[:-1])),
        Digraph(n, frozenset(cycle + [(0, n // 2)])),
    ]
    adj = np.zeros((len(graphs), n, n), dtype=bool)
    for k, g in enumerate(graphs):
        for i, j in g.arcs:
            adj[k, i, j] = True
    expected = [is_strongly_connected(g) for g in graphs]
    assert expected == [True, False, True]
    assert BoundColumns.from_graphs(graphs).shape.strongly.tolist() == expected
    if n > bounds.MAX_TENSOR_N:
        refusal = f"at most 62 vertices, got n = {n}.*from_graphs"
        with pytest.raises(ValueError, match=refusal):
            BoundColumns(adj)
    else:
        assert bounds._strongly_connected(adj).tolist() == expected
        assert BoundColumns(adj).shape.strongly.tolist() == expected


def test_reconstruct_refuses_unbounded_large_space():
    target = ReconstructionTarget(n=6, q=4.2, name="too big")
    with pytest.raises(ValueError, match="not desk scale"):
        reconstruct(target)


def test_reconstruct_counts_its_space_before_enumerating():
    # each space is counted and refused before a single chunk is built
    for target, count in [
        (ReconstructionTarget(n=40, q=3.0, m=5), "76,498,888,674,312"),
        (PRESETS["g2"], "1,073,741,823"),
        (ReconstructionTarget(n=12, q=3.0, outdeg_sequence=(5,) * 12),
         f"{math.comb(11, 5) ** 12:,}"),
        # counts past 2^128 are computed exactly but not printed
        (ReconstructionTarget(n=62, q=3.0), re.escape("more than 2^128")),
        (ReconstructionTarget(n=62, q=3.0, m=1891), re.escape("more than 2^128")),
        # a numpy n is counted as the Python int it stands for
        (ReconstructionTarget(n=np.int64(9), q=3.0), f"{2 ** 72 - 1:,}"),
    ]:
        with pytest.raises(verify.CandidateBudgetError,
                           match=f"{count} candidates .*not desk scale"):
            reconstruct(target)
    # the unconstrained n = 5 space, 2^20 - 1 candidates, is within budget
    space = verify._candidate_space(ReconstructionTarget(n=5, q=3.0),
                                    verify.DEFAULT_MAX_CANDIDATES)
    assert next(space).shape == (verify._CHUNK, 5, 5)


def test_reconstruct_budget_is_raised_explicitly():
    target = _c3_target()  # 63 candidates
    with pytest.raises(ValueError, match="63 candidates exceed the budget of 62"):
        reconstruct(target, max_candidates=62)
    assert reconstruct(target, max_candidates=63) == reconstruct(target)
    # a budget below 1 is a bad argument, refused before the space is counted
    for budget in (0, -3):
        with pytest.raises(ValueError, match=f"must be positive, got {budget}") as info:
            reconstruct(PRESETS["g2"], max_candidates=budget)
        assert not isinstance(info.value, verify.CandidateBudgetError)
    # so is one that is not an integer: NaN passed the < 1 test and no
    # count exceeded it, 2.5 was used as a budget and "5" raised TypeError
    for budget in (math.nan, math.inf, 2.5, True, "5"):
        with pytest.raises(ValueError, match="must be an integer, got") as info:
            reconstruct(PRESETS["g2"], max_candidates=budget)
        assert not isinstance(info.value, verify.CandidateBudgetError)
    assert reconstruct(target, max_candidates=np.int64(63)) == reconstruct(target)
    big = ReconstructionTarget(n=6, q=4.2, m=9)  # C(30, 9) = 14,307,150
    with pytest.raises(ValueError, match="14,307,150 candidates"):
        reconstruct(big)


def test_reconstruct_refuses_more_than_62_vertices():
    # the n limit comes before the count, whatever the space's size
    for target in [ReconstructionTarget(n=63, q=3.0),
                   ReconstructionTarget(n=63, q=3.0, m=1),
                   ReconstructionTarget(n=300, q=3.0),
                   ReconstructionTarget(n=2000, q=3.0, m=1),
                   ReconstructionTarget(n=3000, q=3.0, m=4_000_000)]:
        with pytest.raises(ValueError, match=f"n = {target.n} .* limit of 62") as info:
            reconstruct(target)
        assert not isinstance(info.value, verify.CandidateBudgetError)
    space = verify._candidate_space(ReconstructionTarget(n=62, q=3.0, m=1),
                                    verify.DEFAULT_MAX_CANDIDATES)
    # 545 candidates, the most that fit 2^21 adjacency cells
    assert next(space).shape == (verify._CHUNK_CELLS // 62 ** 2, 62, 62)


def _single_arc_target(n):
    # each of the n(n - 1) single-arc digraphs has q = 1, and all are
    # isomorphic
    return ReconstructionTarget(n=n, q=1.0, m=1, require_strongly_connected=False)


def test_reconstruct_refuses_to_deduplicate_past_the_budget(monkeypatch):
    def unbuilt(graphs):
        raise AssertionError("the permutation array was built")

    monkeypatch.setattr(verify, "_canonical_forms", unbuilt)
    # 11! = 39,916,800 relabelings exceed the default budget of 2^23
    with pytest.raises(verify.CandidateBudgetError,
                       match="110 matches on n = 11 vertices takes 39,916,800"):
        reconstruct(_single_arc_target(11))
    with pytest.raises(verify.CandidateBudgetError,
                       match="90 matches on n = 10 vertices .* budget of 1,000,000"):
        reconstruct(_single_arc_target(10), max_candidates=10**6)
    # a single match needs no relabeling: the one complete digraph
    complete = ReconstructionTarget(n=11, q=20.0, outdeg_sequence=(10,) * 11)
    assert len(reconstruct(complete, max_candidates=1).matches) == 1


def test_reconstruct_deduplicates_within_the_budget():
    report = reconstruct(_single_arc_target(9))  # 9! = 362,880 relabelings
    assert report.stages.matched == 72
    assert [m.digraph for m in report.matches] == [from_arc_list(9, [(0, 1)])]


def test_target_rejects_non_integer_counts():
    with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
        ReconstructionTarget(n=3, q=2.0, m=2.5)
    with pytest.raises(ValueError, match="entry must be an integer, got 1.5"):
        ReconstructionTarget(n=3, q=2.0, outdeg_sequence=(1.5, 1, 0.5))
    with pytest.raises(ValueError, match="n must be an integer, got 3.0"):
        ReconstructionTarget(n=3.0, q=2.0)
    with pytest.raises(ValueError, match="m must be an integer, got True"):
        ReconstructionTarget(n=3, q=2.0, m=True)
    # numpy integers count as integers
    target = ReconstructionTarget(n=np.int64(3), q=2.0, m=np.int32(3),
                                  outdeg_sequence=np.array([1, 1, 1]))
    assert reconstruct(target).found


def test_reconstruct_validates_outdeg_sequence():
    with pytest.raises(ValueError, match="length"):
        reconstruct(ReconstructionTarget(n=3, q=2.0, outdeg_sequence=(1, 1)))
    with pytest.raises(ValueError, match="m = 2"):
        reconstruct(
            ReconstructionTarget(n=3, q=2.0, m=2, outdeg_sequence=(1, 1, 1))
        )


def test_target_validates_its_constraints_at_construction():
    with pytest.raises(ValueError, match="length"):
        ReconstructionTarget(n=3, q=2.0, outdeg_sequence=(1, 1))
    with pytest.raises(ValueError, match=re.escape("[0, n-1]")):
        ReconstructionTarget(n=3, q=2.0, outdeg_sequence=(3, 1, 1))
    with pytest.raises(ValueError, match="at least one arc"):
        ReconstructionTarget(n=3, q=2.0, outdeg_sequence=(0, 0, 0))
    with pytest.raises(ValueError, match="m = 2"):
        ReconstructionTarget(n=3, q=2.0, m=2, outdeg_sequence=(1, 1, 1))
    for m in (0, 7):
        with pytest.raises(ValueError, match=re.escape(f"[1, 6] for n = 3, got {m}")):
            ReconstructionTarget(n=3, q=2.0, m=m)
    # the full range is accepted
    assert ReconstructionTarget(n=3, q=2.0, m=6).m == 6
    assert ReconstructionTarget(n=3, q=2.0, m=3, outdeg_sequence=(2, 1, 0)).m == 3


def test_target_validation():
    with pytest.raises(ValueError):
        ReconstructionTarget(n=1, q=1.0)
    with pytest.raises(ValueError):
        ReconstructionTarget(n=3, q=1.0, tolerance=0.0)
    # values that are not real numbers: before, each raised TypeError
    # from a comparison or math.isfinite
    for q in ("2", None):
        with pytest.raises(ValueError, match="q must be finite"):
            ReconstructionTarget(n=3, q=q)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        ReconstructionTarget(n=3, q=2.0, tolerance="x")
    for row in (((BoundId.ARC_DEG_SUM, "x"),), {BoundId.ARC_DEG_SUM: None}):
        with pytest.raises(ValueError, match="arc_deg_sum must be finite"):
            ReconstructionTarget(n=3, q=2.0, row=row)


def test_target_row_accepts_mapping_and_pairs():
    via_map = ReconstructionTarget(n=3, q=2.0, row={BoundId.ARC_DEG_SUM: 2.0})
    via_pairs = ReconstructionTarget(
        n=3, q=2.0, row=((BoundId.ARC_DEG_SUM, 2.0),)
    )
    assert via_map.row == via_pairs.row


@pytest.mark.parametrize("key", ["arc_deg_sum", BoundId.GENERIC_WEIGHT])
def test_target_row_rejects_keys_outside_row_order(key):
    # a name string or the generic weight bound is no column of the row;
    # neither form may drop it silently or fail later in the search
    for row in ({key: 2.0}, ((key, 2.0),)):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            ReconstructionTarget(n=3, q=2.0, row=row)


def test_target_row_rejects_repeated_pairs():
    row = ((BoundId.ARC_DEG_SUM, 2.0), (BoundId.ARC_DEG_SUM, 2.5))
    with pytest.raises(ValueError, match="arc_deg_sum more than once"):
        ReconstructionTarget(n=3, q=2.0, row=row)


def test_structural_constraints_filter():
    # the triangle has no out-neighbor of outdegree 2, so it is not in G*
    report = reconstruct(_c3_target(require_g_star=True))
    assert not report.found


# --- presets ------------------------------------------------------------------


def test_preset_names():
    assert set(PRESETS) == {"gstar", "g1", "g2"}


def test_preset_g1_shape():
    g1 = PRESETS["g1"]
    assert g1.n == 4
    assert g1.q == 3.0
    assert len(g1.row) == 11
    assert g1.tolerance == 5e-4


def test_preset_g2_needs_narrowing():
    with pytest.raises(ValueError, match="not desk scale"):
        reconstruct(PRESETS["g2"])


def test_preset_gstar_constraints():
    gstar = PRESETS["gstar"]
    assert gstar.m == 9
    assert gstar.require_g_star
    # at n = 4 and m = 9, G* forces min outdegree 1 and max outdegree
    # >= (9 - 3) / 2 = 3 = n - 1
    slots = [(i, j) for i in range(4) for j in range(4) if i != j]
    graphs = (Digraph(4, frozenset(a)) for a in itertools.combinations(slots, 9))
    in_g_star = [g for g in graphs if classify(g).is_in_g_star_class]
    report = reconstruct(gstar)
    assert in_g_star and report.found
    for g in in_g_star + [match.digraph for match in report.matches]:
        profile = degree_profile(g)
        assert (profile.max_outdeg, profile.min_outdeg) == (3, 1)


# --- the G* inequality ----------------------------------------------------------


def test_g_star_members_have_maxdeg_plus_2_at_most_arc_deg_sum():
    # a G* member's max-outdegree vertex has an out-neighbor of outdegree
    # at least 2, so that arc's degree sum reaches max outdegree + 2
    members = {}
    for n in (2, 3, 4):
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        masks = np.arange(1, 1 << len(slots))
        adj = np.zeros((len(masks), n, n), dtype=bool)
        for b, (i, j) in enumerate(slots):
            adj[:, i, j] = masks >> b & 1
        cols = BoundColumns(adj)  # every labeled digraph on n vertices
        g_star = cols.in_g_star_class()
        plus2 = cols.values_only(BoundId.MAXDEG_PLUS_2)[g_star]
        arc_sum = cols.values_only(BoundId.ARC_DEG_SUM)[g_star]
        assert (plus2 <= arc_sum).all()
        members[n] = int(np.count_nonzero(g_star))
    assert members == {2: 0, 3: 6, 4: 1188}  # as classify_oracle counts them
