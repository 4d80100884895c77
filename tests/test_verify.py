import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbounds import (
    BoundId,
    Digraph,
    INVARIANTS,
    PRESETS,
    RandomCorpusSpec,
    ReconstructionTarget,
    all_bounds,
    canonical_form,
    classify,
    degree_profile,
    from_arc_list,
    gen_bidirectional_complete,
    gen_directed_cycle,
    is_strongly_connected,
    random_corpus,
    reconstruct,
    remark_check,
    spectral_radius,
    sweep,
)
import qbounds.verify as verify

from conftest import digraphs
from oracles import reconstruct_oracle


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
    def always_unhappy(case):
        return f"synthetic failure for {case.label}"

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


@pytest.mark.parametrize("n", [62, 63, 64])
def test_batched_strong_connectivity_on_wide_rows(n):
    # from n = 63 on the reach bitmasks no longer fit in int64 and the rows
    # switch to Python integers
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
    assert verify._strongly_connected(adj).tolist() == expected


def test_reconstruct_refuses_unbounded_large_space():
    target = ReconstructionTarget(n=6, q=4.2, name="too big")
    with pytest.raises(ValueError, match="not desk scale"):
        reconstruct(target)


def test_reconstruct_validates_outdeg_sequence():
    with pytest.raises(ValueError, match="length"):
        reconstruct(ReconstructionTarget(n=3, q=2.0, outdeg_sequence=(1, 1)))
    with pytest.raises(ValueError, match="m = 2"):
        reconstruct(
            ReconstructionTarget(n=3, q=2.0, m=2, outdeg_sequence=(1, 1, 1))
        )


def test_target_validation():
    with pytest.raises(ValueError):
        ReconstructionTarget(n=1, q=1.0)
    with pytest.raises(ValueError):
        ReconstructionTarget(n=3, q=1.0, tolerance=0.0)


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


# --- remark helper ---------------------------------------------------------------


def test_remark_check_on_complete(k3):
    rep = remark_check(k3)
    assert not rep.in_g_star_class
    assert rep.maxdeg_plus_2.value is None  # min outdegree is 2
    assert rep.g_star_inequality_holds is None
    assert rep.ranking[0][1] <= rep.ranking[-1][1]
    assert rep.smallest in {bid for bid, _ in rep.ranking}


def test_remark_check_g_star_inequality():
    g = from_arc_list(3, [(0, 1), (0, 2), (1, 0), (2, 0), (1, 2)])
    rep = remark_check(g)
    assert rep.in_g_star_class
    assert rep.maxdeg_plus_2.value == 4.0
    assert rep.arc_deg_sum.value == 4.0
    assert rep.g_star_inequality_holds
