"""End-to-end checks, one test per numbered criterion.

Each test prints a single "criterion N [...]: PASS/FAIL (t)" line with
its runtime (visible under pytest -rA or -s); runtime budgets are
asserted where a criterion carries one.  Shared heavyweight searches
are cached at module level so criteria that look at the same report do
not recompute it.
"""

import dataclasses
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from qbounds import (
    INVARIANTS,
    PRESETS,
    BoundId,
    Digraph,
    RandomCorpusSpec,
    all_bounds,
    bound_generic_f,
    degree_profile,
    gen_bidirectional_complete,
    gen_bidirectional_star,
    gen_directed_cycle,
    gen_random_strongly_connected,
    is_strongly_connected,
    parse_edge_list,
    random_corpus,
    reconstruct,
    remark_check,
    spectral_radius,
    sweep,
)

from conftest import bound, exhaustive_sc
from oracles import spectral_radius_oracle

DATA = Path(__file__).parent / "data"

_cache = {}


def _g1_report():
    if "g1" not in _cache:
        _cache["g1"] = reconstruct(PRESETS["g1"])
    return _cache["g1"]


def _g2_narrowed_report():
    # the only outdegree multiset compatible with the stored hong_you and
    # deg_extremes entries; fixing it makes the search exhaustive up to
    # isomorphism while staying desk sized
    if "g2" not in _cache:
        target = dataclasses.replace(
            PRESETS["g2"], outdeg_sequence=(3, 2, 2, 2, 2, 1)
        )
        _cache["g2"] = reconstruct(target)
    return _cache["g2"]


def _g2_candidate():
    if "g2_graph" not in _cache:
        _cache["g2_graph"] = parse_edge_list(
            (DATA / "g2_candidate.edges").read_text()
        )
    return _cache["g2_graph"]


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        in_budget = budget is None or elapsed < budget
        verdict = "PASS" if ok and in_budget else "FAIL"
        print(f"criterion {num} [{label}]: {verdict} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"runtime budget {budget}s exceeded: {elapsed:.2f}s"


def _row(g):
    return {bv.id: bv.value for bv in all_bounds(g)}


def test_criterion_1_analytic_families():
    with criterion(1, "analytic families", budget=1.0):
        for n in range(3, 11):
            g = gen_directed_cycle(n)
            assert spectral_radius(g).q == pytest.approx(2.0, abs=1e-9)

        for n in range(3, 11):
            g = gen_bidirectional_star(n)
            assert spectral_radius(g).q == pytest.approx(float(n), abs=1e-9)
            assert _row(g)[BoundId.DEG_EXTREMES] == float(n)  # attained exactly

        for k in range(3, 7):
            g = gen_bidirectional_complete(k)
            row = _row(g)
            assert spectral_radius(g).q == pytest.approx(2.0 * (k - 1), abs=1e-9)
            assert (
                row[BoundId.DEG_EXTREMES]
                == row[BoundId.OVAL_GEOMEAN]
                == row[BoundId.DEG_PLUS_AVG]
            )
            assert row[BoundId.DEG_EXTREMES] == pytest.approx(
                2.0 * (k - 1), abs=1e-9
            )


def test_criterion_2_gstar_reconstruction():
    with criterion(2, "gstar search over 220 arc sets", budget=10.0):
        report = reconstruct(PRESETS["gstar"])
        assert report.candidates_visited == 220
        assert report.matches
        for match in report.matches:
            row = {bv.id: bv.value for bv in match.row}
            assert row[BoundId.ARC_DEG_SUM] == 6.0
            assert row[BoundId.MAXDEG_PLUS_2] == 5.0
            assert row[BoundId.MAXDEG_PLUS_2] <= row[BoundId.ARC_DEG_SUM]
            assert match.q == pytest.approx(3.0 + math.sqrt(3.0), abs=1e-9)


def test_criterion_3_g1_exhaustive_search():
    with criterion(3, "g1 exhaustive 4-vertex search", budget=60.0):
        report = _g1_report()
        assert report.candidates_visited == 4095
        assert report.matches
        for match in report.matches:
            assert match.max_deviation <= 5e-4


def test_criterion_4_g2_row_not_reproducible():
    with criterion(4, "g2 golden row, refusal, and search evidence", budget=30.0):
        stored = PRESETS["g2"]
        stored_row = dict(stored.row)
        assert stored.n == 6
        assert stored.q == 4.1984
        assert len(stored_row) == 11
        assert stored_row[BoundId.WEIGHT_SQRT_PROD] == 4.5644

        # unconstrained 6-vertex search space is 2^30; must refuse
        with pytest.raises(ValueError, match="not desk scale"):
            reconstruct(stored)

        # narrowed to the forced outdegree multiset the search is
        # exhaustive and still finds nothing within tolerance
        report = _g2_narrowed_report()
        assert report.candidates_visited == 500_000
        assert report.matches == ()
        assert report.nearest_miss is not None
        assert report.nearest_miss.max_deviation > 5e-4

        # the bundled candidate reproduces q and ten of the eleven
        # stored columns; the remaining column is a genuine discrepancy
        # in the stored row, quantified here
        g = _g2_candidate()
        assert spectral_radius(g).q == pytest.approx(stored.q, abs=5e-4)
        row = _row(g)
        print("  column               stored   computed")
        deviant = []
        for bid, target_value in stored.row:
            got = row[bid]
            print(f"  {bid.value:<18} {target_value:>8.4f} {got:>10.6f}")
            if abs(got - target_value) > 5e-4:
                deviant.append(bid)
        assert deviant == [BoundId.WEIGHT_SQRT_PROD]
        assert row[BoundId.WEIGHT_SQRT_PROD] == pytest.approx(4.689480, abs=5e-4)

        # the nearest miss is exact, so no labeled candidate comes closer
        # to the stored row than the bundled class
        candidate_deviation = max(
            [abs(spectral_radius(g).q - stored.q)]
            + [abs(row[bid] - value) for bid, value in stored.row]
        )
        assert report.nearest_miss.max_deviation == pytest.approx(
            candidate_deviation, abs=1e-12
        )


def test_criterion_5_random_sweep():
    with criterion(5, "500-graph invariant sweep", budget=120.0):
        spec = RandomCorpusSpec(
            count=500, n_min=3, n_max=12,
            arc_probabilities=(0.2, 0.3, 0.5), seed=42,
        )
        report = sweep(random_corpus(spec), description="criterion 5 corpus")
        assert report.graph_count == 500
        assert report.checks_run == 500 * len(INVARIANTS)
        assert {"dominance", "bracket_plain_rows", "bracket_deg_avg",
                "oval_contains_q"} <= set(report.invariants)
        assert report.passed, report.failures


def test_criterion_6_oracle_equivalence():
    with criterion(6, "char-poly oracle agreement at 1e-6"):
        strongly_connected = 0
        for n in (2, 3, 4):
            for g in exhaustive_sc(n):
                assert abs(
                    spectral_radius(g).q - spectral_radius_oracle(g)
                ) <= 1e-6
                strongly_connected += 1
        assert strongly_connected > 1000  # the n=4 layer dominates

        rng = random.Random(20260825)
        reducible = 0
        while reducible < 200:
            n = rng.randint(3, 6)
            pool = [(i, j) for i in range(n) for j in range(n) if i != j]
            arcs = [a for a in pool if rng.random() < 0.3]
            if not arcs:
                continue
            g = Digraph(n, frozenset(arcs))
            if is_strongly_connected(g):
                continue
            assert abs(spectral_radius(g).q - spectral_radius_oracle(g)) <= 1e-6
            reducible += 1
        print(f"  {strongly_connected} strongly connected + {reducible} reducible")


def test_criterion_7_generic_weight_properties():
    with criterion(7, "weighted-bound collapse/homogeneity/direction"):
        graphs = [
            gen_directed_cycle(5),
            gen_bidirectional_complete(4),
            gen_bidirectional_star(5),
        ]
        graphs += [
            gen_random_strongly_connected(3 + seed % 6, 0.3, seed)
            for seed in range(25)
        ]
        for g in graphs:
            d = degree_profile(g).outdeg

            # constant weights collapse to the plain arc bound, bitwise
            assert (
                bound_generic_f(g, lambda i, j: 1.0).value
                == bound(g, BoundId.ARC_DEG_SUM).value
            )

            # scaling the weight function must not move the value
            for f in (
                lambda i, j: float(d[i] + d[j]),
                lambda i, j: math.sqrt(d[i] * d[j]),
            ):
                base = bound_generic_f(g, f).value
                for c in (0.5, 3.0):
                    scaled = bound_generic_f(
                        g, lambda i, j, c=c, f=f: c * f(i, j)
                    ).value
                    assert scaled == pytest.approx(base, abs=1e-12)

            # each closed form majorises its own weight choice
            pairs = [
                (BoundId.WEIGHT_SQRT_PROD, lambda i, j: math.sqrt(d[i] * d[j])),
                (BoundId.WEIGHT_DEG_SUM, lambda i, j: float(d[i] + d[j])),
                (BoundId.WEIGHT_SQRT_SUM, lambda i, j: math.sqrt(d[i] + d[j])),
                (BoundId.WEIGHT_SUM_SQRT,
                 lambda i, j: math.sqrt(d[i]) + math.sqrt(d[j])),
            ]
            for bid, f in pairs:
                assert bound_generic_f(g, f).value <= bound(g, bid).value + 1e-12

            # the degree-sum choice needs no relaxation at all
            assert (
                bound_generic_f(g, lambda i, j: float(d[i] + d[j])).value
                == bound(g, BoundId.WEIGHT_DEG_SUM).value
            )


def test_criterion_8_smallest_bound_rankings():
    with criterion(8, "tightest-bound ordering on the worked examples"):
        # reconstructed g1: the averaged oval bound wins strictly, the
        # degree-sum weighted bound is runner-up
        match = _g1_report().matches[0]
        rep = remark_check(match.digraph)
        assert rep.smallest is BoundId.OVAL_AVG
        assert rep.second_smallest is BoundId.WEIGHT_DEG_SUM
        assert rep.ranking[0][1] < rep.ranking[1][1]  # strict, not tied

        # the stored g2 row is internally consistent with the claimed
        # ordering: its smallest entry is the sqrt-product column, then
        # the degree-sum column
        stored = sorted(PRESETS["g2"].row, key=lambda kv: kv[1])
        assert stored[0][0] is BoundId.WEIGHT_SQRT_PROD
        assert stored[1][0] is BoundId.WEIGHT_DEG_SUM

        # ...but no 6-vertex digraph attains that row (criterion 4), so
        # the ordering claim has no witness; on the bundled candidate,
        # which matches every other column, the actual ranking is
        assert _g2_narrowed_report().matches == ()
        rep2 = remark_check(_g2_candidate())
        assert rep2.smallest is BoundId.WEIGHT_DEG_SUM
        assert rep2.second_smallest is BoundId.OVAL_AVG
