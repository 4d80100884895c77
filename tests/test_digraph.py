import copy
import dataclasses
import gc
import itertools
import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbounds import (
    Digraph,
    RandomCorpusSpec,
    adjacency,
    classify,
    cli,
    degree_profile,
    digraph,
    from_arc_list,
    gen_bidirectional_complete,
    gen_bidirectional_star,
    gen_bipartite_semiregular,
    gen_directed_cycle,
    gen_random_strongly_connected,
    is_strongly_connected,
    parse_edge_list,
    random_corpus,
    scc,
    serialize_edge_list,
    sweep,
)

from conftest import all_digraphs_up_to, digraphs, sc_digraphs
from oracles import classify_oracle, is_strongly_connected_oracle, scc_oracle


# --- construction and validation --------------------------------------------


def test_rejects_loops():
    with pytest.raises(ValueError):
        from_arc_list(3, [(0, 0)])


def test_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        from_arc_list(2, [(0, 2)])
    with pytest.raises(ValueError):
        from_arc_list(2, [(-1, 0)])


def test_rejects_empty_arc_set():
    with pytest.raises(ValueError):
        Digraph(3, frozenset())


def test_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        Digraph(0, frozenset([(0, 1)]))


class _Arrays(tuple):
    """Tails and heads for Digraph.from_arrays."""

    def __new__(cls, src, dst):
        return super().__new__(cls, (src, dst))


@pytest.mark.parametrize("n, arcs, value", [
    # 0.5 * 3 + 1 would truncate to the key of the arc (0, 2)
    (3, [(0.5, 1), (1, 2), (2, 0)], "0.5"),
    (3, [(0, 1), (1, 2.0), (2, 0)], "2.0"),
    (3, [(0, 1), (1, 2), (2, "0")], "'0'"),
    # 3.0 would compare equal to 3 but fail every array cast
    (3.0, [(0, 1), (1, 2), (2, 0)], "3.0"),
    (np.float64(3), [(0, 1), (1, 2), (2, 0)], "3.0"),
    # a bool is an int to isinstance, but no vertex count or vertex
    (2, [(True, False)], "(True, False)"),
    (True, [(0, 1)], "True"),
    # a malformed arc is named, not unpacked or hashed
    (3, frozenset({1}), "got 1"),
    (3, [(0, 1), [1, 2]], "got [1, 2]"),
    (3, [(0, 1, 2)], "got (0, 1, 2)"),
    # from_arrays refuses by dtype and shape, never by casting
    (3, _Arrays([0, 1], [1, 2.5]), "float64"),
    (3, _Arrays(np.array([True, False]), [1, 2]), "bool"),
    (3, _Arrays(np.array([[0, 1]]), np.array([[1, 2]])), "(1, 2)"),
    (3, _Arrays(np.array([0, 1]), np.array([1, 2, 0])), "2 tails but 3 heads"),
    (3, _Arrays(np.array(["0"]), np.array([1])), "<U1"),
    (3, _Arrays(np.zeros(0, int), np.zeros(0, int)), "at least one arc"),
    (3.0, _Arrays([0], [1]), "3.0"),
    (3, _Arrays(np.array([0, 1]), np.array([1, 1], np.uint8)), "loop arc (1, 1)"),
    (3, _Arrays(np.array([0, -1]), np.array([1, 2])), "arc (-1, 2) out of range"),
    (3, _Arrays(np.array([0, 1], np.uint64), np.array([1, 3])), "arc (1, 3) out of range"),
    # the largest arc key, n * n - 1, must fit int64
    (3_037_000_500, [(0, 1)], "vertex count 3037000500 is too large"),
    (3_037_000_500, _Arrays([0], [1]), "vertex count 3037000500 is too large"),
])
def test_rejects_non_integers(n, arcs, value):
    with pytest.raises(ValueError, match=re.escape(value)):
        if isinstance(arcs, _Arrays):
            Digraph.from_arrays(n, *arcs)
        else:
            Digraph(n, arcs)


def test_from_arc_list_does_not_truncate():
    with pytest.raises(ValueError, match="1.9"):
        from_arc_list(3, [(1.9, 0), (0, 2), (2, 1)])


def test_numpy_ints_are_integers():
    arcs = [(0, 1), (1, 2), (2, 0)]
    g = Digraph(np.int64(3), frozenset((np.int32(i), np.int64(j)) for i, j in arcs))
    assert g == from_arc_list(3, arcs)
    assert g.sorted_arcs() == arcs
    # 49,999 * 50,000 does not fit an int32
    ends = np.int32(0), np.int32(49_999)
    wide = from_arc_list(50_000, [ends, ends[::-1]])
    assert wide.sorted_arcs() == [(0, 49_999), (49_999, 0)]
    # the largest order whose keys fit int64
    n = 3_037_000_499
    g = Digraph.from_arrays(n, [n - 1, 0], [n - 2, n - 1])
    assert g == Digraph(n, [(0, n - 1), (n - 1, n - 2)])
    assert g.sorted_arcs() == [(0, n - 1), (n - 1, n - 2)]


def test_duplicate_arcs_collapse():
    g = from_arc_list(2, [(0, 1), (0, 1)])
    assert g.m == 1


def test_digraph_is_hashable_value_object():
    a = from_arc_list(3, [(0, 1), (1, 2)])
    b = from_arc_list(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    # every entry gives the same value: arrays of any integer dtype,
    # unsorted and with duplicates, and parsed text on either path
    twins = [
        Digraph(3, {(1, 2), (0, 1)}),
        Digraph(3, frozenset({(1, 2), (0, 1)})),
        Digraph(3, [(1, 2), (0, 1), (1, 2)]),
        Digraph(3, ((i, i + 1) for i in range(2))),
        from_arc_list(3, [[1, 2], np.array([0, 1])]),
        Digraph.from_arrays(3, np.array([1, 0, 1], np.int32), np.array([2, 1, 2], np.int32)),
        Digraph.from_arrays(3, np.array([1, 0, 0]), np.array([2, 1, 1])),
        Digraph.from_arrays(3, np.array([1, 0], np.uint8), np.array([2, 1], np.uint64)),
        parse_edge_list("2 3\n1 2\n2 3\n"),
        parse_edge_list("n 3\n1 2  # a comment takes the line walk\n2 3\n"),
    ]
    for twin in twins:
        # one state, however the digraph was built: the views come later
        assert set(vars(twin)) == {"n", "_keys"}
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
        assert (twin.arcs, twin.m, twin.sorted_arcs()) == (a.arcs, 2, [(0, 1), (1, 2)])
        assert "data" not in vars(twin)
        for copied in (copy.deepcopy(twin), pickle.loads(pickle.dumps(twin))):
            assert copied == a and set(vars(copied)) == {"n", "_keys"}
            assert copied.sorted_arcs() == a.sorted_arcs()
            assert not copied._keys.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.n = 4
    generated = [gen_directed_cycle(4), gen_bidirectional_complete(4),
                 gen_bidirectional_star(4), gen_bipartite_semiregular(2, 2, 1, 1),
                 gen_random_strongly_connected(5, 0.3, seed=1)]
    for g in generated:
        assert set(vars(g)) == {"n", "_keys"}
    assert a != from_arc_list(4, [(0, 1), (1, 2)])
    assert a != Digraph.from_arrays(3, [0, 1], [1, 0])
    # the cached graph data stays invisible: build it on one side only
    data = a.data
    assert "data" not in vars(b)
    assert a == b
    assert hash(a) == hash(b)
    assert {a: "a"}[b] == "a"
    assert repr(a) == repr(b)
    # it cannot be written to
    for field in dataclasses.fields(data):
        value = getattr(data, field.name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError):
                value[0] = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.data = None
    # copies and pickles leave it behind
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and "data" not in vars(twin)
    # the views hand out plain Python values
    json.dumps(dataclasses.asdict(degree_profile(a)))
    json.dumps(dataclasses.asdict(scc(a)))
    json.dumps(dataclasses.asdict(classify(a)))


def test_graph_data_built_once_per_digraph(monkeypatch, tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text(serialize_edge_list(from_arc_list(
        5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]
    )))
    corpus = random_corpus(RandomCorpusSpec(
        count=7, n_min=3, n_max=9, arc_probabilities=(0.1, 0.5), seed=3
    ))
    builds = []
    tarjan = digraph._tarjan

    def counting_tarjan(*args):
        builds.append(args)
        return tarjan(*args)

    monkeypatch.setattr(digraph, "_tarjan", counting_tarjan)
    for fmt in ("table", "csv", "json"):
        builds.clear()
        assert cli.main(["compute", "--input", str(path), "--format", fmt]) == 0
        assert len(builds) == 1
    builds.clear()
    assert sweep(corpus).passed
    assert len(builds) == len(corpus)


def test_graph_data_keeps_only_the_strong_components():
    # n = 1,000 and m = 100,000: one arc array alone would retain 800 kB,
    # the component of each vertex 8 kB
    n = 1_000
    keys = np.random.default_rng(0).choice(n * n, 120_000, replace=False)
    src, dst = np.divmod(keys, n)
    loops = src == dst
    g, twin = (Digraph.from_arrays(n, src[~loops][:100_000], dst[~loops][:100_000])
               for _ in range(2))
    assert g.m == 100_000
    # Tarjan's work stack keeps up to n 2-tuples alive, and Python holds
    # freed 2-tuples on a free list: the twin's build fills it first. A
    # full collection empties that list, so the collector stays off from
    # the warm-up to the end of the window.
    gc.collect()
    gc.disable()
    try:
        twin.data
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        data = g.data
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained <= 16 * n + 4096, retained
    assert [field.name for field in dataclasses.fields(data)] == [
        "component_of", "component_count"]


def test_sorted_arcs_deterministic(two_islands):
    arcs = two_islands.sorted_arcs()
    assert arcs == sorted(arcs)
    assert len(arcs) == two_islands.m


# --- degree data -------------------------------------------------------------


def test_degree_profile_star(star4):
    p = degree_profile(star4)
    assert p.outdeg == (3, 1, 1, 1)
    assert p.indeg == (3, 1, 1, 1)
    # center's out-neighbors are the three leaves, each outdegree 1
    assert p.two_outdeg == (3, 3, 3, 3)
    assert p.avg_two_outdeg == (1.0, 3.0, 3.0, 3.0)
    assert (p.max_outdeg, p.min_outdeg, p.arc_count) == (3, 1, 6)


def test_degree_profile_zero_outdeg_vertex(path3):
    p = degree_profile(path3)
    assert p.outdeg == (1, 1, 0)
    assert p.avg_two_outdeg[2] is None
    assert p.two_outdeg[2] == 0


@given(digraphs())
def test_degree_sums_match_arc_count(g):
    p = degree_profile(g)
    assert sum(p.outdeg) == g.m == sum(p.indeg)


@given(digraphs())
def test_two_outdeg_identity(g):
    # t(i) is by definition the sum of out-neighbor outdegrees
    p = degree_profile(g)
    out, _ = adjacency(g)
    for i in range(g.n):
        assert p.two_outdeg[i] == sum(p.outdeg[j] for j in out[i])
        if p.outdeg[i] > 0:
            assert p.avg_two_outdeg[i] == pytest.approx(
                p.two_outdeg[i] / p.outdeg[i]
            )


@given(digraphs())
def test_adjacency_round_trip(g):
    out, into = adjacency(g)
    rebuilt = {(i, j) for i in range(g.n) for j in out[i]}
    assert rebuilt == set(g.arcs)
    rebuilt_in = {(j, i) for i in range(g.n) for j in into[i]}
    assert rebuilt_in == set(g.arcs)


# --- strong components --------------------------------------------------------


def test_scc_path(path3):
    d = scc(path3)
    assert d.components == ((2,), (1,), (0,))
    assert d.component_of == (2, 1, 0)


def test_scc_two_islands(two_islands):
    d = scc(two_islands)
    assert {frozenset(c) for c in d.components} == {
        frozenset({0, 1}),
        frozenset({2, 3, 4}),
    }


def test_scc_reverse_topological_order():
    # 0 -> 1 -> 2 with a 2-cycle at the end: cross arcs must run from a
    # later-listed component to an earlier-listed one
    g = from_arc_list(4, [(0, 1), (1, 2), (2, 3), (3, 2)])
    d = scc(g)
    position = {c: k for k, c in enumerate(d.components)}
    for i, j in g.arcs:
        ci, cj = d.components[d.component_of[i]], d.components[d.component_of[j]]
        if ci != cj:
            assert position[ci] > position[cj]


@given(digraphs())
def test_scc_matches_reachability_oracle(g):
    decomposition = scc(g)
    ours = {frozenset(c) for c in decomposition.components}
    assert ours == set(scc_oracle(g))
    for k, component in enumerate(decomposition.components):
        assert list(component) == sorted(component)
        assert all(decomposition.component_of[v] == k for v in component)
    # reverse topological order: every arc between components runs from a
    # later-listed component to an earlier-listed one
    for i, j in g.sorted_arcs():
        assert decomposition.component_of[i] >= decomposition.component_of[j]


@given(digraphs())
def test_strong_connectivity_matches_oracle(g):
    assert is_strongly_connected(g) == is_strongly_connected_oracle(g)


def test_exhaustive_scc_n3():
    for g in all_digraphs_up_to(3):
        assert {frozenset(c) for c in scc(g).components} == set(scc_oracle(g))


# --- generators ---------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_gen_directed_cycle(n):
    g = gen_directed_cycle(n)
    assert g.m == n
    assert is_strongly_connected(g)
    assert degree_profile(g).max_outdeg == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_gen_bidirectional_complete(n):
    g = gen_bidirectional_complete(n)
    assert g.m == n * (n - 1)
    p = degree_profile(g)
    assert p.max_outdeg == p.min_outdeg == n - 1


def test_gen_bidirectional_star_structure():
    g = gen_bidirectional_star(5)
    p = degree_profile(g)
    assert sorted(p.outdeg, reverse=True) == [4, 1, 1, 1, 1]
    assert classify(g).is_bidirectional_star


def test_generators_reject_tiny_orders():
    with pytest.raises(ValueError):
        gen_directed_cycle(1)
    with pytest.raises(ValueError):
        gen_bidirectional_star(2)


@pytest.mark.parametrize(
    "p,q,r,s",
    # the naive pairing gives (4, 4, 2, 2) two components and (6, 6, 2, 2)
    # three, which the 2-swaps merge
    [(2, 3, 3, 2), (3, 3, 2, 2), (2, 4, 2, 1), (1, 4, 4, 1), (3, 2, 2, 3),
     (4, 4, 2, 2), (6, 6, 2, 2)],
)
def test_gen_bipartite_semiregular_degrees(p, q, r, s):
    g = gen_bipartite_semiregular(p, q, r, s)
    prof = degree_profile(g)
    assert prof.outdeg[:p] == (r,) * p
    assert prof.outdeg[p:] == (s,) * q
    # every arc is paired with its reverse
    assert all((j, i) in g.arcs for i, j in g.arcs)
    assert classify(g).is_bipartite_semiregular
    # connected exactly when the p*r undirected edges can span p + q vertices
    assert is_strongly_connected(g) == (p * r >= p + q - 1)


def test_gen_bipartite_semiregular_rejects_bad_counts():
    with pytest.raises(ValueError):
        gen_bipartite_semiregular(2, 3, 3, 1)  # 2*3 != 3*1
    with pytest.raises(ValueError):
        gen_bipartite_semiregular(2, 3, 4, 2)  # r > q


@given(
    n=st.integers(min_value=2, max_value=10),
    p=st.sampled_from((0.0, 0.3, 0.7)),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_gen_random_strongly_connected(n, p, seed):
    g = gen_random_strongly_connected(n, p, seed)
    assert g.n == n
    assert is_strongly_connected(g)
    # deterministic in the seed
    assert g == gen_random_strongly_connected(n, p, seed)


def test_random_generator_seed_sweep():
    # a denser determinism check than the property test: 1000 seeds, fixed n
    for seed in range(1000):
        g = gen_random_strongly_connected(6, 0.25, seed)
        assert is_strongly_connected(g)


# --- classification -----------------------------------------------------------


def test_classify_cycle(c3):
    flags = classify(c3)
    assert flags.is_strongly_connected
    assert flags.is_regular
    assert flags.is_directed_cycle
    assert not flags.is_bidirectional_star


def test_classify_complete(k3):
    flags = classify(k3)
    assert flags.is_regular
    assert not flags.is_directed_cycle
    assert flags.is_bipartite_semiregular is False


def test_classify_star(star4):
    flags = classify(star4)
    assert flags.is_bidirectional_star
    # a star is bipartite semiregular with parts {center} and the leaves
    assert flags.is_bipartite_semiregular
    assert not flags.is_regular


def test_classify_two_vertex_star():
    g = from_arc_list(2, [(0, 1), (1, 0)])
    assert classify(g).is_bidirectional_star


def test_classify_g_star_membership():
    # strongly connected, min outdegree 1, a max-outdegree vertex with an
    # out-neighbor of outdegree at least 2
    g = from_arc_list(3, [(0, 1), (0, 2), (1, 0), (2, 0), (1, 2)])
    assert classify(g).is_in_g_star_class


def test_classify_g_star_needs_outdeg_2_neighbor(c3):
    # directed cycle: every out-neighbor has outdegree 1
    assert not classify(c3).is_in_g_star_class


def test_classify_semiregular_disconnected_union():
    # two K(1,2) stars side by side share the same part degrees (2, 1)
    arcs = [(0, 1), (1, 0), (0, 2), (2, 0), (3, 4), (4, 3), (3, 5), (5, 3)]
    g = from_arc_list(6, arcs)
    assert classify(g).is_bipartite_semiregular


def test_classify_semiregular_mismatched_union():
    # K(1,2) next to K(1,3): per-component degrees differ, no common (r, s)
    arcs = [(0, 1), (1, 0), (0, 2), (2, 0)]
    arcs += [(3, j) for j in (4, 5, 6)] + [(j, 3) for j in (4, 5, 6)]
    g = from_arc_list(7, arcs)
    assert not classify(g).is_bipartite_semiregular


def test_classify_odd_cycle_not_semiregular():
    # bidirectional 5-cycle is 2-regular but not bipartite
    arcs = []
    for i in range(5):
        arcs += [(i, (i + 1) % 5), ((i + 1) % 5, i)]
    g = from_arc_list(5, arcs)
    assert not classify(g).is_bipartite_semiregular
    assert classify(g).is_regular


def test_classify_even_cycle_semiregular():
    arcs = []
    for i in range(6):
        arcs += [(i, (i + 1) % 6), ((i + 1) % 6, i)]
    g = from_arc_list(6, arcs)
    assert classify(g).is_bipartite_semiregular


def test_classify_matches_definitions_up_to_4_vertices():
    for g in all_digraphs_up_to(4):
        assert dataclasses.asdict(classify(g)) == classify_oracle(g), g


@given(sc_digraphs())
def test_classify_consistency(g):
    flags = classify(g)
    p = degree_profile(g)
    assert flags.is_strongly_connected
    if flags.is_directed_cycle:
        assert flags.is_regular
        assert p.max_outdeg == 1
    if flags.is_regular:
        assert p.max_outdeg == p.min_outdeg
