import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from qbounds import (
    ROW_ORDER,
    Digraph,
    all_bounds,
    from_arc_list,
    gen_random_strongly_connected,
)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def bound(g, bid):
    """The entry for bid in the row all_bounds(g)."""
    return all_bounds(g)[ROW_ORDER.index(bid)]


# --- fixed graphs -----------------------------------------------------------


@pytest.fixture
def c3():
    """Directed triangle 0 -> 1 -> 2 -> 0."""
    return from_arc_list(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def star4():
    """Bidirectional star on 4 vertices, center 0."""
    return from_arc_list(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)])


@pytest.fixture
def k3():
    """Complete bidirectional digraph on 3 vertices."""
    return from_arc_list(3, [(i, j) for i in range(3) for j in range(3) if i != j])


@pytest.fixture
def path3():
    """Reducible: 0 -> 1 -> 2, one vertex with outdegree 0."""
    return from_arc_list(3, [(0, 1), (1, 2)])


@pytest.fixture
def arc2():
    """Smallest legal digraph: a single arc."""
    return from_arc_list(2, [(0, 1)])


@pytest.fixture
def two_islands():
    """Two strong components with no arcs between them: a 2-cycle and a
    bidirectional triangle."""
    arcs = [(0, 1), (1, 0)]
    arcs += [(i, j) for i in (2, 3, 4) for j in (2, 3, 4) if i != j]
    return from_arc_list(5, arcs)


# --- strategies -------------------------------------------------------------


def _arc_pool(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


@st.composite
def digraphs(draw, min_n=2, max_n=7):
    """Arbitrary loop-free digraphs with at least one arc."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pool = _arc_pool(n)
    arcs = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
    )
    return from_arc_list(n, arcs)


@st.composite
def sc_digraphs(draw, min_n=2, max_n=7):
    """Strongly connected digraphs: a seeded generator draw, so shrinking
    works on (n, p, seed) rather than on raw arc sets."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.sampled_from((0.0, 0.2, 0.5, 0.9)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return gen_random_strongly_connected(n, p, seed)


def all_digraphs_up_to(n_max, require_arc=True):
    """Exhaustive iterator over loop-free digraphs on 2..n_max vertices."""
    for n in range(2, n_max + 1):
        pool = _arc_pool(n)
        for mask in range(1 if require_arc else 0, 1 << len(pool)):
            arcs = [pool[b] for b in range(len(pool)) if mask >> b & 1]
            yield Digraph(n, frozenset(arcs))


def exhaustive_sc(n):
    """All strongly connected digraphs on exactly n labeled vertices."""
    pool = _arc_pool(n)
    from qbounds import is_strongly_connected

    for take in range(n, len(pool) + 1):
        for arcs in itertools.combinations(pool, take):
            g = Digraph(n, frozenset(arcs))
            if is_strongly_connected(g):
                yield g


def strong_partition(cols):
    """Each digraph's strong components in a BoundColumns batch, as a set
    of vertex sets in the digraph's own numbering, once it is checked
    that component_of numbers the component_count[k] components of
    digraph k from 0."""
    local = np.arange(len(cols.vertex_graph)) - cols.vertex_start[cols.vertex_graph]
    parts = [{} for _ in range(len(cols))]
    for k, c, v in zip(cols.vertex_graph.tolist(), cols.component_of.tolist(),
                       local.tolist()):
        parts[k].setdefault(c, set()).add(v)
    for part, count in zip(parts, cols.component_count.tolist()):
        assert sorted(part) == list(range(count))
    return [frozenset(map(frozenset, part.values())) for part in parts]
