import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from distance_reference import reference_distances
from pwtree.graphs import (
    DisconnectedSubset,
    DuplicateEdge,
    InfiniteDistance,
    LoopEdge,
    NegativeLength,
    UnknownEndpoint,
    build_metric_graph,
    complete_on_clique,
    graph_from_json,
    graph_to_json,
    integer_scale,
    is_connected,
    is_tree,
    minimum_spanning_tree,
    reduce_lengths,
    shortest_path_metric,
    spanning_links,
)


def triangle(l_ab=1, l_bc=2, l_ac=5):
    return build_metric_graph([0, 1, 2], [(0, 1, l_ab), (1, 2, l_bc), (0, 2, l_ac)])


class TestBuild:
    def test_minimal(self):
        g = build_metric_graph([0, 1], [(0, 1, 1)])
        assert g.n == 2 and g.m == 1
        assert g.length(1, 0) == 1

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            build_metric_graph([0], [(0, 0, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_metric_graph([0, 1], [(0, 1, 1), (1, 0, 2)])

    def test_negative_rejected(self):
        with pytest.raises(NegativeLength):
            build_metric_graph([0, 1], [(0, 1, -1)])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            build_metric_graph([0, 1], [(0, 2, 1)])

    def test_nonreduced_triangle_accepted(self):
        # reduction is a separate step, not a construction invariant
        g = triangle()
        assert g.length(0, 2) == 5

    def test_zero_length_allowed(self):
        g = build_metric_graph([0, 1], [(0, 1, 0)])
        assert g.length(0, 1) == 0

    def test_string_rationals(self):
        g = build_metric_graph([0, 1], [(0, 1, "3/4")])
        assert g.length(0, 1) == Fraction(3, 4)


class TestShortestPaths:
    def test_path_sum(self):
        g = build_metric_graph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
        assert shortest_path_metric(g).dist(0, 2) == 2

    def test_disconnected_is_infinite(self):
        g = build_metric_graph([0, 1], [])
        dm = shortest_path_metric(g)
        assert dm.dist(0, 1) is None
        assert not dm.is_finite(0, 1)

    def test_triangle_shortcut(self):
        assert shortest_path_metric(triangle()).dist(0, 2) == 3

    def test_zero_diagonal(self):
        dm = shortest_path_metric(triangle())
        assert dm.dist(1, 1) == 0


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 10))
    possible = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    lengths = draw(
        st.lists(
            st.fractions(min_value=0, max_value=20),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return build_metric_graph(range(n), [(u, v, l) for (u, v), l in zip(chosen, lengths)])


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_metric_axioms(g):
    dm = shortest_path_metric(g)
    verts = g.vertices
    for u in verts:
        assert dm.dist(u, u) == 0
        for v in verts:
            assert dm.dist(u, v) == dm.dist(v, u)
    for u, v, w in itertools.permutations(verts, 3):
        duv, duw, dwv = dm.dist(u, v), dm.dist(u, w), dm.dist(w, v)
        if duw is not None and dwv is not None:
            assert duv is not None and duv <= duw + dwv


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_reduce_lengths_properties(g):
    reduced = reduce_lengths(g)
    assert reduced.edge_keys() == g.edge_keys()
    dm_before = shortest_path_metric(g)
    dm_after = shortest_path_metric(reduced)
    for u, v, d in dm_before.pairs():
        assert dm_after.dist(u, v) == d  # distances preserved exactly
    for (u, v) in reduced.edge_keys():
        assert reduced.length(u, v) == dm_after.dist(u, v)
        assert reduced.length(u, v) <= g.length(u, v)
    assert reduce_lengths(reduced) == reduced  # idempotent


PRIMES = (2, 3, 5, 7, 11, 13, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1)


@st.composite
def kernel_graphs(draw):
    """Graphs with zero lengths, several components and coprime or huge
    denominators; vertices are ints or strings (whose order is not the
    order they were made in)."""
    n = draw(st.integers(1, 9))
    names = draw(st.sampled_from([list(range(n)), [f"v{i}" for i in range(n)]]))
    # edges only join vertices of one label, so labels split components
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    possible = [(names[a], names[b]) for a, b in itertools.combinations(range(n), 2)
                if labels[a] == labels[b]]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    length = st.one_of(
        st.just(0),
        st.builds(Fraction, st.integers(0, 40), st.sampled_from(PRIMES)),
        st.builds(Fraction, st.integers(0, 10 ** 40), st.integers(1, 10 ** 30)),
    )
    lengths = draw(st.lists(length, min_size=len(chosen), max_size=len(chosen)))
    return build_metric_graph(names, [(u, v, l) for (u, v), l in zip(chosen, lengths)])


class TestIntegerKernel:
    @given(kernel_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, g):
        dm = shortest_path_metric(g)
        ref = reference_distances(g)
        for u in g.vertices:
            assert dm.dist(u, u) == 0
            for v in g.vertices:
                assert dm.dist(u, v) == ref[(u, v)]
                assert dm.is_finite(u, v) == (ref[(u, v)] is not None)
        assert list(dm.pairs()) == [
            (u, v, ref[(u, v)]) for u, v in itertools.combinations(g.vertices, 2)]

    def test_huge_coprime_denominators(self):
        # a 1/p + 1/q path beats a direct edge by 1/(p*q*r); no float can tell
        p, q, r = 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1
        via = Fraction(1, p) + Fraction(1, q)
        g = build_metric_graph([0, 1, 2, 3, 4], [
            (0, 1, Fraction(1, p)), (1, 2, Fraction(1, q)),
            (0, 2, via + Fraction(1, p * q * r)), (3, 4, 0)])
        dm = shortest_path_metric(g)
        assert dm.dist(0, 2) == via
        assert dm.scale == p * q * r
        assert dm.dist(3, 4) == 0 and dm.dist(4, 4) == 0
        assert dm.dist(0, 3) is None and dm.dist(4, 2) is None
        assert reference_distances(g)[(0, 2)] == via


def test_reduce_triangle():
    r = reduce_lengths(triangle())
    assert r.length(0, 2) == 3
    assert r.length(0, 1) == 1 and r.length(1, 2) == 2


class TestTreePredicates:
    def test_path_is_tree(self):
        assert is_tree(build_metric_graph([0, 1, 2], [(0, 1, 1), (1, 2, 1)]))

    def test_triangle_is_not(self):
        assert not is_tree(triangle())

    def test_disconnected_is_not(self):
        g = build_metric_graph([0, 1, 2, 3], [(0, 1, 1), (2, 3, 1)])
        assert not is_tree(g)
        assert not is_connected(g)

    def test_single_vertex(self):
        assert is_tree(build_metric_graph([5], []))


def union_find_components(g):
    """The test's own oracle: the vertex sets of g's components."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in g.edge_keys():
        root[find(u)] = find(v)
    comps = {}
    for v in g.vertices:
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


@st.composite
def traversal_graphs(draw):
    """Forests, trees, cycles and scattered pieces on 0-9 vertices: each
    vertex hangs from an earlier one or starts a new piece, then extra
    edges may close cycles.  Labels are scattered ints or strings."""
    n = draw(st.integers(0, 9))
    names = draw(st.sampled_from([[3 * i + 1 for i in range(n)], [f"v{i}" for i in range(n)]]))
    names = draw(st.permutations(names))
    edges = set()
    for i in range(1, n):
        j = draw(st.one_of(st.none(), st.integers(0, i - 1)))
        if j is not None:
            edges.add(frozenset((names[i], names[j])))
    pairs = [frozenset(p) for p in itertools.combinations(names, 2)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    return build_metric_graph(names, [(*sorted(e), 1) for e in edges])


def edgeless(n):
    return build_metric_graph(range(n), [])


@given(traversal_graphs())
@example(edgeless(0))
@example(edgeless(1))
@example(build_metric_graph(range(5), [(0, 1, 1), (2, 3, 1), (3, 4, 1)]))  # forest
@example(build_metric_graph(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]))  # cycle
@example(build_metric_graph(range(4), [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))  # m = n - 1, split
@settings(max_examples=200, deadline=None)
def test_traversal_matches_union_find(g):
    comps = union_find_components(g)
    assert is_connected(g) == (len(comps) <= 1)
    assert is_tree(g) == (len(comps) == 1 and g.m == g.n - 1)
    adj, order, parent = spanning_links(g)
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    assert adj == [sorted(index[u] for e in g.edge_keys() if v in e for u in e if u != v)
                   for v in verts]
    if not verts:
        assert order == parent == []
        return
    # breadth-first from vertex 0 over its component, the root its own parent
    (home,) = [c for c in comps if verts[0] in c]
    assert sorted(order) == sorted(index[v] for v in home) and order[0] == 0
    assert parent[0] == 0
    seen = {0}
    for x in order[1:]:
        assert parent[x] in seen and g.has_edge(verts[x], verts[parent[x]])
        seen.add(x)
    assert [order.index(parent[x]) for x in order[1:]] == sorted(
        order.index(parent[x]) for x in order[1:])
    assert all(parent[i] is None for i in range(len(verts)) if i not in seen)


class TestMST:
    def test_unit_triangle_tie(self):
        g = build_metric_graph([0, 1, 2], [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert minimum_spanning_tree(g) == ((0, 1), (0, 2))

    def test_weighted_triangle(self):
        assert minimum_spanning_tree(triangle(1, 2, 3)) == ((0, 1), (1, 2))

    def test_single_vertex_subset(self):
        assert minimum_spanning_tree(triangle(), [1]) == ()

    def test_disconnected_subset(self):
        g = build_metric_graph([0, 1, 2], [(0, 1, 1)])
        with pytest.raises(DisconnectedSubset):
            minimum_spanning_tree(g, [0, 2])

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, g):
        if g.n > 7 or not is_connected(g):
            return
        chosen = minimum_spanning_tree(g)
        total = sum(g.length(*e) for e in chosen)
        spanning = g.with_edges({e: g.length(*e) for e in chosen})
        assert is_tree(spanning)
        best = None
        for combo in itertools.combinations(g.edge_keys(), g.n - 1):
            cand = g.with_edges({e: g.length(*e) for e in combo})
            if is_tree(cand):
                weight = sum(g.length(*e) for e in combo)
                best = weight if best is None else min(best, weight)
        assert total == best


class TestCompleteOnClique:
    def test_square_diagonal(self):
        g = build_metric_graph(
            [0, 1, 2, 3], [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
        )
        filled = complete_on_clique(g, [0, 2])
        assert filled.length(0, 2) == 2

    def test_existing_clique_unchanged(self):
        g = triangle()
        assert complete_on_clique(g, [0, 1, 2]) == g

    def test_cross_component(self):
        g = build_metric_graph([0, 1], [])
        with pytest.raises(InfiniteDistance):
            complete_on_clique(g, [0, 1])


class TestJson:
    def test_round_trip(self):
        g = build_metric_graph([0, 1, 2], [(0, 1, "1/3"), (1, 2, 4)])
        data = graph_to_json(g)
        assert data["edges"] == [[0, 1, "1/3"], [1, 2, 4]]
        assert graph_from_json(json.loads(json.dumps(data))) == g

    def test_integer_scale(self):
        g = build_metric_graph([0, 1, 2], [(0, 1, "1/6"), (1, 2, "3/4")])
        assert integer_scale(g) == 12
