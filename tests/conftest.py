"""Shared helpers: random trees, exhaustive tree enumeration, witnesses."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

# the reference oracles check their invariants with bare asserts, which
# `python -O` strips from any module pytest does not rewrite; registered
# before any test imports them, they keep their checks there too
pytest.register_assert_rewrite("pwk_reference", "tree_pathwidth_reference")

from pwtree.graphs import MetricGraph, build_metric_graph, edge_key, shortest_path_metric
from pwtree.pathwidth import (
    LinearCompositionSequence,
    composed_metric_graph,
    decomposition_to_composition,
    tree_path_decomposition,
)
from pwtree.harness import EmbeddingSample, _RootedTree
from pwtree.instances import random_pathwidth_graph, small_rational_lengths

# edge lengths: zero, integers, and large or prime denominators
LENGTHS = st.one_of(
    st.just(Fraction(0)),
    st.integers(0, 20).map(Fraction),
    st.fractions(min_value=0, max_value=50, max_denominator=10**6),
    st.sampled_from([Fraction(1, 1_000_003), Fraction(7, 999_983),
                     Fraction(2**61 - 1, 2**31 - 1), Fraction(10**30 + 7, 2**89 - 1)]),
)


def adjacency(g: MetricGraph):
    """{v: [(u, length), ...]}, each list sorted by neighbour: the reference
    oracles' adjacency, which pwtree itself never builds."""
    adj = {v: [] for v in g.vertices}
    for (u, v), length in g.edges():
        adj[u].append((v, length))
        adj[v].append((u, length))
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def neighbor_sets(g: MetricGraph):
    """{v: the set of v's neighbours}."""
    return {v: {u for u, _ in nbrs} for v, nbrs in adjacency(g).items()}


def random_unit_tree(n, rng) -> MetricGraph:
    """Uniform-ish random labeled tree via random parent attachment."""
    edges = [(rng.randrange(v), v, 1) for v in range(1, n)]
    return build_metric_graph(range(n), edges)


def all_trees_up_to(max_n):
    """One representative per isomorphism class of trees with <= max_n vertices.

    Grows trees by leaf addition, deduplicating with a canonical form
    (centroid-rooted subtree encoding).
    """
    yield build_metric_graph([0], [])
    current = [[[]]]
    for n in range(2, max_n + 1):
        nxt = []
        reps = {}
        for adj in current:
            for attach in range(len(adj)):
                grown = [list(nb) for nb in adj] + [[attach]]
                grown[attach] = grown[attach] + [len(adj)]
                key = _canonical_tree(grown)
                if key not in reps:
                    reps[key] = grown
        for grown in reps.values():
            nxt.append(grown)
            edges = []
            for v, nbs in enumerate(grown):
                for u in nbs:
                    if u > v:
                        edges.append((v, u, 1))
            yield build_metric_graph(range(len(grown)), edges)
        current = nxt


def _canonical_tree(adj):
    n = len(adj)
    centroids = _centroids(adj)
    return min(_rooted_code(adj, c, -1) for c in centroids)


def _centroids(adj):
    n = len(adj)
    size = [1] * n
    order = []
    parent = [-1] * n
    stack = [0]
    visited = [False] * n
    while stack:
        v = stack.pop()
        visited[v] = True
        order.append(v)
        for u in adj[v]:
            if not visited[u]:
                parent[u] = v
                stack.append(u)
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best, cands = n + 1, []
    for v in range(n):
        heaviest = max(
            [n - size[v]] + [size[u] for u in adj[v] if u != parent[v]],
            default=0,
        )
        if heaviest < best:
            best, cands = heaviest, [v]
        elif heaviest == best:
            cands.append(v)
    return cands


def _rooted_code(adj, v, parent):
    children = sorted(
        _rooted_code(adj, u, v) for u in adj[v] if u != parent
    )
    return "(" + "".join(children) + ")"


def tree_sequence(t: MetricGraph) -> LinearCompositionSequence:
    """A width-pw(t) composition witnessing t (via optimal decomposition)."""
    return decomposition_to_composition(tree_path_decomposition(t), t)


def tree_metric_and_sequence(t):
    seq = tree_sequence(t)
    return composed_metric_graph(t, seq), seq


def flatten_to_path(g: MetricGraph) -> EmbeddingSample:
    """Non-contractive embedding of g onto a path (pathwidth 1).

    Vertices are laid out in sorted order; consecutive layout vertices are
    joined by an edge of their source distance, so by triangle inequality
    no pair contracts.
    """
    dm = shortest_path_metric(g)
    order = sorted(g.vertices)
    edges = []
    for a, b in zip(order, order[1:]):
        d = dm.dist(a, b)
        assert d is not None
        edges.append((a, b, d))
    target = build_metric_graph(order, edges)
    return EmbeddingSample(g, target, {v: v for v in order})


@st.composite
def mixed_instances(draw, widths=(2, 3, 4)):
    """A random instance of one of `widths` on scattered vertex labels whose lengths
    mix small rationals with small rationals times 2^j, j up to 40."""
    k = draw(st.sampled_from(widths))
    n = draw(st.integers(k + 1, k + 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def length(r):
        base = small_rational_lengths(r)
        return base * 2 ** r.randint(1, 40) if r.random() < 0.5 else base

    g, seq = random_pathwidth_graph(k, n, length, rng)
    label = dict(zip(range(n), rng.sample(range(-99, 100), n)))
    g = build_metric_graph(label.values(), [(label[u], label[v], d) for (u, v), d in g.edges()])
    seq = LinearCompositionSequence(k, [label[v] for v in seq.initial],
                                    [(label[v], {label[x] for x in w}) for v, w in seq.steps])
    return g, seq


def linked_edges(tree, metric):
    """The edges of a sampled tree's parent links, after checking that the
    links list every vertex, carry the metric's lengths, and give the
    harness the same distances as a traversal of the tree, compared at the
    lcm of the two rootings' scales."""
    order, parent, scaled, scale = tree._links
    verts = tree.vertices
    idx = range(len(verts))
    assert sorted(order) == list(idx)
    assert all(Fraction(scaled[x], scale) == metric.length(verts[x], verts[parent[x]])
               for x in order[1:])
    linked = _RootedTree(tree)
    walked = _RootedTree(tree.with_edges(dict(tree.edges())))
    assert linked.order is order and linked.scale == scale and walked.order[0] == 0
    common = math.lcm(linked.scale, walked.scale)
    lmult, wmult = common // linked.scale, common // walked.scale
    pairs = list(itertools.product(idx, idx))
    assert [d * lmult for d in linked.pair_distances(pairs)] \
        == [d * wmult for d in walked.pair_distances(pairs)]
    (lrows, lpos), (wrows, wpos) = linked.rows(), walked.rows()
    assert [lrows[i][lpos[j]] * lmult for i, j in pairs] \
        == [wrows[i][wpos[j]] * wmult for i, j in pairs]
    return {edge_key(verts[x], verts[parent[x]]) for x in order[1:]}
