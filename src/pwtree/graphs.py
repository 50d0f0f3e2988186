"""Exact-arithmetic metric graphs and their shortest-path pseudometrics.

Edge lengths are `fractions.Fraction`.  Shortest paths are computed over
integers: every length is scaled once by `integer_scale` (the lcm of the
denominators), Dijkstra runs on the scaled integers, and a
`DistanceMatrix` keeps the integer rows with their scale.  A `Fraction`
is built only when a distance leaves the matrix (`dist`, `pairs`), so
every distance comparison is exact.  Infinite distances (disconnected
pairs) are represented by ``None``, never by a large sentinel number.

`shortest_path_metric` is the all-pairs kernel, O(n^2 log n).  Where only
pairs that share a bag of a composition are needed, `pathwidth.bag_distances`
gives the same integers in O(n k^3): it feeds `composed_metric_graph` and the
random generator's length reduction, and edges-mode `estimate_distortion`
reads each edge's d_G from the composed metric's lengths.  The kernel stays
for the source distances of all-pairs reports and of the checkers, since a
source need not be a tree, and as the oracle of the bag sweep.  Distances in
a target tree come from the harness's rooted-tree layer instead, which reads
the tree's parent links: a tree sampled by `pwk` carries them (`_links`), and
any other tree is traversed once for them.
"""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction
from typing import Iterable


class GraphError(ValueError):
    pass


class LoopEdge(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class NegativeLength(GraphError):
    pass


class UnknownEndpoint(GraphError):
    pass


class DisconnectedSubset(GraphError):
    pass


class InfiniteDistance(GraphError):
    pass


def edge_key(u, v):
    """Canonical unordered pair for an edge."""
    return (u, v) if u <= v else (v, u)


def as_length(value) -> Fraction:
    """Coerce an int, string like "3/4", or Fraction into an exact length."""
    length = Fraction(value)
    if length < 0:
        raise NegativeLength(f"negative edge length {value!r}")
    return length


class MetricGraph:
    """Finite loop-free simple graph with exact non-negative edge lengths.

    Instances are immutable after construction and safe to share across
    threads; the sorted adjacency lists are built on the first `neighbors`
    or `adjacency` call.  Use :func:`build_metric_graph` to construct with
    validation.  A tree sampled by `pwk` also keeps, in `_links`, the
    parent links it was realized from, for the harness's rooted-tree layer;
    every other graph has None there.
    """

    __slots__ = ("_vertices", "_edges", "_adj", "_hash", "_links")

    def __init__(self, vertices, edges):
        self._vertices = tuple(sorted(vertices))
        self._edges = dict(edges)
        self._adj = self._hash = self._links = None

    @property
    def vertices(self):
        return self._vertices

    @property
    def n(self):
        return len(self._vertices)

    @property
    def m(self):
        return len(self._edges)

    def edges(self):
        """Edge items as ((u, v), length) with u < v, sorted."""
        return sorted(self._edges.items())

    def edge_keys(self):
        return set(self._edges)

    def has_edge(self, u, v):
        return edge_key(u, v) in self._edges

    def length(self, u, v) -> Fraction:
        return self._edges[edge_key(u, v)]

    def _adjacency(self):
        if self._adj is None:
            adj = {v: [] for v in self._vertices}
            for (u, v), length in self._edges.items():
                adj[u].append((v, length))
                adj[v].append((u, length))
            for v in adj:
                adj[v].sort()
            self._adj = adj
        return self._adj

    def neighbors(self, v):
        return [u for u, _ in self._adjacency()[v]]

    def adjacency(self, v):
        return list(self._adjacency()[v])

    def __eq__(self, other):
        if not isinstance(other, MetricGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        # cached: the embeddings' plan caches look the graph up once per sample
        if self._hash is None:
            self._hash = hash((self._vertices, frozenset(self._edges.items())))
        return self._hash

    def __repr__(self):
        return f"MetricGraph(n={self.n}, m={self.m})"

    def induced(self, subset) -> "MetricGraph":
        subset = set(subset)
        edges = {e: l for e, l in self._edges.items() if e[0] in subset and e[1] in subset}
        return MetricGraph(subset, edges)

    def with_edges(self, edges) -> "MetricGraph":
        """New graph on the same vertex set with the given edge dict."""
        g = MetricGraph((), edges)
        g._vertices = self._vertices  # already sorted
        return g


def build_metric_graph(vertices, weighted_edges) -> MetricGraph:
    """Validated construction from (u, v, length) triples.

    Rejects self-loops, repeated unordered pairs, negative lengths and
    endpoints outside the vertex set.
    """
    vertex_set = set(vertices)
    edges = {}
    for u, v, raw in weighted_edges:
        if u == v:
            raise LoopEdge(f"self-loop at {u!r}")
        if u not in vertex_set or v not in vertex_set:
            raise UnknownEndpoint(f"edge ({u!r}, {v!r}) leaves the vertex set")
        key = edge_key(u, v)
        if key in edges:
            raise DuplicateEdge(f"repeated edge {key!r}")
        edges[key] = as_length(raw)
    return MetricGraph(vertex_set, edges)


class DistanceMatrix:
    """Exact all-pairs shortest-path distances, kept as integers over one scale.

    Row i lists the distances from the i-th vertex (sorted order) to every
    vertex, times `scale`; ``None`` marks infinity.
    """

    __slots__ = ("_vertices", "_index", "_rows", "scale")

    def __init__(self, vertices, rows, scale):
        self._vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self._vertices)}
        self._rows = rows
        self.scale = scale

    @property
    def vertices(self):
        return self._vertices

    def scaled(self, u, v):
        """Distance between u and v times `scale`, an int, or None if disconnected."""
        return self._rows[self._index[u]][self._index[v]]

    def dist(self, u, v):
        """Distance between u and v, or None if they are disconnected."""
        d = self.scaled(u, v)
        return None if d is None else Fraction(d, self.scale)

    def is_finite(self, u, v) -> bool:
        return self.scaled(u, v) is not None

    def scaled_pairs(self):
        """All unordered pairs (u, v, d) with u < v and d scaled; d may be None."""
        verts = self._vertices
        for i, row in enumerate(self._rows):
            u = verts[i]
            for j in range(i + 1, len(verts)):
                yield u, verts[j], row[j]

    def pairs(self):
        """All unordered pairs (u, v, d) with u < v; d may be None."""
        scale = self.scale
        for u, v, d in self.scaled_pairs():
            yield u, v, None if d is None else Fraction(d, scale)


def shortest_path_metric(g: MetricGraph) -> DistanceMatrix:
    """Exact APSP: Dijkstra per source over lengths scaled to integers."""
    scale = integer_scale([g])
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = [[] for _ in g.vertices]
    for (u, v), length in g._edges.items():
        ln = length.numerator * (scale // length.denominator)
        adj[index[u]].append((index[v], ln))
        adj[index[v]].append((index[u], ln))
    return DistanceMatrix(g.vertices, [_dijkstra(adj, s) for s in range(len(adj))], scale)


def _dijkstra(adj, source):
    """Integer distances from `source` over adjacency lists; None if unreached."""
    dist = [None] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, x = pop(heap)
        if d > dist[x]:
            continue
        for y, ln in adj[x]:
            nd = d + ln
            dy = dist[y]
            if dy is None or nd < dy:
                dist[y] = nd
                push(heap, (nd, y))
    return dist


def reduce_lengths(g: MetricGraph) -> MetricGraph:
    """Replace each edge length by the shortest-path distance of its endpoints.

    Idempotent, and never increases any pairwise distance.
    """
    dm = shortest_path_metric(g)
    return g.with_edges({(u, v): dm.dist(u, v) for (u, v) in g.edge_keys()})


def is_connected(g: MetricGraph) -> bool:
    if g.n == 0:
        return True
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def is_tree(g: MetricGraph) -> bool:
    """Connected and |E| = |V| - 1."""
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def minimum_spanning_tree(g: MetricGraph, subset=None):
    """Minimum spanning tree edges of the induced subgraph on `subset`.

    Deterministic: ties are broken by lexicographic edge key.  Returns a
    sorted tuple of edge keys; raises DisconnectedSubset when the induced
    subgraph does not connect the subset.
    """
    if subset is None:
        subset = g.vertices
    subset = set(subset)
    candidates = sorted(
        (length, e) for e, length in g.edges() if e[0] in subset and e[1] in subset
    )
    parent = {v: v for v in subset}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen = []
    for _, (u, v) in candidates:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
    if len(chosen) != len(subset) - 1:
        raise DisconnectedSubset(f"subset of {len(subset)} vertices is not connected")
    return tuple(sorted(chosen))


def complete_on_clique(g: MetricGraph, subset) -> MetricGraph:
    """Add every missing edge inside `subset` with its shortest-path length.

    Existing edges are untouched; the added edges are reduced by
    construction.  Raises InfiniteDistance if the subset spans components.
    """
    subset = sorted(set(subset))
    dm = shortest_path_metric(g)
    edges = dict(g.edges())
    for i, u in enumerate(subset):
        for v in subset[i + 1:]:
            key = edge_key(u, v)
            if key in edges:
                continue
            d = dm.dist(u, v)
            if d is None:
                raise InfiniteDistance(f"{u!r} and {v!r} lie in different components")
            edges[key] = d
    return g.with_edges(edges)


# --- JSON interchange -------------------------------------------------------

def _length_to_json(length: Fraction):
    if length.denominator == 1:
        return length.numerator
    return f"{length.numerator}/{length.denominator}"


def graph_to_json(g: MetricGraph) -> dict:
    """{"vertices": [...], "edges": [[u, v, "num/den"], ...]} with int shorthand."""
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v, _length_to_json(l)] for (u, v), l in g.edges()],
    }


def graph_from_json(data: dict) -> MetricGraph:
    """The graph of {"vertices": [...], "edges": [[u, v, length], ...]}.

    A document of another shape (a list, a scalar vertex list, unhashable
    or unorderable vertex ids, a list or an overflowing number as a
    length) raises GraphError."""
    try:
        return build_metric_graph(
            data["vertices"], [(u, v, l) for u, v, l in data["edges"]]
        )
    except (TypeError, OverflowError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from None


def dump_graph(g: MetricGraph, path):
    with open(path, "w") as fh:
        json.dump(graph_to_json(g), fh, sort_keys=True)
        fh.write("\n")


def load_graph(path) -> MetricGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))


def integer_scale(graphs: Iterable[MetricGraph]) -> int:
    """Smallest positive integer turning every edge length into an integer."""
    scale = 1
    for g in graphs:
        for _, length in g.edges():
            d = length.denominator
            if scale % d:
                scale = scale * d // math.gcd(scale, d)
    return scale
