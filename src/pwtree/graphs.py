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
the tree's parent links: a tree sampled or enumerated by `pwk` or `pw2`
carries them (`_links`), and any other tree gets them from `spanning_links`,
the one traversal, which also serves `is_tree` and the tree toolkit:
`pathwidth._rooted` roots each tree once per call, and the peeling runs on
that rooting's index lists.
"""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction


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
    threads.  Use :func:`build_metric_graph` to construct with validation.
    A tree sampled or enumerated by `pwk` or `pw2` also keeps, in `_links`,
    the parent links it was realized from (`pw2._sampled_tree` is the one
    function that sets them), for the harness's rooted-tree layer; every
    other graph has None there.
    """

    __slots__ = ("_vertices", "_edges", "_hash", "_links")

    def __init__(self, vertices, edges):
        self._vertices = tuple(sorted(vertices))
        self._edges = dict(edges)
        self._hash = self._links = None

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

    def __eq__(self, other):
        if not isinstance(other, MetricGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        # cached: the embeddings' plan caches look the graph up once per
        # sample.  Edge keys only, so no length is hashed: the enumerator
        # merges its draws by tree, and equal graphs still hash equal
        if self._hash is None:
            self._hash = hash((self._vertices, frozenset(self._edges)))
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
    scale = integer_scale(g)
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


def spanning_links(g: MetricGraph):
    """(adj, order, parent), the package's one traversal: vertices are
    numbered by sorted position, adj[i] lists vertex i's neighbours in
    ascending order, and `order` is the breadth-first order of vertex 0's
    component.  The root is its own parent; an unreached vertex has None."""
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = [[] for _ in index]
    for u, v in g._edges:
        a, b = index[u], index[v]
        adj[a].append(b)
        adj[b].append(a)
    for nbrs in adj:
        nbrs.sort()
    order = [0] if adj else []  # the root, vertex 0, is its own parent
    parent = order + [None] * (len(adj) - len(order))
    for x in order:
        for y in adj[x]:
            if parent[y] is None:
                parent[y] = x
                order.append(y)
    return adj, order, parent


def is_connected(g: MetricGraph) -> bool:
    """One component; the empty graph counts as connected."""
    return len(spanning_links(g)[1]) == g.n


def is_tree(g: MetricGraph) -> bool:
    """Connected and |E| = |V| - 1.  The empty graph is not a tree."""
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def find(parent, v):
    """The root of v in the union-find forest `parent` (a dict or list
    of parents, a root its own), halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


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
    chosen = []
    for _, (u, v) in candidates:
        ru, rv = find(parent, u), find(parent, v)
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

    A document of another shape (a list, a missing key, a vertex or edge
    list that is not an array, unhashable, unorderable or repeated vertex
    ids, 1 and 1.0 being one id, a boolean vertex id, endpoint or length,
    an edge that is not an array of three, or a length that is a list,
    NaN, no rational, an overflowing number or has a zero denominator)
    raises GraphError.  Each entry is checked before the builder sees it,
    so the builder's own errors, such as NegativeLength, pass through as
    they are."""
    try:
        vertices, entries = data["vertices"], data["edges"]
        # a string or an object would be read as its characters or its keys
        for key, value in (("vertices", vertices), ("edges", entries)):
            if not isinstance(value, list):
                raise GraphError(f"malformed graph JSON: {key} {value!r} is not an array")
        # bool is an int subclass, and True == 1 would merge with vertex 1,
        # as 1.0 or a second 1 would
        seen = set()
        for v in vertices:
            if isinstance(v, bool):
                raise GraphError(f"malformed graph JSON: vertex {v!r} is a boolean")
            if v in seen:
                raise GraphError(f"malformed graph JSON: vertex {v!r} repeats an earlier one")
            seen.add(v)
        edges = []
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 3:
                raise GraphError(f"malformed graph JSON: edge {entry!r} is not [u, v, length]")
            if any(isinstance(x, bool) for x in entry):
                raise GraphError(f"malformed graph JSON: edge {entry!r} holds a boolean")
            u, v, length = entry
            try:
                Fraction(length)
            except ValueError:  # NaN, or a string that is no rational
                raise GraphError(f"malformed graph JSON: length {length!r} is not a rational"
                                 ) from None
            except ZeroDivisionError:  # Fraction("1/0")
                raise GraphError(f"malformed graph JSON: length {length!r} of edge {entry!r} "
                                 "has a zero denominator") from None
            edges.append((u, v, length))
        return build_metric_graph(vertices, edges)
    except KeyError as exc:
        raise GraphError(f"malformed graph JSON: missing key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from None


def dump_graph(g: MetricGraph, path):
    with open(path, "w") as fh:
        json.dump(graph_to_json(g), fh, sort_keys=True)
        fh.write("\n")


def load_graph(path) -> MetricGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))


def integer_scale(g: MetricGraph) -> int:
    """Smallest positive integer turning every edge length of `g` into an integer."""
    return math.lcm(*(length.denominator for length in g._edges.values()))
