"""Path decompositions, linear composition sequences, and pathwidth oracles.

The exact oracle works on any small graph via a reachability search over
vertex-separation prefixes, each carrying its boundary, which placing a
vertex updates.  It decides each width k = 0, 1, ... by a depth-first
search that stops at the first full prefix and places a vertex that does
not grow the boundary as the only move (Coudert, Mazauric & Nisse); a
decomposition then takes one breadth-first search at the width found, so
its layout is the least-width layout of that search.  Trees get rooted
critical labels (Ellis, Sudborough & Turner): one iterative bottom-up pass
gives the pathwidth, and a top-down rerooting pass gives the pathwidth of
every branch at every vertex, in O(n log n) time without recursion.  Each
public tree call roots its tree once, at its lowest vertex, by
`graphs.spanning_links`, the one check that it is a tree.  The path
peeling reads its heavy branches from that branch table and removes a
simple path from the rooting's index lists, dropping every remaining
component's pathwidth by one; recursive peeling on those lists builds an
optimal decomposition.
Checks that a constructed decomposition is valid at the width the proof
promises raise BrokenInvariant, also under ``python -O``.  A composition
sequence's steps are read by one walk, `departures`, which validates the
sequence when it is built and which the composed edges, the bags and
both samplers' plans all come from.  Distances
between vertices sharing a bag of a composition come from a forward and
a backward sweep over its bags (`bag_distances`), in O(n k^3) time.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from .graphs import (
    MetricGraph,
    build_metric_graph,
    edge_key,
    integer_scale,
    spanning_links,
    shortest_path_metric,  # not called here; bench/tracer.py wraps it in every importer
    InfiniteDistance,
)


class DecompositionError(ValueError):
    pass


class UncoveredVertex(DecompositionError):
    pass


class UncoveredEdge(DecompositionError):
    pass


class BrokenInterval(DecompositionError):
    pass


class BrokenInvariant(DecompositionError):
    """A decomposition built by this module fails the width its proof promises."""


class TooLarge(ValueError):
    pass


class NotATree(ValueError):
    pass


class PathwidthTooLow(ValueError):
    pass


class BadSequence(ValueError):
    pass


class PathDecomposition:
    """Ordered list of bags; width is the largest bag size minus one."""

    __slots__ = ("bags",)

    def __init__(self, bags):
        self.bags = tuple(frozenset(b) for b in bags)
        if not self.bags:
            raise DecompositionError("a decomposition needs at least one bag")

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def __eq__(self, other):
        if not isinstance(other, PathDecomposition):
            return NotImplemented
        return self.bags == other.bags

    def __repr__(self):
        return f"PathDecomposition(bags={[sorted(b) for b in self.bags]})"


class LinearCompositionSequence:
    """Incremental clique-window construction history.

    Starts from a k-clique on `initial`; each step attaches a fresh vertex
    to the whole current window and retains a new k-window.
    """

    __slots__ = ("k", "initial", "steps")

    def __init__(self, k, initial, steps):
        # bool is an int subclass, but True is no width
        if not isinstance(k, int) or isinstance(k, bool):
            raise BadSequence(f"malformed width {k!r}: k must be an int")
        self.k = k
        self.initial = tuple(initial)
        self.steps = tuple((v, frozenset(w)) for v, w in steps)
        if k < 1:
            raise BadSequence("k must be positive")
        if len(set(self.initial)) != k:
            raise BadSequence(f"initial window must have {k} distinct vertices")
        for _ in self.departures():  # the walk validates every step
            pass

    @property
    def vertices(self):
        return tuple(self.initial) + tuple(v for v, _ in self.steps)

    def departures(self):
        """The one walk over the steps: per step (x, window, w, retained), the
        new vertex, the window it joins, the one vertex of the clique
        window + x that the retained window drops, and the retained window.
        It raises BadSequence at a step that introduces a vertex twice or
        retains a window that is not k vertices of its clique."""
        k = self.k
        seen = set(self.initial)
        window = frozenset(self.initial)
        for x, retained in self.steps:
            if x in seen:
                raise BadSequence(f"vertex {x!r} introduced twice")
            seen.add(x)
            # the clique has k + 1 vertices, so k retained ones drop exactly
            # one of them when all k lie in it
            dropped = (window | {x}) - retained
            if len(retained) != k or len(dropped) != 1:
                raise BadSequence(f"illegal retained window {sorted(retained)!r}")
            (w,) = dropped
            yield x, window, w, retained
            window = retained

    def composed_edges(self):
        """Edge keys of the composed graph (clique + all attachments)."""
        edges = {edge_key(u, v) for u, v in combinations(self.initial, 2)}
        for x, window, _, _ in self.departures():
            edges.update(edge_key(x, u) for u in window)
        return edges

    def __repr__(self):
        return f"LinearCompositionSequence(k={self.k}, steps={len(self.steps)})"


def validate_path_decomposition(g: MetricGraph, pd: PathDecomposition) -> int:
    """Check the three conditions; returns the width, or raises naming the offender.

    Conditions: bags cover every vertex, every edge lies inside some bag,
    and each vertex occupies a contiguous interval of bag indices.  One
    pass over the bags records each vertex's first and last bag and its
    number of bags; an edge whose endpoints both have contiguous intervals
    lies in a bag exactly when the intervals meet.  O(sum of bag sizes + m).
    """
    first, last, count = {}, {}, {}
    for i, bag in enumerate(pd.bags):
        for v in bag:
            if v in first:
                count[v] += 1
            else:
                first[v] = i
                count[v] = 1
            last[v] = i

    def contiguous(v):
        return last[v] - first[v] + 1 == count[v]

    for v in g.vertices:
        if v not in first:
            raise UncoveredVertex(f"vertex {v!r} appears in no bag")
    for (u, v) in g.edge_keys():
        if contiguous(u) and contiguous(v):
            inside = max(first[u], first[v]) <= min(last[u], last[v])
        else:
            inside = any(v in b for b in pd.bags[first[u]:last[u] + 1] if u in b)
        if not inside:
            raise UncoveredEdge(f"edge ({u!r}, {v!r}) is inside no bag")
    for v in set().union(*pd.bags):
        if not contiguous(v):
            indices = [i for i, b in enumerate(pd.bags) if v in b]
            raise BrokenInterval(f"bag indices of {v!r} are not contiguous: {indices}")
    return pd.width


def composition_to_decomposition(seq: LinearCompositionSequence) -> PathDecomposition:
    """Bags are the per-step cliques (previous window + new vertex)."""
    bags = [window | {x} for x, window, _, _ in seq.departures()]
    return PathDecomposition(bags or [frozenset(seq.initial)])


def composed_graph(seq: LinearCompositionSequence) -> MetricGraph:
    """The composed graph of a sequence, with unit lengths."""
    return build_metric_graph(
        seq.vertices, [(u, v, 1) for u, v in seq.composed_edges()]
    )


def bag_distances(g: MetricGraph, seq: LinearCompositionSequence):
    """d_g between every two vertices that share a bag of `seq`, as scaled integers.

    Returns ``(dists, scale)`` with ``scale = integer_scale(g)``.  `dists`
    maps every such pair, keyed by `edge_key` (these pairs are exactly the
    composed edges), to d_g times `scale`, or to None when the two are
    disconnected in `g`.

    The bags are those of `composition_to_decomposition(seq)`, one walk of
    the sequence, and the composed edges are the pairs inside them.  A
    forward sweep closes each bag (Floyd-Warshall on at most k+1 vertices)
    over the edges of `g` inside it and the previous bag's distances on
    their shared window, so each bag holds the distances within the graph
    induced by its prefix of bags; a backward sweep then closes each bag
    again over the next bag's final distances.  The window two adjacent
    bags share separates prefix from suffix, so the result is exact
    (Chaudhuri & Zaroliagis, Shortest paths in digraphs of small treewidth,
    Algorithmica 2000), in O(n k^3) time.  An edge of `g` that lies in no
    bag raises BadSequence naming the first such edge: `seq` then
    witnesses no width for `g`.
    """
    if set(seq.vertices) != set(g.vertices):
        raise BadSequence("sequence and graph disagree on the vertex set")
    bags = [sorted(b) for b in composition_to_decomposition(seq).bags]
    # bags are sorted, so (bag[a], bag[b]) with a < b is an edge key
    composed = {pair for bag in bags for pair in combinations(bag, 2)}
    scale = integer_scale(g)
    scaled = {}
    for (u, v), length in g.edges():
        if (u, v) not in composed:
            raise BadSequence(f"edge ({u!r}, {v!r}) of the graph lies in no bag of the sequence")
        scaled[u, v] = length.numerator * (scale // length.denominator)
    mats = [[[0 if x == y else scaled.get((x, y) if x < y else (y, x)) for y in bag]
             for x in bag] for bag in bags]
    _close(mats[0])
    for i in range(1, len(bags)):
        _carry(bags[i - 1], mats[i - 1], bags[i], mats[i])
    for i in range(len(bags) - 2, -1, -1):
        _carry(bags[i + 1], mats[i + 1], bags[i], mats[i])
    dists = {}
    for bag, mat in zip(bags, mats):
        for a, x in enumerate(bag):
            row = mat[a]
            for b in range(a + 1, len(bag)):
                dists[x, bag[b]] = row[b]
    return dists, scale


def _carry(src_bag, src, bag, mat):
    """Lower `mat` to `src`'s distances on the vertices both bags hold, then close it."""
    pos = {v: i for i, v in enumerate(src_bag)}
    shared = [(a, pos[v]) for a, v in enumerate(bag) if v in pos]
    for a, sa in shared:
        row, src_row = mat[a], src[sa]
        for b, sb in shared:
            d = src_row[sb]
            if d is not None and (row[b] is None or d < row[b]):
                row[b] = d
    _close(mat)


def _close(mat):
    """Floyd-Warshall on a small symmetric matrix; None is infinity."""
    size = len(mat)
    for t in range(size):
        via = mat[t]
        for a in range(size):
            row = mat[a]
            d_at = row[t]
            if d_at is None:
                continue
            for b in range(size):
                d_tb = via[b]
                if d_tb is not None:
                    d = d_at + d_tb
                    if row[b] is None or d < row[b]:
                        row[b] = d


def composed_metric_graph(g: MetricGraph, seq: LinearCompositionSequence) -> MetricGraph:
    """Composed graph of `seq` carrying the reduced metric of `g`.

    Every composed edge gets length d_g of its endpoints, read from
    `bag_distances` (no all-pairs run), so the result is reduced and
    realizes exactly the same pseudometric as `g`.  This is the canonical
    input for the embedding algorithms when `g` is a proper subgraph of the
    composed graph; its lengths on the edges of `g` are also the source
    distances of an edges-mode `estimate_distortion`.  An edge of `g` that
    lies in no bag of `seq` raises BadSequence, and a composed edge whose
    endpoints are disconnected in `g` raises InfiniteDistance.
    """
    dists, scale = bag_distances(g, seq)
    edges = []
    for (u, v), d in dists.items():
        if d is None:
            raise InfiniteDistance(f"{u!r} and {v!r} are disconnected in the input")
        edges.append((u, v, Fraction(d, scale)))
    return build_metric_graph(g.vertices, edges)


def normalize_decomposition(pd: PathDecomposition, g: MetricGraph) -> PathDecomposition:
    """Equivalent decomposition: every bag of size width+1, adjacent bags one swap apart.

    Padding vertices are borrowed from interval-adjacent bags, which keeps
    every vertex interval contiguous; large jumps between consecutive bags
    are interpolated by single-swap chains.  The output validates at the
    same width; the particular padding choice is not part of the contract.
    """
    k = validate_path_decomposition(g, pd)
    size = k + 1
    bags = [set(b) for b in pd.bags]

    while True:
        bags = _drop_redundant(bags)
        grown = False
        for i, bag in enumerate(bags):
            if len(bag) >= size:
                continue
            for j in (i + 1, i - 1):
                if 0 <= j < len(bags):
                    for v in sorted(bags[j] - bag):
                        if len(bag) >= size:
                            break
                        bag.add(v)
                        grown = True
        if not grown:
            break
    bags = _drop_redundant(bags)
    if any(len(b) != size for b in bags):
        raise DecompositionError("could not pad all bags to full size")

    out = [frozenset(bags[0])]
    for nxt in bags[1:]:
        cur = set(out[-1])
        removed = sorted(cur - nxt)
        added = sorted(set(nxt) - cur)
        for r, a in zip(removed, added):
            cur = (cur - {r}) | {a}
            out.append(frozenset(cur))
    return _check_width(g, PathDecomposition(out), k, "normalized decomposition")


def _drop_redundant(bags):
    out = []
    for bag in bags:
        if out and bag <= out[-1]:
            continue
        while out and out[-1] <= bag:
            out.pop()
        out.append(set(bag))
    return out


def decomposition_to_composition(pd: PathDecomposition, g: MetricGraph) -> LinearCompositionSequence:
    """Read a normalized decomposition as a linear composition sequence.

    The composed graph of the result contains `g` as a subgraph, and the
    round trip through composition_to_decomposition has the same width.
    A width-0 decomposition, of a graph without edges, is read at width 1,
    the least a sequence has: a path through the sorted vertices.
    """
    norm = normalize_decomposition(pd, g)
    bags = norm.bags
    k = norm.width
    if k == 0:
        verts = sorted(g.vertices)
        return LinearCompositionSequence(1, verts[:1], [(v, {v}) for v in verts[1:]])
    if len(bags) == 1:
        ordered = sorted(bags[0])
        v1, initial = ordered[-1], ordered[:-1]
    else:
        (v1,) = bags[0] - bags[1]
        initial = sorted(bags[0] - {v1})
    steps = []
    for i in range(len(bags)):
        v_new = v1 if i == 0 else next(iter(bags[i] - bags[i - 1]))
        if i + 1 < len(bags):
            window = bags[i] & bags[i + 1]
        else:
            window = frozenset(sorted(bags[i])[: k])
        steps.append((v_new, window))
    return LinearCompositionSequence(k, initial, steps)


# --- exact oracle (vertex separation search) --------------------------------

PATHWIDTH_ORACLE_LIMIT = 20


def exact_pathwidth(g: MetricGraph, limit: int = PATHWIDTH_ORACLE_LIMIT) -> int:
    """Exact pathwidth by vertex-separation search; exponential, n <= limit."""
    verts, adj = _vs_masks(g, limit)
    return _vs_width(adj, len(verts))


def exact_path_decomposition(g: MetricGraph, limit: int = PATHWIDTH_ORACLE_LIMIT) -> PathDecomposition:
    """Optimal-width decomposition recovered from a vertex-separation layout."""
    order, k, verts, adj = _vs_search(g, limit)
    bags = []
    prefix = 0
    for pos in order:
        # boundary of the prefix *before* this vertex, plus the vertex itself
        bag = {verts[pos]}
        rest = ~prefix
        for i in _bits(prefix):
            if adj[i] & rest:
                bag.add(verts[i])
        bags.append(bag)
        prefix |= 1 << pos
    return _check_width(g, PathDecomposition(bags), k, "layout decomposition")


def _vs_search(g: MetricGraph, limit):
    """(order, width, sorted vertices, bitmask adjacency) of an optimal layout:
    the width from the depth-first `_vs_fits`, then one breadth-first
    `_vs_layout` at that width, whose layout does not depend on the search
    that found the width."""
    verts, adj = _vs_masks(g, limit)
    n = len(verts)
    k = _vs_width(adj, n)
    return _vs_layout(adj, n, k), k, verts, adj


def _vs_masks(g: MetricGraph, limit):
    """(sorted vertices, bitmask adjacency over their positions)."""
    n = g.n
    if n > limit:
        raise TooLarge(f"{n} vertices exceeds the oracle limit of {limit}")
    if n == 0:
        raise TooLarge("empty graph")
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for (u, v) in g.edge_keys():
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return verts, adj


def _vs_width(adj, n):
    """The least k for which `_vs_fits` finds a layout."""
    k = 0
    while not _vs_fits(adj, n, k):
        k += 1
    return k


def _vs_fits(adj, n, k):
    """Whether some vertex order has vertex separation <= k.

    A depth-first search over the placed sets, each carried with its
    boundary, the placed vertices that still have an unplaced neighbour;
    it returns at the first full set.  A set is marked when it is pushed,
    and a marked set is skipped before its boundary is computed.

    When placing a vertex v leaves the boundary no larger than the
    parent's, that child is the set's only move (Coudert, Mazauric &
    Nisse, SEA 2014).  This is safe.  Let S be the parent, and take any
    completion of S whose prefixes all have boundaries of size <= k.  Move
    v to its front: a prefix that held v is unchanged, and one that did
    not, P with S <= P, becomes P plus v.  Placing v into a set X changes
    its boundary by [v has a neighbour outside X and v], as v joins at
    most once, minus the number of boundary vertices whose last unplaced
    neighbour is v, as each leaves.  From X = S to X = P the first term
    can only fall, and a vertex of S whose last unplaced neighbour is v
    keeps v as its last unplaced neighbour in P, so the second term can
    only rise.  So placing v grows P's boundary by no more than S's, that
    is by at most zero, and the new order has width <= k too.  A neutral
    child found marked is skipped like any other: it was pushed before,
    so the search reaches the full set from it if from S."""
    full = (1 << n) - 1
    seen = {0}
    stack = [(0, 0)]
    while stack:
        state, boundary = stack.pop()
        if state == full:
            return True
        size = boundary.bit_count()
        moves = []
        unplaced = full & ~state
        while unplaced:  # the bits inline, as in `_vs_layout`
            bit = unplaced & -unplaced
            unplaced ^= bit
            new = state | bit
            if new in seen:
                continue
            i = bit.bit_length() - 1
            rest = ~new
            b = boundary | bit if adj[i] & rest else boundary
            leaving = boundary & adj[i]
            while leaving:
                low = leaving & -leaving
                leaving ^= low
                if not adj[low.bit_length() - 1] & rest:
                    b ^= low
            grown = b.bit_count()
            if grown <= size:
                moves = [(new, b)]
                break
            if grown <= k:
                moves.append((new, b))
        for move in moves:
            seen.add(move[0])
            stack.append(move)
    return False


def _vs_layout(adj, n, k):
    """A vertex order witnessing vertex separation <= k, else None.

    A breadth-first search over the placed sets, each carried with its
    boundary, the placed vertices that still have an unplaced neighbour.
    Placing i updates it in place of a recount: i joins when it has an
    unplaced neighbour, and a boundary neighbour of i leaves when i was
    its last unplaced one."""
    full = (1 << n) - 1
    parents = {0: None}
    frontier = [(0, 0)]
    for _ in range(n):
        nxt = []
        for state, boundary in frontier:
            unplaced = full & ~state
            while unplaced:  # the bits inline: this loop is the search's cost
                bit = unplaced & -unplaced
                unplaced ^= bit
                new = state | bit
                if new in parents:
                    continue
                i = bit.bit_length() - 1
                rest = ~new
                b = boundary | bit if adj[i] & rest else boundary
                leaving = boundary & adj[i]
                while leaving:
                    low = leaving & -leaving
                    leaving ^= low
                    if not adj[low.bit_length() - 1] & rest:
                        b ^= low
                if b.bit_count() <= k:
                    parents[new] = (state, i)
                    nxt.append((new, b))
        frontier = nxt
        if not frontier:
            return None
    order = []
    state = full
    while parents[state] is not None:
        state, i = parents[state]
        order.append(i)
    order.reverse()
    return order


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --- trees ------------------------------------------------------------------
#
# Rooted critical labels (Ellis, Sudborough & Turner, "The vertex separation
# and search number of a graph", Inf. Comput. 1994).  Pathwidth equals
# vertex separation, and a tree has pathwidth >= p + 1 (p >= 1) exactly when
# some vertex has three branches of pathwidth >= p; any edge gives 1.
#
# The label of a rooted subtree S is a strictly decreasing tuple of entries
# 2*w + c.  The first entry has w = pw(S) and c = 1 when it is critical:
# some vertex x of S has two child branches of pathwidth w.  That x is
# unique, and a critical entry is followed by the label of S without x's
# subtree (nothing follows when x is the root).  A label depends only on
# the labels of the root's children, so one bottom-up pass labels every
# rooted subtree and one top-down pass labels every branch.


def _combine(children):
    """Label of a rooted tree from its children's (label, multiplicity) pairs."""
    rest = [(label, m) for label, m in children if label and m]
    out = []
    while True:
        if not rest:
            out.append(0)  # the root alone
            break
        top = max(label[0] for label, _ in rest) >> 1
        if top == 0:
            out.append(2)  # a star
            break
        heavy = [(label, m) for label, m in rest if label[0] >> 1 == top]
        count = sum(m for _, m in heavy)
        critical = any(label[0] & 1 for label, _ in heavy)
        if count >= 3 or (count == 2 and critical):
            out.append(2 * top + 2)  # three branches of width top meet
            break
        if count == 2:
            out.append(2 * top + 1)  # the root is the critical vertex
            break
        ((label, _),) = heavy
        if not critical:
            out.append(2 * top)
            break
        # the child's critical vertex x has two branches of width top; the
        # next round labels its third, the tree without x's subtree
        out.append(label[0])
        rest = [pair for pair in rest if pair[0][0] >> 1 < top]
        if len(label) > 1:
            rest.append((label[1:], 1))
    while len(out) > 1 and out[-1] >> 1 >= out[-2] >> 1:
        # the third branch at a critical vertex reached its width
        top = out[-2] >> 1
        del out[-2:]
        out.append(2 * top + 2)
    return tuple(out)


def _rooted(t: MetricGraph):
    """`spanning_links` of a tree; raises NotATree when m != n - 1 or the
    traversal misses a vertex.  The index lists are the caller's own: a peel
    removes the path from its neighbours' lists, so each component left
    (its vertices in `order`, root first, every other vertex keeping its
    parent) lists exactly its edges, and the label passes run on it as is."""
    adj, order, parent = spanning_links(t)
    if t.m != t.n - 1 or len(order) != t.n:
        raise NotATree(f"{t!r} is not a tree")
    return adj, order, parent


def _down_labels(adj, comp, parent, down):
    """Bottom-up pass: the label of every vertex's rooted subtree goes to
    `down`; returns the component's pathwidth."""
    for v in reversed(comp):
        counts = {}
        for u in adj[v]:
            if u != parent[v]:
                counts[down[u]] = counts.get(down[u], 0) + 1
        down[v] = _combine(counts.items())
    return down[comp[0]][0] >> 1


def _branch_widths(adj, comp, parent, down, up):
    """Pathwidth of a component and its branch table: for every vertex v,
    in ascending order, the pair (u, pw of the component of comp - v
    holding u) for each neighbour u.

    The top-down pass labels the branch above every vertex from its
    parent's other branches.  Those combines are cached per parent by the
    label left out, so a vertex runs one combine per distinct child label,
    not one per child: a spider with 10^4 equal legs costs one.
    """
    level = _down_labels(adj, comp, parent, down)
    for v in comp:  # up[v] is the label of the branch at v holding its parent
        counts = {}
        for u in adj[v]:
            label = up[v] if u == parent[v] else down[u]
            counts[label] = counts.get(label, 0) + 1
        without = {}
        for u in adj[v]:
            if u == parent[v]:
                continue
            label = down[u]
            if label not in without:
                counts[label] -= 1
                without[label] = _combine(counts.items())
                counts[label] += 1
            up[u] = without[label]
    return level, {v: [(u, (down[u] if parent[u] == v else up[v])[0] >> 1) for u in adj[v]]
                   for v in sorted(comp)}


def tree_pathwidth(t: MetricGraph) -> int:
    """Exact pathwidth of a tree from its rooted critical labels.

    One iterative bottom-up pass over the tree rooted at its lowest vertex
    combines the children's labels at every vertex: O(n log n) time, no
    recursion, so deep trees never reach the recursion limit.
    """
    adj, order, parent = _rooted(t)
    return _down_labels(adj, order, parent, [None] * t.n)


def peel_path(t: MetricGraph):
    """A simple path whose removal drops every component's pathwidth by one.

    A branch at v is heavy when it has the tree's full pathwidth; the heavy
    branches come from the branch table of `_branch_widths` (one bottom-up
    and one top-down label pass).  Follows the three structural cases (a
    vertex with no heavy branch, the all-one walk, and the two-heavy-branch
    path extended one vertex on each side); ties are broken by lowest
    vertex id.  Returns (path vertices, leftover components as
    MetricGraphs), each component built from its parent links.
    """
    adj, order, parent = _rooted(t)
    level, table = _branch_widths(adj, order, parent, [None] * t.n, [None] * t.n)
    if level < 2:
        raise PathwidthTooLow(f"pathwidth {level} tree has no peel path")
    path = _peel(adj, level, table)
    verts = t.vertices
    comps = []
    for comp in _split(adj, order, parent, path):
        links = (edge_key(verts[x], verts[parent[x]]) for x in comp[1:])
        comps.append(MetricGraph([verts[x] for x in comp], {e: t.length(*e) for e in links}))
    return [verts[v] for v in path], comps


def _peel(adj, level, table):
    """`peel_path` of a component of pathwidth `level` >= 2 with its branch table."""
    heavy = {}  # v -> the neighbours leading into its heavy branches
    for v, branches in table.items():
        heavy[v] = [u for u, width in branches if width == level]
        if not heavy[v]:
            # no branch at v carries the full pathwidth: v alone peels
            return [v]
    if all(len(us) == 1 for us in heavy.values()):
        return _greedy_walk(adj, heavy)
    return _two_sided_path(adj, heavy)


def _split(adj, comp, parent, path):
    """The components of comp without the peeled path, by lowest vertex.

    Removes the path from its neighbours' index lists, then splits in one
    pass over comp: a vertex joins its parent's component, and starts one
    when it is comp's root or its parent was peeled."""
    peeled = set(path)
    for p in path:
        for u in adj[p]:
            adj[u].remove(p)
    comps, where = [], {}  # where: a vertex -> its component
    for x in comp:
        if x not in peeled:
            c = where[x] = where.get(parent[x]) or []  # [] when x roots one
            if not c:
                comps.append(c)
            c.append(x)
    comps.sort(key=min)
    return comps


def _branch(adj, v, u):
    """Vertex set of the component of comp - v that holds its neighbour u."""
    seen = {v, u}
    stack = [u]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    seen.discard(v)
    return seen


def _greedy_walk(adj, heavy):
    """From the lowest leaf along each vertex's heavy branch, up to a repeat."""
    path = [next(v for v in heavy if len(adj[v]) == 1)]
    seen = {path[0]}
    while heavy[path[-1]][0] not in seen:
        path.append(heavy[path[-1]][0])
        seen.add(path[-1])
    return path


def _two_sided_path(adj, heavy):
    core = [v for v, us in heavy.items() if len(us) == 2]
    if len(core) == 1:
        (v,) = core
        w1, w2 = sorted(heavy[v], key=lambda u: min(_branch(adj, v, u)))
        return [w1, v, w2]
    # the heavy-core vertices induce a path; order it end to end, then
    # extend each end by its one heavy branch off the core
    core_set = set(core)
    ends = [v for v in core if len(core_set.intersection(adj[v])) == 1]
    if len(ends) != 2:
        raise BrokenInvariant(f"heavy core {core!r} does not induce a path")
    order = [ends[0]]
    prev = None
    while order[-1] != ends[1]:
        nxt = core_set.intersection(adj[order[-1]]) - {prev}
        prev = order[-1]
        order.append(min(nxt))
    if len(order) != len(core):
        raise BrokenInvariant(f"heavy core {core!r} does not induce a path")
    outer = [[u for u in heavy[end] if u not in core_set] for end in (order[0], order[-1])]
    if any(len(us) != 1 for us in outer):
        raise BrokenInvariant("a core end needs exactly one heavy branch off the core")
    return outer[0] + order + outer[1]


def _check_width(g: MetricGraph, pd: PathDecomposition, width: int, what: str):
    """Raise BrokenInvariant unless pd is a valid decomposition of g of `width`."""
    try:
        got = validate_path_decomposition(g, pd)
    except DecompositionError as exc:
        raise BrokenInvariant(f"{what} is invalid: {exc}") from exc
    if got != width:
        raise BrokenInvariant(f"{what} has width {got}, expected {width}")
    return pd


def tree_path_decomposition(t: MetricGraph) -> PathDecomposition:
    """Optimal-width path decomposition of a tree, built by recursive peeling.

    The tree is rooted once; every tree of the recursion is a component of
    that rooting, and one branch table per component gives its pathwidth
    and its peel path.  The components are disjoint, so they share one pair
    of label lists.  Bags hold vertex indices until the result, which is
    validated once.  The recursion depth is the pathwidth, O(log n).
    """
    adj, order, parent = _rooted(t)
    level, bags = _tree_bags(adj, order, parent, [None] * t.n, [None] * t.n)
    verts = t.vertices
    pd = PathDecomposition([verts[x] for x in bag] for bag in bags)
    return _check_width(t, pd, level, "tree decomposition")


def _tree_bags(adj, comp, parent, down, up):
    """(pathwidth, bags) of a component: along its peel path, the bags of
    the components attached at each path vertex, each with that vertex
    added, then the path edge onward."""
    level, table = _branch_widths(adj, comp, parent, down, up)
    if level <= 1:
        return level, _caterpillar_bags(adj, comp)
    path = _peel(adj, level, table)
    on_path = set(path)
    attach = {}
    for c in _split(adj, comp, parent, path):
        # a component hangs at its root's parent; the one holding comp's
        # root hangs at the path vertex whose parent is off the path
        at = parent[c[0]] if c[0] != comp[0] else next(
            p for p in path if parent[p] not in on_path)
        attach.setdefault(at, []).append(c)
    bags = []
    for i, v in enumerate(path):
        for c in attach.get(v, []):
            bags.extend(bag | {v} for bag in _tree_bags(adj, c, parent, down, up)[1])
        if i + 1 < len(path):
            bags.append(frozenset({v, path[i + 1]}))
    return level, bags


def _caterpillar_bags(adj, comp):
    """Bags of a component of pathwidth <= 1: along its spine from the lower
    end, each spine vertex's leaves in order, then the spine edge onward."""
    if len(comp) <= 2:
        return [frozenset(comp)]
    spine = {v for v in comp if len(adj[v]) >= 2}
    x = min(v for v in spine if sum(u in spine for u in adj[v]) <= 1)
    bags, prev = [], None
    while x is not None:
        bags += [frozenset({x, u}) for u in adj[x] if u not in spine]
        prev, x = x, next((u for u in adj[x] if u in spine and u != prev), None)
        if x is not None:
            bags.append(frozenset({prev, x}))
    return bags


# --- JSON interchange -------------------------------------------------------

def decomposition_to_json(pd: PathDecomposition) -> dict:
    return {"bags": [sorted(b) for b in pd.bags]}


def decomposition_from_json(data: dict) -> PathDecomposition:
    return PathDecomposition([frozenset(b) for b in data["bags"]])


def composition_to_json(seq: LinearCompositionSequence) -> dict:
    return {
        "k": seq.k,
        "initial": list(seq.initial),
        "steps": [{"new": v, "window": sorted(w)} for v, w in seq.steps],
    }


def composition_from_json(data: dict) -> LinearCompositionSequence:
    """The sequence of {"k": k, "initial": [...], "steps": [{"new": v,
    "window": [...]}, ...]}; a document of another shape, with a missing
    key, an `initial`, `steps` or `window` that is not an array, or a
    boolean vertex raises BadSequence."""
    try:
        initial = _json_array(data["initial"], "initial")
        steps = [(s["new"], _json_array(s["window"], "window"))
                 for s in _json_array(data["steps"], "steps")]
        # bool is an int subclass, and True == 1 would alias vertex 1
        for v in initial + [x for new, window in steps for x in (new, *window)]:
            if isinstance(v, bool):
                raise BadSequence(f"malformed composition JSON: vertex {v!r} is a boolean")
        return LinearCompositionSequence(data["k"], initial,
                                         [(v, frozenset(window)) for v, window in steps])
    except KeyError as exc:
        raise BadSequence(f"malformed composition JSON: missing key {exc}") from None
    except TypeError as exc:
        raise BadSequence(f"malformed composition JSON: {exc}") from None


def _json_array(value, key):
    """`value`, which must be a JSON array: a string or an object would be
    read as its characters or its keys."""
    if not isinstance(value, list):
        raise BadSequence(f"malformed composition JSON: {key} {value!r} is not an array")
    return value


def dump_composition(seq, path):
    with open(path, "w") as fh:
        json.dump(composition_to_json(seq), fh, sort_keys=True)
        fh.write("\n")


def load_composition(path) -> LinearCompositionSequence:
    with open(path) as fh:
        return composition_from_json(json.load(fh))
