"""Path decompositions, linear composition sequences, and pathwidth oracles.

The exact oracle works on any small graph via a reachability search over
vertex-separation prefixes.  Trees get a dedicated recursive algorithm
(three-branch splitting) plus the constructive path peeling that removes
a simple path and drops every remaining component's pathwidth by one.
"""

from __future__ import annotations

import json
from itertools import combinations

from .graphs import (
    MetricGraph,
    build_metric_graph,
    edge_key,
    is_tree,
    shortest_path_metric,
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
        self.k = int(k)
        self.initial = tuple(initial)
        self.steps = tuple((v, frozenset(w)) for v, w in steps)
        self._validate()

    def _validate(self):
        if self.k < 1:
            raise BadSequence("k must be positive")
        if len(set(self.initial)) != self.k:
            raise BadSequence(f"initial window must have {self.k} distinct vertices")
        seen = set(self.initial)
        window = frozenset(self.initial)
        for v, new_window in self.steps:
            if v in seen:
                raise BadSequence(f"vertex {v!r} introduced twice")
            seen.add(v)
            if len(new_window) != self.k or not new_window <= window | {v}:
                raise BadSequence(f"illegal retained window {sorted(new_window)!r}")
            window = new_window

    @property
    def vertices(self):
        return tuple(self.initial) + tuple(v for v, _ in self.steps)

    def windows(self):
        """The window after every stage, starting with the initial one."""
        out = [frozenset(self.initial)]
        out.extend(w for _, w in self.steps)
        return out

    def composed_edges(self):
        """Edge keys of the composed graph (clique + all attachments)."""
        edges = {edge_key(u, v) for u, v in combinations(self.initial, 2)}
        window = frozenset(self.initial)
        for v, new_window in self.steps:
            edges.update(edge_key(v, u) for u in window)
            window = new_window
        return edges

    def __repr__(self):
        return f"LinearCompositionSequence(k={self.k}, steps={len(self.steps)})"


def validate_path_decomposition(g: MetricGraph, pd: PathDecomposition) -> int:
    """Check the three conditions; returns the width, or raises naming the offender.

    Conditions: bags cover every vertex, every edge lies inside some bag,
    and each vertex occupies a contiguous interval of bag indices.
    """
    covered = set().union(*pd.bags)
    for v in g.vertices:
        if v not in covered:
            raise UncoveredVertex(f"vertex {v!r} appears in no bag")
    for (u, v) in g.edge_keys():
        if not any(u in b and v in b for b in pd.bags):
            raise UncoveredEdge(f"edge ({u!r}, {v!r}) is inside no bag")
    for v in covered:
        indices = [i for i, b in enumerate(pd.bags) if v in b]
        if indices[-1] - indices[0] + 1 != len(indices):
            raise BrokenInterval(f"bag indices of {v!r} are not contiguous: {indices}")
    return pd.width


def composition_to_decomposition(seq: LinearCompositionSequence) -> PathDecomposition:
    """Bags are the per-step cliques (previous window + new vertex)."""
    if not seq.steps:
        return PathDecomposition([frozenset(seq.initial)])
    bags = []
    window = frozenset(seq.initial)
    for v, new_window in seq.steps:
        bags.append(window | {v})
        window = new_window
    return PathDecomposition(bags)


def composed_graph(seq: LinearCompositionSequence) -> MetricGraph:
    """The composed graph of a sequence, with unit lengths."""
    return build_metric_graph(
        seq.vertices, [(u, v, 1) for u, v in seq.composed_edges()]
    )


def composed_metric_graph(g: MetricGraph, seq: LinearCompositionSequence) -> MetricGraph:
    """Composed graph of `seq` carrying the reduced metric of `g`.

    Every composed edge gets length d_g of its endpoints, so the result is
    reduced and realizes exactly the same pseudometric as `g`.  This is
    the canonical input for the embedding algorithms when `g` is a proper
    subgraph of the composed graph.  An edge of `g` that lies in no bag of
    `seq` (no composed edge) raises BadSequence: `seq` then witnesses no
    width for `g`.
    """
    if set(seq.vertices) != set(g.vertices):
        raise BadSequence("sequence and graph disagree on the vertex set")
    composed = seq.composed_edges()
    for (u, v), _ in g.edges():
        if (u, v) not in composed:
            raise BadSequence(f"edge ({u!r}, {v!r}) of the graph lies in no bag of the sequence")
    dm = shortest_path_metric(g)
    edges = []
    for u, v in composed:
        d = dm.dist(u, v)
        if d is None:
            raise InfiniteDistance(f"{u!r} and {v!r} are disconnected in the input")
        edges.append((u, v, d))
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
    norm = PathDecomposition(out)
    assert validate_path_decomposition(g, norm) == k
    return norm


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
    """
    norm = normalize_decomposition(pd, g)
    bags = norm.bags
    k = norm.width
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
    order, k = _vs_search(g, limit)
    return k


def exact_path_decomposition(g: MetricGraph, limit: int = PATHWIDTH_ORACLE_LIMIT) -> PathDecomposition:
    """Optimal-width decomposition recovered from a vertex-separation layout."""
    order, k = _vs_search(g, limit)
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for (u, v) in g.edge_keys():
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
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
    pd = PathDecomposition(bags)
    assert validate_path_decomposition(g, pd) == k
    return pd


def _vs_search(g: MetricGraph, limit):
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
    for k in range(n):
        order = _vs_layout(adj, n, k)
        if order is not None:
            return order, k
    raise AssertionError("unreachable: pathwidth is at most n - 1")


def _vs_layout(adj, n, k):
    """A vertex order witnessing vertex separation <= k, else None."""
    full = (1 << n) - 1
    parents = {0: None}
    frontier = [0]
    for _ in range(n):
        nxt = []
        for state in frontier:
            rest = full & ~state
            for i in _bits(rest):
                new = state | (1 << i)
                if new in parents:
                    continue
                boundary = 0
                rest2 = ~new
                for j in _bits(new):
                    if adj[j] & rest2:
                        boundary += 1
                        if boundary > k:
                            break
                if boundary <= k:
                    parents[new] = (state, i)
                    nxt.append(new)
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

def tree_pathwidth(t: MetricGraph) -> int:
    """Exact pathwidth of a tree via recursive three-branch analysis.

    A tree needs pathwidth p+1 exactly when some vertex has three branches
    of pathwidth at least p; caterpillars (pathwidth <= 1) are detected
    directly so long paths never recurse.
    """
    if not is_tree(t):
        raise NotATree("tree_pathwidth requires a tree")
    adj = {v: set(t.neighbors(v)) for v in t.vertices}
    return _tree_pw(adj, frozenset(t.vertices), {})


def _tree_pw(adj, comp, memo):
    got = memo.get(comp)
    if got is not None:
        return got
    if len(comp) == 1:
        memo[comp] = 0
        return 0
    if _is_caterpillar(adj, comp):
        memo[comp] = 1
        return 1
    best = 2
    for v in comp:
        if len(adj[v] & comp) < 3:
            continue
        branch_pws = sorted(
            (_tree_pw(adj, c, memo) for c in _split_components(adj, comp, v)),
            reverse=True,
        )
        if len(branch_pws) >= 3:
            best = max(best, branch_pws[2] + 1)
    memo[comp] = best
    return best


def _split_components(adj, comp, v):
    remaining = set(comp)
    remaining.discard(v)
    out = []
    while remaining:
        start = remaining.pop()
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in remaining:
                    remaining.discard(y)
                    seen.add(y)
                    stack.append(y)
        out.append(frozenset(seen))
    return out


def _is_caterpillar(adj, comp):
    if len(comp) <= 3:
        return True
    degree = {v: len(adj[v] & comp) for v in comp}
    spine = {v for v in comp if degree[v] >= 2}
    spine = {v for v in spine if any(u in spine for u in adj[v] & comp)} or spine
    # spine must induce a path (it is a subtree, so just check degrees)
    inner_edges = 0
    for v in spine:
        d = len(adj[v] & spine)
        if d > 2:
            return False
        inner_edges += d
    return inner_edges // 2 == len(spine) - 1 if spine else True


def peel_path(t: MetricGraph):
    """A simple path whose removal drops every component's pathwidth by one.

    Follows the three structural cases (a vertex with no heavy branch, the
    all-one walk, and the two-heavy-branch path extended one vertex on each
    side); ties are broken by lowest vertex id.  Returns (path vertices,
    leftover components as MetricGraphs).
    """
    if not is_tree(t):
        raise NotATree("peel_path requires a tree")
    level = tree_pathwidth(t)
    if level < 2:
        raise PathwidthTooLow(f"pathwidth {level} tree has no peel path")
    adj = {v: set(t.neighbors(v)) for v in t.vertices}
    memo = {}
    whole = frozenset(t.vertices)

    heavy = {}
    for v in sorted(t.vertices):
        heavy[v] = [
            c for c in _split_components(adj, whole, v)
            if _tree_pw(adj, c, memo) == level
        ]
        if not heavy[v]:
            # no branch at v carries the full pathwidth: v alone peels
            return [v], _forest_components(t, {v})
    alpha = {v: len(cs) for v, cs in heavy.items()}

    if all(a == 1 for a in alpha.values()):
        path = _greedy_walk(t, adj, heavy)
    else:
        path = _two_sided_path(adj, heavy, alpha)

    return path, _forest_components(t, set(path))


def _forest_components(t: MetricGraph, removed):
    adj = {v: set(t.neighbors(v)) for v in t.vertices}
    remaining = set(t.vertices) - removed
    comps = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in remaining and y not in seen:
                    seen.add(y)
                    stack.append(y)
        remaining -= seen
        comps.append(t.induced(seen))
    comps.sort(key=lambda c: min(c.vertices))
    return comps


def _greedy_walk(t, adj, heavy):
    leaves = sorted(v for v in t.vertices if len(adj[v]) == 1)
    x = leaves[0]
    path = [x]
    seen = {x}
    while True:
        (branch,) = heavy[x]
        candidates = sorted(adj[x] & branch)
        y = candidates[0]
        if y in seen:
            return path
        path.append(y)
        seen.add(y)
        x = y


def _two_sided_path(adj, heavy, alpha):
    core = sorted(v for v, a in alpha.items() if a == 2)
    core_set = set(core)
    if len(core) == 1:
        (v,) = core
        first, second = heavy[v]
        if min(first) > min(second):
            first, second = second, first
        w1 = min(adj[v] & first)
        w2 = min(adj[v] & second)
        return [w1, v, w2]
    # the heavy-core vertices induce a path; order it end to end
    ends = sorted(v for v in core if len(adj[v] & core_set) == 1)
    assert len(ends) == 2, "heavy core must induce a path"
    order = [ends[0]]
    prev = None
    while order[-1] != ends[1]:
        nxt = (adj[order[-1]] & core_set) - {prev}
        prev = order[-1]
        order.append(min(nxt))
    w1, w2 = order[0], order[-1]
    ext1 = _outer_neighbor(adj, heavy, w1, core_set)
    ext2 = _outer_neighbor(adj, heavy, w2, core_set)
    return [ext1] + order + [ext2]


def _outer_neighbor(adj, heavy, endpoint, core_set):
    for comp in sorted(heavy[endpoint], key=min):
        if not comp & core_set:
            return min(adj[endpoint] & comp)
    raise AssertionError("path endpoint must touch a heavy component off the core")


def tree_path_decomposition(t: MetricGraph) -> PathDecomposition:
    """Optimal-width path decomposition of a tree, built by recursive peeling."""
    if not is_tree(t):
        raise NotATree("tree_path_decomposition requires a tree")
    level = tree_pathwidth(t)
    if level == 0:
        return PathDecomposition([frozenset(t.vertices)])
    if level == 1:
        return _caterpillar_decomposition(t)
    path, components = peel_path(t)
    attach = {}
    path_set = set(path)
    for comp in components:
        for v in comp.vertices:
            for u in t.neighbors(v):
                if u in path_set:
                    attach.setdefault(u, []).append(comp)
    bags = []
    for i, v in enumerate(path):
        for comp in attach.get(v, []):
            for bag in tree_path_decomposition(comp).bags:
                bags.append(bag | {v})
        if i + 1 < len(path):
            bags.append(frozenset({v, path[i + 1]}))
    pd = PathDecomposition(bags)
    assert validate_path_decomposition(t, pd) == level
    return pd


def _caterpillar_decomposition(t: MetricGraph) -> PathDecomposition:
    adj = {v: set(t.neighbors(v)) for v in t.vertices}
    if t.n == 2:
        return PathDecomposition([frozenset(t.vertices)])
    spine = sorted(v for v in t.vertices if len(adj[v]) >= 2)
    if len(spine) == 1:
        center = spine[0]
        return PathDecomposition(
            [frozenset({center, leaf}) for leaf in sorted(adj[center])]
        )
    ends = [v for v in spine if len(adj[v] & set(spine)) == 1]
    order = [min(ends)]
    prev = None
    while len(order) < len(spine):
        nxt = (adj[order[-1]] & set(spine)) - {prev}
        prev = order[-1]
        order.append(min(nxt))
    bags = []
    for i, v in enumerate(order):
        for leaf in sorted(adj[v] - set(spine)):
            bags.append(frozenset({v, leaf}))
        if i + 1 < len(order):
            bags.append(frozenset({v, order[i + 1]}))
    return PathDecomposition(bags)


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
    return LinearCompositionSequence(
        data["k"],
        data["initial"],
        [(s["new"], frozenset(s["window"])) for s in data["steps"]],
    )


def dump_composition(seq, path):
    with open(path, "w") as fh:
        json.dump(composition_to_json(seq), fh, sort_keys=True)
        fh.write("\n")


def load_composition(path) -> LinearCompositionSequence:
    with open(path) as fh:
        return composition_from_json(json.load(fh))
