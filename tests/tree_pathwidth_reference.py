"""The memoised component recursion for tree pathwidth and path peeling.

This is the algorithm `pwtree.pathwidth` used before the rooted-label
scheme: `tree_pathwidth` recurses over every component reachable by
deleting vertices (memoised by vertex set, with a caterpillar test at
pathwidth 1), and `peel_path` splits the tree at every vertex to find its
heavy branches.  It runs in about O(n^3) and serves the tests as the
oracle for the labels, `peel_path` and `tree_path_decomposition`.  Its
pathwidth-1 bags come from its own caterpillar decomposition, which walks
the spine on the tree's neighbour sets (conftest's `neighbor_sets`).
"""

from conftest import neighbor_sets
from pwtree.graphs import MetricGraph, is_tree
from pwtree.pathwidth import (
    NotATree,
    PathDecomposition,
    PathwidthTooLow,
    validate_path_decomposition,
)


def tree_pathwidth(t: MetricGraph) -> int:
    if not is_tree(t):
        raise NotATree("tree_pathwidth requires a tree")
    adj = neighbor_sets(t)
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
    inner_edges = 0
    for v in spine:
        d = len(adj[v] & spine)
        if d > 2:
            return False
        inner_edges += d
    return inner_edges // 2 == len(spine) - 1 if spine else True


def peel_path(t: MetricGraph):
    if not is_tree(t):
        raise NotATree("peel_path requires a tree")
    level = tree_pathwidth(t)
    if level < 2:
        raise PathwidthTooLow(f"pathwidth {level} tree has no peel path")
    adj = neighbor_sets(t)
    memo = {}
    whole = frozenset(t.vertices)

    heavy = {}
    for v in sorted(t.vertices):
        heavy[v] = [
            c for c in _split_components(adj, whole, v)
            if _tree_pw(adj, c, memo) == level
        ]
        if not heavy[v]:
            return [v], _forest_components(t, {v})
    alpha = {v: len(cs) for v, cs in heavy.items()}

    if all(a == 1 for a in alpha.values()):
        path = _greedy_walk(t, adj, heavy)
    else:
        path = _two_sided_path(adj, heavy, alpha)

    return path, _forest_components(t, set(path))


def _forest_components(t: MetricGraph, removed):
    adj = neighbor_sets(t)
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
        y = sorted(adj[x] & branch)[0]
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
        return [min(adj[v] & first), v, min(adj[v] & second)]
    ends = sorted(v for v in core if len(adj[v] & core_set) == 1)
    assert len(ends) == 2, "heavy core must induce a path"
    order = [ends[0]]
    prev = None
    while order[-1] != ends[1]:
        nxt = (adj[order[-1]] & core_set) - {prev}
        prev = order[-1]
        order.append(min(nxt))
    ext1 = _outer_neighbor(adj, heavy, order[0], core_set)
    ext2 = _outer_neighbor(adj, heavy, order[-1], core_set)
    return [ext1] + order + [ext2]


def _outer_neighbor(adj, heavy, endpoint, core_set):
    for comp in sorted(heavy[endpoint], key=min):
        if not comp & core_set:
            return min(adj[endpoint] & comp)
    raise AssertionError("path endpoint must touch a heavy component off the core")


def tree_path_decomposition(t: MetricGraph) -> PathDecomposition:
    if not is_tree(t):
        raise NotATree("tree_path_decomposition requires a tree")
    level = tree_pathwidth(t)
    if level == 0:
        return PathDecomposition([frozenset(t.vertices)])
    if level == 1:
        return _caterpillar_decomposition(t)
    path, components = peel_path(t)
    attach, adj = {}, neighbor_sets(t)
    path_set = set(path)
    for comp in components:
        for v in comp.vertices:
            for u in adj[v]:
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
    adj = neighbor_sets(t)
    if t.n <= 2:
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
