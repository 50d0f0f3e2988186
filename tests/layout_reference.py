"""The vertex-separation search with every boundary counted from scratch.

This is how `pwtree.pathwidth` searched before it carried each placed
set's boundary: for every candidate set it counts the placed vertices
that still have an unplaced neighbour.  The frontier order is the same,
so it finds the same layouts, and the tests keep it as their oracle.
"""

from pwtree.pathwidth import PathDecomposition


def vs_layout(adj, n, k):
    """A vertex order witnessing vertex separation <= k, else None."""
    full = (1 << n) - 1
    parents = {0: None}
    frontier = [0]
    for _ in range(n):
        nxt = []
        for state in frontier:
            for i in bits(full & ~state):
                new = state | (1 << i)
                if new in parents:
                    continue
                boundary = 0
                for j in bits(new):
                    if adj[j] & ~new:
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
    return order[::-1]


def bits(mask):
    """The positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def adjacency_masks(g):
    """(sorted vertices, bitmask adjacency over their positions)."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in g.edge_keys():
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return verts, adj


def exact_path_decomposition(g):
    """The decomposition of the least k's layout: each vertex's bag holds
    it and the boundary of the vertices placed before it."""
    verts, adj = adjacency_masks(g)
    n = len(verts)
    order = next(o for o in (vs_layout(adj, n, k) for k in range(n)) if o is not None)
    bags, placed = [], 0
    for i in order:
        bags.append({verts[i]} | {verts[j] for j in range(n)
                                  if placed >> j & 1 and adj[j] & ~placed})
        placed |= 1 << i
    return PathDecomposition(bags)
