"""Reference shortest paths: a plain Dijkstra with `Fraction` priorities.

This is how pwtree computed distances before its scaled-integer kernel
(`graphs.shortest_path_metric`); the tests keep it as the oracle.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from conftest import adjacency


def dijkstra(adj, source):
    """{vertex: distance} for every vertex `source` reaches over `adj`
    (conftest's adjacency), itself at 0."""
    row = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, length in adj[v]:
            nd = d + length
            if u not in row or nd < row[u]:
                row[u] = nd
                heapq.heappush(heap, (nd, u))
    return row


def reference_distances(g):
    """{(u, v): distance or None} over every ordered pair of vertices."""
    out, adj = {}, adjacency(g)
    for u in g.vertices:
        row = dijkstra(adj, u)
        for v in g.vertices:
            out[(u, v)] = row.get(v)
    return out
