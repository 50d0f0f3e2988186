"""Output checks that do not use pwtree: the benchmark's own distances.

Graphs are read from the JSON files the benchmark wrote.  Lengths are
scaled to integers by the lcm of their denominators, so every comparison
below is exact integer arithmetic.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from fractions import Fraction


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def graph_digest(graph_json) -> str:
    """sha256 of the canonical graph JSON, as reports name their instance."""
    return hashlib.sha256(json.dumps(graph_json, sort_keys=True).encode()).hexdigest()


class Distances:
    """Exact shortest-path distances of a graph file, by integer Dijkstra."""

    def __init__(self, graph_json):
        self.vertices = list(graph_json["vertices"])
        lengths = [(u, v, Fraction(l)) for u, v, l in graph_json["edges"]]
        self.scale = math.lcm(1, *(l.denominator for _, _, l in lengths))
        self.edges = {}
        self.adj = {v: [] for v in self.vertices}
        for u, v, l in lengths:
            ln = l.numerator * (self.scale // l.denominator)
            self.edges[(min(u, v), max(u, v))] = ln
            self.adj[u].append((v, ln))
            self.adj[v].append((u, ln))
        self._rows = {}

    def row(self, source):
        """Scaled distances from `source` to every vertex it reaches."""
        if source not in self._rows:
            dist = {source: 0}
            heap = [(0, source)]
            while heap:
                d, x = heapq.heappop(heap)
                if d > dist[x]:
                    continue
                for y, ln in self.adj[x]:
                    nd = d + ln
                    if y not in dist or nd < dist[y]:
                        dist[y] = nd
                        heapq.heappush(heap, (nd, y))
            self._rows[source] = dist
        return self._rows[source]

    def dist(self, u, v) -> Fraction:
        """d_G(u, v) as an exact rational; None when disconnected."""
        d = self.row(u).get(v)
        return None if d is None else Fraction(d, self.scale)


def check_embed_report(code, data, graph_json, dists, samples, seed, pairs):
    """Problems with one `pwtree embed` report; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    for key, want in (("samples", samples), ("seed", seed), ("pairs_mode", pairs),
                      ("noncontraction_ok", True), ("violations", 0), ("bound_ok", True),
                      ("instance", graph_digest(graph_json))):
        if report.get(key) != want:
            problems.append(f"{key} is {report.get(key)!r}, expected {want!r}")
    if pairs == "all":
        verts = sorted(dists.vertices)
        wanted = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
                  if dists.dist(u, v) is not None]
    else:
        wanted = sorted(dists.edges)
    positive = {p for p in wanted if dists.dist(*p) > 0}
    zero = {tuple(z["pair"]) for z in report.get("zero_distance_pairs", [])}
    if zero != set(wanted) - positive:
        problems.append("zero-distance pairs differ from the graph")
    seen = set()
    best = None
    for stat in report.get("pairs", []):
        pair = tuple(stat["pair"])
        seen.add(pair)
        if pair not in positive:
            problems.append(f"unexpected pair {pair}")
            continue
        d_g = dists.dist(*pair)
        source = Fraction(stat["source_distance"])
        mean = Fraction(stat["mean_distance"])
        stretch = Fraction(stat["mean_stretch"])
        if source != d_g:
            problems.append(f"{pair}: source_distance {source} != d_G {d_g}")
        if mean < d_g:
            problems.append(f"{pair}: mean_distance {mean} < d_G {d_g}")
        if stretch != mean / source or stretch < 1:
            problems.append(f"{pair}: mean_stretch {stretch} inconsistent")
        best = stretch if best is None else max(best, stretch)
    if seen != positive:
        problems.append(f"{len(positive - seen)} pairs missing from the report")
    if best is not None and Fraction(report.get("max_mean_stretch") or 0) != best:
        problems.append("max_mean_stretch is not the largest mean_stretch")
    return problems


def is_spanning_tree(vertices, edges) -> bool:
    """True when `edges` (vertex pairs) form a tree on exactly `vertices`."""
    vertices = set(vertices)
    if len(edges) != len(vertices) - 1:
        return False
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if u not in vertices or v not in vertices:
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check_inherited_tree(dists, tree_edges):
    """A spanning tree whose every edge has length d_G never contracts."""
    if not is_spanning_tree(dists.vertices, [(u, v) for u, v, _ in tree_edges]):
        return ["output is not a spanning tree"]
    bad = [(u, v) for u, v, l in tree_edges if Fraction(l) != dists.dist(u, v)]
    return [f"tree edge {e} does not carry d_G" for e in bad[:3]]


def integer_root(m: int, k: int) -> int:
    """r with r ** (2 ** k) == m, or -1 when m is no such power."""
    r = m
    for _ in range(k):
        r = math.isqrt(r)
    return r if r ** (2 ** k) == m else -1


def witness_expectation(k, m, source_json, target_json):
    """Threshold and mean target distance over source edges, for a path target."""
    r = integer_root(m, k)
    threshold = Fraction(r, (2 ** (8 + 2 * k)) * k)
    position = {}
    order = sorted(target_json["vertices"])
    lengths = {(min(u, v), max(u, v)): Fraction(l) for u, v, l in target_json["edges"]}
    at = Fraction(0)
    for a, b in zip([None] + order, order):
        if a is not None:
            at += lengths[(min(a, b), max(a, b))]
        position[b] = at
    edges = source_json["edges"]
    mean = sum(abs(position[u] - position[v]) for u, v, _ in edges) / len(edges)
    return threshold, mean


def tree_pathwidth_cap(n: int) -> int:
    """Largest pathwidth an n-vertex tree can have: 3^pw <= 2n + 1."""
    pw = 0
    while 3 ** (pw + 1) <= 2 * n + 1:
        pw += 1
    return pw
