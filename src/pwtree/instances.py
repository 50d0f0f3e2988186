"""Generators: spider trees, nested-spider families, cycles, random corpora.

All generators assign vertex ids in a deterministic depth-first order, so
equal parameters always produce byte-identical graphs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import (
    MetricGraph,
    build_metric_graph,
    find,
    shortest_path_metric,  # not called here; bench/tracer.py wraps it in every importer
)
from .pathwidth import LinearCompositionSequence, bag_distances


class BadTruncation(ValueError):
    pass


def ceil_root(m: Fraction, r: int) -> int:
    """Smallest integer c >= 1 with c**r >= m, for exact rational m >= 1."""
    if m <= 1:
        return 1
    c = 1
    while Fraction(c) ** r < m:
        c += 1
    return c


def phi(i: int) -> MetricGraph:
    """Spider: a root joined to i disjoint unit paths of i edges each."""
    if i < 1:
        raise ValueError("spider parameter must be >= 1")
    edges = []
    nxt = 1
    for _ in range(i):
        prev = 0
        for _ in range(i):
            edges.append((prev, nxt, 1))
            prev = nxt
            nxt += 1
    return build_metric_graph(range(nxt), edges)


def psi(i: int, m) -> MetricGraph:
    """Depth-i nested spider with size parameter m (root is vertex 0)."""
    return psi_truncated(i, m, None)


def psi_truncated(i: int, m, branches) -> MetricGraph:
    """Nested spider keeping only ceil(branches) children of the root.

    `branches=None` keeps everything.  Each retained child subtree is the
    full (untruncated) construction; truncation applies at the root only.
    """
    if i < 1:
        raise ValueError("depth must be >= 1")
    m = Fraction(m)
    if m < 1:
        raise ValueError("size parameter must be >= 1")
    top = ceil_root(m, 2)
    if branches is None:
        keep = top
    else:
        keep = math.ceil(Fraction(branches))
        if not 1 <= keep <= top:
            raise BadTruncation(f"cannot keep {keep} of {top} root branches")
    edges = []
    counter = [1]
    for _ in range(keep):
        _psi_branch(i, m, 1, 0, edges, counter)
    return build_metric_graph(range(counter[0]), edges)


def _psi_branch(i, m, exponent, root, edges, counter):
    """One root branch: a path of ceil(m^(1/2^exponent)) unit edges, and at
    depth > 1 a recursive construction hung from the far endpoint."""
    arm = ceil_root(m, 2 ** exponent)
    prev = root
    for _ in range(arm):
        v = counter[0]
        counter[0] += 1
        edges.append((prev, v, 1))
        prev = v
    if i > 1:
        # the leaf becomes the root of the next-level spider on parameter sqrt(m)
        for _ in range(ceil_root(m, 2 ** (exponent + 1))):
            _psi_branch(i - 1, m, exponent + 1, prev, edges, counter)


def cycle(n: int, lengths=None):
    """n-cycle plus a width-2 composition whose windows walk around it.

    Returns (graph, sequence).  `lengths` optionally gives the n edge
    lengths in order (v0-v1, v1-v2, ..., v_{n-1}-v0); default all 1.
    """
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if lengths is None:
        lengths = [1] * n
    if len(lengths) != n:
        raise ValueError(f"expected {n} edge lengths")
    edges = [(j, (j + 1) % n, lengths[j]) for j in range(n)]
    g = build_metric_graph(range(n), edges)
    steps = [(j, frozenset({0, j})) for j in range(2, n)]
    seq = LinearCompositionSequence(2, (0, 1), steps)
    return g, seq


def random_pathwidth_graph(k: int, n: int, length_sampler, rng):
    """Random connected graph with a witnessing width-k composition.

    Draws a random composition sequence, keeps a random connected subset
    of its composed edges with lengths from `length_sampler(rng)`, and
    returns (graph, sequence).  The graph has pathwidth <= k by
    construction.  Its lengths are reduced: each kept edge gets the graph
    distance of its endpoints, read from the sequence's bag sweep
    (`bag_distances`, no all-pairs run), since every kept edge is a
    composed edge.  So a length is d_G, as is the length of the same edge
    in `composed_metric_graph(g, seq)`, where edges-mode source distances
    are read.
    """
    if n < k + 1:
        raise ValueError("need at least k+1 vertices")
    initial = tuple(range(k))
    steps = []
    window = list(initial)
    for v in range(k, n):
        pool = window + [v]
        rng.shuffle(pool)
        window = sorted(pool[:k])
        steps.append((v, frozenset(window)))
    seq = LinearCompositionSequence(k, initial, steps)

    composed = sorted(seq.composed_edges())
    rng.shuffle(composed)
    parent = list(range(n))
    kept = []
    for u, v in composed:
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            kept.append((u, v))
        elif rng.random() < 0.5:
            kept.append((u, v))
    weighted = [(u, v, length_sampler(rng)) for u, v in sorted(kept)]
    g = build_metric_graph(range(n), weighted)
    # reduce in place: every kept edge length becomes the graph distance
    dists, scale = bag_distances(g, seq)
    g = g.with_edges({e: Fraction(dists[e], scale) for e in g.edge_keys()})
    return g, seq


def unit_lengths(rng) -> Fraction:
    return Fraction(1)


def small_rational_lengths(rng) -> Fraction:
    """Random length num/den with num in 1..12, den in 1..4."""
    return Fraction(rng.randint(1, 12), rng.randint(1, 4))
