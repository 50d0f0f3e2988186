"""Width-k embedding into random trees via an evolving clique-with-pendants.

The working subgraph always consists of a (k+1)-clique on the current
window plus pendant trees hanging off clique vertices.  When a vertex
leaves the window, all but one of its clique edges are deleted; the kept
edge is chosen among a random length-biased prefix of its edges by
maximum risk counter ("rank").  The final clique is replaced by its
minimum spanning tree, yielding a tree that inherits original lengths and
therefore never contracts.

Only the ranks depend on the sample, so a plan of the departures
(`_plan`) is built once per (sequence, metric, tau) and kept: every sample
of a run reuses it.  The plan numbers the vertices in sorted order and
gives each candidate edge an integer code and its length as a scaled
integer.  A sample's only random choices are its prefix lengths, one per
departure, drawn against the plan's float thresholds (`draw_prefixes`).
`_realize` applies the one step rule (`_keep`, on ranks keyed by edge
codes) per departure with those lengths and returns each departure's kept
candidate.  The sampler turns them into a tree that carries its parent
links: a departing vertex hangs from its anchor, which departs later or
stays in the final clique, so the links are known without a traversal and
the harness measures the tree from them.  The exact enumerator realizes
every draw of positive probability, weighted by the plan's exact
probabilities (`pw2._distribution`).  The rank cap C(k+1, 2) is checked at
every step and a breach raises `InvariantViolated`.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from typing import NamedTuple

from .graphs import MetricGraph, edge_key, integer_scale, minimum_spanning_tree
from .pathwidth import LinearCompositionSequence
# errors and the draw rule shared with pw2, re-exported here
from .pw2 import (  # noqa: F401
    InvariantViolated, NegativeTau, TooManyOutcomes, _distribution, _draw_lengths, check_tau,
    float_threshold, sample_prefix_length)


class MissingLength(ValueError):
    pass


def proven_bound(k) -> Fraction:
    """Proven ceiling on the expected stretch of any pair at width k."""
    return Fraction((4 * k) ** k) ** (comb(k + 1, 2) + 1) * (k + 1)


def eligible_probs(lengths, tau):
    """P[prefix extends past position j] for j = 1..k-1, exact rationals.

    A zero-over-zero step saturates to probability 1 (equal lengths)."""
    probs = []
    for a, b in zip(lengths, lengths[1:]):
        if b == 0:
            probs.append(Fraction(1))
        else:
            probs.append(min(Fraction(1), Fraction(tau) * Fraction(a) / Fraction(b)))
    return probs


def prefix_thresholds(probs):
    """Each probability's float threshold (`float_threshold`), None where p = 1."""
    return tuple(None if p == 1 else float_threshold(p) for p in probs)


class _Departure(NamedTuple):
    """A vertex leaving the clique, with its candidate edges to the retained
    window sorted by (length, edge).  Vertices are indices in sorted vertex
    order, and an edge's code is its position among the sorted composed
    edges, which hold every pair that shares a clique."""
    w: int
    anchors: tuple     # each candidate's other endpoint
    edges: tuple       # each candidate's (edge key, length)
    scaled: tuple      # each candidate's length times the plan's scale
    codes: tuple       # each candidate's edge code
    moves: tuple       # per kept candidate: (position of x, code of anchor-x) for every other x
    probs: tuple       # exact eligible-prefix probabilities, for the enumerator
    thresholds: tuple  # their float thresholds, None where saturated at 1


class _Plan(NamedTuple):
    """Everything that does not depend on the sample.

    The kept edge of a departing vertex leads to an anchor that departs
    later or stays in the final clique, so every sample is one tree whose
    parent links differ only at the departing vertices: `parent` and
    `scaled` hold the final clique's minimum spanning tree, rooted at its
    first vertex (its own parent), and `order` lists every vertex after its
    parent: that clique from its root, then the departures in reverse."""
    departures: tuple
    mst: tuple         # the final clique's spanning tree as (edge key, length)
    order: tuple
    parent: tuple
    scaled: tuple      # per vertex, the length to its parent times `scale`
    scale: int
    cap: int
    ncodes: int        # the number of edge codes: one per composed edge, in sorted order


@lru_cache(maxsize=1)
def _plan(seq: LinearCompositionSequence, g: MetricGraph, tau):
    """The plan of (sequence, metric, tau); it is cached and shared, so it
    is all tuples."""
    tau = check_tau(4 * seq.k if tau is None else tau)
    composed = sorted(seq.composed_edges())
    for a, b in composed:
        if not g.has_edge(a, b):
            raise MissingLength(f"composed edge ({a!r}, {b!r}) absent from the metric")
    index = {v: i for i, v in enumerate(g.vertices)}
    code = {e: i for i, e in enumerate(composed)}
    scale = integer_scale([g])

    def scaled(length):
        return length.numerator * (scale // length.denominator)

    departures = []
    clique = window = frozenset(seq.initial)
    for v, retained in seq.steps:
        clique = window | {v}
        (w,) = clique - retained
        ranked = sorted((g.length(w, x), edge_key(w, x), x) for x in retained)
        probs = tuple(eligible_probs([length for length, _, _ in ranked], tau))
        xs = [x for _, _, x in ranked]
        departures.append(_Departure(
            index[w], tuple(index[x] for x in xs), tuple((e, length) for length, e, _ in ranked),
            tuple(scaled(length) for length, _, _ in ranked),
            tuple(code[e] for _, e, _ in ranked),
            tuple(tuple((i, code[edge_key(a, x)]) for i, x in enumerate(xs) if x != a)
                  for a in xs),
            probs, prefix_thresholds(probs)))
        window = retained
    # the last step's clique is final: its departure never happens
    departures = tuple(departures[:-1])
    mst = tuple((e, g.length(*e)) for e in minimum_spanning_tree(g, clique))
    parent, to_parent = list(range(g.n)), [0] * g.n
    order = [min(index[v] for v in clique)]
    for x in order:  # the clique's few vertices, from the root
        for (a, b), length in mst:
            ia, ib = index[a], index[b]
            if x in (ia, ib) and ia + ib - x not in order:
                y = ia + ib - x
                parent[y], to_parent[y] = x, scaled(length)
                order.append(y)
    order += [d.w for d in reversed(departures)]
    return _Plan(departures, mst, tuple(order), tuple(parent), tuple(to_parent), scale,
                 comb(seq.k + 1, 2), len(composed))


def _keep(ranks, departure, j, cap):
    """The step rule: the departing vertex leaves the clique keeping one of
    its first `j` candidate edges; returns the kept candidate's position.

    `ranks` holds a risk counter per edge code.  The kept edge has the
    largest rank among the eligible ones, ties going to the first.  Every
    eligible edge's rank goes up by one, and the ranks of the departing
    vertex's edges move to the kept edge's other endpoint (the anchor),
    where the vertex now hangs: each reaches the anchor's edge to the same
    endpoint unless that edge's rank is already higher.  The departed
    edges are never read again, so their counters are left as they are."""
    old = [ranks[c] for c in departure.codes]
    top = max(old[:j])
    if top >= cap:
        i = next(i for i in range(j) if old[i] >= cap)
        raise InvariantViolated(f"rank of {departure.edges[i][0]!r} would pass its cap {cap}")
    best = old.index(top)
    for i, to in departure.moves[best]:
        bumped = old[i] + (i < j)
        if bumped > ranks[to]:
            ranks[to] = bumped
    return best


def _realize(plan, lengths):
    """The kept candidate of every departure for its prefix lengths: the
    step rule once per departure."""
    ranks, cap = [0] * plan.ncodes, plan.cap
    return [_keep(ranks, d, j, cap) for d, j in zip(plan.departures, lengths)]


def _edges(plan, lengths):
    """The sample's edges for its prefix lengths: the kept edges, then the
    final clique's minimum spanning tree."""
    return ([d.edges[i][0] for d, i in zip(plan.departures, _realize(plan, lengths))]
            + [e for e, _ in plan.mst])


def _sampled_tree(g, plan, kept):
    """The tree of the kept candidates, carrying its parent links
    (order, parent, scaled, scale) for the harness."""
    parent, scaled = list(plan.parent), list(plan.scaled)
    edges = {}
    for d, i in zip(plan.departures, kept):
        e, length = d.edges[i]
        edges[e] = length
        parent[d.w], scaled[d.w] = d.anchors[i], d.scaled[i]
    edges.update(plan.mst)
    tree = g.with_edges(edges)
    if tree.m != tree.n - 1:
        raise InvariantViolated(f"{tree.m} edges on {tree.n} vertices is not a tree")
    tree._links = plan.order, parent, scaled, plan.scale
    return tree


def draw_prefixes(seq: LinearCompositionSequence, g: MetricGraph, rng,
                  tau=None) -> bytes:
    """A sample's random choices: the eligible-prefix length of every departure.

    Consumes `rng` exactly as `embed_pathwidthk` does, whose tree is a
    function of the result.  A length is at most k, so it packs into one
    byte per departure below k = 256 and into eight from there on."""
    lengths = _draw_lengths(_plan(seq, g, tau).departures, rng)
    return bytes(lengths) if seq.k < 256 else array("Q", lengths).tobytes()


def embed_pathwidthk(seq: LinearCompositionSequence, g: MetricGraph, rng,
                     tau=None) -> MetricGraph:
    """Sample a random tree on the composed vertex set, lengths inherited.

    `g` must be the reduced metric graph on the composed edge set.  The
    sample draws its prefix lengths as `draw_prefixes` does, then applies
    the step rule with them."""
    plan = _plan(seq, g, tau)
    return _sampled_tree(g, plan, _realize(plan, _draw_lengths(plan.departures, rng)))


def enumerate_pwk_distribution(seq: LinearCompositionSequence, g: MetricGraph,
                               tau=None, limit=1 << 20):
    """Exact output distribution as [(tree, probability)]; sums to 1.

    The sampler's step rule realized on every positive-probability draw of
    prefix lengths; `limit` bounds the number of those draws."""
    plan = _plan(seq, g, tau)
    return _distribution(plan.departures, partial(_edges, plan), g, limit)
