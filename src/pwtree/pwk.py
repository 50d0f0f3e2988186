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
of a run reuses it.  A sample's only random choices are its prefix
lengths, one per departure, drawn against the plan's float thresholds
(`draw_prefixes`).  `_realize` applies the one step rule (`_keep`) per
departure with those lengths; the sampler calls it on its draw, and the
exact enumerator on every draw of positive probability, weighted by the
plan's exact probabilities (`pw2._distribution`).  The rank cap
C(k+1, 2) is checked at every step and a breach raises
`InvariantViolated`.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache, partial
from math import comb

from .graphs import MetricGraph, edge_key, minimum_spanning_tree
from .pathwidth import LinearCompositionSequence
# InvariantViolated, NegativeTau and TooManyOutcomes are shared with pw2 and re-exported here
from .pw2 import (  # noqa: F401
    InvariantViolated, NegativeTau, TooManyOutcomes, _distribution, _tree, check_tau,
    float_threshold)


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


def sample_prefix_length(thresholds, rng) -> int:
    """Draw an eligible-prefix length; a saturated step (None) extends without a draw."""
    j = 1
    for thr in thresholds:
        # a float draw is below thr exactly when it is below p
        if thr is not None and not (rng.random() < thr):
            break
        j += 1
    return j


@lru_cache(maxsize=1)
def _plan(seq: LinearCompositionSequence, g: MetricGraph, tau):
    """Everything that does not depend on the sample: (departures, mst, cap).

    Each departure is (w, ranked, probs, thresholds): the vertex leaving
    the clique, its edges to the retained window as ((edge,
    other_endpoint), ...) sorted by (length, edge), the eligible-prefix
    probabilities of those edges, exact for the enumerator, and their
    float thresholds for the sampler, None where the probability is
    saturated at 1.  `mst` lists the edges of the final clique's minimum
    spanning tree.  The plan is cached and shared, so it is all tuples.
    """
    tau = check_tau(4 * seq.k if tau is None else tau)
    for a, b in sorted(seq.composed_edges()):
        if not g.has_edge(a, b):
            raise MissingLength(f"composed edge ({a!r}, {b!r}) absent from the metric")
    departures = []
    clique = window = frozenset(seq.initial)
    for v, retained in seq.steps:
        clique = window | {v}
        (w,) = clique - retained
        ranked = sorted((g.length(w, x), edge_key(w, x), x) for x in retained)
        probs = tuple(eligible_probs([length for length, _, _ in ranked], tau))
        departures.append((
            w, tuple((e, x) for _, e, x in ranked), probs, prefix_thresholds(probs)))
        window = retained
    # the last step's clique is final: its departure never happens
    return tuple(departures[:-1]), minimum_spanning_tree(g, clique), comb(seq.k + 1, 2)


def _keep(ranks, w, ranked, j, cap):
    """The step rule: `w` leaves the clique keeping one of its first `j` edges.

    The kept edge has the largest rank among the eligible ones, ties going
    to the first.  Every eligible edge's rank goes up by one, and the ranks
    of `w`'s edges move to the kept edge's other endpoint (the anchor),
    where `w` now hangs.  Mutates `ranks` and returns the kept edge.
    """
    eligible = ranked[:j]
    kept, anchor = max(eligible, key=lambda cand: ranks.get(cand[0], 0))
    for e, _ in eligible:
        bumped = ranks.get(e, 0) + 1
        if bumped > cap:
            raise InvariantViolated(f"rank of {e!r} would pass its cap {cap}")
        ranks[e] = bumped
    for e, x in ranked:
        old = ranks.pop(e, 0)
        if x != anchor and old > ranks.get(edge_key(anchor, x), 0):
            ranks[edge_key(anchor, x)] = old
    return kept


def _prefix_lengths(departures, rng):
    return [sample_prefix_length(thresholds, rng) for _, _, _, thresholds in departures]


def _realize(plan, lengths):
    """The sample's edges for its prefix lengths: the step rule once per
    departure, then the final clique's minimum spanning tree."""
    departures, mst, cap = plan
    ranks = {}
    return [_keep(ranks, w, ranked, j, cap)
            for (w, ranked, _, _), j in zip(departures, lengths)] + list(mst)


def draw_prefixes(seq: LinearCompositionSequence, g: MetricGraph, rng,
                  tau=None) -> bytes:
    """A sample's random choices: the eligible-prefix length of every departure.

    Consumes `rng` exactly as `embed_pathwidthk` does, whose tree is a
    function of the result.  A length is at most k, so it packs into one
    byte per departure below k = 256 and into eight from there on."""
    lengths = _prefix_lengths(_plan(seq, g, tau)[0], rng)
    return bytes(lengths) if seq.k < 256 else array("Q", lengths).tobytes()


def embed_pathwidthk(seq: LinearCompositionSequence, g: MetricGraph, rng,
                     tau=None) -> MetricGraph:
    """Sample a random tree on the composed vertex set, lengths inherited.

    `g` must be the reduced metric graph on the composed edge set.  The
    sample draws its prefix lengths as `draw_prefixes` does, then applies
    the step rule with them."""
    plan = _plan(seq, g, tau)
    tree = _tree(g, _realize(plan, _prefix_lengths(plan[0], rng)))
    if tree.m != tree.n - 1:
        raise InvariantViolated(f"{tree.m} edges on {tree.n} vertices is not a tree")
    return tree


def enumerate_pwk_distribution(seq: LinearCompositionSequence, g: MetricGraph,
                               tau=None, limit=1 << 20):
    """Exact output distribution as [(tree, probability)]; sums to 1.

    The sampler's step rule realized on every positive-probability draw of
    prefix lengths; `limit` bounds the number of those draws."""
    plan = _plan(seq, g, tau)
    return _distribution(plan[0], partial(_realize, plan), g, limit)
