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
of a run reuses it.  The plan gives each candidate edge an integer code.
A sample's only random choices are its prefix lengths, one per departure,
drawn against the plan's float thresholds (`draw_prefixes`).  `_realize`
applies the one step rule (`_keep`, on ranks keyed by edge codes) per
departure with those lengths and returns each departure's kept candidate.
The plan and the tree come from the functions shared with `pw2`
(`pw2._build_plan`, `pw2._sampled_tree`): a departing vertex hangs from
its anchor, which departs later or stays in the final clique, so the tree
carries its parent links and the harness measures it from them.  The exact
enumerator realizes every draw of positive probability, weighted by the
plan's exact probabilities (`pw2._distribution`).  The rank cap C(k+1, 2)
is checked at every step and a breach raises `InvariantViolated`.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from math import comb

from .graphs import MetricGraph, edge_key, minimum_spanning_tree
from .pathwidth import LinearCompositionSequence
# errors, the draw rule and the plan and tree construction of pw2, re-exported here
from .pw2 import (  # noqa: F401
    InvariantViolated, NegativeTau, TooManyOutcomes, _build_plan, _distribution, _draw_lengths,
    _sampled_tree, check_tau, float_threshold, sample_prefix_length)


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


@lru_cache(maxsize=1)
def _plan(seq: LinearCompositionSequence, g: MetricGraph, tau):
    """The plan of (sequence, metric, tau); it is cached and shared, so it
    is all tuples.  Each departure's candidates are sorted by (length,
    edge), and the final clique's spanning tree is its minimum one."""
    tau = check_tau(4 * seq.k if tau is None else tau)
    composed = sorted(seq.composed_edges())
    for a, b in composed:
        if not g.has_edge(a, b):
            raise MissingLength(f"composed edge ({a!r}, {b!r}) absent from the metric")
    code = {e: i for i, e in enumerate(composed)}
    steps = []
    clique = window = frozenset(seq.initial)
    for v, retained in seq.steps:
        clique = window | {v}
        (w,) = clique - retained
        xs = sorted(retained, key=lambda x: (g.length(w, x), edge_key(w, x)))
        probs = tuple(eligible_probs([g.length(w, x) for x in xs], tau))
        steps.append((w, xs, tuple(code[edge_key(w, x)] for x in xs),
                      tuple(tuple((i, code[edge_key(a, x)]) for i, x in enumerate(xs) if x != a)
                            for a in xs),
                      probs, prefix_thresholds(probs)))
        window = retained
    # the last step's clique is final: its departure never happens
    return _build_plan(g, steps[:-1], minimum_spanning_tree(g, clique),
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
    return _distribution(_plan(seq, g, tau), _realize, g, limit)
