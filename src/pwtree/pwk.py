"""Width-k embedding into random trees via an evolving clique-with-pendants.

The working subgraph always consists of a (k+1)-clique on the current
window plus pendant trees hanging off clique vertices.  When a vertex
leaves the window, all but one of its clique edges are deleted; the kept
edge is chosen among a random length-biased prefix of its edges by
maximum risk counter ("rank").  The final clique is replaced by its
minimum spanning tree, yielding a tree that inherits original lengths and
therefore never contracts.

This module holds only what sets the width-k embedding apart: its plan
and its step rule.  Everything after the plan is the sampler core of
`pw2`, shared with the width-2 warm-up.  `_plan` lists the departures of
the walk both samplers share (`pw2._departures`) once per (sequence,
metric, tau), with the candidates' exact prefix probabilities and their
float thresholds, and keeps the last plan.  The step rule (`_keep`) is a
pure function of a departure's state, the ranks of its clique's
C(k+1, 2) edges, and its drawn length: it returns the kept candidate and
the next departure's state.  The plan names it, with the all-zero start
state and the rank cap C(k+1, 2); a sample draws its prefix lengths
(`draw_prefixes`, through `pw2._draw`, which stops drawing at the
plan's last departure whose length can vary), and `pw2._realize` folds
the rule over them, memoised in the plan's transition table, so `_keep`
runs once per reachable transition, not once per sample and departure.
The table makes a plan unsafe to realize from two threads at once.
`pw2._sampled_tree` builds the tree, with its parent links, and the
exact enumerator (`pw2._distribution`) realizes every draw of positive
probability.  The cap is checked on every transition a sample reaches, and a breach raises
`InvariantViolated` and is never stored.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .graphs import MetricGraph, edge_key, minimum_spanning_tree
from .pathwidth import LinearCompositionSequence
# errors and the sampler core of pw2, re-exported here
from .pw2 import (  # noqa: F401
    InvariantViolated, MissingLength, NegativeTau, TooManyOutcomes, _build_plan, _departures,
    _distribution, _draw, _draw_lengths, _realize, _sampled_tree, check_tau, float_threshold,
    sample_prefix_length)


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
    is all tuples but for the transition table (`memo`), which
    `pw2._realize` alone reads and fills.  Each departure's candidates are
    sorted by (length, edge), and the final clique's spanning tree is its
    minimum one.  The start state holds a zero per clique edge, whose
    count is also the rank cap."""
    tau = check_tau(4 * seq.k if tau is None else tau)
    steps, layouts, clique = [], [], frozenset(seq.initial)
    for v, window, w, retained in _departures(seq, g):
        clique = window | {v}
        xs = sorted(retained, key=lambda x: (g.length(w, x), edge_key(w, x)))
        probs = tuple(eligible_probs([g.length(w, x) for x in xs], tau))
        steps.append([w, xs, probs, prefix_thresholds(probs)])
        layouts.append([edge_key(w, x) for x in xs]
                       + [edge_key(a, b) for a, b in combinations(xs, 2)])
    # the last step's clique is final: its departure never happens, and the
    # state after the last departure holds the pairs of its candidates
    del steps[-1:], layouts[-1:]
    layouts.append(layouts[-1][seq.k:] if layouts else [])
    for step, now, then in zip(steps, layouts, layouts[1:]):
        # an edge of the next clique is a pair of this one's candidates, or
        # one to the new vertex, which reads the zero past this state's end
        slot = {e: i for i, e in enumerate(now)}
        step.insert(2, tuple(slot.get(e, len(now)) for e in then))
    edges = comb(seq.k + 1, 2)
    return _build_plan(g, steps, minimum_spanning_tree(g, clique), _keep, edges, (0,) * edges)


def _pair(k, a, b):
    """The slot of the edge between candidates a < b in a state of width k."""
    return k + a * (2 * k - a - 1) // 2 + b - a - 1


def _keep(state, departure, j, cap):
    """The step rule: the departing vertex leaves the clique keeping one of
    its first `j` candidate edges; returns the kept candidate's position
    and the next departure's state.

    `state` holds a risk counter per edge of the departure's clique: its
    candidate edges in order, then each pair of candidates (`_pair`).  The
    kept edge has the largest rank among the eligible ones, ties going to
    the first.  Every eligible edge's rank goes up by one, and the ranks of
    the departing vertex's edges move to the kept edge's other endpoint
    (the anchor), where the vertex now hangs: each reaches the anchor's
    edge to the same endpoint unless that edge's rank is already higher.
    The next state reads the window's edges from this one (`out`).  The
    rule changes none of its arguments, so `pw2._realize` may keep the
    states it passes and gets back."""
    top = max(state[:j])
    if top >= cap:
        i = next(i for i in range(j) if state[i] >= cap)
        raise InvariantViolated(f"rank of {departure.edges[i][0]!r} would pass its cap {cap}")
    best, k = state.index(top), len(departure.anchors)
    ranks = [*state, 0]
    for i in range(k):
        if i != best:
            to = _pair(k, i, best) if i < best else _pair(k, best, i)
            bumped = state[i] + (i < j)
            if bumped > ranks[to]:
                ranks[to] = bumped
    return best, tuple([ranks[o] for o in departure.out])


def draw_prefixes(seq: LinearCompositionSequence, g: MetricGraph, rng,
                  tau=None) -> bytes:
    """A sample's random choices: the eligible-prefix length of every departure.

    Consumes `rng` exactly as `embed_pathwidthk` does, whose tree is a
    function of the result.  A length is at most k, so it packs into one
    byte per departure below k = 256 and into eight from there on."""
    lengths = _draw(_plan(seq, g, tau), rng)
    return bytes(lengths) if seq.k < 256 else array("Q", lengths).tobytes()


def embed_pathwidthk(seq: LinearCompositionSequence, g: MetricGraph, rng,
                     tau=None) -> MetricGraph:
    """Sample a random tree on the composed vertex set, lengths inherited.

    `g` must be the reduced metric graph on the composed edge set.  The
    sample draws its prefix lengths as `draw_prefixes` does, then applies
    the step rule with them."""
    plan = _plan(seq, g, tau)
    return _sampled_tree(g, plan, _realize(plan, _draw(plan, rng)))


def enumerate_pwk_distribution(seq: LinearCompositionSequence, g: MetricGraph,
                               tau=None, limit=1 << 20):
    """Exact output distribution as [(tree, probability)]; sums to 1.

    The sampler's step rule realized on every positive-probability draw of
    prefix lengths; `limit` bounds the number of those draws."""
    return _distribution(_plan(seq, g, tau), g, limit)
