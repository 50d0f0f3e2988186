"""Random spanning trees of width-2 composition graphs.

Each step attaches the new vertex to both ends of the current window edge
and deletes one edge of the resulting triangle, biased toward keeping
short edges.  The output is a spanning subtree carrying original lengths,
so it never contracts any distance.

Nothing but the coin flips depends on the sample, so `_plan` lists the
steps once per (sequence, metric, tau) and keeps the last plan: every
sample of a run reuses it.  A sample's only random choices are its drawn
lengths, one per step (`draw_coins`): length 2, with probability p,
deletes the step's victim and length 1 the other edge.  One step rule
(`_realize`) turns the lengths into the tree, both for the sampler and
for the exact enumerator, which realizes every draw of positive
probability (`_distribution`, shared with `pwk`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product

from .graphs import MetricGraph, edge_key
from .pathwidth import LinearCompositionSequence

DEFAULT_TAU = Fraction(12)


class WrongWidth(ValueError):
    pass


class DegenerateZero(ZeroDivisionError):
    pass


class TooManyOutcomes(ValueError):
    pass


class NegativeTau(ValueError):
    pass


class InvariantViolated(RuntimeError):
    """A property the analysis proves was found broken."""


def check_tau(tau) -> Fraction:
    """`tau` as an exact rational; a negative one makes no probability."""
    tau = Fraction(tau)
    if tau < 0:
        raise NegativeTau(f"tau must be non-negative, got {tau}")
    return tau


def pw2_deletion_probability(case: str, len_uw, len_vw, len_uv=None, tau=DEFAULT_TAU):
    """Probability of deleting the edge to the first window endpoint.

    ``same_window``: len_uw / (len_uw + len_vw).
    ``moved_window`` (window slid to the other endpoint): the deletion is
    capped, min(1, tau * len_uw / (len_uw + len_uv)).
    Raises DegenerateZero when the denominator vanishes; callers treat
    that as a fair coin since every distance involved is then zero.
    """
    len_uw = Fraction(len_uw)
    if case == "same_window":
        denom = len_uw + Fraction(len_vw)
        if denom == 0:
            raise DegenerateZero("both candidate edges have length zero")
        return len_uw / denom
    if case == "moved_window":
        denom = len_uw + Fraction(len_uv)
        if denom == 0:
            raise DegenerateZero("both candidate edges have length zero")
        return min(Fraction(1), Fraction(tau) * len_uw / denom)
    raise ValueError(f"unknown case {case!r}")


def float_threshold(p) -> float:
    """The smallest float >= p: for every float x, x < it exactly when x < p."""
    thr = float(p)
    return math.nextafter(thr, math.inf) if thr < p else thr


def _distribution(steps, realize, g: MetricGraph, limit):
    """Exact output distribution of a sampler as [(tree, probability)].

    Each step ends in (probs, thresholds), probs[j - 1] being the exact
    P[the drawn length extends past j]; `realize` maps a list of drawn
    lengths, one per step, to the sample's edges.  Every draw of positive
    probability is realized once and the draws are merged by tree, so the
    work is (draws x steps); more than `limit` draws raise TooManyOutcomes.
    A step with one positive-probability length draws it with probability
    1, so a draw's probability multiplies only the branching steps' ones.
    """
    options = []
    for *_, probs, _ in steps:
        # P[length j] = P[reach j] * P[stop at j]; the last never extends
        reach, step = Fraction(1), []
        for j, p in enumerate(probs + (0,), 1):
            p_j, reach = reach * (1 - p), reach * p
            if p_j:
                step.append((j, p_j))
        options.append(step)
    draws = math.prod(len(step) for step in options)
    if draws > limit:
        raise TooManyOutcomes(f"{draws} positive-probability draws exceed the limit {limit}")
    lengths = [step[0][0] for step in options]
    branching = [i for i, step in enumerate(options) if len(step) > 1]
    merged = {}
    for draw in product(*[options[i] for i in branching]):
        for i, (j, _) in zip(branching, draw):
            lengths[i] = j
        key = frozenset(realize(lengths))
        merged[key] = merged.get(key, Fraction(0)) + math.prod(p for _, p in draw)
    result = [(_tree(g, key), prob) for key, prob in sorted(
        merged.items(), key=lambda item: sorted(item[0]))]
    if sum(p for _, p in result) != 1:
        raise InvariantViolated("enumerated probabilities do not sum to 1")
    return result


@lru_cache(maxsize=1)
def _plan(seq: LinearCompositionSequence, g: MetricGraph, tau):
    """Everything that does not depend on the sample: (first edge, steps).

    Each step is (added, (other, victim), window, (p,), (thr,)): the two
    new edges, the edge deleted at drawn length 1 and the one deleted at
    length 2, which has probability p, the next window's edge, which the
    step must keep, and p's float threshold.  Every step draws, even at
    p = 1.  A `tau` of None means DEFAULT_TAU.
    """
    if seq.k != 2:
        raise WrongWidth(f"this construction needs k=2, got k={seq.k}")
    tau = check_tau(DEFAULT_TAU if tau is None else tau)
    u, v = sorted(seq.initial)
    steps = []
    for x, retained in seq.steps:
        if retained == {u, v}:
            deleted = edge_key(v, x), edge_key(u, x)
            risk = "same_window", g.length(u, x), g.length(v, x)
        else:
            # the slid window edge always survives; the risk is between
            # the opposite new edge and the old window edge
            keep = u if v in retained else v
            deleted = edge_key(u, v), edge_key(keep, x)
            risk = "moved_window", g.length(keep, x), None, g.length(u, v)
        try:
            p = pw2_deletion_probability(*risk, tau=tau)
        except DegenerateZero:
            p = Fraction(1, 2)
        steps.append(((edge_key(u, x), edge_key(v, x)), deleted, edge_key(*retained),
                      (p,), (float_threshold(p),)))
        u, v = sorted(retained)
    return edge_key(*seq.initial), tuple(steps)


def _tree(g, edges):
    return g.with_edges({e: g.length(*e) for e in edges})


def _lengths(steps, rng):
    # a float draw is below thr exactly when it is below p
    return [1 + (rng.random() < thr) for _, _, _, _, (thr,) in steps]


def _realize(plan, lengths):
    """The step rule: each step adds its two edges and deletes the one its
    drawn length names; the next window edge must survive."""
    first, steps = plan
    tree = {first}
    for (added, deleted, window, _, _), j in zip(steps, lengths):
        tree.update(added)
        tree.discard(deleted[j - 1])
        if window not in tree:
            raise InvariantViolated(f"window edge {window!r} was deleted")
    return tree


def draw_coins(seq: LinearCompositionSequence, g: MetricGraph, rng,
               tau=DEFAULT_TAU) -> bytes:
    """A sample's random choices: one byte per step, its drawn length, 2
    where it deletes the step's victim and 1 where it deletes the other
    edge.  Consumes `rng` exactly as `embed_pathwidth2` does, whose tree
    is a function of the result."""
    return bytes(_lengths(_plan(seq, g, tau)[1], rng))


def embed_pathwidth2(seq: LinearCompositionSequence, g: MetricGraph, rng,
                     tau=DEFAULT_TAU) -> MetricGraph:
    """Sample a random spanning tree of the composed graph of `seq`.

    `g` must be the reduced metric graph on the composed edge set; the
    returned tree keeps the lengths of the edges it retains.  The sample
    draws its lengths as `draw_coins` does, then applies the step rule.
    """
    plan = _plan(seq, g, tau)
    return _tree(g, _realize(plan, _lengths(plan[1], rng)))


def enumerate_pw2_distribution(seq: LinearCompositionSequence, g: MetricGraph,
                               tau=DEFAULT_TAU, limit=1 << 20):
    """Exact output distribution as [(tree, probability)]; sums to 1.

    The sampler's step rule realized on every positive-probability draw;
    `limit` bounds the number of those draws."""
    plan = _plan(seq, g, tau)
    return _distribution(plan[1], partial(_realize, plan), g, limit)
