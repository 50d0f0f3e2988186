"""Random spanning trees of width-2 composition graphs.

Each step attaches the new vertex to both ends of the current window edge
and deletes one edge of the resulting triangle, biased toward keeping
short edges.  The output is a spanning subtree carrying original lengths,
so it never contracts any distance.

Nothing but the coin flips depends on the sample, so `_plan` lists the
steps once per (sequence, metric, tau) and keeps the last plan: every
sample of a run reuses it, and the exact enumerator takes its product
over the same steps.  A sample's coins, one per step, are its only
random choices (`draw_coins`); the sample deletes one edge per step by
its coin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

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


def _step_choices(g: MetricGraph, window, x, retained, tau):
    """The two possible deletions for one step: ((edge_to_delete, prob), ...).

    `window` is the current edge {u, v}, `x` the new vertex, `retained`
    the next window.  Exactly one listed edge is deleted.
    """
    u, v = sorted(window)
    if retained == frozenset((u, v)):
        try:
            p = pw2_deletion_probability(
                "same_window", g.length(u, x), g.length(v, x), tau=tau
            )
        except DegenerateZero:
            p = Fraction(1, 2)
        return (edge_key(u, x), p), (edge_key(v, x), 1 - p)
    if retained == frozenset((v, x)):
        keep_u, other = u, v
    elif retained == frozenset((u, x)):
        keep_u, other = v, u
    else:
        raise ValueError(f"retained window {sorted(retained)!r} not inside the triangle")
    # the slid window edge {other, x} always survives; the risk is between
    # the opposite new edge and the old window edge
    try:
        p = pw2_deletion_probability(
            "moved_window", g.length(keep_u, x), None, g.length(u, v), tau=tau
        )
    except DegenerateZero:
        p = Fraction(1, 2)
    return (edge_key(keep_u, x), p), (edge_key(u, v), 1 - p)


def float_threshold(p) -> float:
    """The smallest float >= p: for every float x, x < it exactly when x < p."""
    thr = float(p)
    return math.nextafter(thr, math.inf) if thr < p else thr


@lru_cache(maxsize=1)
def _plan(seq: LinearCompositionSequence, g: MetricGraph, tau):
    """Everything that does not depend on the sample: (first edge, steps).

    Each step is (added, (victim, p), (other, 1 - p), thr, window): the two
    new edges, the edge deleted with probability p and the one deleted
    otherwise, p's float threshold, and the next window's edge, which the
    step must keep.  A `tau` of None means DEFAULT_TAU.
    """
    tau = check_tau(DEFAULT_TAU if tau is None else tau)
    window = frozenset(seq.initial)
    steps = []
    for x, retained in seq.steps:
        u, v = sorted(window)
        choices = _step_choices(g, window, x, retained, tau)
        steps.append((
            (edge_key(u, x), edge_key(v, x)),
            *choices,
            float_threshold(choices[0][1]),
            edge_key(*retained),
        ))
        window = retained
    return edge_key(*seq.initial), tuple(steps)


def _tree(g, edges):
    return g.with_edges({e: g.length(*e) for e in edges})


def _coins(steps, rng):
    # a float draw is below thr exactly when it is below p
    return [rng.random() < thr for _, _, _, thr, _ in steps]


def draw_coins(seq: LinearCompositionSequence, g: MetricGraph, rng,
               tau=DEFAULT_TAU) -> bytes:
    """A sample's random choices: one byte per step, 1 where it deletes the
    step's victim.  Consumes `rng` exactly as `embed_pathwidth2` does,
    whose tree is a function of the result."""
    if seq.k != 2:
        raise WrongWidth(f"this construction needs k=2, got k={seq.k}")
    return bytes(_coins(_plan(seq, g, tau)[1], rng))


def embed_pathwidth2(seq: LinearCompositionSequence, g: MetricGraph, rng,
                     tau=DEFAULT_TAU) -> MetricGraph:
    """Sample a random spanning tree of the composed graph of `seq`.

    `g` must be the reduced metric graph on the composed edge set; the
    returned tree keeps the lengths of the edges it retains.  The sample
    flips its coins as `draw_coins` does, then deletes by them.
    """
    if seq.k != 2:
        raise WrongWidth(f"this construction needs k=2, got k={seq.k}")
    first, steps = _plan(seq, g, tau)
    tree = {first}
    for (added, (victim, _), (other, _), _, window), coin in zip(steps, _coins(steps, rng)):
        tree.update(added)
        tree.discard(victim if coin else other)
        if window not in tree:
            raise InvariantViolated(f"window edge {window!r} was deleted")
    return _tree(g, tree)


def enumerate_pw2_distribution(seq: LinearCompositionSequence, g: MetricGraph,
                               tau=DEFAULT_TAU, limit=1 << 20):
    """Exact output distribution as [(tree, probability)], probabilities sum to 1."""
    if seq.k != 2:
        raise WrongWidth(f"this construction needs k=2, got k={seq.k}")
    if 2 ** len(seq.steps) > limit:
        raise TooManyOutcomes(f"{len(seq.steps)} binary steps exceed the limit")
    first, steps = _plan(seq, g, tau)
    outcomes = {frozenset({first}): Fraction(1)}
    for added, *choices, _, _ in steps:
        nxt = {}
        for tree, prob in outcomes.items():
            grown = tree.union(added)
            for victim, p in choices:
                if p == 0:
                    continue
                key = grown - {victim}
                nxt[key] = nxt.get(key, Fraction(0)) + prob * p
        outcomes = nxt
    result = [(_tree(g, tree), prob) for tree, prob in outcomes.items()]
    result.sort(key=lambda pair: sorted(pair[0].edge_keys()))
    if sum(p for _, p in result) != 1:
        raise InvariantViolated("enumerated probabilities do not sum to 1")
    return result
