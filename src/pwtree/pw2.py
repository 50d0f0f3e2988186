"""Random spanning trees of width-2 composition graphs, and the plan and
tree construction both samplers share.

Each step attaches the new vertex to both ends of the current window edge
and deletes one edge of the resulting triangle, biased toward keeping
short edges.  The output is a spanning subtree carrying original lengths,
so it never contracts any distance.  A step is a departure of the walk
both samplers share (`_departures`, which raises MissingLength for a
metric without every composed edge): one vertex w leaves the window,
attached by one edge to an anchor that stays.  If the new vertex x
departs, its anchors are the sorted window; if the window slides, they
are x and the endpoint that stays, so the new window edge always survives.

`_plan` lists the departures once per (sequence, metric, tau) and keeps
the last plan.  A sample's only random choices are its drawn lengths, one
per step (`draw_coins`); length j keeps anchor j - 1 (`_realize`).  Both
samplers build their plans with `_build_plan` and their trees, which carry
their parent links (`_links`), with `_sampled_tree`, which checks each for
n - 1 edges; the exact enumerator realizes every draw of positive
probability into a tree the same way (`_distribution`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .graphs import MetricGraph, edge_key, integer_scale
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


class MissingLength(ValueError):
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

    One ratio, len_uw over itself plus the other candidate edge: len_vw
    where the window stays (``same_window``), the old window edge len_uv
    where it slid to the other endpoint (``moved_window``), and there the
    deletion is capped, min(1, tau * ratio).  Raises DegenerateZero when
    the denominator vanishes; callers treat that as a fair coin since
    every distance involved is then zero.
    """
    if case not in ("same_window", "moved_window"):
        raise ValueError(f"unknown case {case!r}")
    len_uw = Fraction(len_uw)
    denom = len_uw + Fraction(len_vw if case == "same_window" else len_uv)
    if denom == 0:
        raise DegenerateZero("both candidate edges have length zero")
    ratio = len_uw / denom
    return ratio if case == "same_window" else min(Fraction(1), Fraction(tau) * ratio)


def float_threshold(p) -> float:
    """The smallest float >= p: for every float x, x < it exactly when x < p."""
    thr = float(p)
    return math.nextafter(thr, math.inf) if thr < p else thr


def sample_prefix_length(thresholds, rng) -> int:
    """Draw an eligible-prefix length; a saturated step (None) extends without a draw."""
    return _draw_lengths([(thresholds,)], rng)[0]


def _draw_lengths(steps, rng):
    """The one draw rule of both samplers: each step's `sample_prefix_length`
    on the thresholds in its last field, inlined (no call per step)."""
    lengths = []
    for step in steps:
        j = 1
        for thr in step[-1]:
            # a float draw is below thr exactly when it is below p
            if thr is not None and not (rng.random() < thr):
                break
            j += 1
        lengths.append(j)
    return lengths


class _Departure(NamedTuple):
    """A vertex leaving the window, with its candidate edges to the vertices
    that stay; drawn length j makes candidates 1..j eligible.  Vertices are
    indices in sorted vertex order.  In `pwk` the candidates are sorted by
    (length, edge), and a state lays out the clique's edges as `pwk._keep`
    reads them; `pw2` has no states."""
    w: int
    anchors: tuple     # each candidate's other endpoint
    edges: tuple       # each candidate's (edge key, length)
    scaled: tuple      # each candidate's length times the plan's scale
    out: tuple         # per rank of the next state, its slot in this one's
    probs: tuple       # exact eligible-prefix probabilities, for the enumerator
    thresholds: tuple  # their float thresholds, None where saturated at 1


class _Plan(NamedTuple):
    """Everything that does not depend on the sample, and pwk's table of
    the step rule's transitions that samples have reached (`memo`).

    The kept edge of a departing vertex leads to an anchor that departs
    later or stays in the final clique (in `pw2`, the final window), so
    every sample is one tree whose parent links differ only at the
    departing vertices: `parent` and `scaled` hold the final clique's
    spanning tree, rooted at its first vertex (its own parent), and `order`
    lists every vertex after its parent: that clique from its root, then
    the departures in reverse."""
    departures: tuple
    mst: tuple         # the final clique's spanning tree as (edge key, length)
    order: tuple
    parent: tuple
    scaled: tuple      # per vertex, the length to its parent times `scale`
    scale: int
    cap: int           # pwk's rank cap
    memo: tuple        # pwk's transition table, mutable and read by `pwk._realize` alone


def _departures(seq: LinearCompositionSequence, g: MetricGraph):
    """Both samplers' walk, `seq.departures()`, once `g` is known to hold
    every composed edge."""
    for a, b in sorted(seq.composed_edges()):
        if not g.has_edge(a, b):
            raise MissingLength(f"composed edge ({a!r}, {b!r}) absent from the metric")
    return seq.departures()


def _build_plan(g: MetricGraph, steps, mst, cap=0, memo=()) -> _Plan:
    """The plan of `steps`, one (w, anchors, out, probs, thresholds) per
    departure with w and its anchors as vertices, and of `mst`, the edge
    keys of the final clique's spanning tree."""
    index = {v: i for i, v in enumerate(g.vertices)}
    scale = integer_scale(g)

    def scaled(length):
        return length.numerator * (scale // length.denominator)

    departures = []
    for w, anchors, *rest in steps:
        edges = tuple((edge_key(w, x), g.length(w, x)) for x in anchors)
        departures.append(_Departure(index[w], tuple(index[x] for x in anchors), edges,
                                     tuple(scaled(length) for _, length in edges), *rest))
    mst = tuple((e, g.length(*e)) for e in mst)
    parent, to_parent = list(range(g.n)), [0] * g.n
    # the root is the final clique's lowest vertex: the lowest that never departs
    order = [min(set(range(g.n)).difference(d.w for d in departures))]
    for x in order:  # the clique's few vertices, from the root
        for (a, b), length in mst:
            ia, ib = index[a], index[b]
            if x in (ia, ib) and ia + ib - x not in order:
                y = ia + ib - x
                parent[y], to_parent[y] = x, scaled(length)
                order.append(y)
    order += [d.w for d in reversed(departures)]
    return _Plan(tuple(departures), mst, tuple(order), tuple(parent), tuple(to_parent), scale,
                 cap, memo)


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


def _distribution(plan, realize, g: MetricGraph, limit):
    """Exact output distribution of a sampler as [(tree, probability)],
    sorted by the trees' edge keys.

    Each departure's probs[j - 1] is the exact P[the drawn length extends
    past j]; `realize(plan, lengths)` maps a list of drawn lengths, one per
    departure, to the kept candidates.  Every draw of positive probability
    is realized once, into a tree by `_sampled_tree` as a sample is, and
    the draws are merged by tree, so the work is (draws x steps); more than
    `limit` draws raise TooManyOutcomes.  A step with one positive-
    probability length draws it with probability 1, so a draw's
    probability multiplies only the branching steps' ones.
    """
    options = []
    for d in plan.departures:
        # P[length j] = P[reach j] * P[stop at j]; the last never extends
        reach, step = Fraction(1), []
        for j, p in enumerate(d.probs + (0,), 1):
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
        tree = _sampled_tree(g, plan, realize(plan, lengths))
        merged[tree] = merged.get(tree, Fraction(0)) + math.prod(p for _, p in draw)
    result = sorted(merged.items(), key=lambda item: sorted(item[0].edge_keys()))
    if sum(p for _, p in result) != 1:
        raise InvariantViolated("enumerated probabilities do not sum to 1")
    return result


@lru_cache(maxsize=1)
def _plan(seq: LinearCompositionSequence, g: MetricGraph, tau):
    """The departures of (sequence, metric, tau), each with its two anchors
    and p = P[length 2], the probability of deleting the edge to the first
    anchor, with p's float threshold: every step draws, even at p = 1.  The
    final window's edge closes the tree.  A `tau` of None means
    DEFAULT_TAU."""
    if seq.k != 2:
        raise WrongWidth(f"this construction needs k=2, got k={seq.k}")
    tau = check_tau(DEFAULT_TAU if tau is None else tau)
    steps, final = [], seq.initial
    for x, window, w, final in _departures(seq, g):
        # after a slide, w's edge to the end that stays is the old window edge
        anchors = sorted(window) if w == x else (x, *(window - {w}))
        near, far = (g.length(w, a) for a in anchors)
        case = "same_window" if w == x else "moved_window"
        try:
            p = pw2_deletion_probability(case, near, far, far, tau)
        except DegenerateZero:
            p = Fraction(1, 2)
        steps.append((w, anchors, (), (p,), (float_threshold(p),)))
    return _build_plan(g, steps, [edge_key(*final)])


def _realize(plan, lengths):
    """The step rule: drawn length j keeps anchor j - 1."""
    return [j - 1 for j in lengths]


def draw_coins(seq: LinearCompositionSequence, g: MetricGraph, rng,
               tau=DEFAULT_TAU) -> bytes:
    """A sample's random choices: one byte per step, its drawn length, 2
    where it deletes the edge to the step's first anchor and 1 where it
    keeps it.  Consumes `rng` exactly as `embed_pathwidth2` does, whose
    tree is a function of the result."""
    return bytes(_draw_lengths(_plan(seq, g, tau).departures, rng))


def embed_pathwidth2(seq: LinearCompositionSequence, g: MetricGraph, rng,
                     tau=DEFAULT_TAU) -> MetricGraph:
    """Sample a random spanning tree of the composed graph of `seq`.

    `g` must be the reduced metric graph on the composed edge set; the
    returned tree keeps the lengths of the edges it retains and carries its
    parent links.  The sample draws its lengths as `draw_coins` does, then
    applies the step rule."""
    plan = _plan(seq, g, tau)
    return _sampled_tree(g, plan, _realize(plan, _draw_lengths(plan.departures, rng)))


def enumerate_pw2_distribution(seq: LinearCompositionSequence, g: MetricGraph,
                               tau=DEFAULT_TAU, limit=1 << 20):
    """Exact output distribution as [(tree, probability)]; sums to 1.

    The sampler's step rule realized on every positive-probability draw;
    `limit` bounds the number of those draws."""
    return _distribution(_plan(seq, g, tau), _realize, g, limit)
