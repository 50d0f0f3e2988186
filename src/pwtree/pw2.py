"""Random spanning trees of width-2 composition graphs, and the sampler
core both embeddings share.

Each step attaches the new vertex to both ends of the current window edge
and deletes one edge of the resulting triangle, biased toward keeping
short edges.  The output is a spanning subtree carrying original lengths,
so it never contracts any distance.  A step is a departure of the walk
both samplers share (`_departures`, which raises MissingLength for a
metric without every composed edge): one vertex w leaves the window,
attached by one edge to an anchor that stays.  If the new vertex x
departs, its anchors are the sorted window; if the window slides, they
are x and the endpoint that stays, so the new window edge always survives.

Both embeddings are a plan and a step rule, and differ only in those.
A rule has one signature, `step(state, departure, j, cap) -> (kept,
next state)`: it keeps one of the departure's first j candidates.  This
module's `_plan` lists the departures once per (sequence, metric, tau)
and keeps the last plan; its rule, `_step`, keeps anchor j - 1 and has
one state, the empty one.  `pwk` builds its own plan, with `_build_plan`
as here, and names its own rule, `pwk._keep`.  Everything after the plan
is shared.  A sample's only random choices are its drawn lengths, one
per departure (`_draw`): the departures up to the plan's last one whose
length can vary draw from the stream (`_draw_lengths`), and the rest take
their fixed lengths without a draw, so a plan that leaves nothing to vary
reads nothing from the stream.  `_realize` folds the plan's rule over
them from the plan's zero state, memoised in the plan's transition
table; `_sampled_tree` builds the tree, which carries its parent links
(`_links`), and checks it for n - 1 edges.  The exact enumerator
(`_distribution`) realizes every draw of positive probability the same
way, weighting each departure's lengths by `_length_distribution`.  The
table is a plan's one mutable part, so no plan is safe to realize from
two threads at once.
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
    on the thresholds in its last field, inlined (no call per step).  Only
    `_draw` and `sample_prefix_length` call it."""
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


def _fixed_length(thresholds):
    """The length that `thresholds` draw whatever the stream gives, or None
    where it can vary: a draw is always below a None or 1.0 threshold, so
    it extends, and never below 0.0, so it stops.  The float thresholds,
    not the exact probabilities, decide, as they are what a draw reads."""
    j = 1
    for thr in thresholds:
        if thr == 0.0:
            return j
        if thr is not None and thr != 1.0:
            return None
        j += 1
    return j


class _Departure(NamedTuple):
    """A vertex leaving the window, with its candidate edges to the vertices
    that stay; drawn length j makes candidates 1..j eligible.  Vertices are
    indices in sorted vertex order.  In `pwk` the candidates are sorted by
    (length, edge), and a state lays out the clique's edges as `pwk._keep`
    reads them; `pw2`'s one state is empty."""
    w: int
    anchors: tuple     # each candidate's other endpoint
    edges: tuple       # each candidate's (edge key, length)
    scaled: tuple      # each candidate's length times the plan's scale
    out: tuple         # per rank of the next state, its slot in this one's
    probs: tuple       # exact eligible-prefix probabilities, for the enumerator
    thresholds: tuple  # their float thresholds, None where saturated at 1


class _Plan(NamedTuple):
    """Everything that does not depend on the sample, the step rule, and
    the table of the rule's transitions that samples have reached (`memo`).

    The kept edge of a departing vertex leads to an anchor that departs
    later or stays in the final clique (in `pw2`, the final window), so
    every sample is one tree whose parent links differ only at the
    departing vertices: `parent` and `scaled` hold the final clique's
    spanning tree, rooted at its first vertex (its own parent), and `order`
    lists every vertex after its parent: that clique from its root, then
    the departures in reverse."""
    departures: tuple
    drawn: tuple       # the departures up to the last whose length can vary
    fixed: tuple       # the fixed lengths of the departures after it
    mst: tuple         # the final clique's spanning tree as (edge key, length)
    order: tuple
    parent: tuple
    scaled: tuple      # per vertex, the length to its parent times `scale`
    scale: int
    step: object       # the step rule, (state, departure, j, cap) -> (kept, next state)
    cap: int           # pwk's rank cap
    memo: tuple        # the transition table, mutable and read by `_realize` alone


def _departures(seq: LinearCompositionSequence, g: MetricGraph):
    """Both samplers' walk, `seq.departures()`, once `g` is known to hold
    every composed edge."""
    for a, b in sorted(seq.composed_edges()):
        if not g.has_edge(a, b):
            raise MissingLength(f"composed edge ({a!r}, {b!r}) absent from the metric")
    return seq.departures()


def _build_plan(g: MetricGraph, steps, mst, step, cap=0, zero=()) -> _Plan:
    """The plan of `steps`, one (w, anchors, out, probs, thresholds) per
    departure with w and its anchors as vertices, of `mst`, the edge keys
    of the final clique's spanning tree, and of the step rule `step`, with
    an empty transition table that `_realize` starts from the state
    `zero`.  The plan splits its departures at the last one whose length
    can vary (`_fixed_length`): those up to it draw, and the fixed lengths
    of those after it are kept."""
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
    lengths = [_fixed_length(d.thresholds) for d in departures]
    varied = max((t + 1 for t, j in enumerate(lengths) if j is None), default=0)
    # the table: per departure its transitions and its next states interned
    return _Plan(tuple(departures), tuple(departures[:varied]), tuple(lengths[varied:]), mst,
                 tuple(order), tuple(parent), tuple(to_parent), scale, step, cap,
                 (tuple({} for _ in departures), tuple({} for _ in departures), zero))


def _draw(plan, rng):
    """A sample's drawn lengths, one per departure of `plan`: the
    departures up to its last one whose length can vary draw from `rng`,
    the fixed ones among them too, since each draw moves the stream that
    later ones read, and the rest take their fixed lengths.  Every sampler
    draws here, so an outcome and its realization consume a stream alike."""
    lengths = _draw_lengths(plan.drawn, rng)
    lengths += plan.fixed
    return lengths


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


def _realize(plan, lengths):
    """The kept candidate of every departure for its drawn lengths: the
    plan's step rule folded over them from the zero state.

    The rule reads a sample's past only through its state, so each
    departure keeps its transitions, (state id, length) -> (kept
    candidate, next state id, next state), in the plan's memo, and the rule
    runs once per transition a sample reaches.  A state id is a multiple of
    one more than a state's size, which bounds every length wherever there
    is more than one state (pwk's C(k+1, 2) ranks, lengths at most k; pw2
    has one state), so their sum keys the transition; a transition that
    raises in the rule, as a breach of pwk's cap does, is never stored.
    The memo is this function's alone."""
    tables, interned, state = plan.memo
    departures, step, cap, stride = plan.departures, plan.step, plan.cap, len(state) + 1
    kept, s = [], 0
    for t, j in enumerate(lengths):
        hit = tables[t].get(s + j)
        if hit is None:
            i, after = step(state, departures[t], j, cap)
            ids = interned[t]
            hit = tables[t][s + j] = i, ids.setdefault(after, len(ids) * stride), after
        i, s, state = hit
        kept.append(i)
    return kept


def _length_distribution(departure):
    """[(j, P[the drawn length is j])] over the lengths of positive
    probability, ascending: P[reach j] * (1 - probs[j - 1]), where
    probs[j - 1] is the exact P[the length extends past j] and the last
    length never extends.  The probabilities sum to exactly 1."""
    lengths, reach = [], Fraction(1)
    for j, p in enumerate(departure.probs + (0,), 1):
        p_j, reach = reach * (1 - p), reach * p
        if p_j:
            lengths.append((j, p_j))
    return lengths


def _distribution(plan, g: MetricGraph, limit):
    """Exact output distribution of a sampler as [(tree, probability)],
    sorted by the trees' edge keys.

    Every draw of positive probability, one length per departure from
    `_length_distribution`, is realized once (`_realize`), into a tree by
    `_sampled_tree` as a sample is, and the draws are merged by tree, so
    the work is (draws x steps); more than `limit` draws raise
    TooManyOutcomes.  A step with one positive-probability length draws it
    with probability 1, so a draw's probability multiplies only the
    branching steps' ones.
    """
    options = [_length_distribution(d) for d in plan.departures]
    draws = math.prod(len(step) for step in options)
    if draws > limit:
        raise TooManyOutcomes(f"{draws} positive-probability draws exceed the limit {limit}")
    lengths = [step[0][0] for step in options]
    branching = [i for i, step in enumerate(options) if len(step) > 1]
    merged = {}
    for draw in product(*[options[i] for i in branching]):
        for i, (j, _) in zip(branching, draw):
            lengths[i] = j
        tree = _sampled_tree(g, plan, _realize(plan, lengths))
        merged[tree] = merged.get(tree, Fraction(0)) + math.prod(p for _, p in draw)
    result = sorted(merged.items(), key=lambda item: sorted(item[0].edge_keys()))
    if sum(p for _, p in result) != 1:
        raise InvariantViolated("enumerated probabilities do not sum to 1")
    return result


@lru_cache(maxsize=1)
def _plan(seq: LinearCompositionSequence, g: MetricGraph, tau):
    """The departures of (sequence, metric, tau), each with its two anchors
    and p = P[length 2], the probability of deleting the edge to the first
    anchor, with p's float threshold.  A sample draws at every step up to
    the plan's last one that can vary, at p = 1 or 0 too, and at none
    after it (`_draw`).  The final window's edge closes the tree.  A `tau`
    of None means DEFAULT_TAU."""
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
    return _build_plan(g, steps, [edge_key(*final)], _step)


def _step(state, departure, j, cap):
    """The step rule: drawn length j keeps anchor j - 1, in the one state."""
    return j - 1, state


def draw_coins(seq: LinearCompositionSequence, g: MetricGraph, rng,
               tau=None) -> bytes:
    """A sample's random choices: one byte per step, its drawn length, 2
    where it deletes the edge to the step's first anchor and 1 where it
    keeps it.  Consumes `rng` exactly as `embed_pathwidth2` does, whose
    tree is a function of the result."""
    return bytes(_draw(_plan(seq, g, tau), rng))


def embed_pathwidth2(seq: LinearCompositionSequence, g: MetricGraph, rng,
                     tau=None) -> MetricGraph:
    """Sample a random spanning tree of the composed graph of `seq`.

    `g` must be the reduced metric graph on the composed edge set; the
    returned tree keeps the lengths of the edges it retains and carries its
    parent links.  The sample draws its lengths as `draw_coins` does, then
    applies the step rule."""
    plan = _plan(seq, g, tau)
    return _sampled_tree(g, plan, _realize(plan, _draw(plan, rng)))


def enumerate_pw2_distribution(seq: LinearCompositionSequence, g: MetricGraph,
                               tau=None, limit=1 << 20):
    """Exact output distribution as [(tree, probability)]; sums to 1.

    The sampler's step rule realized on every positive-probability draw;
    `limit` bounds the number of those draws."""
    return _distribution(_plan(seq, g, tau), g, limit)
