"""Monte Carlo distortion estimation plus exact structural checkers.

Distances are exact rationals throughout; the only floating point is in
standard errors and sampling.  Per-sample random streams are derived from
(seed, sample index), so reports are bit-for-bit reproducible regardless
of how samples are scheduled, and a sample can be drawn again from its
index alone.  The estimate tallies equal samples and measures each
distinct one once, weighted by its count.  Every tree distance, of a
target, of the tree `s` of `check_close_to_P`, or of a source that is a
tree, comes from the tree's parent links, which only `_RootedTree` reads.
A tree sampled or enumerated by `pwk` or `pw2` carries its links, so it
is measured without a traversal; any other tree gets them from one
`graphs.spanning_links` call, the traversal that also serves `is_tree`
and the tree toolkit.  A rooted tree has one scale, that of its links,
and `estimate_distortion` is the one place that brings trees to a common
scale.  The distinct trees of one rooting and vertex map are measured
together (`_Bundle`), which keeps the first tree's links and every other
tree's links where they differ: over all pairs, one tree from its own
rows and several in walks along their order, `_WALK_WIDTH` trees at a
time; over the edges of g, each pair climbs once in the first tree, and
only the pairs whose path there crosses a link that varies are measured
per tree.  Every checker decides non-contraction in one function,
`_noncontraction`: under a bijection onto the target's vertices, a tree
whose n - 1 links each keep at least d_G of their ends' preimages
shrinks no pair, since a tree distance sums the links along its path and
d_G obeys the triangle inequality, so only a sample with a link that
contracts, or under another map, has its pairs compared one by one.  A
source is rooted when it is a tree, m = n - 1 and connected
(`_source_tree`), and any other source, a graph with a cycle or a
disconnected one, goes to `shortest_path_metric`; `_source_metric` gives
either one's all-pairs distances.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress
from operator import ne
from typing import Optional

from .graphs import (
    DistanceMatrix,
    MetricGraph,
    graph_to_json,
    integer_scale,
    shortest_path_metric,
    spanning_links,
)
from .pathwidth import tree_pathwidth


class BadDomain(ValueError):
    pass


class EmptyEdgeSet(ValueError):
    pass


class PreconditionFailed(ValueError):
    pass


class HypothesisViolation(ValueError):
    pass


class BadSourceMetric(ValueError):
    """A source metric that cannot give d_G on the edges of its graph."""


@dataclass(frozen=True)
class EmbeddingSample:
    """One realized embedding: source graph, target tree, vertex map; the
    harness raises PreconditionFailed for a target that is not a tree."""
    source: MetricGraph
    target: MetricGraph
    fmap: dict

    def image(self, v):
        return self.fmap[v]


def identity_sample(source: MetricGraph, target: MetricGraph) -> EmbeddingSample:
    return EmbeddingSample(source, target, {v: v for v in source.vertices})


@dataclass
class NonContractionVerdict:
    ok: bool
    violations: list  # (u, v, d_source, d_target)

    def __bool__(self):
        return self.ok


def check_noncontraction(sample: EmbeddingSample) -> NonContractionVerdict:
    """Exact check that no pairwise distance shrank; lists every violation.
    A source vertex that the sample does not map into its target raises
    PreconditionFailed.

    When the map is a bijection onto the target's vertices, the target's
    n - 1 edges decide it (`_noncontraction`): d_T(f u, f v) sums the
    edges along the tree path, and by the triangle inequality the d_G of
    their ends' preimages sum to at least d_G(u, v), so no pair shrinks if
    no edge does.  Only a sample with an edge that contracts, or under
    another map, is scanned pair by pair."""
    _check_mapped(sample, sample.source.vertices, "its source")
    return _noncontraction(sample, _RootedTree(sample.target))


def _check_mapped(sample, vertices, where, error=PreconditionFailed):
    """Raise `error` unless the sample maps each of `vertices`, those of the
    graph named `where`, to a vertex of its target."""
    fmap, targets = sample.fmap, set(sample.target.vertices)
    for v in vertices:
        if v not in fmap or fmap[v] not in targets:
            raise error(f"the sample does not map every vertex of {where} "
                        f"into its target (source vertex {v!r})")


def _noncontraction(sample, tree, s_tree=None) -> NonContractionVerdict:
    """The verdict of every checker on `sample`, which maps each source
    vertex into its target, rooted as `tree`; `s_tree` is the source's
    rooting, when the caller has it.

    Where the map is a bijection from the source's vertices onto the
    target's, the target's n - 1 links are checked first: if no link
    {a, b} is shorter than d_G(f⁻¹a, f⁻¹b), no pair shrinks, by the
    triangle inequality along each tree path.  d_G on those pairs comes
    from the source's rooting when the source is a tree, with no n x n
    table.  A link that contracts, or whose ends lie in two components of
    the source, is a violation itself; only then, or under any other map,
    are all pairs scanned (`_contracted_pairs`), so a passing verdict is
    the one the scan would give."""
    source = sample.source
    if s_tree is None:
        s_tree = _source_tree(source)
    # a source with a cycle, or more than one component, needs its table anyway
    dm_s = shortest_path_metric(source) if s_tree is None else None
    names, parent = tree.vertices, tree.parent
    inverse = {sample.fmap[v]: v for v in source.vertices}
    if len(inverse) == source.n == len(names):
        links = tree.order[1:]
        ends = [(inverse[names[x]], inverse[names[parent[x]]]) for x in links]
        if dm_s is None:
            index, s_scale = s_tree.index, s_tree.scale
            d_s = s_tree.pair_distances([(index[a], index[b]) for a, b in ends])
        else:
            s_scale, d_s = dm_s.scale, [dm_s.scaled(a, b) for a, b in ends]
        t_scale, to_parent = tree.scale, tree.to_parent
        if None not in d_s and all(d * t_scale <= to_parent[x] * s_scale
                                   for d, x in zip(d_s, links)):
            return NonContractionVerdict(True, [])
    if dm_s is None:
        dm_s = _tree_metric(s_tree)
    return _contracted_pairs(sample, dm_s, _tree_metric(tree))


def _contracted_pairs(sample, dm_s, dm_t) -> NonContractionVerdict:
    """The violations of `sample` over the source distances `dm_s` and the
    target distances `dm_t`, pair by pair in the order of `scaled_pairs`:
    a pair whose target distance is below its source distance, or whose
    source distance is infinite."""
    s_scale, t_scale, image = dm_s.scale, dm_t.scale, sample.image
    violations = []
    # scaled integers compared across the two scales; Fractions only for
    # output.  The target is a tree, so every d_t is finite
    for u, v, d_s in dm_s.scaled_pairs():
        d_t = dm_t.scaled(image(u), image(v))
        if d_s is None:
            violations.append((u, v, None, Fraction(d_t, t_scale)))
        elif d_t * s_scale < d_s * t_scale:
            violations.append((u, v, Fraction(d_s, s_scale), Fraction(d_t, t_scale)))
    return NonContractionVerdict(not violations, violations)


# --- Monte Carlo ------------------------------------------------------------

@dataclass
class PairStat:
    pair: tuple
    source_distance: Fraction
    mean_distance: Fraction
    mean_stretch: Fraction
    stderr: float  # of the stretch estimate


@dataclass
class StretchReport:
    instance_hash: str
    seed: int
    num_samples: int
    pairs_mode: str
    pair_stats: list = field(default_factory=list)
    max_mean_stretch: Optional[Fraction] = None
    max_stretch_pair: Optional[tuple] = None
    noncontraction_ok: bool = True
    violation_count: int = 0
    zero_distance_pairs: list = field(default_factory=list)  # (pair, mean d_T)

    def to_json(self) -> dict:
        def frac(x):
            return None if x is None else f"{x.numerator}/{x.denominator}"

        return {
            "instance": self.instance_hash,
            "seed": self.seed,
            "samples": self.num_samples,
            "pairs_mode": self.pairs_mode,
            "pairs": [
                {
                    "pair": list(s.pair),
                    "source_distance": frac(s.source_distance),
                    "mean_distance": frac(s.mean_distance),
                    "mean_stretch": frac(s.mean_stretch),
                    "stderr": repr(s.stderr),
                }
                for s in self.pair_stats
            ],
            "max_mean_stretch": frac(self.max_mean_stretch),
            "max_stretch_pair": (
                None if self.max_stretch_pair is None else list(self.max_stretch_pair)
            ),
            "noncontraction_ok": self.noncontraction_ok,
            "violations": self.violation_count,
            "zero_distance_pairs": [
                {"pair": list(p), "mean_distance": frac(m)}
                for p, m in self.zero_distance_pairs
            ],
        }


def instance_hash(g: MetricGraph) -> str:
    blob = json.dumps(graph_to_json(g), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def sample_rng(seed, index) -> random.Random:
    return random.Random(f"{seed}:{index}")


class _Stream:
    """The stream `sample_rng(seed, index)`, seeded at its first use, so a
    sample that reads nothing from it pays no seeding.  `sample_rng` is
    looked up then, not when the stream is made.  Seeding binds the
    generator's `random` on the instance, where later draws find it before
    the method, so they cost what a draw from the generator costs."""

    def __init__(self, seed, index):
        self._seed, self._index, self._rng = seed, index, None

    def random(self):
        return self._seeded().random()

    def __getattr__(self, name):
        # any other attribute of the generator, such as getstate
        return getattr(self._seeded(), name)

    def _seeded(self):
        if self._rng is None:
            self._rng = sample_rng(self._seed, self._index)
            self.random = self._rng.random
        return self._rng


def estimate_distortion(g: MetricGraph, embedder, num_samples: int, seed: int,
                        pairs: str = "all",
                        source_metric: Optional[MetricGraph] = None,
                        outcome=None) -> StretchReport:
    """Empirical expected stretch per pair, with an exact non-contraction sweep.

    `embedder(rng)` must return a target tree on the vertex set of `g`
    (identity map assumed) or an EmbeddingSample; a target that is not a
    tree, or a sample that does not map every vertex of `g` into its
    target, raises PreconditionFailed.  `pairs` selects which pairs are
    measured: "all" finite-distance pairs, or just the original "edges",
    each against d_G of its endpoints (not its raw length, which may exceed
    d_G on a non-reduced graph).  The source distances come from
    one all-pairs run on `g` (`_source_metric`: a rooting when `g` is a
    tree), except in edges mode with `source_metric`:
    a graph on the vertex set of `g` whose length on every edge of `g` is
    d_G, such as `composed_metric_graph(g, seq)`.  Each edge's d_G is then
    its length there, and no all-pairs run is made; a metric that lacks an
    edge of `g`, or gives one a length above its length in `g` or off the
    scale of `g`, raises BadSourceMetric.  "all" ignores `source_metric`.
    Means are exact rationals, also for a target tree whose lengths are off
    the scale of `g`; only stderr is floating point.  A tree is measured at
    the scale of its links (`_RootedTree`), and this is the one place that
    brings trees to a common scale: the sums are integers over the scale
    of `g` until a tree's scale does not divide it, then over the lcm of
    the two, and each tree's distances are multiplied over to it.

    Equal samples are tallied, and each distinct one is measured once and
    weighted by its count; the sums are exact integers, so the report is
    the same as measuring every sample.  Without `outcome`, samples are
    tallied by value (a bare tree by itself, and so an EmbeddingSample that
    maps each vertex of g to itself, any other by its target and vertex
    map), which holds every distinct sample until the end: O(distinct x n)
    memory.  `outcome(rng)` must draw from `rng` what `embedder(rng)`
    draws and return a hashable value that determines the sample, as
    `pwk.draw_prefixes` and `pw2.draw_coins` do.  The outcomes
    are then tallied instead, O(distinct x steps) memory for those two, and
    `embedder` runs once per distinct outcome, on the stream of its first
    sample.  The stream `outcome` gets is seeded at its first use: those
    two draw only up to their plan's last departure whose length can vary,
    so where no departure can vary a sample seeds no stream.  In both
    modes, every distinct tree joins the bundle of its rooting (its order
    and the scale of its links, as `_RootedTree` reads them) and its vertex
    map, and the bundles are measured after the tally (`_Bundle`).  The
    trees of one `pwk` or `pw2` plan share one bundle, which holds the
    first tree's links and each other tree's links only where they differ,
    with equal trees merged by count: O(n + differing links) memory per
    bundle.  Over all pairs, each pair costs a step per distinct distance
    it takes over the trees, not one per tree; over the edges, a pair whose
    path in the first tree crosses no link that varies is climbed once for
    all of them, and only the others are measured per tree.  So the time of
    a run hardly grows with its number of distinct samples.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if pairs not in ("all", "edges"):
        raise ValueError(f"unknown pairs mode {pairs!r}")
    # distances stay integers over one scale until the report: that of g,
    # refined to the lcm with the scale of each tree that does not fit it
    if pairs == "edges" and source_metric is not None:
        scale = integer_scale(g)
        measured = _edge_distances(g, source_metric, scale)
    else:
        dm = _source_metric(g)
        scale = dm.scale
        if pairs == "all":
            measured = [(u, v, d) for u, v, d in dm.scaled_pairs() if d is not None]
        else:
            measured = [(u, v, dm.scaled(u, v)) for (u, v), _ in g.edges()]

    index = {v: i for i, v in enumerate(g.vertices)}
    pair_idx = [(index[u], index[v]) for u, v, _ in measured]
    identity = tuple(range(g.n))
    sums = [0] * len(measured)
    sumsq = [0] * len(measured)
    violations = 0

    src_scaled = [d for _, _, d in measured]
    verts = g.vertices
    if outcome is None:
        results = (embedder(sample_rng(seed, i)) for i in range(num_samples))
        distinct = _tally((_value_key(r, verts), r) for r in results)
    else:
        firsts = _tally((outcome(_Stream(seed, i)), i) for i in range(num_samples))
        distinct = ((embedder(sample_rng(seed, first)), count) for first, count in firsts)
    bundles = {}  # the trees of one rooting and vertex map, measured after the loop
    for result, count in distinct:
        sample = result if isinstance(result, EmbeddingSample) else None
        target = result if sample is None else sample.target
        tree = _RootedTree(target)
        if scale % tree.scale:  # a tree off the scale: every integer so far moves to the lcm
            f = math.lcm(scale, tree.scale) // scale
            scale *= f
            sums[:] = [x * f for x in sums]
            sumsq[:] = [x * f * f for x in sumsq]
            src_scaled[:] = [d * f for d in src_scaled]
        img = None  # each vertex of g its own image, at its own index, as in a bare tree on them
        if sample is not None or tree.vertices != verts:
            sample = sample or identity_sample(g, target)
            try:
                img = tuple([tree.index[sample.fmap[v]] for v in verts])
            except KeyError:
                # names the vertex; the lookup above is the only per-sample check
                _check_mapped(sample, verts, "the graph")
                raise
            if img == identity:
                img = None
        key = tuple(tree.order), tree.scale, img
        bundle = bundles.get(key)
        if bundle is None:
            bundle = bundles[key] = _Bundle(tree)
        bundle.add(tree, count)
    read = _Bundle.all_pairs if pairs == "all" else _Bundle.edge_pairs
    for (_, _, img), bundle in bundles.items():
        ends = pair_idx if img is None else [(img[a], img[b]) for a, b in pair_idx]
        violations += read(bundle, sums, sumsq, src_scaled, ends, scale)

    stats = []
    zero_pairs = []
    best = None
    best_pair = None
    n = num_samples
    for j, (u, v, _) in enumerate(measured):
        d_src = src_scaled[j]
        mean_d = Fraction(sums[j], n * scale)
        if d_src == 0:
            zero_pairs.append(((u, v), mean_d))
            continue
        mean_stretch = Fraction(sums[j], n * d_src)
        # Var/n of the scaled distance over the squared scaled source distance:
        # integers until one correctly rounded division, so nothing cancels
        # or overflows
        spread = n * sumsq[j] - sums[j] * sums[j]
        stderr = math.sqrt(spread / (n ** 3 * d_src ** 2))
        stats.append(PairStat((u, v), Fraction(d_src, scale), mean_d, mean_stretch, stderr))
        if best is None or mean_stretch > best:
            best, best_pair = mean_stretch, (u, v)
    return StretchReport(
        instance_hash=instance_hash(g),
        seed=seed,
        num_samples=num_samples,
        pairs_mode=pairs,
        pair_stats=stats,
        max_mean_stretch=best,
        max_stretch_pair=best_pair,
        noncontraction_ok=violations == 0,
        violation_count=violations,
        zero_distance_pairs=zero_pairs,
    )


def _edge_distances(g, metric, scale):
    """(u, v, d_G times `scale`) for every edge of `g`, read from `metric`'s lengths."""
    if metric.vertices != g.vertices:
        raise BadSourceMetric("source metric and graph disagree on the vertex set")
    measured = []
    for (u, v), length in g.edges():
        if not metric.has_edge(u, v):
            raise BadSourceMetric(f"source metric lacks edge ({u!r}, {v!r})")
        d = metric.length(u, v)
        if d > length:
            raise BadSourceMetric(
                f"source metric lengthens edge ({u!r}, {v!r}) from {length} to {d}")
        if scale % d.denominator:
            raise BadSourceMetric(f"length {d} of edge ({u!r}, {v!r}) is off the graph's scale")
        measured.append((u, v, d.numerator * (scale // d.denominator)))
    return measured


def _value_key(result, vertices):
    """The value tally's key of an embedder's `result`: a bare tree is its
    own key, and so is a sample's target when the sample maps each of
    `vertices`, those of g, to itself; any other sample keys as its
    target and its images of `vertices`, where an unmapped vertex keys as
    None and the estimate's lookup rejects it."""
    if not isinstance(result, EmbeddingSample):
        return result
    img = tuple(map(result.fmap.get, vertices))
    return result.target if img == vertices else (result.target, img)


def _tally(items):
    """[first value, count] per distinct key of the (key, value) pairs,
    in first-seen order."""
    tally = {}
    for key, value in items:
        entry = tally.get(key)
        if entry is None:
            tally[key] = [value, 1]
        else:
            entry[1] += 1
    return tally.values()


def _accumulate(sums, sumsq, src_scaled, dists, count):
    """Add `count` samples at pair j's distance d for each (j, d) of
    `dists`; returns their violations."""
    violations = 0
    for j, d in dists:
        if d < src_scaled[j]:
            violations += count
        sums[j] += count * d
        sumsq[j] += count * d * d
    return violations


# The most trees that one all-pairs walk of a bundle reads (`_Bundle.all_pairs`).
# A walk holds every pair's distances over its trees at once, with masks
# of this many bits, so a bundle of more trees is walked in groups.  At
# n = 80, 20,000 pw2 trees in one walk traced a 2 GB peak; in groups of
# this many the process peaked at 0.24 GB, in 1.6 times the time.  It is
# above the 120 trees of the largest bundle in the acceptance corpus.
_WALK_WIDTH = 2048


class _Bundle:
    """The distinct trees of one rooting and vertex map, as those of one
    `pwk` or `pw2` plan, measured together once the tally is done.  Their
    parent links, from `_RootedTree`, list the vertices in one order, each
    after its parent in every tree, with lengths over one scale, the
    trees' own, and each reader multiplies their distances over to the
    estimate's.  The bundle keeps the first tree whole (`first`) and each
    distinct tree as the links where it differs from the first, a tuple of
    (vertex, parent, length) triples in vertex order, which keys the
    tree's count of samples (`counts`; the first tree's key is ()).  Equal
    trees, such as those that different outcomes realize, share a key and
    add their counts, and a bundle holds O(n + differing links).

    Over all pairs (`all_pairs`), one tree is read from its rows.  Several
    are walked up to `_WALK_WIDTH` at a time, in the order of `counts`, and
    tree t of a walk is bit t of a mask.  A vertex's distance to any
    vertex before it in the order is its parent's plus its edge, so one
    walk along the order gives each pair of vertices its distances in all
    its trees at once, as a flat tuple (distance, mask of the trees at
    that distance, ...); a vertex whose link never varies shifts its
    parent's tuples whole, and one whose link varies starts with every
    tree at the first tree's edge, from which each tree that moves it
    takes its bit to its own.  A plan's trees share almost every edge and
    their pairs few distances, so a pair costs a step per distinct
    (parent, length) of its later vertex and distance of the earlier
    pair, not one per tree.  Over the edges of g (`edge_pairs`), a pair
    whose path in the first tree crosses no link that varies has that
    distance in every tree and is climbed once; only the other pairs are
    measured per tree."""

    __slots__ = ("first", "counts")

    def __init__(self, tree):
        self.first, self.counts = tree, {}

    def add(self, tree, count):
        """Count `count` samples of `tree`, a tree of this rooting."""
        first, parent, to_parent = self.first, tree.parent, tree.to_parent
        moved = compress(range(len(parent)), map(
            ne, zip(parent, to_parent), zip(first.parent, first.to_parent)))
        key = tuple([(x, parent[x], to_parent[x]) for x in moved])
        self.counts[key] = self.counts.get(key, 0) + count

    def _changed(self, keys):
        """{vertex: [(tree, parent, length), ...]} for each vertex whose
        link varies among the trees of `keys`, keys of `counts` numbered
        in their order, over the trees where it differs from the first's."""
        changed = {}
        for t, links in enumerate(keys):
            for x, p, w in links:
                changed.setdefault(x, []).append((t, p, w))
        return changed

    def rows(self, keys, mult):
        """(rows, at, every) of the trees of `keys`, keys of `counts`, tree
        t of them at bit t: rows[i][h], for h < i, is the flat tuple of the
        distances, times `mult`, between the vertices at positions i and h
        of the order, each followed by the mask of its trees; vertex x sits
        at at[x], and `every` is the mask of all the trees."""
        first, changed = self.first, self._changed(keys)
        order, parent, to_parent = first.order, first.parent, first.to_parent
        every = (1 << len(keys)) - 1
        zero = (0, every)
        at = [0] * len(order)
        for i, x in enumerate(order):
            at[x] = i
        rows = [[]]
        for i in range(1, len(order)):
            x = order[i]
            moves = changed.get(x)
            if moves is None:  # one edge in every tree: shift the parent's distances
                a, w = at[parent[x]], to_parent[x] * mult
                before = rows[a][:a] + [zero] + [rows[h][a] for h in range(a + 1, i)]
                rows.append([(e[0] + w, e[1]) if len(e) == 2 else _shifted(e, w)
                             for e in before])
                continue
            # {(parent, edge length): mask of the trees where x hangs so}
            stay = parent[x], to_parent[x]
            masks = {stay: every}
            for t, p, w in moves:  # tree t hangs x elsewhere: its bit moves there
                masks[stay] ^= 1 << t
                masks[p, w] = masks.get((p, w), 0) | 1 << t
            edges = {(at[p], w * mult): m for (p, w), m in masks.items()}
            row = []
            for h in range(i):
                acc = {}
                for (a, w), m in edges.items():
                    e = rows[a][h] if h < a else rows[h][a] if h > a else zero
                    for k in range(0, len(e), 2):
                        mask = e[k + 1] & m
                        if mask:
                            d = e[k] + w
                            acc[d] = acc.get(d, 0) | mask
                row.append(tuple(chain.from_iterable(acc.items())))
            rows.append(row)
        return rows, at, every

    def all_pairs(self, sums, sumsq, src_scaled, ends, scale):
        """`_accumulate` of every tree, pair j at the tree vertices
        `ends[j]`, its distances multiplied from the trees' scale to
        `scale`, a multiple of it; returns their violations.  The trees
        are walked `_WALK_WIDTH` at a time, since a walk holds every
        pair's tuples of its trees at once; the sums add across walks."""
        first, mult = self.first, scale // self.first.scale
        if len(self.counts) == 1:  # the first tree alone
            rows, pos = first.rows()
            dists = [rows[a][pos[b]] * mult for a, b in ends]
            return _accumulate(sums, sumsq, src_scaled, enumerate(dists), self.counts[()])
        keys = list(self.counts)
        return sum(self._walk(keys[start:start + _WALK_WIDTH], sums, sumsq, src_scaled, ends, mult)
                   for start in range(0, len(keys), _WALK_WIDTH))

    def _walk(self, keys, sums, sumsq, src_scaled, ends, mult):
        """What `all_pairs` adds and returns for the trees of `keys`, from
        their rows, at `mult` times the trees' scale."""
        counts = [self.counts[key] for key in keys]
        rows, at, every = self.rows(keys, mult)
        total = sum(counts)
        # a mask's weight, its trees' counts, summed by the bits of the counts
        planes = [sum(1 << t for t, c in enumerate(counts) if c >> b & 1)
                  for b in range(max(counts).bit_length())]
        zero = (0, every)  # two vertices of g at one vertex of the trees
        violations = 0
        for j, (u, v) in enumerate(ends):
            i, h = at[u], at[v]
            e = rows[i][h] if h < i else rows[h][i] if h > i else zero
            for k in range(0, len(e), 2):
                d, m = e[k], e[k + 1]
                c = total if m == every else sum(
                    (m & plane).bit_count() << b for b, plane in enumerate(planes))
                sums[j] += c * d
                sumsq[j] += c * d * d
                if d < src_scaled[j]:
                    violations += c
        return violations

    def edge_pairs(self, sums, sumsq, src_scaled, ends, scale):
        """What `all_pairs` returns and adds, for the few pairs of the
        edges of g.  A vertex's top is the nearest of it and its ancestors
        in the first tree whose link varies, or the root; from a vertex up
        to its top every tree has the first tree's links.  A pair whose
        ends share a top keeps its first-tree distance in every tree and
        climbs once.  Any other pair is measured in each tree on the tree
        of the tops, where a top hangs from the top of its parent: each
        end climbs to the two ends' lowest common top, then the one climb
        of the first tree (`_RootedTree._climber`) finds where the ends'
        last parents meet below it."""
        first = self.first
        order, parent, to_parent = first.order, first.parent, first.to_parent
        mult = scale // first.scale
        lca, dist = first._climber()
        changed = self._changed(self.counts)
        root = order[0]
        top, tops = [root] * len(order), [root]
        for x in order[1:]:
            if x in changed:
                top[x] = x
                tops.append(x)
            else:
                top[x] = top[parent[x]]
        stable, crossing = [], []
        for j, (a, b) in enumerate(ends):
            if top[a] == top[b]:
                stable.append((j, (dist[a] + dist[b] - 2 * dist[lca(a, b)]) * mult))
            else:
                crossing.append((j, a, b))
        violations = _accumulate(sums, sumsq, src_scaled, stable, sum(self.counts.values()))
        if not crossing:
            return violations
        for links, count in self.counts.items():
            moved = {x: (p, w) for x, p, w in links}
            # per top, in this tree: its parent, its distance from the root,
            # and the number of tops above it
            up, far, hops = {}, {root: 0}, {root: 0}
            for x in tops[1:]:
                p, w = moved.get(x) or (parent[x], to_parent[x])
                s = top[p]
                up[x], far[x], hops[x] = p, far[s] + dist[p] - dist[s] + w, hops[s] + 1
            dists = []
            for j, a, b in crossing:
                s, u = top[a], top[b]
                d = dist[a] - dist[s] + far[s] + dist[b] - dist[u] + far[u]
                x, y = a, b
                while s != u:
                    if hops[s] >= hops[u]:
                        x = up[s]
                        s = top[x]
                    else:
                        y = up[u]
                        u = top[y]
                # below their common top s, x and y hang as in the first
                # tree, so their meeting point there is the ends' ancestor
                m = lca(x, y)
                dists.append((j, (d - 2 * (dist[m] - dist[s] + far[s])) * mult))
            violations += _accumulate(sums, sumsq, src_scaled, dists, count)
        return violations


def _shifted(e, w):
    """The flat (distance, mask, ...) tuple `e` with `w` added to each distance."""
    out = list(e)
    out[::2] = [d + w for d in e[::2]]
    return tuple(out)


class _RootedTree:
    """A tree as parent links over its vertices, numbered in sorted order.

    Its `__init__` is the one reader of a tree's links in the package
    (`MetricGraph._links`), and every other reader takes them from here:
    an `order` that lists every vertex after its `parent`, the root being
    its own, and each vertex's edge length to its parent, `to_parent`, as
    an integer over the links' `scale`, the one scale the tree is measured
    at.  A tree sampled or enumerated by `pwk` or `pw2` carries them, over
    its plan's scale, and they are always read.  Every other tree gets them
    from the package's one traversal, `graphs.spanning_links`, over the
    tree's own `integer_scale`.  A caller on another scale multiplies the
    distances over to it.  Each reader of depths or root distances makes
    one pass along the order (`_walk`), and `index` numbers the vertices
    when first read, so a tree measured with the other trees of its
    rooting and vertex map (`_Bundle`) pays for neither.  A graph that is
    not a tree raises PreconditionFailed.
    """

    __slots__ = ("vertices", "order", "parent", "to_parent", "scale", "_index")

    def __init__(self, t: MetricGraph):
        verts = t.vertices
        n = len(verts)
        if t.m != n - 1:
            raise PreconditionFailed(f"{t!r} is not a tree")
        if t._links is not None:
            order, parent, to_parent, scale = t._links
        else:
            _, order, parent = spanning_links(t)
            if len(order) != n:
                raise PreconditionFailed(f"{t!r} is not a tree")
            scale, to_parent = integer_scale(t), [0] * n
            for x in order[1:]:
                length = t.length(verts[x], verts[parent[x]])
                to_parent[x] = length.numerator * (scale // length.denominator)
        self.vertices, self.order, self.parent = verts, order, parent
        self.to_parent, self.scale = to_parent, scale
        self._index = None

    @property
    def index(self):
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index

    def _walk(self):
        """(depth, dist): each vertex's depth and its distance to the root,
        times `scale`, from one pass along the order."""
        order, parent, to_parent = self.order, self.parent, self.to_parent
        depth = [0] * len(order)
        dist = [0] * len(order)
        for x in order[1:]:
            p = parent[x]
            depth[x] = depth[p] + 1
            dist[x] = dist[p] + to_parent[x]
        return depth, dist

    def rows(self):
        """(rows, pos): rows[i] holds the scaled distances from vertex i to
        every vertex in a preorder where every subtree is a contiguous run
        and vertex j sits at pos[j].  A child's row is its parent's, plus
        the edge length outside the child's subtree and minus it inside."""
        order, parent = self.order, self.parent
        _, dist = self._walk()
        n = len(order)
        size = [1] * n
        for x in reversed(order[1:]):
            size[parent[x]] += size[x]
        # each child takes the next free run of its parent's block
        pos = [0] * n
        free = [1] * n
        for x in order[1:]:
            p = parent[x]
            pos[x] = free[p]
            free[p] += size[x]
            free[x] = pos[x] + 1
        pre = [0] * n
        for x in order:
            pre[pos[x]] = x
        rows = [None] * n
        rows[order[0]] = [dist[x] for x in pre]
        for x in order[1:]:
            w = dist[x] - dist[parent[x]]
            lo, hi = pos[x], pos[x] + size[x]
            up = rows[parent[x]]
            rows[x] = ([d + w for d in up[:lo]] + [d - w for d in up[lo:hi]]
                       + [d + w for d in up[hi:]])
        return rows, pos

    def _climber(self):
        """(lca, dist): `lca(a, b)` is the lowest common ancestor
        of two vertex indices, found with skew-binary jump pointers (Myers
        1983): one array, built along the order, in which each vertex's
        jump goes 2^i - 1 levels up, i set by its depth alone.  While the
        ends differ, the deeper one climbs, by its jump unless that passes
        the other's depth; at equal depths both take their jumps if these
        differ and their parents otherwise.  A pair costs O(log n) steps on
        any tree, and a pair a few hops apart, such as an edge of G, a few
        steps.  `dist` is that of `_walk`."""
        parent = self.parent
        depth, dist = self._walk()
        jump = parent[:]
        for x in self.order[1:]:
            p = parent[x]
            j = jump[p]
            if depth[p] - depth[j] == depth[j] - depth[jump[j]]:
                jump[x] = jump[j]

        def lca(x, y):
            while x != y:
                if depth[x] < depth[y]:
                    x, y = y, x
                level = depth[y]
                if depth[x] > level:
                    j = jump[x]
                    x = j if depth[j] >= level else parent[x]
                elif jump[x] != jump[y]:
                    x, y = jump[x], jump[y]
                else:
                    x, y = parent[x], parent[y]
            return x

        return lca, dist

    def pair_distances(self, pairs):
        """Scaled distances of (index, index) pairs through their lowest
        common ancestor (`_climber`)."""
        lca, dist = self._climber()
        return [dist[a] + dist[b] - 2 * dist[lca(a, b)] for a, b in pairs]

    def path(self, a, b):
        """Vertices of the tree path from a to b, both ends included: the
        deeper end steps to its parent until the ends meet."""
        parent = self.parent
        depth, _ = self._walk()
        x, y = self.index[a], self.index[b]
        head, tail = [], []
        while x != y:
            if depth[x] >= depth[y]:
                head.append(x)
                x = parent[x]
            else:
                tail.append(y)
                y = parent[y]
        return [self.vertices[i] for i in head + [x] + tail[::-1]]


def _tree_metric(tree: _RootedTree) -> DistanceMatrix:
    """A rooted tree's all-pairs distances in sorted vertex order, over its scale."""
    rows, pos = tree.rows()
    for row in rows:  # in place, so one n x n table is alive at a time
        row[:] = [row[p] for p in pos]
    return DistanceMatrix(tree.vertices, rows, tree.scale)


def _source_tree(g: MetricGraph) -> Optional[_RootedTree]:
    """The rooting of a source graph that is a tree (m = n - 1 and
    connected), or None."""
    if g.m == g.n - 1:
        try:
            return _RootedTree(g)
        except PreconditionFailed:  # a cycle beside an isolated vertex, say
            pass
    return None


def _source_metric(g: MetricGraph) -> DistanceMatrix:
    """All-pairs distances of a source graph: a tree's from its rooting
    (`_source_tree`), any other graph's from `shortest_path_metric`."""
    tree = _source_tree(g)
    return shortest_path_metric(g) if tree is None else _tree_metric(tree)


# --- averaged edge stretch --------------------------------------------------

@dataclass
class AverageStretch:
    mean_distance: Fraction          # (1/|E|) sum of target distances
    mean_ratio: Optional[Fraction]   # (1/|E'|) sum of d_T/len over positive edges
    edges_total: int
    edges_in_ratio: int


def average_edge_stretch(g: MetricGraph, sample: EmbeddingSample,
                         require_noncontraction: bool = True) -> AverageStretch:
    """Exact per-edge average of target distances, both normalizations.

    With `require_noncontraction`, a sample that contracts some distance
    raises PreconditionFailed.  That check reads the target's links first:
    under a bijection, links no shorter than d_G of their ends' preimages
    shrink no pair, by the triangle inequality along each tree path, and
    a source that is a tree then needs no n x n table (`_noncontraction`)."""
    if g.m == 0:
        raise EmptyEdgeSet("the source graph has no edges")
    _check_mapped(sample, g.vertices, "the source graph")
    tree = _RootedTree(sample.target)
    if require_noncontraction:
        if sample.source is not g:
            _check_mapped(sample, sample.source.vertices, "its source")
        if not _noncontraction(sample, tree):
            raise PreconditionFailed("sample contracts some distance")
    # target distances of the edges alone, as integers over the tree's
    # scale; one Fraction each at the end
    edges, index, image = g.edges(), tree.index, sample.image
    dists = tree.pair_distances([(index[image(u)], index[image(v)]) for (u, v), _ in edges])
    total, ratio, counted = 0, Fraction(0), 0
    for (_, length), d in zip(edges, dists):
        total += d
        if length > 0:
            ratio += d / length
            counted += 1
    return AverageStretch(
        mean_distance=Fraction(total, tree.scale * g.m),
        mean_ratio=ratio / (tree.scale * counted) if counted else None,
        edges_total=g.m,
        edges_in_ratio=counted,
    )


# --- lower-bound machinery --------------------------------------------------

def lower_bound_threshold(k: int, m) -> Fraction:
    """Average-stretch threshold r / (2^(8+2k) k) where m = r^(2^k), r even."""
    if k < 1:
        raise BadDomain("k must be >= 1")
    m = Fraction(m)
    if m.denominator != 1 or m < 1:
        raise BadDomain(f"{m} is not a positive integer")
    r = int(m)
    for _ in range(k):
        r = math.isqrt(r)  # k nested floors give floor(m^(1/2^k)) exactly
    if r < 2 or r % 2 or r ** (2 ** k) != m:
        raise BadDomain(f"{m} is not an even integer raised to 2^{k}")
    return Fraction(r, (2 ** (8 + 2 * k)) * k)


@dataclass
class WitnessVerdict:
    passed: bool
    threshold: Fraction
    mean_distance: Fraction
    mean_ratio: Optional[Fraction]
    target_pathwidth: int

    def __bool__(self):
        return self.passed


def verify_lower_bound_witness(k: int, m, sample: EmbeddingSample) -> WitnessVerdict:
    """Check one non-contractive embedding against the average-stretch bound.

    A passing verdict is consistent with the bound; a failing one is a
    falsification certificate and carries all quantities.  Samples whose
    target is not a tree or has pathwidth above k, or which contract, prove
    nothing and are rejected with PreconditionFailed.
    """
    threshold = lower_bound_threshold(k, m)
    # the target's layer rejects a non-tree before tree_pathwidth reads it
    avg = average_edge_stretch(sample.source, sample)
    pw = tree_pathwidth(sample.target)
    if pw > k:
        raise PreconditionFailed(f"target pathwidth {pw} exceeds {k}")
    return WitnessVerdict(
        passed=avg.mean_distance >= threshold,
        threshold=threshold,
        mean_distance=avg.mean_distance,
        mean_ratio=avg.mean_ratio,
        target_pathwidth=pw,
    )


@dataclass
class ProximityVerdict:
    passed: bool
    near_indices: list
    lhs: Fraction
    rhs: Fraction

    def __bool__(self):
        return self.passed


def check_close_to_P(s: MetricGraph, root, subtrees, target_path,
                     sample: EmbeddingSample, min_leg) -> ProximityVerdict:
    """Subtrees hanging off `root` by long disjoint legs cannot all sit near
    one target path cheaply: sum of per-edge target distances must be at
    least |near|^2 * min_leg / 16.

    `s` must be a tree.  `subtrees` are vertex sets of s, each joined to
    `root` by a leg (its tree path) of source length >= `min_leg`; legs may
    share only `root`.  `target_path` is a vertex list forming a simple path
    in the target tree.  The sample must not contract (`_noncontraction`):
    under a bijection its target's links are checked alone, since links no
    shorter than d_G of their ends' preimages shrink no pair, by the
    triangle inequality along each tree path.  When the sample's source is
    `s`, the rooting of `s` gives d_G there, and any other source is
    rooted when it is a tree and measured whole otherwise.
    """
    L = Fraction(min_leg)
    _check_mapped(sample, s.vertices, "s", HypothesisViolation)
    # s is a tree by hypothesis: one rooting gives its distances and its legs
    try:
        s_tree = _RootedTree(s)
    except PreconditionFailed as exc:
        raise HypothesisViolation("s is not a tree") from exc
    dm_s = _tree_metric(s_tree)
    tree = _RootedTree(sample.target)
    dm_t = _tree_metric(tree)
    if sample.source == s:  # its rooting is already at hand
        own = s_tree
    else:
        _check_mapped(sample, sample.source.vertices, "its source", HypothesisViolation)
        own = None
    if not _noncontraction(sample, tree, own):
        raise HypothesisViolation("sample contracts some distance")
    if root not in s_tree.index:
        raise HypothesisViolation(f"root {root!r} is not a vertex of s")
    subtrees = [set(t) for t in subtrees]
    seen = set()
    for i, sub in enumerate(subtrees):
        if not sub or root in sub:
            raise HypothesisViolation(f"subtree {i} is empty or contains the root")
        if not sub.issubset(s_tree.index):
            raise HypothesisViolation(f"subtree {i} leaves the vertex set of s")
        if sub & seen:
            raise HypothesisViolation(f"subtree {i} overlaps another subtree")
        seen |= sub
    # every leg is checked against all the subtrees, whatever their order
    first_steps = {}
    for i, sub in enumerate(subtrees):
        entry = min(sub, key=lambda v: (dm_s.dist(root, v), v))
        if dm_s.dist(root, entry) < L:
            raise HypothesisViolation(f"leg to subtree {i} is shorter than {L}")
        leg = s_tree.path(root, entry)
        if set(leg[1:-1]) & seen:
            raise HypothesisViolation(f"leg to subtree {i} passes through a subtree")
        # two tree paths from the root that meet again share their first edge
        j = first_steps.setdefault(leg[1], i)
        if j != i:
            raise HypothesisViolation(f"legs {j} and {i} share more than the root")
    path = list(target_path)
    if not path or not set(path).issubset(sample.target.vertices):
        raise HypothesisViolation("target path is empty or leaves the target tree")
    if len(set(path)) != len(path):
        raise HypothesisViolation("target path revisits a vertex")
    for a, b in zip(path, path[1:]):
        if not sample.target.has_edge(a, b):
            raise HypothesisViolation(f"({a!r}, {b!r}) is not a target edge")

    near = []
    for i, sub in enumerate(subtrees):
        d = min(dm_t.dist(sample.image(v), p) for v in sub for p in path)
        if d < L / 2:
            near.append(i)
    lhs = Fraction(0)
    for (u, v), _ in s.edges():
        lhs += dm_t.dist(sample.image(u), sample.image(v))
    rhs = Fraction(len(near) ** 2) * L / 16
    return ProximityVerdict(lhs >= rhs, near, lhs, rhs)

