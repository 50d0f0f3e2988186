"""Monte Carlo distortion estimation plus exact structural checkers.

Distances are exact rationals throughout; the only floating point is in
standard errors and sampling.  Per-sample random streams are derived from
(seed, sample index), so reports are bit-for-bit reproducible regardless
of how samples are scheduled.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .graphs import (
    MetricGraph,
    graph_to_json,
    is_tree,
    shortest_path_metric,
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


@dataclass(frozen=True)
class EmbeddingSample:
    """One realized embedding: source graph, target tree, vertex map."""
    source: MetricGraph
    target: MetricGraph
    fmap: dict

    def image(self, v):
        return self.fmap[v]


def identity_sample(source: MetricGraph, target: MetricGraph) -> EmbeddingSample:
    return EmbeddingSample(source, target, {v: v for v in source.vertices})


def _as_sample(source, result) -> EmbeddingSample:
    if isinstance(result, EmbeddingSample):
        return result
    return identity_sample(source, result)


@dataclass
class NonContractionVerdict:
    ok: bool
    violations: list  # (u, v, d_source, d_target)

    def __bool__(self):
        return self.ok


def check_noncontraction(sample: EmbeddingSample) -> NonContractionVerdict:
    """Exact check that no pairwise distance shrank; lists every violation."""
    return _noncontraction(sample, shortest_path_metric(sample.source),
                           shortest_path_metric(sample.target))


def _noncontraction(sample, dm_s, dm_t) -> NonContractionVerdict:
    s_scale, t_scale = dm_s.scale, dm_t.scale
    violations = []
    # scaled integers compared across the two scales; Fractions only for output
    for u, v, d_s in dm_s.scaled_pairs():
        d_t = dm_t.scaled(sample.image(u), sample.image(v))
        if d_s is None:
            if d_t is not None:
                violations.append((u, v, None, Fraction(d_t, t_scale)))
        elif d_t is not None and d_t * s_scale < d_s * t_scale:
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


def estimate_distortion(g: MetricGraph, embedder, num_samples: int, seed: int,
                        pairs: str = "all") -> StretchReport:
    """Empirical expected stretch per pair, with an exact non-contraction sweep.

    `embedder(rng)` must return a target tree on the vertex set of `g`
    (identity map assumed) or an EmbeddingSample.  `pairs` selects which
    pairs are measured: "all" finite-distance pairs, or just the original
    "edges", each against d_G of its endpoints (not its raw length, which
    may exceed d_G on a non-reduced graph).  Means are exact rationals;
    only stderr is floating point.  A sample equal to the one before it
    (same target, same map) reuses its distances.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if pairs not in ("all", "edges"):
        raise ValueError(f"unknown pairs mode {pairs!r}")
    # source distances stay integers in the metric's scale until the report
    dm = shortest_path_metric(g)
    scale = dm.scale
    if pairs == "all":
        measured = [(u, v, d) for u, v, d in dm.scaled_pairs() if d is not None]
    else:
        measured = [(u, v, dm.scaled(u, v)) for (u, v), _ in g.edges()]

    index = {v: i for i, v in enumerate(g.vertices)}
    pair_idx = [(index[u], index[v]) for u, v, _ in measured]
    sums = [0] * len(measured)
    sumsq = [0] * len(measured)
    violations = 0

    want_all = pairs == "all"
    src_scaled = [d for _, _, d in measured]
    # a sample equal to the one before it has the same distances: count the
    # run of equal samples and add its distances once, weighted by the run
    last, dists, run = None, [], 0
    for i in range(num_samples):
        sample = _as_sample(g, embedder(sample_rng(seed, i)))
        if last is not None and sample.target == last.target and sample.fmap == last.fmap:
            run += 1
            continue
        violations += _accumulate(sums, sumsq, src_scaled, dists, run)
        dists = _tree_pair_distances(sample, index, pair_idx, scale, all_sources=want_all)
        last, run = sample, 1
    violations += _accumulate(sums, sumsq, src_scaled, dists, run)

    stats = []
    zero_pairs = []
    best = None
    best_pair = None
    n = num_samples
    for j, (u, v, d_src) in enumerate(measured):
        mean_d = Fraction(sums[j], n * scale)
        if d_src == 0:
            zero_pairs.append(((u, v), mean_d))
            continue
        mean_stretch = Fraction(sums[j], n * d_src)
        # Var/n of the scaled distance over the squared scaled source distance:
        # integers until one correctly rounded division, so nothing cancels
        # or overflows
        spread = n * sumsq[j] - sums[j] * sums[j]
        stderr = math.sqrt(spread / (n ** 3 * src_scaled[j] ** 2))
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


def _accumulate(sums, sumsq, src_scaled, dists, run):
    """Add `run` samples with distances `dists`; returns their violations."""
    violations = 0
    for j, d in enumerate(dists):
        if d < src_scaled[j]:
            violations += run
        sums[j] += run * d
        sumsq[j] += run * d * d
    return violations


def _tree_pair_distances(sample: EmbeddingSample, index, pair_idx, scale,
                         all_sources: bool):
    """Scaled-integer target distances for the measured pairs, in order."""
    t = sample.target
    n_src = len(index)
    fmap = sample.fmap
    identity = all(fmap[v] == v for v in fmap)

    tidx = {v: i for i, v in enumerate(t.vertices)}
    tadj = [[] for _ in t.vertices]
    for (a, b), length in t.edges():
        num, den = length.numerator, length.denominator
        if scale % den:
            raise ValueError("target tree length does not fit the instance scale")
        ln = num * (scale // den)
        ia, ib = tidx[a], tidx[b]
        tadj[ia].append((ib, ln))
        tadj[ib].append((ia, ln))

    # image index of every source vertex, in source-index order
    img = [0] * n_src
    for v, i in index.items():
        img[i] = tidx[v if identity else fmap[v]]

    if all_sources:
        # one traversal per source vertex; trees make this exact and linear
        rows = {}
        for i in range(n_src):
            root = img[i]
            if root in rows:
                continue
            dist = [None] * len(tadj)
            dist[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                dx = dist[x]
                for y, ln in tadj[x]:
                    if dist[y] is None:
                        dist[y] = dx + ln
                        stack.append(y)
            rows[root] = dist
        return [rows[img[a]][img[b]] for a, b in pair_idx]
    return _lca_distances(tadj, [(img[a], img[b]) for a, b in pair_idx])


def _lca_distances(tadj, pairs):
    n = len(tadj)
    parent = [-1] * n
    depth = [0] * n
    dist = [0] * n
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y, ln in tadj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    dist[y] = dist[x] + ln
                    stack.append(y)
    logn = max(1, n.bit_length())
    up = [parent]
    for _ in range(logn - 1):
        prev = up[-1]
        up.append([-1 if p < 0 else prev[p] for p in prev])

    def lca(a, b):
        if depth[a] < depth[b]:
            a, b = b, a
        diff = depth[a] - depth[b]
        lvl = 0
        while diff:
            if diff & 1:
                a = up[lvl][a]
            diff >>= 1
            lvl += 1
        if a == b:
            return a
        for lvl in range(logn - 1, -1, -1):
            if up[lvl][a] != up[lvl][b]:
                a, b = up[lvl][a], up[lvl][b]
        return parent[a]

    out = []
    for a, b in pairs:
        if a == b:
            out.append(0)
        else:
            c = lca(a, b)
            out.append(dist[a] + dist[b] - 2 * dist[c])
    return out


# --- averaged edge stretch --------------------------------------------------

@dataclass
class AverageStretch:
    mean_distance: Fraction          # (1/|E|) sum of target distances
    mean_ratio: Optional[Fraction]   # (1/|E'|) sum of d_T/len over positive edges
    edges_total: int
    edges_in_ratio: int


def average_edge_stretch(g: MetricGraph, sample: EmbeddingSample,
                         require_noncontraction: bool = True) -> AverageStretch:
    """Exact per-edge average of target distances, both normalizations."""
    _require_edges(g)
    dm_t = shortest_path_metric(sample.target)
    if require_noncontraction and not _noncontraction(
            sample, shortest_path_metric(sample.source), dm_t):
        raise PreconditionFailed("sample contracts some distance")
    return _edge_averages(g, sample, dm_t)


def _require_edges(g):
    if g.m == 0:
        raise EmptyEdgeSet("the source graph has no edges")


def _edge_averages(g, sample, dm_t) -> AverageStretch:
    total = Fraction(0)
    ratio = Fraction(0)
    counted = 0
    for (u, v), length in g.edges():
        d = dm_t.dist(sample.image(u), sample.image(v))
        if d is None:
            raise PreconditionFailed(f"images of ({u!r}, {v!r}) are disconnected")
        total += d
        if length > 0:
            ratio += d / length
            counted += 1
    return AverageStretch(
        mean_distance=total / g.m,
        mean_ratio=(ratio / counted) if counted else None,
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
    target has pathwidth above k, or which contract, prove nothing and are
    rejected with PreconditionFailed.
    """
    threshold = lower_bound_threshold(k, m)
    if not is_tree(sample.target):
        raise PreconditionFailed("witness target must be a tree")
    pw = tree_pathwidth(sample.target)
    if pw > k:
        raise PreconditionFailed(f"target pathwidth {pw} exceeds {k}")
    # one all-pairs run on the target serves both checks
    dm_t = shortest_path_metric(sample.target)
    if not _noncontraction(sample, shortest_path_metric(sample.source), dm_t):
        raise PreconditionFailed("sample contracts some distance")
    _require_edges(sample.source)
    avg = _edge_averages(sample.source, sample, dm_t)
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

    `subtrees` are vertex sets of s, each joined to `root` by a leg of
    source length >= `min_leg`; legs may share only `root`.  `target_path`
    is a vertex list forming a simple path in the target tree.
    """
    L = Fraction(min_leg)
    dm_s = shortest_path_metric(s)
    if not check_noncontraction(sample):
        raise HypothesisViolation("sample contracts some distance")
    subtrees = [set(t) for t in subtrees]
    seen = set()
    leg_vertices = []
    for i, sub in enumerate(subtrees):
        if not sub or root in sub:
            raise HypothesisViolation(f"subtree {i} is empty or contains the root")
        if sub & seen:
            raise HypothesisViolation(f"subtree {i} overlaps another subtree")
        seen |= sub
        entry = min(sub, key=lambda v: (dm_s.dist(root, v), v))
        if dm_s.dist(root, entry) < L:
            raise HypothesisViolation(f"leg to subtree {i} is shorter than {L}")
        leg = set(_tree_path_vertices(s, root, entry))
        if (leg - {root, entry}) & seen:
            raise HypothesisViolation(f"leg to subtree {i} passes through a subtree")
        leg_vertices.append(leg)
    for i in range(len(leg_vertices)):
        for j in range(i + 1, len(leg_vertices)):
            if leg_vertices[i] & leg_vertices[j] != {root}:
                raise HypothesisViolation(f"legs {i} and {j} share more than the root")
    path = list(target_path)
    if len(set(path)) != len(path):
        raise HypothesisViolation("target path revisits a vertex")
    for a, b in zip(path, path[1:]):
        if not sample.target.has_edge(a, b):
            raise HypothesisViolation(f"({a!r}, {b!r}) is not a target edge")

    dm_t = shortest_path_metric(sample.target)
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


def _tree_path_vertices(t: MetricGraph, a, b):
    parent = {a: None}
    stack = [a]
    while stack and b not in parent:
        x = stack.pop()
        for y in t.neighbors(x):
            if y not in parent:
                parent[y] = x
                stack.append(y)
    if b not in parent:
        raise HypothesisViolation(f"{a!r} and {b!r} are disconnected")
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]
