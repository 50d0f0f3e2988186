"""Reference accumulation for `estimate_distortion`: every sample measured.

This is the harness loop before equal samples shared their distances:
it computes the tree distances of every sample and adds them one sample
at a time.  Each sample's target distances come from
`shortest_path_metric` on the target, and the sums are kept as exact
`Fraction`s, so a target with lengths off the instance scale is summed
as exactly as one on it, and nothing here shares the harness's
rooted-tree layer or its choice of scale.  Tests compare whole reports
against it.
"""

import math
from fractions import Fraction

from pwtree.graphs import shortest_path_metric
from pwtree.harness import (
    EmbeddingSample,
    PairStat,
    StretchReport,
    instance_hash,
    sample_rng,
)


def as_sample(g, result):
    """`result`, or a bare tree as the sample that maps each vertex of `g` to itself."""
    if isinstance(result, EmbeddingSample):
        return result
    return EmbeddingSample(g, result, {v: v for v in g.vertices})


def reference_estimate(g, embedder, num_samples, seed, pairs="all"):
    dm = shortest_path_metric(g)
    if pairs == "all":
        measured = [(u, v, d) for u, v, d in dm.pairs() if d is not None]
    else:
        measured = [(u, v, dm.dist(u, v)) for (u, v), _ in g.edges()]
    sums = [Fraction(0)] * len(measured)
    sumsq = [Fraction(0)] * len(measured)
    violations = 0
    for i in range(num_samples):
        sample = as_sample(g, embedder(sample_rng(seed, i)))
        dm_t = shortest_path_metric(sample.target)
        for j, (u, v, d_src) in enumerate(measured):
            d = dm_t.dist(sample.image(u), sample.image(v))
            violations += d < d_src
            sums[j] += d
            sumsq[j] += d * d

    n = num_samples
    stats, zero_pairs, best, best_pair = [], [], None, None
    for j, (u, v, d_src) in enumerate(measured):
        mean_d = sums[j] / n
        if d_src == 0:
            zero_pairs.append(((u, v), mean_d))
            continue
        mean_stretch = mean_d / d_src
        # the same rational as the harness's scaled integers give, and
        # float() of a Fraction rounds it correctly, as int / int does
        spread = n * sumsq[j] - sums[j] * sums[j]
        stderr = math.sqrt(spread / (n ** 3 * d_src ** 2))
        stats.append(PairStat((u, v), d_src, mean_d, mean_stretch, stderr))
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
