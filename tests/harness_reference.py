"""Reference accumulation for `estimate_distortion`: every sample measured.

This is the harness loop before equal consecutive samples shared their
distances: it computes the tree distances of every sample and adds them
one sample at a time.  Each sample's target distances come from
`shortest_path_metric` on the target, rescaled exactly to the instance
scale, so nothing here shares the harness's rooted-tree layer.  Tests
compare whole reports against it.
"""

import math
from fractions import Fraction

from pwtree.graphs import integer_scale, shortest_path_metric
from pwtree.harness import (
    PairStat,
    StretchReport,
    _as_sample,
    instance_hash,
    sample_rng,
)


def reference_estimate(g, embedder, num_samples, seed, pairs="all"):
    dm = shortest_path_metric(g)
    if pairs == "all":
        measured = [(u, v, d) for u, v, d in dm.pairs() if d is not None]
    else:
        measured = [(u, v, dm.dist(u, v)) for (u, v), _ in g.edges()]
    scale = integer_scale([g])
    src_scaled = [d.numerator * (scale // d.denominator) for _, _, d in measured]
    sums = [0] * len(measured)
    sumsq = [0] * len(measured)
    violations = 0
    for i in range(num_samples):
        sample = _as_sample(g, embedder(sample_rng(seed, i)))
        dm_t = shortest_path_metric(sample.target)
        for j, (u, v, _) in enumerate(measured):
            d = dm_t.dist(sample.image(u), sample.image(v)) * scale
            assert d.denominator == 1, "target length off the instance scale"
            d = d.numerator
            violations += d < src_scaled[j]
            sums[j] += d
            sumsq[j] += d * d

    n = num_samples
    stats, zero_pairs, best, best_pair = [], [], None, None
    for j, (u, v, d_src) in enumerate(measured):
        mean_d = Fraction(sums[j], n * scale)
        if d_src == 0:
            zero_pairs.append(((u, v), mean_d))
            continue
        mean_stretch = mean_d / d_src
        spread = n * sumsq[j] - sums[j] * sums[j]
        stderr = math.sqrt(spread / (n ** 3 * src_scaled[j] ** 2))
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
