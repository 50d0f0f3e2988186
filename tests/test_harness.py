import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from conftest import flatten_to_path, tree_metric_and_sequence
from distance_reference import reference_distances
from harness_reference import reference_estimate
from pwtree import harness
from pwtree.graphs import build_metric_graph, shortest_path_metric
from pwtree.harness import (
    BadDomain,
    EmbeddingSample,
    EmptyEdgeSet,
    HypothesisViolation,
    PreconditionFailed,
    average_edge_stretch,
    check_close_to_P,
    check_noncontraction,
    estimate_distortion,
    identity_sample,
    instance_hash,
    lower_bound_threshold,
    verify_lower_bound_witness,
)
from pwtree.instances import (
    cycle,
    phi,
    psi_truncated,
    random_pathwidth_graph,
    small_rational_lengths,
)
from pwtree.pathwidth import LinearCompositionSequence, composed_metric_graph
from pwtree.pw2 import embed_pathwidth2, enumerate_pw2_distribution
from pwtree.pwk import embed_pathwidthk


def unit_path(n):
    return build_metric_graph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


class TestNonContraction:
    def test_identity_passes(self):
        t = unit_path(5)
        assert check_noncontraction(identity_sample(t, t)).ok

    def test_collapse_fails(self):
        g = unit_path(3)
        target = unit_path(3)
        sample = EmbeddingSample(g, target, {0: 0, 1: 1, 2: 1})
        verdict = check_noncontraction(sample)
        assert not verdict.ok
        assert any({u, v} == {1, 2} for u, v, *_ in verdict.violations)

    def test_infinite_source_pairs(self):
        g = build_metric_graph([0, 1], [])
        target = unit_path(2)
        sample = EmbeddingSample(g, target, {0: 0, 1: 1})
        # a disconnected pair mapped to a finite distance is a contraction
        assert not check_noncontraction(sample).ok

    def test_violations_match_oracle_across_scales(self):
        # source and target lengths have unrelated denominators, so the two
        # distance matrices have different scales
        rng = random.Random(41)
        found = 0
        for _ in range(60):
            n = rng.randint(2, 8)
            g = build_metric_graph(range(n), [
                (u, v, Fraction(rng.randint(0, 9), rng.choice((1, 3, 7, 2 ** 61 - 1))))
                for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4])
            fmap = {v: rng.randrange(n) for v in range(n)}
            target = build_metric_graph(range(n), [
                (v, rng.randrange(v), Fraction(rng.randint(0, 9), rng.choice((1, 2, 5, 11))))
                for v in range(1, n)])
            d_s, d_t = reference_distances(g), reference_distances(target)
            expected = []
            for u, v in itertools.combinations(range(n), 2):
                s_uv, t_uv = d_s[(u, v)], d_t[(fmap[u], fmap[v])]
                if s_uv is None or t_uv < s_uv:
                    expected.append((u, v, s_uv, t_uv))
            verdict = check_noncontraction(EmbeddingSample(g, target, fmap))
            assert verdict.violations == expected
            assert verdict.ok == (not expected)
            found += len(expected)
        assert found > 50


class TestOneDistanceRun:
    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_estimate_runs_shortest_paths_once(self, monkeypatch, pairs):
        # the source distances come from one all-pairs run; the samples'
        # distances come from the harness's own tree traversals
        calls = []
        real = harness.shortest_path_metric
        monkeypatch.setattr(harness, "shortest_path_metric",
                            lambda g: calls.append(g) or real(g))
        g, seq = random_pathwidth_graph(2, 12, small_rational_lengths, random.Random(3))
        metric = composed_metric_graph(g, seq)
        report = estimate_distortion(
            g, lambda rng: embed_pathwidthk(seq, metric, rng), 50, seed=1, pairs=pairs)
        assert calls == [g]
        assert report.noncontraction_ok


class TestEstimateDistortion:
    def test_identity_tree(self):
        t = unit_path(6)
        report = estimate_distortion(t, lambda rng: t, 50, seed=1)
        assert report.max_mean_stretch == 1
        assert all(s.stderr == 0 for s in report.pair_stats)
        assert report.noncontraction_ok

    def test_deterministic_reports(self):
        g, seq = cycle(5)
        metric = composed_metric_graph(g, seq)

        def embedder(rng):
            return embed_pathwidthk(seq, metric, rng)

        a = estimate_distortion(g, embedder, 200, seed=9)
        b = estimate_distortion(g, embedder, 200, seed=9)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )
        c = estimate_distortion(g, embedder, 200, seed=10)
        assert a.seed != c.seed

    def test_triangle_matches_enumeration(self):
        from pwtree.pathwidth import LinearCompositionSequence

        g, _ = cycle(3)
        seq = LinearCompositionSequence(2, [0, 1], [(2, {0, 1})])
        metric = composed_metric_graph(g, seq)
        exact = {}
        dist = enumerate_pw2_distribution(seq, metric)
        for t, p in dist:
            dm = shortest_path_metric(t)
            for u, v, d in dm.pairs():
                exact[(u, v)] = exact.get((u, v), Fraction(0)) + p * d
        report = estimate_distortion(
            g, lambda rng: embed_pathwidth2(seq, metric, rng), 3000, seed=4
        )
        for s in report.pair_stats:
            tol = max(3 * s.stderr * float(s.source_distance), 1e-12)
            assert abs(float(s.mean_distance) - float(exact[s.pair])) <= tol

    def test_edges_mode_matches_all_mode(self):
        # the triangle is not reduced: edge (0, 2) has length 5 but d_G = 2,
        # and both modes must measure it against d_G
        triangle = build_metric_graph(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        for g, seq in (cycle(6), (triangle, LinearCompositionSequence(2, [0, 1], [(2, {0, 1})]))):
            metric = composed_metric_graph(g, seq)

            def embedder(rng):
                return embed_pathwidthk(seq, metric, rng)

            full = estimate_distortion(g, embedder, 200, seed=2, pairs="all")
            edges = estimate_distortion(g, embedder, 200, seed=2, pairs="edges")
            assert full.noncontraction_ok and edges.noncontraction_ok
            assert full.violation_count == edges.violation_count == 0
            full_stats = {s.pair: s for s in full.pair_stats}
            assert len(edges.pair_stats) == g.m
            for s in edges.pair_stats:
                assert full_stats[s.pair] == s

    def test_stderr_from_exact_sums(self):
        # a huge length used to overflow the float second moment
        g = build_metric_graph([0, 1], [(0, 1, 10**160)])
        report = estimate_distortion(g, lambda rng: g, 3, seed=0)
        assert report.pair_stats[0].stderr == 0
        # a spread far below the mean used to cancel to 0.0
        g = build_metric_graph([0, 1], [(0, 1, 10**9)])
        lengths = itertools.cycle([10**9, 10**9 + 1])
        report = estimate_distortion(
            g, lambda rng: g.with_edges({(0, 1): Fraction(next(lengths))}), 1000, seed=0
        )
        assert report.pair_stats[0].stderr == pytest.approx(
            math.sqrt(0.25 / 1000) / 10**9, rel=1e-12
        )

    def test_zero_distance_pairs_reported(self):
        g = build_metric_graph([0, 1, 2], [(0, 1, 0), (1, 2, 1)])
        t = g  # already a tree
        report = estimate_distortion(g, lambda rng: t, 10, seed=0)
        assert ((0, 1), Fraction(0)) in report.zero_distance_pairs
        assert all(s.pair != (0, 1) for s in report.pair_stats)

    def test_instance_hash_is_stable(self):
        g, _ = cycle(4)
        assert instance_hash(g) == instance_hash(g)
        assert instance_hash(g) != instance_hash(unit_path(4))


def scripted(samples):
    """An embedder that ignores its rng and returns `samples` in order."""
    it = iter(samples)
    return lambda rng: next(it)


class TestSampleReuse:
    def test_scripted_runs_match_reference(self):
        g, seq = random_pathwidth_graph(2, 8, small_rational_lengths, random.Random(4))
        metric = composed_metric_graph(g, seq)
        trees = {}
        for i in range(50):
            t = embed_pathwidth2(seq, metric, random.Random(i))
            trees.setdefault(frozenset(t.edge_keys()), t)
        a, b = list(trees.values())[:2]
        # a tree equals its identity sample; `moved` has a's target but maps
        # 1 onto 0, so it contracts the pair (0, 1)
        same_a = identity_sample(g, a)
        moved = EmbeddingSample(g, a, {**same_a.fmap, 1: 0})
        script = [a, same_a, b, a, moved, moved]
        for pairs in ("all", "edges"):
            got = estimate_distortion(g, scripted(script), len(script), 5, pairs=pairs)
            want = reference_estimate(g, scripted(script), len(script), 5, pairs=pairs)
            assert got.to_json() == want.to_json()
            assert got.violation_count > 0
            merged = reference_estimate(g, scripted(script[:3] + [a] * 3), len(script), 5,
                                        pairs=pairs)
            assert got.to_json() != merged.to_json()

    def test_sampled_runs_match_reference(self):
        rng = random.Random(41)
        for k in (2, 3):
            g, seq = random_pathwidth_graph(k, 12, small_rational_lengths, rng)
            metric = composed_metric_graph(g, seq)
            algos = [lambda r: embed_pathwidthk(seq, metric, r)]
            if k == 2:
                algos.append(lambda r: embed_pathwidth2(seq, metric, r))
            for embedder in algos:
                for pairs in ("all", "edges"):
                    got = estimate_distortion(g, embedder, 300, 9, pairs=pairs)
                    want = reference_estimate(g, embedder, 300, 9, pairs=pairs)
                    assert got.to_json() == want.to_json()


class TestAverageEdgeStretch:
    def test_identity(self):
        t = unit_path(4)
        out = average_edge_stretch(t, identity_sample(t, t))
        assert out.mean_ratio == 1 and out.mean_distance == 1

    def test_flattened_star(self):
        # laying the star out on a unit path stretches one edge to 2
        star = build_metric_graph([0, 1, 2, 3], [(0, i, 1) for i in (1, 2, 3)])
        target = build_metric_graph(
            [0, 1, 2, 3], [(1, 0, 1), (0, 2, 1), (2, 3, 1)]
        )
        sample = identity_sample(star, target)
        out = average_edge_stretch(star, sample, require_noncontraction=False)
        assert out.mean_ratio == Fraction(4, 3)
        assert out.mean_distance == Fraction(4, 3)

    def test_empty_edges(self):
        g = build_metric_graph([0], [])
        with pytest.raises(EmptyEdgeSet):
            average_edge_stretch(g, identity_sample(g, g))

    def test_contraction_rejected(self):
        g = unit_path(3)
        sample = EmbeddingSample(g, unit_path(3), {0: 0, 1: 1, 2: 1})
        with pytest.raises(PreconditionFailed):
            average_edge_stretch(g, sample)


    def test_one_distance_run_per_graph(self, monkeypatch):
        calls = []
        real = harness.shortest_path_metric
        monkeypatch.setattr(harness, "shortest_path_metric",
                            lambda g: calls.append(g) or real(g))
        star = build_metric_graph([0, 1, 2, 3], [(0, i, 1) for i in (1, 2, 3)])
        sample = flatten_to_path(star)
        out = average_edge_stretch(star, sample)
        assert out.mean_distance == average_edge_stretch(
            star, sample, require_noncontraction=False).mean_distance
        # the checked call reads the source once and the target once
        assert [g is sample.target for g in calls[:2]] in ([True, False], [False, True])
        assert calls[2:] == [sample.target]


class TestLowerBoundThreshold:
    def test_hand_values(self):
        assert lower_bound_threshold(1, 16) == Fraction(1, 256)
        assert lower_bound_threshold(2, 256) == Fraction(1, 2048)

    def test_huge_root_is_exact(self):
        assert lower_bound_threshold(1, (2 * 10**200) ** 2) == Fraction(2 * 10**200, 2**10)
        assert lower_bound_threshold(2, (2 * 10**100) ** 4) == Fraction(2 * 10**100, 2**12 * 2)
        with pytest.raises(BadDomain):
            lower_bound_threshold(1, (2 * 10**200) ** 2 + 1)

    def test_bad_domain(self):
        with pytest.raises(BadDomain):
            lower_bound_threshold(1, 10)
        with pytest.raises(BadDomain):
            lower_bound_threshold(1, 9)  # odd root
        with pytest.raises(BadDomain):
            lower_bound_threshold(0, 16)


class TestWitnessVerifier:
    def test_flattened_witness_passes(self):
        g = psi_truncated(1, 16, 2)
        verdict = verify_lower_bound_witness(1, 16, flatten_to_path(g))
        assert verdict.passed
        assert verdict.target_pathwidth <= 1
        assert verdict.mean_distance >= verdict.threshold

    def test_depth_two_witness_passes(self):
        g = psi_truncated(2, 256, 8)
        verdict = verify_lower_bound_witness(2, 256, flatten_to_path(g))
        assert verdict.passed

    def test_target_distances_computed_once(self, monkeypatch):
        # the non-contraction check and the edge average share one target run
        calls = []
        real = harness.shortest_path_metric
        monkeypatch.setattr(harness, "shortest_path_metric",
                            lambda g: calls.append(g) or real(g))
        sample = flatten_to_path(psi_truncated(1, 16, 2))
        assert verify_lower_bound_witness(1, 16, sample).passed
        assert len(calls) == 2
        assert sum(g is sample.target for g in calls) == 1
        assert sum(g is sample.source for g in calls) == 1

    def test_identity_rejected_high_pathwidth(self):
        g = psi_truncated(1, 16, 3)
        with pytest.raises(PreconditionFailed):
            verify_lower_bound_witness(1, 16, identity_sample(g, g))

    def test_non_tree_target_rejected(self):
        g = psi_truncated(1, 16, 2)
        square, _ = cycle(4)
        fmap = {v: v % 4 for v in g.vertices}
        with pytest.raises(PreconditionFailed):
            verify_lower_bound_witness(1, 16, EmbeddingSample(g, square, fmap))


class TestCloseToPath:
    def spider_setup(self):
        # four arms of length 4 around vertex 0
        g = phi(4)
        arms = []
        for leaf in (4, 8, 12, 16):
            # outermost two vertices form the subtree; the rest is the leg
            arms.append({leaf - 1, leaf})
        return g, arms

    def test_far_subtrees_trivially_pass(self):
        g, arms = self.spider_setup()
        sample = identity_sample(g, g)
        path = [0]
        verdict = check_close_to_P(g, 0, arms, path, sample, min_leg=2)
        assert verdict.passed and verdict.near_indices == []

    def test_near_subtrees_inequality_holds(self):
        g, arms = self.spider_setup()
        sample = identity_sample(g, g)
        # a path running through one full arm: that arm's subtree is at
        # distance zero, the others stay far
        path = [0, 1, 2, 3, 4]
        verdict = check_close_to_P(g, 0, arms, path, sample, min_leg=2)
        assert verdict.near_indices == [0]
        assert verdict.passed
        assert verdict.lhs >= verdict.rhs

    def test_flattened_sample_evaluates(self):
        g, arms = self.spider_setup()
        sample = flatten_to_path(g)
        order = sorted(g.vertices)
        path = order[:8]
        verdict = check_close_to_P(g, 0, arms, path, sample, min_leg=2)
        assert verdict.passed  # never a falsification certificate

    def test_short_leg_rejected(self):
        g, arms = self.spider_setup()
        sample = identity_sample(g, g)
        with pytest.raises(HypothesisViolation):
            check_close_to_P(g, 0, arms, [0], sample, min_leg=10)

    def test_overlapping_subtrees_rejected(self):
        g, arms = self.spider_setup()
        arms[1] = arms[0]
        with pytest.raises(HypothesisViolation):
            check_close_to_P(g, 0, arms, [0], identity_sample(g, g), min_leg=2)

    def test_bad_target_path_rejected(self):
        g, arms = self.spider_setup()
        with pytest.raises(HypothesisViolation):
            check_close_to_P(g, 0, arms, [0, 2], identity_sample(g, g), min_leg=2)
