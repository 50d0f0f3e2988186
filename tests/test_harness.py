import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pwtree
from conftest import LENGTHS, flatten_to_path, tree_metric_and_sequence
from distance_reference import reference_distances
from harness_reference import reference_estimate
from pwtree import harness, pw2, pwk
from pwtree.graphs import build_metric_graph, shortest_path_metric
from pwtree.harness import (
    BadDomain,
    BadSourceMetric,
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
    sample_rng,
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
from pwtree.pw2 import draw_coins, embed_pathwidth2, enumerate_pw2_distribution
from pwtree.pwk import draw_prefixes, embed_pathwidthk


def unit_path(n):
    return build_metric_graph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


# four vertices that are not a tree: a two-edge forest, a 4-cycle, and a
# triangle with n - 1 edges that leaves vertex 3 unreached
NON_TREES = {
    "forest": [(0, 1, 1), (2, 3, 1)],
    "cycle": [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)],
    "triangle": [(0, 1, 1), (1, 2, 1), (0, 2, 1)],
}

# maps of the path 0-3 onto itself that send 3 outside the tree or leave it
# out; each used to escape the checkers as a bare KeyError 9 or KeyError 3
OFF_TARGET = {0: 0, 1: 1, 2: 2, 3: 9}
UNMAPPED = {0: 0, 1: 1, 2: 2}


@st.composite
def weighted_trees(draw, max_n=24):
    """Trees from paths (span 1) to random recursive trees, on scattered
    labels, so the root (the smallest label) sits anywhere in the shape."""
    n = draw(st.integers(1, max_n))
    span = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n, unique=True))
    edges = [(labels[v], labels[v - 1 - draw(st.integers(0, min(v, span) - 1))],
              draw(LENGTHS)) for v in range(1, n)]
    return build_metric_graph(labels, edges)


class TestRootedTree:
    """The one layer every target distance comes from, against all-pairs Dijkstra."""

    @settings(max_examples=200, deadline=None)
    @given(t=weighted_trees())
    def test_matches_all_pairs(self, t):
        # a traversed tree is measured at its own scale, that of Dijkstra's table
        dm = shortest_path_metric(t)
        tree = harness._RootedTree(t)
        assert tree.scale == dm.scale
        verts = t.vertices
        idx = range(len(verts))
        rows, pos = tree.rows()
        pairs = list(itertools.product(idx, idx))
        want = [dm.scaled(verts[i], verts[j]) for i, j in pairs]
        assert [rows[i][pos[j]] for i, j in pairs] == want
        assert tree.pair_distances(pairs) == want
        own = harness._tree_metric(tree)
        assert own.scale == dm.scale and list(own.scaled_pairs()) == list(dm.scaled_pairs())
        for a, b in itertools.product(verts, verts):
            path = tree.path(a, b)
            assert (path[0], path[-1]) == (a, b)
            assert len(set(path)) == len(path)
            assert all(t.has_edge(x, y) for x, y in zip(path, path[1:]))

    def test_single_vertex(self):
        t = build_metric_graph(["v"], [])
        tree = harness._RootedTree(t)
        assert tree.rows() == ([[0]], [0])
        assert tree.pair_distances([(0, 0)]) == [0]
        assert tree.path("v", "v") == ["v"]

    def test_deep_path_needs_no_recursion(self):
        # 3,000 levels below the root, past the default recursion limit
        n = 3000
        tree = harness._RootedTree(unit_path(n))
        depth, dist = tree._walk()
        assert max(depth) == max(dist) == n - 1
        assert tree.pair_distances([(0, n - 1), (n - 1, 1), (7, 7)]) == [n - 1, n - 2, 0]
        assert tree.path(n - 1, 0) == list(range(n - 1, -1, -1))

    def test_deep_spider_pairs(self, monkeypatch):
        # three legs of 1,000 below the root: far pairs climb every jump level,
        # in O(log n) steps each where a parent-by-parent climb takes ~1,000
        legs, n = 3, 1000
        label = {(leg, i): 1 + leg * n + i for leg in range(legs) for i in range(n)}
        edges = [(0 if i == 0 else label[leg, i - 1], label[leg, i], 1)
                 for leg in range(legs) for i in range(n)]
        tree = harness._RootedTree(build_metric_graph(range(legs * n + 1), edges))
        rng = random.Random(5)
        ends = [(rng.randrange(legs), rng.randrange(n)) for _ in range(400)]
        pairs = list(zip(ends, ends[1:]))
        want = [abs(i - j) if a == b else i + j + 2 for (a, i), (b, j) in pairs]

        class Reads(list):
            count = 0

            def __getitem__(self, i):
                Reads.count += 1
                return list.__getitem__(self, i)

        walk = harness._RootedTree._walk

        def counted_walk(self):  # pair_distances reads the depths it returns
            depth, dist = walk(self)
            return Reads(depth), dist

        monkeypatch.setattr(harness._RootedTree, "_walk", counted_walk)
        assert tree.pair_distances([(label[x], label[y]) for x, y in pairs]) == want
        size = legs * n + 1
        assert 0 < Reads.count <= 3 * size + 20 * math.log2(size) * len(pairs)

    def test_measured_at_its_links_scale(self):
        # a traversed tree's scale is its integer_scale; the estimate, not
        # the tree, brings it to any other scale (TestOffScaleTargets)
        t = build_metric_graph(range(3), [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2))])
        tree = harness._RootedTree(t)
        assert tree.scale == 6
        assert tree.to_parent == [0, 2, 3]
        assert tree.pair_distances([(0, 1), (0, 2)]) == [2, 5]

    @pytest.mark.parametrize("scale, lcm", [(1, 3), (2, 6), (3, 3), (6, 6)])
    def test_measured_at_the_lcm_of_both_scales(self, scale, lcm, monkeypatch):
        # a tree length off the scale of g refines the estimate's scale
        # instead of failing: the tree keeps its own scale, 3, and the
        # estimate measures it at the lcm of that and the scale of g
        g = build_metric_graph(range(3), [(0, 1, Fraction(1, scale)), (1, 2, 1)])
        t = build_metric_graph(range(3), [(0, 1, Fraction(1, 3)), (1, 2, 1)])
        assert harness._RootedTree(t).scale == 3
        seen, all_pairs = [], harness._Bundle.all_pairs

        def spy(self, sums, sumsq, src_scaled, ends, scale):
            seen.append(scale)
            return all_pairs(self, sums, sumsq, src_scaled, ends, scale)

        monkeypatch.setattr(harness._Bundle, "all_pairs", spy)
        report = estimate_distortion(g, lambda rng: t, 2, 0)
        assert seen == [lcm]
        means = {s.pair: s.mean_distance for s in report.pair_stats}
        assert means == {(0, 1): Fraction(1, 3), (0, 2): Fraction(4, 3), (1, 2): 1}
        assert report.to_json() == reference_estimate(g, lambda rng: t, 2, 0, "all").to_json()


def spy_tables(monkeypatch):
    """(tables, runs): the rooted trees whose n x n table the harness
    builds from here on, and the graphs it runs all-pairs shortest paths on."""
    tables, runs = [], []
    table, run = harness._tree_metric, harness.shortest_path_metric
    monkeypatch.setattr(harness, "_tree_metric", lambda tree: tables.append(tree) or table(tree))
    monkeypatch.setattr(harness, "shortest_path_metric", lambda g: runs.append(g) or run(g))
    return tables, runs


def squeezed(sample):
    """`sample` with every target edge cut to half its length, so that its
    ends contract, and many pairs across it."""
    target = sample.target
    return EmbeddingSample(sample.source, target.with_edges({e: w / 2 for e, w in target.edges()}),
                           sample.fmap)


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

    @pytest.mark.parametrize("fmap", [OFF_TARGET, UNMAPPED], ids=["outside-target", "unmapped"])
    def test_image_outside_the_target_rejected(self, fmap):
        g = unit_path(4)
        with pytest.raises(PreconditionFailed, match=r"every vertex of its source into its "
                                                     r"target \(source vertex 3\)"):
            check_noncontraction(EmbeddingSample(g, g, fmap))

    def test_passing_tree_builds_no_table(self, monkeypatch):
        # a 300-vertex tree laid out on a path: the check reads d_G on the
        # path's 299 links from the source's rooting, with no n x n table
        # and no all-pairs run; it used to build both tables and compare them
        rng = random.Random(11)
        g = build_metric_graph(range(300), [(v, rng.randrange(v), small_rational_lengths(rng))
                                            for v in range(1, 300)])
        sample = flatten_to_path(g)
        tables, runs = spy_tables(monkeypatch)
        assert check_noncontraction(sample) == harness.NonContractionVerdict(True, [])
        assert tables == [] and runs == []
        # a contracting sample builds both tables, once each, and lists its
        # violations pair by pair, in the order of the source's pairs
        bad = squeezed(sample)
        verdict = check_noncontraction(bad)
        assert len(tables) == 2 and runs == []
        d_s, d_t = shortest_path_metric(g), shortest_path_metric(bad.target)
        expected = [(u, v, d_s.dist(u, v), d_t.dist(u, v))
                    for u, v in itertools.combinations(range(300), 2)
                    if d_t.dist(u, v) < d_s.dist(u, v)]
        assert len(expected) > 100
        assert verdict.violations == expected and not verdict.ok


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

    @pytest.mark.parametrize("pairs, runs", [("all", 1), ("edges", 0)])
    def test_source_metric_replaces_the_edges_run(self, monkeypatch, pairs, runs):
        calls = []
        real = harness.shortest_path_metric
        monkeypatch.setattr(harness, "shortest_path_metric",
                            lambda g: calls.append(g) or real(g))
        g, seq = random_pathwidth_graph(2, 12, small_rational_lengths, random.Random(3))
        metric = composed_metric_graph(g, seq)
        estimate_distortion(g, lambda rng: embed_pathwidthk(seq, metric, rng), 20,
                            seed=1, pairs=pairs, source_metric=metric)
        assert len(calls) == runs


class TestSourceMetric:
    """Edges mode reads d_G from the composed metric instead of an all-pairs run."""

    @staticmethod
    def reports(g, seq):
        metric = composed_metric_graph(g, seq)

        def embedder(rng):
            return embed_pathwidthk(seq, metric, rng)

        return [json.dumps(estimate_distortion(g, embedder, 200, seed=4, pairs="edges",
                                               **extra).to_json(), sort_keys=True)
                for extra in ({}, {"source_metric": metric})]

    def test_non_reduced_triangle(self):
        # edge (0, 2) is longer than the path through 1: its d_G is 2
        g = build_metric_graph(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        seq = LinearCompositionSequence(2, (0, 1), [(2, {1, 2})])
        plain, read = self.reports(g, seq)
        assert plain == read
        assert '"source_distance": "2/1"' in read

    def test_random_width_three(self):
        rng = random.Random(8)
        g, seq = random_pathwidth_graph(3, 30, small_rational_lengths, rng)
        # lengthen some edges so that the graph is not reduced
        g = g.with_edges({e: l * rng.choice([1, 3]) for e, l in g.edges()})
        plain, read = self.reports(g, seq)
        assert plain == read

    def test_bad_metrics_rejected(self):
        g, seq = cycle(5)
        metric = composed_metric_graph(g, seq)
        edges = dict(metric.edges())
        missing = metric.with_edges({e: l for e, l in edges.items() if e != (0, 1)})
        longer = metric.with_edges({**edges, (0, 1): Fraction(2)})
        off_scale = metric.with_edges({**edges, (0, 1): Fraction(1, 2)})
        fewer_vertices = composed_metric_graph(*cycle(4))
        for bad in (missing, longer, off_scale, fewer_vertices):
            with pytest.raises(BadSourceMetric):
                estimate_distortion(g, lambda rng: g, 1, seed=0, pairs="edges",
                                    source_metric=bad)
        assert issubclass(BadSourceMetric, ValueError)


class TestEstimateDistortion:
    @pytest.mark.parametrize("tally", ["samples", "outcomes"])
    @pytest.mark.parametrize("fmap", [OFF_TARGET, UNMAPPED], ids=["outside-target", "unmapped"])
    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_image_outside_the_target_rejected(self, pairs, fmap, tally):
        g = unit_path(4)
        outcome = None if tally == "samples" else (lambda rng: 0)
        with pytest.raises(PreconditionFailed, match=r"does not map every vertex of the graph "
                                                     r"into its target \(source vertex 3\)"):
            estimate_distortion(g, lambda rng: EmbeddingSample(g, g, fmap), 3, seed=0,
                                pairs=pairs, outcome=outcome)

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

    @pytest.mark.parametrize("pairs", ["all", "edges"])
    @pytest.mark.parametrize("shape", sorted(NON_TREES))
    def test_non_tree_target_rejected(self, shape, pairs):
        # a forest used to raise TypeError in all mode and give a mean
        # distance of -1 in edges mode; a cycle gave d_T(1, 2) = 3
        target = build_metric_graph(range(4), NON_TREES[shape])
        with pytest.raises(PreconditionFailed):
            estimate_distortion(unit_path(4), lambda rng: target, 5, seed=0, pairs=pairs)

    def test_non_tree_target_rejected_under_optimize(self):
        code = textwrap.dedent("""
            import sys
            from pwtree.graphs import build_metric_graph
            from pwtree.harness import (
                PreconditionFailed, check_noncontraction, estimate_distortion,
                identity_sample)
            if __debug__:
                sys.exit("asserts are live")
            path = build_metric_graph(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
            for edges in ([(0, 1, 1), (2, 3, 1)], [(0, 1, 1), (1, 2, 1), (0, 2, 1)]):
                target = build_metric_graph(range(4), edges)
                for pairs in ("all", "edges"):
                    try:
                        estimate_distortion(path, lambda rng: target, 3, 0, pairs=pairs)
                    except PreconditionFailed:
                        print("raised")
                try:
                    check_noncontraction(identity_sample(path, target))
                except PreconditionFailed:
                    print("raised")
        """)
        src = os.path.dirname(os.path.dirname(pwtree.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["raised"] * 6

    def test_instance_hash_is_stable(self):
        g, _ = cycle(4)
        assert instance_hash(g) == instance_hash(g)
        assert instance_hash(g) != instance_hash(unit_path(4))


class TestOffScaleTargets:
    """Target trees whose lengths are off the scale of g: the estimator moves
    its integers to the lcm of its scale and the tree's."""

    G = unit_path(3)
    T = build_metric_graph(range(3), [(0, 1, Fraction(4, 3)), (1, 2, 1)])
    WANT = {"all": {(0, 1): Fraction(4, 3), (0, 2): Fraction(7, 3), (1, 2): 1},
            "edges": {(0, 1): Fraction(4, 3), (1, 2): 1}}

    @pytest.mark.parametrize("tally", ["samples", "outcomes"])
    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_unit_path_with_a_third(self, pairs, tally):
        # check_noncontraction accepts this sample; the estimator used to
        # raise "target tree length does not fit the instance scale"
        g, t = self.G, self.T
        assert check_noncontraction(identity_sample(g, t)).ok
        outcome = None if tally == "samples" else (lambda rng: 0)
        report = estimate_distortion(g, lambda rng: t, 3, 0, pairs=pairs, outcome=outcome)
        assert {s.pair: s.mean_distance for s in report.pair_stats} == self.WANT[pairs]
        assert all(s.source_distance == s.pair[1] - s.pair[0] for s in report.pair_stats)
        assert report.noncontraction_ok and report.max_mean_stretch == Fraction(4, 3)
        assert report.to_json() == reference_estimate(g, lambda rng: t, 3, 0, pairs).to_json()

    @pytest.mark.parametrize("tally", ["samples", "outcomes"])
    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_scale_refined_mid_run(self, pairs, tally):
        # trees on scales 1, 3, 2 and 10 in random order: each finer one
        # rescales the sums, sums of squares and source distances so far
        g = build_metric_graph(range(4), [(0, 1, 1), (1, 2, Fraction(1, 2)), (2, 3, 2)])
        trees = [g, g.with_edges({(0, 1): Fraction(4, 3), (1, 2): Fraction(1, 2), (2, 3): 2}),
                 g.with_edges({(0, 1): 1, (1, 2): 1, (2, 3): 2}),
                 g.with_edges({(0, 1): Fraction(6, 5), (1, 2): Fraction(1, 2), (2, 3): 3})]
        embedder = lambda rng: trees[rng.randrange(len(trees))]  # noqa: E731
        outcome = None if tally == "samples" else (lambda rng: rng.randrange(len(trees)))
        report = estimate_distortion(g, embedder, 40, 5, pairs=pairs, outcome=outcome)
        assert report.to_json() == reference_estimate(g, embedder, 40, 5, pairs).to_json()
        assert any(s.stderr > 0 for s in report.pair_stats)


def scripted(samples):
    """An embedder that ignores its rng and returns `samples` in order."""
    it = iter(samples)
    return lambda rng: next(it)


def counting_trees(monkeypatch):
    """Counts the target trees the harness measures from here on."""
    built = []

    class Counting(harness._RootedTree):
        __slots__ = ()

        def __init__(self, t):
            built.append(t)
            super().__init__(t)

    monkeypatch.setattr(harness, "_RootedTree", Counting)
    return built


class TestSampleReuse:
    def two_trees(self):
        g, seq = random_pathwidth_graph(2, 8, small_rational_lengths, random.Random(4))
        metric = composed_metric_graph(g, seq)
        trees = {}
        for i in range(50):
            t = embed_pathwidth2(seq, metric, random.Random(i))
            trees.setdefault(frozenset(t.edge_keys()), t)
        a, b = list(trees.values())[:2]
        return g, a, b

    def test_scripted_runs_match_reference(self):
        g, a, b = self.two_trees()
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

    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_each_distinct_sample_measured_once(self, monkeypatch, pairs):
        # a tree that comes back after another one is still measured once
        g, a, b = self.two_trees()
        built = counting_trees(monkeypatch)
        got = estimate_distortion(g, scripted([a, b, a]), 3, 5, pairs=pairs)
        assert built == [a, b]
        assert got.to_json() == reference_estimate(g, scripted([a, b, a]), 3, 5,
                                                   pairs=pairs).to_json()

    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_bare_trees_tallied_without_a_vertex_map(self, monkeypatch, pairs):
        # the value tally keys a bare tree on the vertices of g by itself,
        # so no sample builds an identity vertex map
        g, a, _ = self.two_trees()
        calls, real = [], harness.identity_sample
        monkeypatch.setattr(harness, "identity_sample",
                            lambda *args: calls.append(args) or real(*args))
        got = estimate_distortion(g, lambda rng: a, 200, 5, pairs=pairs)
        assert calls == []
        assert got.to_json() == reference_estimate(g, lambda rng: a, 200, 5, pairs).to_json()

    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_identity_sample_keyed_as_its_bare_tree(self, monkeypatch, pairs):
        # a tree and its identity sample are one sample to the tally, so
        # the tree is rooted and measured once
        g, a, _ = self.two_trees()
        script = [a, identity_sample(g, a)] * 5
        built = counting_trees(monkeypatch)
        got = estimate_distortion(g, scripted(script), len(script), 5, pairs=pairs)
        assert built == [a]
        want = reference_estimate(g, scripted(script), len(script), 5, pairs=pairs)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_outcomes_realized_once_at_their_first_index(self, monkeypatch, pairs):
        g, a, b = self.two_trees()
        outcomes = ["x", "y", "x", "x"]
        tree_of = {"x": a, "y": b}
        streams = [sample_rng(5, i).getstate() for i in range(len(outcomes))]
        realized = []

        def embedder(rng):
            i = streams.index(rng.getstate())
            realized.append(i)
            return tree_of[outcomes[i]]

        built = counting_trees(monkeypatch)
        got = estimate_distortion(g, embedder, len(outcomes), 5, pairs=pairs,
                                  outcome=scripted(outcomes))
        assert realized == [0, 1]
        assert built == [a, b]
        want = reference_estimate(g, scripted([tree_of[x] for x in outcomes]),
                                  len(outcomes), 5, pairs=pairs)
        assert got.to_json() == want.to_json()

    @staticmethod
    def counting_streams(monkeypatch):
        """The indices `harness.sample_rng` is called with, in call order."""
        calls, real = [], harness.sample_rng
        monkeypatch.setattr(harness, "sample_rng", lambda seed, i: calls.append(i) or real(seed, i))
        return calls

    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_a_plan_that_cannot_vary_seeds_one_stream(self, monkeypatch, pairs):
        # no departure of cycle(8) can vary at the default tau, in either
        # sampler, yet every sample seeded its stream; now only the one
        # realization does
        g, seq = cycle(8)
        metric = composed_metric_graph(g, seq)
        calls = self.counting_streams(monkeypatch)
        for embed, draw in ((embed_pathwidthk, draw_prefixes), (embed_pathwidth2, draw_coins)):
            def embedder(r):
                return embed(seq, metric, r)
            want = reference_estimate(g, embedder, 500, 3, pairs=pairs)
            calls.clear()
            got = estimate_distortion(g, embedder, 500, 3, pairs=pairs,
                                      outcome=lambda r: draw(seq, metric, r))
            assert calls == [0]
            assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("pairs", ["all", "edges"])
    def test_a_plan_that_varies_seeds_every_sample(self, monkeypatch, pairs):
        # one stream per sample to draw, then one per distinct outcome to
        # realize it, at its first index
        g, seq = random_pathwidth_graph(2, 12, small_rational_lengths, random.Random(3))
        metric = composed_metric_graph(g, seq)
        calls = self.counting_streams(monkeypatch)
        for embed, draw, plan in ((embed_pathwidthk, draw_prefixes, pwk._plan),
                                  (embed_pathwidth2, draw_coins, pw2._plan)):
            assert plan(seq, metric, None).drawn
            def embedder(r):
                return embed(seq, metric, r)
            want = reference_estimate(g, embedder, 300, 9, pairs=pairs)
            outcomes = [draw(seq, metric, sample_rng(9, i)) for i in range(300)]
            firsts = sorted({x: outcomes.index(x) for x in outcomes}.values())
            assert len(firsts) > 1
            calls.clear()
            got = estimate_distortion(g, embedder, 300, 9, pairs=pairs,
                                      outcome=lambda r: draw(seq, metric, r))
            assert calls == list(range(300)) + firsts
            assert got.to_json() == want.to_json()

    def test_sampled_runs_match_reference(self):
        rng = random.Random(41)
        for k in (2, 3):
            g, seq = random_pathwidth_graph(k, 12, small_rational_lengths, rng)
            metric = composed_metric_graph(g, seq)
            algos = [(lambda r: embed_pathwidthk(seq, metric, r),
                      lambda r: draw_prefixes(seq, metric, r))]
            if k == 2:
                algos.append((lambda r: embed_pathwidth2(seq, metric, r),
                              lambda r: draw_coins(seq, metric, r)))
            for embedder, draw in algos:
                for pairs in ("all", "edges"):
                    want = reference_estimate(g, embedder, 300, 9, pairs=pairs)
                    # tallied by sample, then by draw
                    for outcome in (None, draw):
                        got = estimate_distortion(g, embedder, 300, 9, pairs=pairs,
                                                  outcome=outcome)
                        assert got.to_json() == want.to_json()


class TestBundle:
    """In all-pairs mode the distinct trees of one rooting and vertex map,
    such as those of one plan, are measured in one walk along their order
    (`harness._Bundle`), not one by one."""

    @staticmethod
    def plan_trees(count):
        # distinct pw2 trees of one random width-2 plan, each carrying its links
        g, seq = random_pathwidth_graph(2, 12, small_rational_lengths, random.Random(3))
        metric = composed_metric_graph(g, seq)
        trees = {}
        for i in range(400):
            t = embed_pathwidth2(seq, metric, random.Random(i))
            trees.setdefault(frozenset(t.edge_keys()), t)
        assert len(trees) >= count
        return g, list(trees.values())[:count]

    @staticmethod
    def counting_walks(monkeypatch):
        """The counts of the distinct trees of each bundle walk from here
        on, in the order the bundle met them."""
        walks, real = [], harness._Bundle.rows
        monkeypatch.setattr(harness._Bundle, "rows", lambda self, keys, mult: (
            walks.append([self.counts[key] for key in keys]) or real(self, keys, mult)))
        return walks

    def test_plan_trees_measured_in_one_walk(self, monkeypatch):
        g, trees = self.plan_trees(6)
        # tree i comes i + 1 times, so the weights of the masks take three bits
        script = [t for i, t in enumerate(trees) for _ in range(i + 1)]
        random.Random(7).shuffle(script)
        walks, per_tree, tree_rows = self.counting_walks(monkeypatch), [], harness._RootedTree.rows
        monkeypatch.setattr(harness._RootedTree, "rows", lambda self: (
            per_tree.append(self) or tree_rows(self)))
        got = estimate_distortion(g, scripted(script), len(script), 5, pairs="all")
        assert [sorted(counts) for counts in walks] == [[1, 2, 3, 4, 5, 6]]
        assert per_tree == []
        want = reference_estimate(g, scripted(script), len(script), 5, pairs="all")
        assert got.to_json() == want.to_json()

    def test_a_bundle_past_the_width_is_walked_in_groups(self, monkeypatch):
        # one walk held every tree's distances at once, 2 GB for 20,000
        # trees at n = 80.  Ten trees at width 3 take walks of 3, 3, 3 and
        # 1 tree; the last tree is not the first, so its walk must not read
        # the first tree's rows
        monkeypatch.setattr(harness, "_WALK_WIDTH", 3)
        g, trees = self.plan_trees(10)
        script = [t for i, t in enumerate(trees) for _ in range(i % 4 + 1)]
        random.Random(2).shuffle(script)
        walks, per_tree, tree_rows = self.counting_walks(monkeypatch), [], harness._RootedTree.rows
        monkeypatch.setattr(harness._RootedTree, "rows", lambda self: (
            per_tree.append(self) or tree_rows(self)))
        got = estimate_distortion(g, scripted(script), len(script), 5, pairs="all")
        assert [len(counts) for counts in walks] == [3, 3, 3, 1]
        assert sorted(sum(walks, [])) == sorted(i % 4 + 1 for i in range(10))
        assert per_tree == []
        want = reference_estimate(g, scripted(script), len(script), 5, pairs="all")
        assert got.to_json() == want.to_json()

    def test_a_finer_tree_after_the_plan_trees(self):
        # a tree without links whose lengths are off every scale so far is
        # measured on its own and refines the scale the bundle is read at
        g, (a, b, c) = self.plan_trees(3)
        (e, length), *rest = a.edges()
        finer = g.with_edges({e: length + Fraction(1, 7), **dict(rest)})
        assert finer._links is None
        script = [a, b, finer, c, a, b, b]
        got = estimate_distortion(g, scripted(script), len(script), 5, pairs="all")
        want = reference_estimate(g, scripted(script), len(script), 5, pairs="all")
        assert got.to_json() == want.to_json()

    def test_trees_without_links_share_a_rooting(self, monkeypatch):
        # one path with different integer lengths: one traversal order and
        # scale, so one walk; a half-integer length puts its tree on a
        # scale of its own, measured from its rows
        g = unit_path(6)
        paths = [build_metric_graph(range(6), [(i, i + 1, (i * w) % 4 + 1) for i in range(5)])
                 for w in range(4)]
        half = build_metric_graph(range(6), [(i, i + 1, Fraction(3, 2)) for i in range(5)])
        assert all(t._links is None for t in paths)
        script = [paths[0], half, paths[1], paths[2], paths[0], paths[3], paths[3], paths[3]]
        walks = self.counting_walks(monkeypatch)
        got = estimate_distortion(g, scripted(script), len(script), 5, pairs="all")
        assert walks == [[2, 1, 1, 3]]
        want = reference_estimate(g, scripted(script), len(script), 5, pairs="all")
        assert got.to_json() == want.to_json()

    def test_two_vertices_of_g_at_one_tree_vertex(self, monkeypatch):
        # 2 and 3 of g both map to tree vertex 2, so the pair (2, 3) is at
        # distance zero in every tree and contracts in every sample
        g = unit_path(4)
        fmap = {0: 0, 1: 1, 2: 2, 3: 2}
        a, b = (EmbeddingSample(g, build_metric_graph(range(3), [(0, 1, 1), (1, 2, w)]), fmap)
                for w in (1, 2))
        script = [a, b, a, a, b]
        walks = self.counting_walks(monkeypatch)
        got = estimate_distortion(g, scripted(script), len(script), 5, pairs="all")
        assert walks == [[3, 2]]
        want = reference_estimate(g, scripted(script), len(script), 5, pairs="all")
        assert got.to_json() == want.to_json()
        # (2, 3) in all 5 samples; (1, 3) and (0, 3) in the 3 samples of a
        assert got.violation_count == 5 + 3 + 3

    def test_more_edges_than_a_byte_names_in_a_run(self, monkeypatch):
        # 300 single-edge trees: the one vertex below the root hangs by 300
        # distinct edges, past the 256 that a byte names
        g = build_metric_graph(range(2), [(0, 1, 1)])
        script = [build_metric_graph(range(2), [(0, 1, w)]) for w in range(1, 301)]
        script += script[::7]  # some trees twice, so the weights take two bits
        bundles = recording_bundles(monkeypatch)
        got = estimate_distortion(g, scripted(script), len(script), 5, pairs="all")
        (bundle,) = bundles
        (moves,) = bundle._changed(bundle.counts).values()
        # every tree but the first moves vertex 1, each to its own edge
        assert [t for t, _, _ in moves] == list(range(1, 300))
        assert len({(p, w) for _, p, w in moves}) == 299
        want = reference_estimate(g, scripted(script), len(script), 5, pairs="all")
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("k, algo, n", [(2, "pwk", 22), (3, "pwk", 22), (4, "pwk", 22),
                                            (2, "pw2", 14)])
    def test_sampled_plans(self, monkeypatch, k, algo, n):
        # at tau = 1 one plan's bundle holds more distinct trees than a
        # 64-bit word has bits, and their counts take several bits
        g, seq = random_pathwidth_graph(k, n, small_rational_lengths, random.Random(1))
        metric = composed_metric_graph(g, seq)
        embed, draw = ((embed_pathwidthk, draw_prefixes) if algo == "pwk"
                       else (embed_pathwidth2, draw_coins))

        def embedder(r):
            return embed(seq, metric, r, 1)

        bundles = recording_bundles(monkeypatch)
        got = estimate_distortion(g, embedder, 400, 3, pairs="all",
                                  outcome=lambda r: draw(seq, metric, r, 1))
        assert got.to_json() == reference_estimate(g, embedder, 400, 3, pairs="all").to_json()
        (bundle,) = bundles
        assert len(bundle.counts) > 64
        assert max(bundle.counts.values()).bit_length() >= 3


def recording_bundles(monkeypatch):
    """The bundles the estimates make from here on."""
    made = []

    class Recording(harness._Bundle):
        __slots__ = ()

        def __init__(self, tree):
            made.append(self)
            super().__init__(tree)

    monkeypatch.setattr(harness, "_Bundle", Recording)
    return made


class TestEdgeBundle:
    """Over the edges of g, the distinct trees of one rooting and vertex
    map are measured together too: a pair whose path in the first tree
    crosses no link that varies is climbed once, and only the others are
    measured per tree."""

    G = unit_path(6)  # edges (0, 1), ..., (4, 5)

    @staticmethod
    def path_like(*edges):
        """A tree on 0..5 from (u, v, length) edges; each tree here has the
        breadth-first order 0..5, so all of them share one rooting."""
        t = build_metric_graph(range(6), edges)
        assert harness._RootedTree(t).order == list(range(6))
        return t

    def trees(self):
        path = [(i, i + 1, 1) for i in range(5)]
        a = self.path_like(*path)
        b = self.path_like(*path[:4], (3, 5, 2))  # 5 hangs from 3, off the path of (3, 4)
        c = self.path_like((0, 1, 1), (0, 2, 1), *path[2:])  # 2 hangs from 0, on (1, 2)
        d = self.path_like(*path[:4], (4, 5, 3))  # only the length of 5's link differs
        return a, b, c, d

    def check(self, script, monkeypatch, **kw):
        bundles = recording_bundles(monkeypatch)
        embedder = scripted(script)
        got = estimate_distortion(self.G, embedder, len(script), 5, pairs="edges", **kw)
        want = reference_estimate(self.G, scripted(script), len(script), 5, pairs="edges")
        assert got.to_json() == want.to_json()
        return got, bundles

    def test_trees_that_differ_on_and_off_an_edge_path(self, monkeypatch):
        a, b, c, d = self.trees()
        _, bundles = self.check([a, b, a, c, d, b, a], monkeypatch)
        (bundle,) = bundles
        assert list(bundle.counts.values()) == [3, 2, 1, 1]

    def test_stable_pairs_climbed_once_per_bundle(self, monkeypatch):
        # 5's link varies, so only the pair (4, 5) crosses it: the other
        # four edges climb once for all the trees, and (4, 5) once per tree
        a, b, _, d = self.trees()
        calls, climber = [], harness._RootedTree._climber

        def counted(self):
            lca, dist = climber(self)
            return (lambda x, y: calls.append((x, y)) or lca(x, y)), dist

        monkeypatch.setattr(harness._RootedTree, "_climber", counted)
        self.check([a, b, d, a, b, a], monkeypatch)
        stable = [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert [calls.count(p) for p in stable] == [1, 1, 1, 1]
        assert len(calls) == len(stable) + 3

    def test_one_link_stored_per_tree_that_differs_at_one_vertex(self, monkeypatch):
        a, b, _, d = self.trees()
        e = self.path_like(*[(i, i + 1, 1) for i in range(4)], (3, 5, 1))
        _, (bundle,) = self.check([a, b, d, e, b], monkeypatch)
        assert list(bundle.counts) == [(), ((5, 3, 2),), ((5, 4, 3),), ((5, 3, 1),)]
        assert list(bundle.counts.values()) == [1, 2, 1, 1]

    def test_equal_trees_of_different_outcomes_merged(self, monkeypatch):
        # "x" and "w" realize equal trees, built apart, and so do "y" and
        # "z": one bundle entry each
        a, b, _, _ = self.trees()
        path = [(i, i + 1, 1) for i in range(5)]
        a_again, b_again = self.path_like(*path), self.path_like(*path[:4], (3, 5, 2))
        assert (a_again, b_again) == (a, b) and a_again is not a and b_again is not b
        outcomes = ["x", "y", "z", "x", "z", "y", "w", "z"]
        tree_of = {"x": a, "y": b, "z": b_again, "w": a_again}
        realized = iter(tree_of[x] for x in dict.fromkeys(outcomes))
        bundles = recording_bundles(monkeypatch)
        got = estimate_distortion(self.G, lambda rng: next(realized), len(outcomes), 5,
                                  pairs="edges", outcome=scripted(outcomes))
        (bundle,) = bundles
        assert list(bundle.counts.values()) == [3, 5]
        want = reference_estimate(self.G, scripted([tree_of[x] for x in outcomes]),
                                  len(outcomes), 5, pairs="edges")
        assert got.to_json() == want.to_json()

    def test_tree_off_the_scale_mid_run(self, monkeypatch):
        # a third on one tree moves the estimate to scale 3 after the
        # bundle of integer trees began; that bundle is read at 3 too
        a, b, c, d = self.trees()
        third = self.path_like(*[(i, i + 1, Fraction(4, 3)) for i in range(5)])
        _, bundles = self.check([a, b, third, c, a, d, b], monkeypatch)
        assert [bundle.first.scale for bundle in bundles] == [1, 3]
        assert list(bundles[0].counts.values()) == [2, 2, 1, 1]

    def test_two_vertices_of_g_at_one_tree_vertex(self, monkeypatch):
        # 4 and 5 of g both map to tree vertex 4, so the edge (4, 5) is at
        # distance zero in every tree and contracts in every sample
        fmap = {v: min(v, 4) for v in range(6)}
        path = [(i, i + 1, 1) for i in range(4)]
        a = build_metric_graph(range(5), path)
        b = build_metric_graph(range(5), path[:3] + [(2, 4, 1)])  # 4 hangs from 2
        script = [EmbeddingSample(self.G, t, fmap) for t in (a, b, a, b, b)]
        got, (bundle,) = self.check(script, monkeypatch)
        assert list(bundle.counts.values()) == [2, 3]
        # (4, 5) in all 5 samples; (3, 4) is at 2 > 1 in b, so no more
        assert got.violation_count == 5

    @pytest.mark.parametrize("k, algo", [(2, "pwk"), (3, "pwk"), (2, "pw2")])
    def test_sampled_plans(self, monkeypatch, k, algo):
        # at tau = 1 each plan's trees vary, so some links vary and some
        # edges cross them, but not all
        g, seq = random_pathwidth_graph(k, 18, small_rational_lengths, random.Random(1))
        metric = composed_metric_graph(g, seq)
        embed, draw = ((embed_pathwidthk, draw_prefixes) if algo == "pwk"
                       else (embed_pathwidth2, draw_coins))

        def embedder(r):
            return embed(seq, metric, r, 1)

        bundles = recording_bundles(monkeypatch)
        got = estimate_distortion(g, embedder, 200, 3, pairs="edges", source_metric=metric,
                                  outcome=lambda r: draw(seq, metric, r, 1))
        assert got.to_json() == reference_estimate(g, embedder, 200, 3, pairs="edges").to_json()
        (bundle,) = bundles
        assert len(bundle.counts) > 10
        assert 0 < len(bundle._changed(bundle.counts)) < g.n - 1


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

    @pytest.mark.parametrize("shape", sorted(NON_TREES))
    def test_non_tree_target_rejected(self, shape):
        g = unit_path(4)
        sample = identity_sample(g, build_metric_graph(range(4), NON_TREES[shape]))
        with pytest.raises(PreconditionFailed):
            average_edge_stretch(g, sample, require_noncontraction=False)
        with pytest.raises(PreconditionFailed):
            check_noncontraction(sample)

    @pytest.mark.parametrize("require_noncontraction", [True, False])
    def test_unmapped_vertex_rejected(self, require_noncontraction):
        # vertex 4 of the graph is outside the sample's map; its edge (3, 4)
        # used to escape as a bare KeyError 4
        g = unit_path(5)
        sample = identity_sample(unit_path(4), unit_path(4))
        with pytest.raises(PreconditionFailed, match="does not map"):
            average_edge_stretch(g, sample, require_noncontraction=require_noncontraction)

    @pytest.mark.parametrize("require_noncontraction", [True, False])
    def test_image_outside_the_target_rejected(self, require_noncontraction):
        g = unit_path(4)
        with pytest.raises(PreconditionFailed,
                           match=r"of the source graph into its target \(source vertex 3\)"):
            average_edge_stretch(g, EmbeddingSample(g, g, OFF_TARGET),
                                 require_noncontraction=require_noncontraction)

    def test_sample_source_checked_only_for_noncontraction(self):
        # the sample's source has a vertex g lacks; only the sweep reads it
        g, source = unit_path(3), unit_path(4)
        sample = EmbeddingSample(source, source, {v: v for v in g.vertices})
        assert average_edge_stretch(g, sample, require_noncontraction=False).mean_distance == 1
        with pytest.raises(PreconditionFailed,
                           match=r"of its source into its target \(source vertex 3\)"):
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
        # the source is a tree, so its distances come from the rooted-tree
        # layer as the target's do: no all-pairs run at all
        assert calls == []
        # a source with a cycle gets one run, in the checked call
        square, _ = cycle(4)
        assert average_edge_stretch(square, flatten_to_path(square)).mean_distance == Fraction(3, 2)
        assert calls == [square]

    def test_target_table_only_for_the_check(self, monkeypatch):
        # the edge average reads the target's distances on the edges alone;
        # its n x n table used to be built even without the check, and the
        # check built the source's table and the target's.  A passing check
        # on a tree source now reads d_G on the target's links from the
        # source's rooting, and builds no table at all
        tables, runs = spy_tables(monkeypatch)
        rng = random.Random(5)
        g = build_metric_graph(range(40), [(v, rng.randrange(v), small_rational_lengths(rng))
                                           for v in range(1, 40)])
        sample = flatten_to_path(g)
        unchecked = average_edge_stretch(g, sample, require_noncontraction=False)
        assert tables == []
        assert average_edge_stretch(g, sample) == unchecked
        assert tables == [] and runs == []
        # a contracting sample builds the source's table and the target's,
        # once each, to list its violations
        with pytest.raises(PreconditionFailed):
            average_edge_stretch(g, squeezed(sample))
        assert len(tables) == 2 and runs == []


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
        # one all-pairs run on the source; the target's rooted-tree layer
        # serves both the non-contraction check and the edge average
        calls = []
        real = harness.shortest_path_metric
        monkeypatch.setattr(harness, "shortest_path_metric",
                            lambda g: calls.append(g) or real(g))
        sample = flatten_to_path(psi_truncated(1, 16, 2))
        assert verify_lower_bound_witness(1, 16, sample).passed
        # the source is a tree too: its rooting gives its distances
        assert calls == []
        # a source with a cycle gets exactly one run
        square, _ = cycle(4)
        assert verify_lower_bound_witness(1, 16, flatten_to_path(square)).passed
        assert calls == [square]

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

    def test_image_outside_the_target_rejected(self):
        g = unit_path(4)
        with pytest.raises(PreconditionFailed,
                           match=r"of the source graph into its target \(source vertex 3\)"):
            verify_lower_bound_witness(1, 16, EmbeddingSample(g, g, OFF_TARGET))


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

    def test_no_distance_run_on_s(self, monkeypatch):
        # s is a tree: one rooting gives its distances, which also serve the
        # non-contraction check when s is the sample's source, and its legs;
        # another tree source gets a rooting of its own, and only a source
        # that is not a tree gets an all-pairs run
        calls = []
        real = harness.shortest_path_metric
        monkeypatch.setattr(harness, "shortest_path_metric",
                            lambda g: calls.append(g) or real(g))
        rooted = counting_trees(monkeypatch)
        g, arms = self.spider_setup()
        sample = flatten_to_path(g)
        path = sorted(g.vertices)[:8]
        check_close_to_P(g, 0, arms, path, sample, min_leg=2)
        assert calls == [] and rooted == [g, sample.target]
        shorter = g.with_edges({e: length / 2 for e, length in g.edges()})
        check_close_to_P(g, 0, arms, path, EmbeddingSample(shorter, sample.target, sample.fmap),
                         min_leg=2)
        assert calls == [] and rooted[2:] == [g, sample.target, shorter]
        chord = shorter.with_edges({**dict(shorter.edges()), (4, 8): Fraction(100)})
        check_close_to_P(g, 0, arms, path, EmbeddingSample(chord, sample.target, sample.fmap),
                         min_leg=2)
        assert calls == [chord]

    def test_contraction_reported_before_hypotheses(self):
        # a contracting sample with a too-short leg fails on the contraction
        g, arms = self.spider_setup()
        sample = EmbeddingSample(g, g, {v: 0 if v else 1 for v in g.vertices})
        with pytest.raises(HypothesisViolation, match="contracts"):
            check_close_to_P(g, 0, arms, [0], sample, min_leg=10)

    def test_overlapping_subtrees_rejected(self):
        g, arms = self.spider_setup()
        arms[1] = arms[0]
        with pytest.raises(HypothesisViolation):
            check_close_to_P(g, 0, arms, [0], identity_sample(g, g), min_leg=2)

    @pytest.mark.parametrize("edges, subtrees, message", [
        # the legs 0-1-2-3 and 0-1-4-5 share the edge (0, 1)
        ([(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 4, 1), (4, 5, 1)], [{3}, {5}],
         "share more than the root"),
        # the leg 0-1-2-3-4 runs through the subtree {2}
        ([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)], [{2}, {4}],
         "passes through a subtree"),
    ])
    def test_bad_legs_rejected(self, edges, subtrees, message):
        s = build_metric_graph({v for e in edges for v in e[:2]}, edges)
        with pytest.raises(HypothesisViolation, match=message):
            check_close_to_P(s, 0, subtrees, [0], identity_sample(s, s), min_leg=1)

    @pytest.mark.parametrize("subtrees", [[{5}, {1, 4}], [{1, 4}, {5}]], ids=["after", "before"])
    def test_leg_through_a_subtree_rejected_in_any_order(self, subtrees):
        # the leg 0-3-4-5 runs through the subtree {1, 4}; each leg used to be
        # checked only against the subtrees listed up to its own, so listing
        # {5} first passed
        s = build_metric_graph(range(6), [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (4, 5, 1)])
        with pytest.raises(HypothesisViolation, match="passes through a subtree"):
            check_close_to_P(s, 0, subtrees, [0], identity_sample(s, s), min_leg=1)

    @pytest.mark.parametrize("root, subtrees, path, message", [
        (9, [{3}], [0], "root 9 is not a vertex of s"),
        (0, [{3}, {9}], [0], "subtree 1 leaves the vertex set"),
        (0, [{4}], [7], "leaves the target tree"),
        (0, [{4}], [], "target path is empty"),
    ])
    def test_foreign_vertices_rejected(self, root, subtrees, path, message):
        # the first three used to escape as a bare KeyError, the empty path
        # as min()'s ValueError.  The parameters of test_bad_legs_rejected
        # have no root or path, so these cases live beside it
        s = build_metric_graph(range(5), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        with pytest.raises(HypothesisViolation, match=message):
            check_close_to_P(s, root, subtrees, path, identity_sample(s, s), min_leg=1)

    def test_unmapped_vertex_rejected(self):
        # every subtree is inside the sample's map, but the sum over s's
        # edges walks (3, 4) and used to escape as a bare KeyError 4
        s = build_metric_graph(range(5), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        g = s.induced(range(4))
        with pytest.raises(HypothesisViolation, match="does not map every vertex of s"):
            check_close_to_P(s, 0, [{3}], [0], identity_sample(g, g), min_leg=1)

    def test_image_outside_the_target_rejected(self):
        g = unit_path(4)
        with pytest.raises(HypothesisViolation,
                           match=r"every vertex of s into its target \(source vertex 3\)"):
            check_close_to_P(g, 0, [{3}], [0], EmbeddingSample(g, g, OFF_TARGET), min_leg=1)

    def test_sample_source_outside_s_rejected(self):
        # s is mapped; the sweep also reads the sample's source, whose vertex 3 is not
        s, source = unit_path(3), unit_path(4)
        sample = EmbeddingSample(source, source, {v: v for v in s.vertices})
        with pytest.raises(HypothesisViolation,
                           match=r"every vertex of its source into its target \(source vertex 3\)"):
            check_close_to_P(s, 0, [{2}], [0], sample, min_leg=1)

    def test_cyclic_source_rejected(self):
        # a chord (2, 4) of length d(2, 4) = 2 changes no distance, so the
        # sample stays non-contractive, but s is no longer a tree
        g, arms = self.spider_setup()
        s = g.with_edges({**dict(g.edges()), (2, 4): Fraction(2)})
        with pytest.raises(HypothesisViolation, match="not a tree"):
            check_close_to_P(s, 0, arms, [0], identity_sample(s, g), min_leg=2)

    def test_bad_target_path_rejected(self):
        g, arms = self.spider_setup()
        with pytest.raises(HypothesisViolation):
            check_close_to_P(g, 0, arms, [0, 2], identity_sample(g, g), min_leg=2)
