import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import layout_reference
import pwtree
import pwtree.pathwidth as pw
import tree_pathwidth_reference as reference
from conftest import LENGTHS, all_trees_up_to, neighbor_sets, random_unit_tree, tree_sequence
from pwtree.graphs import InfiniteDistance, build_metric_graph, is_tree, shortest_path_metric
from pwtree.instances import phi, psi, random_pathwidth_graph, small_rational_lengths
from pwtree.pathwidth import (
    BadSequence,
    BrokenInterval,
    DecompositionError,
    LinearCompositionSequence,
    NotATree,
    PathDecomposition,
    PathwidthTooLow,
    TooLarge,
    UncoveredEdge,
    UncoveredVertex,
    _branch_widths,
    bag_distances,
    composed_graph,
    composed_metric_graph,
    composition_from_json,
    composition_to_decomposition,
    composition_to_json,
    decomposition_from_json,
    decomposition_to_composition,
    decomposition_to_json,
    exact_path_decomposition,
    exact_pathwidth,
    normalize_decomposition,
    peel_path,
    tree_path_decomposition,
    tree_pathwidth,
    validate_path_decomposition,
)


def branch_table(t):
    """`_branch_widths` of a whole tree with its vertex labels; the table
    lists the vertices in ascending order, as `_peel` reads them."""
    adj, order, parent = pw._rooted(t)
    level, table = _branch_widths(adj, order, parent, [None] * t.n, [None] * t.n)
    assert list(table) == sorted(table)
    verts = t.vertices
    return level, {verts[v]: [(verts[u], w) for u, w in branches]
                   for v, branches in table.items()}


def unit_path(n):
    return build_metric_graph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def complete(n):
    return build_metric_graph(
        range(n), [(i, j, 1) for i in range(n) for j in range(i + 1, n)]
    )


FOUR_CYCLE = build_metric_graph(
    [0, 1, 2, 3], [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
)

NON_TREES = {
    "empty": build_metric_graph([], []),
    "forest": build_metric_graph(range(4), [(0, 1, 1), (2, 3, 1)]),
    # m = n - 1, so only the traversal's reach check catches it
    "triangle-and-vertex": build_metric_graph(range(4), [(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
    "4-cycle": FOUR_CYCLE,
}


@st.composite
def trees(draw, max_n=40):
    """Trees from paths (span 1) to random recursive trees, randomly labelled."""
    n = draw(st.integers(1, max_n))
    span = draw(st.integers(1, n))
    picks = draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
    label = draw(st.permutations(range(n)))
    edges = [(label[v], label[v - 1 - picks[v - 1] % min(v, span)], 1) for v in range(1, n)]
    return build_metric_graph(range(n), edges)


def spider(legs):
    """A centre 0 with `legs` legs of 1, 2 and 3 edges in turn."""
    edges = []
    nxt = 1
    for i in range(legs):
        prev = 0
        for _ in range(1 + i % 3):
            edges.append((prev, nxt, 1))
            prev, nxt = nxt, nxt + 1
    return build_metric_graph(range(nxt), edges)


def validate_reference(g, pd):
    """The scan-every-bag validator that the one-pass check replaced."""
    covered = set().union(*pd.bags)
    for v in g.vertices:
        if v not in covered:
            raise UncoveredVertex(f"vertex {v!r} appears in no bag")
    for (u, v) in g.edge_keys():
        if not any(u in b and v in b for b in pd.bags):
            raise UncoveredEdge(f"edge ({u!r}, {v!r}) is inside no bag")
    for v in covered:
        indices = [i for i, b in enumerate(pd.bags) if v in b]
        if indices[-1] - indices[0] + 1 != len(indices):
            raise BrokenInterval(f"bag indices of {v!r} are not contiguous: {indices}")
    return pd.width


class TestValidate:
    def test_path_bags(self):
        pd = PathDecomposition([{0, 1}, {1, 2}])
        assert validate_path_decomposition(unit_path(3), pd) == 1

    def test_uncovered_edge(self):
        with pytest.raises(UncoveredEdge):
            validate_path_decomposition(
                unit_path(3), PathDecomposition([{0, 1}, {2}])
            )

    def test_uncovered_vertex(self):
        with pytest.raises(UncoveredVertex):
            validate_path_decomposition(unit_path(3), PathDecomposition([{0, 1}]))

    def test_broken_interval(self):
        with pytest.raises(BrokenInterval):
            validate_path_decomposition(
                unit_path(3), PathDecomposition([{0, 1}, {1, 2}, {0, 2}])
            )

    def test_overlapping_span_without_common_bag(self):
        # 0's bags 0 and 2 straddle 1's bag 1: the spans meet but no bag
        # holds the edge, and the edge check comes before the interval check
        with pytest.raises(UncoveredEdge, match=r"edge \(0, 1\)"):
            validate_path_decomposition(
                unit_path(2), PathDecomposition([{0}, {1}, {0}])
            )

    @given(st.integers(2, 9), st.lists(st.sets(st.integers(0, 10), max_size=5),
                                       min_size=1, max_size=8), st.integers(0, 2**30))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, n, bags, seed):
        # the same verdict, error class and offender as scanning every bag
        g = random_unit_tree(n, random.Random(seed))
        pd = PathDecomposition(bags)

        def outcome(check):
            try:
                return check(g, pd)
            except DecompositionError as exc:
                return type(exc), str(exc)

        assert outcome(validate_path_decomposition) == outcome(validate_reference)


class TestCompositionSequences:
    def test_path_sequence(self):
        seq = LinearCompositionSequence(1, [0], [(1, {1}), (2, {2})])
        pd = composition_to_decomposition(seq)
        assert [sorted(b) for b in pd.bags] == [[0, 1], [1, 2]]
        assert validate_path_decomposition(composed_graph(seq), pd) == 1

    def test_four_cycle_sequence(self):
        seq = LinearCompositionSequence(2, [0, 1], [(2, {0, 2}), (3, {0, 3})])
        pd = composition_to_decomposition(seq)
        assert [sorted(b) for b in pd.bags] == [[0, 1, 2], [0, 2, 3]]
        assert validate_path_decomposition(composed_graph(seq), pd) == 2
        assert FOUR_CYCLE.edge_keys() <= composed_graph(seq).edge_keys()

    def test_departures(self):
        # the window stays on {0, 1} (2 departs), then slides to {1, 3}
        # (0 departs), then to {3, 4} (1 departs)
        seq = LinearCompositionSequence(2, [0, 1], [(2, {0, 1}), (3, {1, 3}), (4, {3, 4})])
        assert list(seq.departures()) == [
            (2, {0, 1}, 2, {0, 1}), (3, {0, 1}, 0, {1, 3}), (4, {1, 3}, 1, {3, 4})]
        assert list(LinearCompositionSequence(2, [0, 1], []).departures()) == []

    def test_zero_steps(self):
        seq = LinearCompositionSequence(3, [0, 1, 2], [])
        pd = composition_to_decomposition(seq)
        assert pd.bags == (frozenset({0, 1, 2}),)
        assert pd.width == 2

    def test_repeated_vertex_rejected(self):
        with pytest.raises(BadSequence):
            LinearCompositionSequence(1, [0], [(0, {0})])

    def test_bad_window_rejected(self):
        with pytest.raises(BadSequence):
            LinearCompositionSequence(2, [0, 1], [(2, {3, 4})])

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", True, None])
    def test_non_int_width_rejected(self, k):
        # int(k) used to turn 2.5 into a width-2 sequence and True into width 1
        with pytest.raises(BadSequence, match="must be an int"):
            LinearCompositionSequence(k, [0, 1], [(2, {0, 2})])
        data = composition_to_json(LinearCompositionSequence(2, [0, 1], [(2, {0, 2})]))
        with pytest.raises(BadSequence, match="must be an int"):
            composition_from_json(dict(data, k=k))

    def test_json_round_trip(self):
        seq = LinearCompositionSequence(2, [0, 1], [(2, {0, 2}), (3, {0, 3})])
        data = composition_to_json(seq)
        back = composition_from_json(data)
        assert back.k == seq.k and back.initial == seq.initial
        assert back.steps == seq.steps


class TestComposedMetric:
    # a width-2 sequence on 4 vertices: bags {0,1,2} and {1,2,3} miss (0, 3)
    WIDTH_TWO = LinearCompositionSequence(2, (0, 1), [(2, {1, 2}), (3, {2, 3})])

    def test_edge_in_no_bag_rejected(self):
        # K4 has pathwidth 3, so no width-2 sequence can witness it
        with pytest.raises(BadSequence, match=r"edge \(0, 3\)"):
            composed_metric_graph(complete(4), self.WIDTH_TWO)

    def test_first_missing_edge_named(self):
        # bags {0,1,2}, {1,2,3}, {2,3,4}: (0, 4) and (1, 4) lie in none
        seq = LinearCompositionSequence(2, (0, 1), [(2, {1, 2}), (3, {2, 3}), (4, {3, 4})])
        g = build_metric_graph(range(5), [(1, 4, 1), (0, 4, 1), (0, 1, 1), (2, 3, 1)])
        with pytest.raises(BadSequence, match=r"edge \(0, 4\)"):
            composed_metric_graph(g, seq)


def random_composition(k, n, rng):
    """A width-k sequence on range(n), drawn like the random generator's."""
    window = list(range(k))
    steps = []
    for v in range(k, n):
        pool = window + [v]
        rng.shuffle(pool)
        window = sorted(pool[:k])
        steps.append((v, window))
    return LinearCompositionSequence(k, range(k), steps)


class TestBagDistances:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 4), extra=st.integers(0, 14), parts=st.integers(1, 3),
           seed=st.integers(0, 2**32), data=st.data())
    def test_matches_all_pairs_on_every_bag_pair(self, k, extra, parts, seed, data):
        # extra = 0 is a sequence with no steps: one bag; parts > 1 keeps only
        # edges inside parts of a random vertex partition, so the graph
        # falls apart into several components
        rng = random.Random(seed)
        seq = random_composition(k, k + extra, rng)
        part = [rng.randrange(parts) for _ in range(k + extra)]
        kept = [e for e in sorted(seq.composed_edges())
                if part[e[0]] == part[e[1]] and rng.random() < 0.7]
        g = build_metric_graph(range(k + extra),
                               [(u, v, data.draw(LENGTHS)) for u, v in kept])
        dists, scale = bag_distances(g, seq)
        dm = shortest_path_metric(g)
        assert scale == dm.scale
        assert set(dists) == seq.composed_edges()
        for (u, v), d in dists.items():
            assert d == dm.scaled(u, v)

    def test_shortcut_through_a_later_bag(self):
        # bags {0,1,2} and {1,2,3}: d(1, 2) = 2 runs through 3, which only
        # the backward sweep brings into the first bag
        seq = LinearCompositionSequence(2, (0, 1), [(2, {1, 2}), (3, {2, 3})])
        g = build_metric_graph(range(4), [(0, 1, 1), (1, 2, 10), (1, 3, 1), (2, 3, 1)])
        dists, scale = bag_distances(g, seq)
        assert scale == 1
        assert dists == {(0, 1): 1, (0, 2): 3, (1, 2): 2, (1, 3): 1, (2, 3): 1}

    @pytest.mark.parametrize("edges, expected", [
        ([(0, 1, 1), (2, 3, 1)], {(0, 1): 1, (1, 2): None, (2, 3): 1}),
        ([(0, 1, 1)], {(0, 1): 1, (1, 2): None, (2, 3): None}),
    ])
    def test_disconnected_pairs_are_none(self, edges, expected):
        # a width-1 path sequence with two, then three components
        seq = LinearCompositionSequence(1, (0,), [(1, {1}), (2, {2}), (3, {3})])
        dists, _ = bag_distances(build_metric_graph(range(4), edges), seq)
        assert dists == expected

    def test_one_bag(self):
        seq = LinearCompositionSequence(3, (0, 1, 2), [])
        g = build_metric_graph(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        assert bag_distances(g, seq) == ({(0, 1): 1, (0, 2): 2, (1, 2): 1}, 1)

    def test_errors_raised_without_asserts(self):
        # disconnected input and an uncovered edge are named errors, also
        # under python -O
        code = textwrap.dedent("""
            import sys
            from pwtree.graphs import InfiniteDistance, build_metric_graph
            from pwtree.pathwidth import (
                BadSequence, LinearCompositionSequence, composed_metric_graph)
            if __debug__:
                sys.exit("asserts are live")
            seq = LinearCompositionSequence(2, (0, 1), [(2, {1, 2}), (3, {2, 3})])
            try:
                composed_metric_graph(build_metric_graph(range(4), [(0, 1, 1), (2, 3, 1)]), seq)
            except InfiniteDistance:
                print("infinite")
            # bags {0,1,2}, {1,2,3}, {2,3,4}: (0, 4) and (1, 4) lie in none
            seq = LinearCompositionSequence(
                2, (0, 1), [(2, {1, 2}), (3, {2, 3}), (4, {3, 4})])
            g = build_metric_graph(range(5), [(1, 4, 1), (0, 4, 1), (0, 1, 1), (2, 3, 1)])
            try:
                composed_metric_graph(g, seq)
            except BadSequence as exc:
                print(str(exc).split(" of ")[0].replace(" ", ""))
        """)
        src = os.path.dirname(os.path.dirname(pwtree.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["infinite", "edge(0,4)"]

    def test_composed_metric_rejects_disconnected_input(self):
        seq = LinearCompositionSequence(2, (0, 1), [(2, {1, 2}), (3, {2, 3})])
        with pytest.raises(InfiniteDistance):
            composed_metric_graph(build_metric_graph(range(4), [(0, 1, 1), (2, 3, 1)]), seq)


class TestNormalize:
    def test_pad_small_bags(self):
        g = build_metric_graph(
            [0, 1, 2, 3], [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
        )
        pd = PathDecomposition([{0, 1}, {1, 2, 3}])
        norm = normalize_decomposition(pd, g)
        assert validate_path_decomposition(g, norm) == 2
        assert all(len(b) == 3 for b in norm.bags)
        for a, b in zip(norm.bags, norm.bags[1:]):
            assert len(a - b) == 1 and len(b - a) == 1

    def test_single_full_bag(self):
        g = complete(3)
        pd = PathDecomposition([{0, 1, 2}])
        assert normalize_decomposition(pd, g).bags == pd.bags

    def test_idempotent_up_to_dedup(self):
        g = unit_path(4)
        pd = PathDecomposition([{0, 1}, {1, 2}, {1, 2}, {2, 3}])
        norm = normalize_decomposition(pd, g)
        assert normalize_decomposition(norm, g) == norm

    def test_decomposition_json(self):
        pd = PathDecomposition([{0, 1}, {1, 2}])
        assert decomposition_from_json(decomposition_to_json(pd)) == pd


class TestRoundTrip:
    def check(self, g, pd):
        k = validate_path_decomposition(g, pd)
        seq = decomposition_to_composition(pd, g)
        assert seq.k == k
        back = composition_to_decomposition(seq)
        composed = composed_graph(seq)
        assert validate_path_decomposition(composed, back) == k
        assert g.edge_keys() <= composed.edge_keys()

    def test_path(self):
        self.check(unit_path(3), PathDecomposition([{0, 1}, {1, 2}]))

    def test_four_cycle(self):
        self.check(FOUR_CYCLE, PathDecomposition([{0, 1, 2}, {0, 2, 3}]))

    def test_single_bag(self):
        self.check(complete(3), PathDecomposition([{0, 1, 2}]))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_width_0_is_read_at_width_1(self, n):
        # a sequence has width at least 1: an edgeless graph gets a path
        # through its sorted vertices, whose composed edges join them
        g = build_metric_graph(range(n), [])
        seq = decomposition_to_composition(PathDecomposition([{v} for v in range(n)]), g)
        assert (seq.k, seq.initial) == (1, (0,))
        assert seq.steps == tuple((v, frozenset({v})) for v in range(1, n))
        assert composed_graph(seq).edge_keys() == {(v - 1, v) for v in range(1, n)}

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_random_trees(self, seed):
        rng = random.Random(seed)
        t = random_unit_tree(rng.randint(2, 12), rng)
        self.check(t, tree_path_decomposition(t))


class TestExactOracle:
    def test_paths(self):
        for n in (2, 5, 9):
            assert exact_pathwidth(unit_path(n)) == 1

    def test_cliques(self):
        for k in (1, 2, 3, 4):
            assert exact_pathwidth(complete(k + 1)) == k

    def test_three_branch_apex(self):
        # joining an apex to three disjoint 3-vertex paths raises pathwidth
        edges = [(0, 1, 1), (0, 4, 1), (0, 7, 1)]
        for base in (1, 4, 7):
            edges += [(base, base + 1, 1), (base + 1, base + 2, 1)]
        g = build_metric_graph(range(10), edges)
        assert exact_pathwidth(g) == 2

    def test_too_large(self):
        with pytest.raises(TooLarge):
            exact_pathwidth(unit_path(25))

    def test_decomposition_is_optimal(self):
        for g in (unit_path(6), FOUR_CYCLE, complete(4), phi(3)):
            pd = exact_path_decomposition(g)
            assert validate_path_decomposition(g, pd) == exact_pathwidth(g)


class TestLayoutSearch:
    """The search carries each placed set's boundary; `layout_reference`
    counts it from scratch, in the same frontier order."""

    def test_layouts_match_the_reference(self):
        rng = random.Random(2121)
        for _ in range(50):
            n = rng.randint(1, 12)
            p = rng.random()
            edges = [(a, b, 1) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
            _, adj = layout_reference.adjacency_masks(build_metric_graph(range(n), edges))
            for k in range(n):
                assert pw._vs_layout(adj, n, k) == layout_reference.vs_layout(adj, n, k), (
                    edges, k)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_bags_match_the_reference_on_the_certified_instances(self, seed):
        # the random unit trees and width-3 graphs the benchmark's `certify`
        # workload gives `pathwidth --method exact`, drawn the same way
        rng = random.Random(f"{seed}:small-trees")
        graphs = [random_unit_tree(n, rng) for n in (12, 14, 16, 18, 20)]
        graphs += [random_pathwidth_graph(3, n, small_rational_lengths,
                                          random.Random(f"{seed}:exact-{n}"))[0]
                   for n in (16, 18, 20)]
        for g in graphs:
            assert exact_path_decomposition(g) == layout_reference.exact_path_decomposition(g)


class TestTreePathwidth:
    @pytest.mark.parametrize("name", NON_TREES)
    @pytest.mark.parametrize("f", [tree_pathwidth, peel_path, tree_path_decomposition],
                             ids=lambda f: f.__name__)
    def test_not_a_tree(self, f, name):
        with pytest.raises(NotATree):
            f(NON_TREES[name])

    def test_stars(self):
        for m in (2, 3, 6):
            star = build_metric_graph(range(m + 1), [(0, i, 1) for i in range(1, m + 1)])
            assert tree_pathwidth(star) == 1

    def test_nested_spiders(self):
        assert tree_pathwidth(psi(1, 9)) == 2
        assert tree_pathwidth(psi(2, 81)) == 3

    @pytest.mark.parametrize("depth, width", [(2, 3), (3, 4)])
    def test_large_nested_spiders(self, depth, width):
        # psi(3, 256) has 769 vertices; the component recursion never finished it
        t = psi(depth, 256)
        assert tree_pathwidth(t) == width
        assert validate_path_decomposition(t, tree_path_decomposition(t)) == width

    def test_exhaustive_small_trees(self):
        for t in all_trees_up_to(9):
            assert tree_pathwidth(t) == exact_pathwidth(t), sorted(t.edge_keys())

    def test_random_trees_agree_with_oracle(self):
        rng = random.Random(20260823)
        for _ in range(1000):
            t = random_unit_tree(rng.randint(2, 15), rng)
            assert tree_pathwidth(t) == exact_pathwidth(t), sorted(t.edge_keys())


class TestAgainstReference:
    """The labels reproduce the memoised component recursion exactly."""

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_same_outputs(self, t):
        level = reference.tree_pathwidth(t)
        assert tree_pathwidth(t) == level
        if level >= 2:
            path, comps = peel_path(t)
            want_path, want_comps = reference.peel_path(t)
            assert path == want_path
            assert comps == want_comps
        else:
            with pytest.raises(PathwidthTooLow):
                peel_path(t)
        assert tree_path_decomposition(t).bags == reference.tree_path_decomposition(t).bags

    @given(trees(max_n=24))
    @settings(max_examples=100, deadline=None)
    def test_branch_table(self, t):
        # every branch's width is the reference width of that component
        level, table = branch_table(t)
        assert level == reference.tree_pathwidth(t)
        adj = neighbor_sets(t)
        for v in t.vertices:
            comps = reference._split_components(adj, t.vertices, v)
            want = {u: reference.tree_pathwidth(t.induced(c))
                    for c in comps for u in adj[v] if u in c}
            assert dict(table[v]) == want


class TestLargeTrees:
    """Iterative passes: no RecursionError and seconds, not minutes."""

    @staticmethod
    def check_table(t):
        # the branch table obeys the three-branch rule at every vertex
        level, table = branch_table(t)
        assert level == tree_pathwidth(t)
        thirds = [sorted((w for _, w in table[v]), reverse=True)[2]
                  for v in t.vertices if len(table[v]) >= 3]
        assert level == max([1] + [w + 1 for w in thirds])
        return level, table

    def test_long_path(self):
        t = unit_path(10**5)
        level, table = self.check_table(t)
        assert level == 1
        assert table[0] == [(1, 1)]

    def test_random_tree(self):
        self.check_table(random_unit_tree(10**5, random.Random(5)))

    def test_spider_with_many_legs(self):
        t = spider(10**4)
        level, table = self.check_table(t)
        assert level == 2
        assert {w for _, w in table[0]} == {0, 1}


class TestPeelPath:
    def assert_peels(self, t):
        level = tree_pathwidth(t)
        path, comps = peel_path(t)
        path_set = set(path)
        assert len(path_set) == len(path)
        for a, b in zip(path, path[1:]):
            assert t.has_edge(a, b)
        assert sum(c.n for c in comps) == t.n - len(path)
        for c in comps:
            assert is_tree(c)
            assert tree_pathwidth(c) <= level - 1

    def test_nested_spiders(self):
        self.assert_peels(psi(1, 9))
        self.assert_peels(psi(2, 81))

    def test_ternary_tree(self):
        edges = []
        for v in range(1, 40):
            edges.append(((v - 1) // 3, v, 1))
        t = build_metric_graph(range(40), edges)
        assert tree_pathwidth(t) >= 2
        self.assert_peels(t)

    def test_random_trees(self):
        rng = random.Random(7)
        found = 0
        while found < 60:
            t = random_unit_tree(rng.randint(8, 15), rng)
            if tree_pathwidth(t) >= 2:
                found += 1
                self.assert_peels(t)

    def test_requires_pathwidth_two(self):
        with pytest.raises(PathwidthTooLow):
            peel_path(unit_path(5))

    def test_large_nested_spider(self):
        self.assert_peels(psi(3, 256))


class TestTreeDecomposition:
    def test_optimal_width(self):
        for t in (phi(2), phi(4), psi(1, 9), psi(2, 81)):
            pd = tree_path_decomposition(t)
            assert validate_path_decomposition(t, pd) == tree_pathwidth(t)

    def test_random_trees(self):
        rng = random.Random(11)
        for _ in range(100):
            t = random_unit_tree(rng.randint(2, 14), rng)
            pd = tree_path_decomposition(t)
            assert validate_path_decomposition(t, pd) == tree_pathwidth(t)

    def test_one_labelling_per_tree(self, monkeypatch):
        # one rooting for the whole call; every tree of the recursion is a
        # component of it, labelled once by one branch table, and none is
        # rebuilt as a graph or re-checked; the decomposition is validated once
        t = psi(2, 81)
        want = reference.tree_path_decomposition(t).bags

        def refuse(*args):
            raise AssertionError("not called by tree_path_decomposition")

        def spy(name):
            calls, f = [], getattr(pw, name)
            monkeypatch.setattr(pw, name, lambda *args: calls.append((args, f(*args))) or calls[-1][1])
            return calls

        monkeypatch.setattr(pw, "tree_pathwidth", refuse)
        monkeypatch.setattr(pw, "peel_path", refuse)
        monkeypatch.setattr(pw, "MetricGraph", refuse)
        rooted, validated = spy("spanning_links"), spy("validate_path_decomposition")
        labelled, split = spy("_branch_widths"), spy("_split")
        assert tree_path_decomposition(t).bags == want
        assert [args for args, _ in rooted] == [(t,)]
        assert [args[0] for args, _ in validated] == [t]
        order = rooted[0][1][1]
        trees = [order] + [comp for _, comps in split for comp in comps]
        assert len(trees) > 10
        assert sorted(id(args[1]) for args, _ in labelled) == sorted(map(id, trees))
        assert not hasattr(pw, "is_tree")
        assert not hasattr(pw, "_forest_components")

    def test_toolkit_builds_no_adjacency(self):
        # the toolkit reads the rooting's index lists: a MetricGraph has no
        # adjacency to build, and the toolkit matches the reference on
        # freshly built graphs
        rng = random.Random(17)
        trees = [psi(2, 81), phi(4), unit_path(6)] + [
            random_unit_tree(rng.randint(2, 40), rng) for _ in range(30)]
        want = [(reference.tree_pathwidth(t), reference.tree_path_decomposition(t).bags)
                for t in trees]
        peels = [reference.peel_path(t) for t, (level, _) in zip(trees, want) if level >= 2]
        fresh = [build_metric_graph(t.vertices, [(u, v, w) for (u, v), w in t.edges()])
                 for t in trees]
        assert not [name for name in ("neighbors", "adjacency", "_adjacency", "_adj")
                    if hasattr(pw.MetricGraph, name)]
        assert [(tree_pathwidth(t), tree_path_decomposition(t).bags) for t in fresh] == want
        assert [peel_path(t) for t, (level, _) in zip(fresh, want) if level >= 2] == peels

    def test_invariants_raise_under_optimize(self):
        # the width checks on built decompositions are proof invariants, so
        # they must survive `python -O`; each is fed a broken construction
        code = textwrap.dedent("""
            import sys
            from pwtree import pathwidth as pw
            from pwtree.graphs import build_metric_graph
            from pwtree.instances import psi
            if __debug__:
                sys.exit("asserts are live")
            path3 = build_metric_graph(range(3), [(0, 1, 1), (1, 2, 1)])

            def attempt(f, *args):
                try:
                    f(*args)
                except pw.BrokenInvariant:
                    print("raised")

            real_drop = pw._drop_redundant
            pw._drop_redundant = lambda bags: [{0, 1}, {0, 2}]  # loses edge (1, 2)
            attempt(pw.normalize_decomposition, pw.PathDecomposition([{0, 1}, {1, 2}]), path3)
            pw._drop_redundant = real_drop
            real_search = pw._vs_search
            pw._vs_search = lambda g, limit: (  # claims width 0
                lambda order, k, *rest: (order, 0, *rest))(*real_search(g, limit))
            attempt(pw.exact_path_decomposition, path3)
            # the three leaves of a star (index lists) as the heavy core: not a path
            star = [[1, 2, 3], [0], [0], [0]]
            attempt(pw._two_sided_path, star, {0: [1], 1: [0, 0], 2: [0, 0], 3: [0, 0]})
            real_split = pw._split
            pw._split = lambda *args: real_split(*args)[1:]
            attempt(pw.tree_path_decomposition, psi(1, 9))  # a component dropped
        """)
        src = os.path.dirname(os.path.dirname(pwtree.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["raised"] * 4

    def test_tree_sequences_compose(self):
        rng = random.Random(13)
        for _ in range(20):
            t = random_unit_tree(rng.randint(3, 12), rng)
            seq = tree_sequence(t)
            assert t.edge_keys() <= composed_graph(seq).edge_keys()
