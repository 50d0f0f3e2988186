import random
from fractions import Fraction

import pytest

from conftest import adjacency
from pwtree import graphs, harness, instances, pathwidth
from pwtree.graphs import is_tree, shortest_path_metric
from pwtree.instances import (
    BadTruncation,
    ceil_root,
    cycle,
    phi,
    psi,
    psi_truncated,
    random_pathwidth_graph,
    small_rational_lengths,
    unit_lengths,
)
from pwtree.pathwidth import (
    composed_graph,
    composition_to_decomposition,
    exact_pathwidth,
    tree_pathwidth,
    validate_path_decomposition,
)


class TestPhi:
    def test_single_edge(self):
        g = phi(1)
        assert g.n == 2 and g.m == 1

    def test_counts_and_eccentricity(self):
        g = phi(3)
        assert g.n == 10
        leaves = [v for v, nbrs in adjacency(g).items() if len(nbrs) == 1 and v != 0]
        assert len(leaves) == 3
        dm = shortest_path_metric(g)
        assert max(dm.dist(0, v) for v in g.vertices) == 3

    def test_all_are_trees(self):
        for i in range(1, 7):
            g = phi(i)
            assert is_tree(g)
            assert g.n == 1 + i * i

    def test_pathwidth_progression(self):
        # two arms stay a caterpillar; three or more long arms force width 2
        assert tree_pathwidth(phi(1)) == 1
        assert tree_pathwidth(phi(2)) == 1
        for i in (3, 4, 5):
            assert tree_pathwidth(phi(i)) == 2
        assert exact_pathwidth(phi(3)) == 2

    def test_deterministic(self):
        assert phi(4) == phi(4)


class TestPsi:
    def test_base_case_is_spider(self):
        assert psi(1, 9) == phi(3)
        assert psi(1, 9).n == 10

    def test_nested_count(self):
        assert psi(2, 81).n == 163

    def test_pathwidth_values(self):
        assert tree_pathwidth(psi(1, 9)) == 2
        assert tree_pathwidth(psi(2, 81)) == 3

    def test_all_are_trees(self):
        for i, m in ((1, 9), (1, 16), (2, 16), (2, 81)):
            assert is_tree(psi(i, m))

    def test_count_recurrence(self):
        def branch_count(i, m, e):
            arm = ceil_root(m, 2 ** e)
            if i == 1:
                return arm
            return arm + ceil_root(m, 2 ** (e + 1)) * branch_count(i - 1, m, e + 1)

        for i, m in ((1, 9), (2, 16), (2, 81), (3, 16), (3, 81)):
            expected = 1 + ceil_root(m, 2) * branch_count(i, m, 1)
            assert psi(i, m).n == expected

    def test_truncation_counts(self):
        assert psi_truncated(1, 16, 2).n == 9
        assert psi_truncated(2, 81, 2).n == 37

    def test_full_truncation_is_identity(self):
        assert psi_truncated(1, 16, 4) == psi(1, 16)
        assert psi_truncated(2, 81, 9) == psi(2, 81)

    def test_bad_truncation(self):
        with pytest.raises(BadTruncation):
            psi_truncated(1, 16, 5)
        with pytest.raises(BadTruncation):
            psi_truncated(1, 16, 0)

    def test_half_root_branches(self):
        # the lower-bound experiments keep sqrt(m)/2 branches
        g = psi_truncated(1, 16, Fraction(4, 2))
        assert g.n == 9


class TestCycle:
    def test_triangle(self):
        g, seq = cycle(3)
        assert g.m == 3 and seq.k == 2 and len(seq.steps) == 1

    def test_composition_is_valid(self):
        for n in (3, 4, 7, 10):
            g, seq = cycle(n)
            pd = composition_to_decomposition(seq)
            composed = composed_graph(seq)
            assert validate_path_decomposition(composed, pd) == 2
            assert g.edge_keys() <= composed.edge_keys()

    def test_chord_lengths_are_reduced(self):
        from pwtree.pathwidth import composed_metric_graph

        g, seq = cycle(8)
        metric = composed_metric_graph(g, seq)
        for j in range(2, 7):
            assert metric.length(0, j) == min(j, 8 - j)

    def test_custom_lengths(self):
        g, _ = cycle(3, [1, 2, "7/2"])
        assert g.length(2, 0) == Fraction(7, 2)

    def test_too_small(self):
        with pytest.raises(ValueError):
            cycle(2)


class TestRandomPathwidthGraph:
    def test_width_bound_holds(self):
        rng = random.Random(31)
        for k in (1, 2, 3):
            for _ in range(50):
                g, seq = random_pathwidth_graph(k, rng.randint(k + 1, 10),
                                                small_rational_lengths, rng)
                assert seq.k == k
                assert exact_pathwidth(g) <= k

    def test_k1_is_forestlike(self):
        rng = random.Random(32)
        for _ in range(20):
            g, _ = random_pathwidth_graph(1, 8, unit_lengths, rng)
            assert exact_pathwidth(g) <= 1

    def test_connected_and_reduced(self):
        rng = random.Random(33)
        for _ in range(20):
            g, seq = random_pathwidth_graph(2, 12, small_rational_lengths, rng)
            dm = shortest_path_metric(g)
            for (u, v) in g.edge_keys():
                assert g.length(u, v) == dm.dist(u, v)
            assert all(d is not None for _, _, d in dm.pairs())

    def test_no_all_pairs_run(self, monkeypatch):
        # the length reduction reads the bag sweep
        calls = []
        for module in (graphs, harness, instances, pathwidth):
            monkeypatch.setattr(module, "shortest_path_metric", calls.append)
        random_pathwidth_graph(3, 40, small_rational_lengths, random.Random(35))
        assert calls == []

    def test_subgraph_of_composed(self):
        rng = random.Random(34)
        g, seq = random_pathwidth_graph(3, 12, unit_lengths, rng)
        assert g.edge_keys() <= composed_graph(seq).edge_keys()

    def test_deterministic_given_seed(self):
        a = random_pathwidth_graph(2, 15, small_rational_lengths, random.Random(5))
        b = random_pathwidth_graph(2, 15, small_rational_lengths, random.Random(5))
        assert a[0] == b[0] and a[1].steps == b[1].steps
