import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import linked_edges, mixed_instances
from pwtree import pwk
from pwtree.graphs import (
    build_metric_graph, edge_key, is_tree, shortest_path_metric)
from pwtree.harness import _Stream, sample_rng
from pwtree.instances import cycle, random_pathwidth_graph, small_rational_lengths
from pwtree.pathwidth import LinearCompositionSequence, composed_metric_graph
from pwtree.pw2 import (
    DEFAULT_TAU,
    DegenerateZero,
    MissingLength,
    NegativeTau,
    TooManyOutcomes,
    WrongWidth,
    _build_plan,
    _draw,
    _draw_lengths,
    _plan,
    _realize,
    _sampled_tree,
    _step,
    draw_coins,
    embed_pathwidth2,
    enumerate_pw2_distribution,
    float_threshold,
    pw2_deletion_probability,
)

unit_floats = st.floats(min_value=0, max_value=1)
probabilities = st.one_of(
    st.fractions(min_value=0, max_value=1),
    unit_floats.map(Fraction),  # exactly representable as a float
    st.sampled_from([Fraction(0), Fraction(1)]),
)


def triangle_instance():
    # window stays on {0,1} after adding 2: both new edges are at risk
    g, _ = cycle(3)
    seq = LinearCompositionSequence(2, [0, 1], [(2, {0, 1})])
    return g, seq, composed_metric_graph(g, seq)


class TestDeletionProbability:
    def test_symmetric_same_window(self):
        assert pw2_deletion_probability("same_window", 1, 1) == Fraction(1, 2)

    def test_moved_window_long_old_edge(self):
        assert pw2_deletion_probability("moved_window", 1, None, 100) == Fraction(12, 101)

    def test_moved_window_saturates(self):
        assert pw2_deletion_probability("moved_window", 1, None, 1) == 1

    def test_degenerate_zero(self):
        with pytest.raises(DegenerateZero):
            pw2_deletion_probability("same_window", 0, 0)
        with pytest.raises(DegenerateZero):
            pw2_deletion_probability("moved_window", 0, None, 0)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            pw2_deletion_probability("sideways", 1, 1)


class TestTriangle:
    def test_two_outcomes_half_each(self):
        g, seq, metric = triangle_instance()
        dist = enumerate_pw2_distribution(seq, metric)
        assert len(dist) == 2
        assert all(p == Fraction(1, 2) for _, p in dist)

    def test_expected_distance(self):
        g, seq, metric = triangle_instance()
        dist = enumerate_pw2_distribution(seq, metric)
        expected = sum(p * shortest_path_metric(t).dist(0, 2) for t, p in dist)
        assert expected == Fraction(3, 2)


class TestEmbed:
    def test_wrong_width(self):
        seq = LinearCompositionSequence(1, [0], [(1, {1})])
        with pytest.raises(WrongWidth):
            embed_pathwidth2(seq, None, random.Random(0))
        with pytest.raises(WrongWidth):
            enumerate_pw2_distribution(seq, None)

    @pytest.mark.parametrize("embed, draw, enumerate_", [
        (embed_pathwidth2, draw_coins, enumerate_pw2_distribution),
        (pwk.embed_pathwidthk, pwk.draw_prefixes, pwk.enumerate_pwk_distribution),
    ], ids=["pw2", "pwk"])
    def test_missing_length(self, embed, draw, enumerate_):
        # the raw cycle lacks the chords the composition adds; pw2 used to
        # raise a bare KeyError (0, 2) from its plan
        g, seq = cycle(5)
        for call in (lambda: embed(seq, g, random.Random(0)),
                     lambda: draw(seq, g, random.Random(0)), lambda: enumerate_(seq, g)):
            with pytest.raises(MissingLength, match=r"^composed edge \(0, 2\) absent from"):
                call()
        assert pwk.MissingLength is MissingLength

    def test_samples_are_spanning_trees(self):
        g, seq = cycle(7)
        metric = composed_metric_graph(g, seq)
        rng = random.Random(5)
        for _ in range(50):
            t = embed_pathwidth2(seq, metric, rng)
            assert is_tree(t)
            assert set(t.vertices) == set(g.vertices)
            # subgraph with inherited lengths
            for e in t.edge_keys():
                assert t.length(*e) == metric.length(*e)

    def test_noncontraction_exact(self):
        rng = random.Random(3)
        for trial in range(10):
            g, seq = random_pathwidth_graph(2, 10, small_rational_lengths, rng)
            metric = composed_metric_graph(g, seq)
            dm_g = shortest_path_metric(g)
            for _ in range(20):
                t = embed_pathwidth2(seq, metric, rng)
                dm_t = shortest_path_metric(t)
                for u, v, d in dm_g.pairs():
                    assert dm_t.dist(u, v) >= d


class TestEnumeration:
    def test_zero_steps(self):
        seq = LinearCompositionSequence(2, [0, 1], [])
        g = composed_metric_graph(
            cycle(3)[0].induced([0, 1]).with_edges({(0, 1): Fraction(1)}), seq
        )
        dist = enumerate_pw2_distribution(seq, g)
        assert len(dist) == 1 and dist[0][1] == 1

    def test_four_cycle(self):
        g, seq = cycle(4)
        metric = composed_metric_graph(g, seq)
        dist = enumerate_pw2_distribution(seq, metric)
        assert 1 <= len(dist) <= 4
        assert sum(p for _, p in dist) == 1
        assert all(is_tree(t) for t, _ in dist)

    def test_outcome_limit(self):
        g, seq = cycle(30)
        metric = composed_metric_graph(g, seq)
        with pytest.raises(TooManyOutcomes):
            enumerate_pw2_distribution(seq, metric, limit=4)

    def test_limit_counts_positive_draws(self):
        # each unit-length same-window step deletes either edge with
        # probability 1/2, each moved-window step saturates: 2^7 draws
        g, seq = cycle(30)
        metric = composed_metric_graph(g, seq)
        assert len(enumerate_pw2_distribution(seq, metric, limit=128)) == 128
        with pytest.raises(TooManyOutcomes, match="128 positive-probability draws"):
            enumerate_pw2_distribution(seq, metric, limit=127)

    def test_matches_sampling_frequencies(self):
        g, seq, metric = triangle_instance()
        rng = random.Random(17)
        counts = {}
        n = 4000
        for _ in range(n):
            t = embed_pathwidth2(seq, metric, rng)
            counts[frozenset(t.edge_keys())] = counts.get(frozenset(t.edge_keys()), 0) + 1
        for t, p in enumerate_pw2_distribution(seq, metric):
            freq = counts.get(frozenset(t.edge_keys()), 0) / n
            assert abs(freq - float(p)) < 0.05


def reference_steps(seq, g, tau=DEFAULT_TAU):
    """The literal width-2 step rule, which `pw2` runs as departures: each
    step as (added, deleted, window, p), the two new edges, the edge
    deleted at drawn length 1 and the one deleted at length 2, which has
    probability p, and the next window's edge."""
    u, v = sorted(seq.initial)
    out = []
    for x, retained in seq.steps:
        if retained == {u, v}:
            deleted = edge_key(v, x), edge_key(u, x)
            risk = "same_window", g.length(u, x), g.length(v, x)
        else:
            # the slid window edge always survives; the risk is between
            # the opposite new edge and the old window edge
            leaves = u if v in retained else v
            deleted = edge_key(u, v), edge_key(leaves, x)
            risk = "moved_window", g.length(leaves, x), None, g.length(u, v)
        try:
            p = pw2_deletion_probability(*risk, tau=tau)
        except DegenerateZero:
            p = Fraction(1, 2)
        out.append(((edge_key(u, x), edge_key(v, x)), deleted, edge_key(*retained), p))
        u, v = sorted(retained)
    return out


def reference_realize(seq, g, lengths, tau=DEFAULT_TAU):
    """The sample's edges for its drawn lengths by the set-based step rule:
    each step adds its two edges and deletes the one its drawn length
    names, and the next window edge must survive."""
    tree = {edge_key(*seq.initial)}
    for (added, deleted, window, _), j in zip(reference_steps(seq, g, tau), lengths):
        tree.update(added)
        tree.discard(deleted[j - 1])
        assert window in tree, f"window edge {window!r} was deleted"
    return tree


class TestDepartures:
    # each step is a departure: the tree it keeps must be the set-based step
    # rule's, with its probabilities, and carry parent links that measure
    # like a traversal of it

    @settings(max_examples=60, deadline=None)
    @given(instance=mixed_instances(widths=(2,)),
           tau=st.sampled_from([DEFAULT_TAU, Fraction(1), Fraction(0)]))
    def test_every_draw_matches_the_edge_rule_and_a_traversal(self, instance, tau):
        g, seq = instance
        metric = composed_metric_graph(g, seq)
        plan = _plan(seq, metric, tau)
        assert [d.probs for d in plan.departures] \
            == [(p,) for *_, p in reference_steps(seq, metric, tau)]
        for lengths in itertools.product((1, 2), repeat=len(seq.steps)):
            tree = _sampled_tree(metric, plan, _realize(plan, lengths))
            assert linked_edges(tree, metric) \
                == reference_realize(seq, metric, lengths, tau) == tree.edge_keys()

    def test_every_draw_of_cycles_matches_the_edge_rule(self):
        for n in range(3, 13):
            g, seq = cycle(n)
            metric = composed_metric_graph(g, seq)
            plan = _plan(seq, metric, DEFAULT_TAU)
            for lengths in itertools.product((1, 2), repeat=len(seq.steps)):
                tree = _sampled_tree(metric, plan, _realize(plan, lengths))
                assert tree.edge_keys() == reference_realize(seq, metric, lengths)

    def test_random_draws_of_larger_instances(self):
        rng = random.Random(29)
        for n in (20, 40, 60):
            g, seq = random_pathwidth_graph(2, n, small_rational_lengths, rng)
            metric = composed_metric_graph(g, seq)
            plan = _plan(seq, metric, Fraction(1))
            for i in range(30):
                lengths = _draw_lengths(plan.departures, sample_rng(29, i))
                tree = _sampled_tree(metric, plan, _realize(plan, lengths))
                assert tree == embed_pathwidth2(seq, metric, sample_rng(29, i), Fraction(1))
                assert linked_edges(tree, metric) \
                    == reference_realize(seq, metric, lengths, Fraction(1)) == tree.edge_keys()


class TestFloatThreshold:
    @settings(max_examples=500, deadline=None)
    @given(probabilities, st.lists(unit_floats, max_size=5))
    def test_decides_float_draws_exactly(self, p, draws):
        thr = float_threshold(p)
        assert thr >= p and math.nextafter(thr, -math.inf) < p
        near = float(p)
        xs = [near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf)]
        for x in xs + draws + [random.Random(str(p)).random()]:
            assert (x < thr) == (x < p), (p, x)


class TestDraw:
    """`_draw` stops drawing at a plan's last departure that can vary, and
    gives the lengths that drawing at every departure gives."""

    def test_random_plans_draw_as_every_departure(self):
        # tau = 0 caps only the steps where the window slides; the
        # default tau saturates most of them
        rng = random.Random(61)
        for tau, n in itertools.product((None, 1, 0), (6, 12, 24)):
            g, seq = random_pathwidth_graph(2, n, small_rational_lengths, rng)
            metric = composed_metric_graph(g, seq)
            plan = _plan(seq, metric, tau)
            assert len(plan.drawn) + len(plan.fixed) == len(plan.departures)
            for i in range(20):
                assert _draw(plan, sample_rng(61, i)) \
                    == _draw_lengths(plan.departures, sample_rng(61, i))

    def test_fixed_departures_draw_only_before_the_last_that_varies(self):
        # 1 - 2^-60 rounds its threshold to 1.0, so a draw always extends
        # there, and never at 0; after the last p = 1/2 nothing is drawn
        g, seq = cycle(8)
        metric = composed_metric_graph(g, seq)
        real = _plan(seq, metric, None)
        near_one = 1 - Fraction(1, 2 ** 60)
        assert float_threshold(near_one) == 1.0
        half = Fraction(1, 2)
        probs = [half, near_one, half, near_one, Fraction(0), Fraction(1)]
        steps = [(metric.vertices[d.w], [metric.vertices[a] for a in d.anchors], (), (p,),
                  (float_threshold(p),)) for d, p in zip(real.departures, probs, strict=True)]
        plan = _build_plan(metric, steps, [e for e, _ in real.mst], _step)
        assert len(plan.drawn) == 3 and plan.fixed == (2, 1, 2)
        for i in range(50):
            drawn, twin, three = sample_rng(67, i), sample_rng(67, i), sample_rng(67, i)
            lengths = _draw(plan, drawn)
            assert lengths == _draw_lengths(plan.departures, twin)
            assert lengths[1] == 2 and lengths[3:] == [2, 1, 2]
            for _ in range(3):
                three.random()
            assert drawn.getstate() == three.getstate()

    def test_lazy_stream_is_the_sample_stream(self):
        # the harness hands outcomes a stream seeded at its first use: it
        # draws and ends in the state that `sample_rng` does
        g, seq = random_pathwidth_graph(2, 12, small_rational_lengths, random.Random(3))
        metric = composed_metric_graph(g, seq)
        plan = _plan(seq, metric, None)
        assert plan.drawn
        for i in range(20):
            lazy, real = _Stream(71, i), sample_rng(71, i)
            assert _draw(plan, lazy) == _draw(plan, real)
            assert [lazy.random() for _ in range(5)] == [real.random() for _ in range(5)]
            assert lazy.getstate() == real.getstate()
        assert _Stream(71, 0).getstate() == sample_rng(71, 0).getstate()


class TestPlan:
    def test_sampler_and_enumerator_share_one_plan(self):
        g, seq = cycle(6)
        metric = composed_metric_graph(g, seq)
        _plan.cache_clear()
        for i in range(20):
            embed_pathwidth2(seq, metric, random.Random(i))
        enumerate_pw2_distribution(seq, metric)
        assert _plan.cache_info().misses == 1
        embed_pathwidth2(seq, metric, random.Random(0), tau=Fraction(3))
        assert _plan.cache_info().misses == 2

    def test_default_tau_spelt_one_way(self):
        # every entry point spells the default tau None, as pwk and the CLI
        # pass it, so mixing the calls keeps one plan and its transition table
        g, seq = cycle(6)
        metric = composed_metric_graph(g, seq)
        _plan.cache_clear()
        draw_coins(seq, metric, random.Random(0))
        embed_pathwidth2(seq, metric, random.Random(0), None)
        draw_coins(seq, metric, random.Random(1))
        enumerate_pw2_distribution(seq, metric)
        assert _plan.cache_info().misses == 1

    def test_graphs_hash_by_edge_keys_and_compare_by_lengths(self):
        # a graph hashes its vertices and edge keys, not its lengths: equal
        # graphs hash equal, and one that differs only in a length is
        # unequal, so it gets its own plan
        g, seq = random_pathwidth_graph(2, 9, small_rational_lengths, random.Random(11))
        metric = composed_metric_graph(g, seq)
        copy = build_metric_graph(metric.vertices, [(*e, l) for e, l in metric.edges()])
        e, length = metric.edges()[0]
        longer = metric.with_edges({**dict(metric.edges()), e: length + 1})
        assert copy == metric and hash(copy) == hash(metric)
        assert longer != metric and longer.edge_keys() == metric.edge_keys()
        _plan.cache_clear()
        plans = [_plan(seq, graph, None) for graph in (metric, copy, longer)]
        assert plans[1] is plans[0] and _plan.cache_info().misses == 2
        lengths = [{**dict(plan.mst), **{e: l for d in plan.departures for e, l in d.edges}}
                   for plan in plans]
        assert lengths[0][e] == length and lengths[2][e] == length + 1

    def test_negative_tau_rejected(self):
        g, seq = cycle(6)
        metric = composed_metric_graph(g, seq)
        with pytest.raises(NegativeTau):
            enumerate_pw2_distribution(seq, metric, tau=-1)
        with pytest.raises(NegativeTau):
            embed_pathwidth2(seq, metric, random.Random(0), tau=Fraction(-1, 3))
        assert sum(p for _, p in enumerate_pw2_distribution(seq, metric, tau=0)) == 1

    def test_none_tau_is_default(self):
        # as in pwk, None stands for the default tau
        g, seq = random_pathwidth_graph(2, 9, small_rational_lengths, random.Random(5))
        metric = composed_metric_graph(g, seq)
        assert (enumerate_pw2_distribution(seq, metric, tau=None)
                == enumerate_pw2_distribution(seq, metric, tau=DEFAULT_TAU))
        for i in range(20):
            assert (embed_pathwidth2(seq, metric, random.Random(i), None)
                    == embed_pathwidth2(seq, metric, random.Random(i), DEFAULT_TAU))


def expected_edge_stretches(g, seq, metric):
    dist = enumerate_pw2_distribution(seq, metric)
    metrics = [(shortest_path_metric(t), p) for t, p in dist]
    dm_g = shortest_path_metric(g)
    out = {}
    for (u, v), length in g.edges():
        expected = sum(p * dm.dist(u, v) for dm, p in metrics)
        out[(u, v)] = (expected, dm_g.dist(u, v))
    return out


class TestStretchBound:
    def test_cycles(self):
        for n in range(3, 11):
            g, seq = cycle(n)
            metric = composed_metric_graph(g, seq)
            for (u, v), (expected, d) in expected_edge_stretches(g, seq, metric).items():
                assert expected <= 108 * d, (n, u, v, expected, d)

    def test_random_instances(self):
        rng = random.Random(23)
        for _ in range(15):
            g, seq = random_pathwidth_graph(2, 9, small_rational_lengths, rng)
            metric = composed_metric_graph(g, seq)
            for (u, v), (expected, d) in expected_edge_stretches(g, seq, metric).items():
                if d == 0:
                    assert expected == 0
                else:
                    assert expected <= 108 * d, (u, v, expected, d)
