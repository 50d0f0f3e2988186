import itertools
import os
import random
import subprocess
import sys
import textwrap
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tree_metric_and_sequence
from pwk_reference import ReferenceState, keep, ranked_departures, realize, reference_embed
import pwtree
from pwtree import harness
from pwtree.graphs import (
    build_metric_graph, edge_key, integer_scale, is_tree, shortest_path_metric)
from pwtree.harness import sample_rng
from pwtree.instances import cycle, phi, random_pathwidth_graph, small_rational_lengths
from pwtree.pathwidth import (
    BadSequence,
    LinearCompositionSequence,
    composed_metric_graph,
    tree_pathwidth,
)
from pwtree import pw2
from pwtree.pwk import (
    MissingLength,
    NegativeTau,
    TooManyOutcomes,
    _keep,
    _plan,
    _realize,
    _sampled_tree,
    draw_prefixes,
    eligible_probs,
    embed_pathwidthk,
    enumerate_pwk_distribution,
    prefix_thresholds,
    sample_prefix_length,
)


def random_instance(k, n, rng):
    g, seq = random_pathwidth_graph(k, n, small_rational_lengths, rng)
    return g, seq, composed_metric_graph(g, seq)


def run_reference(seq, metric, rng):
    state = ReferenceState(seq, metric)
    for v, w in seq.steps[1:]:
        state.random_step(v, w, rng)
    return state


class TestEligibleProbs:
    def test_saturated(self):
        assert eligible_probs([1, 1, 1], 8) == [1, 1]

    def test_ratio(self):
        assert eligible_probs([1, 100], 8) == [Fraction(8, 100)]

    def test_zero_numerator(self):
        assert eligible_probs([0, 5], 8) == [0]

    def test_zero_over_zero_saturates(self):
        assert eligible_probs([0, 0], 8) == [1]


def exact_prefix_length(probs, rng):
    """The prefix draw made with exact comparisons: draw only where p < 1."""
    j = 1
    for p in probs:
        if p < 1 and not (rng.random() < p):
            break
        j += 1
    return j


class TestPrefixThresholds:
    def test_saturated_steps_draw_nothing(self):
        rng = random.Random(5)
        state = rng.getstate()
        assert prefix_thresholds([Fraction(1), Fraction(1)]) == (None, None)
        assert sample_prefix_length((None, None), rng) == 3
        assert rng.getstate() == state

    @given(st.lists(st.one_of(st.just(Fraction(0)), st.just(Fraction(1)),
                              st.fractions(min_value=0, max_value=1)), max_size=5),
           st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_draws_match_exact_comparison(self, probs, seed):
        ours, exact = random.Random(seed), random.Random(seed)
        thresholds = prefix_thresholds(probs)
        for _ in range(20):
            assert sample_prefix_length(thresholds, ours) == exact_prefix_length(probs, exact)
        assert ours.getstate() == exact.getstate()

    def test_plan_marks_saturation_once(self):
        rng = random.Random(8)
        saturated = drawn = 0
        for k in (2, 3, 4):
            for tau in (None, 1):
                g, seq, metric = random_instance(k, 12, rng)
                for d in _plan(seq, metric, tau).departures:
                    assert d.thresholds == prefix_thresholds(d.probs)
                    saturated += d.thresholds.count(None)
                    drawn += len(d.thresholds) - d.thresholds.count(None)
        assert saturated > 10 and drawn > 10

    def test_sampling_compares_no_fractions(self, monkeypatch):
        g, seq, metric = random_instance(3, 12, random.Random(4))
        embed_pathwidthk(seq, metric, random.Random(0))  # builds the plan

        def refuse(*args):
            raise AssertionError("a Fraction was compared while sampling")

        monkeypatch.setattr(Fraction, "_richcmp", refuse)
        for i in range(50):
            embed_pathwidthk(seq, metric, random.Random(i))


class TestCanonicalPath:
    def make_state(self, rng=None):
        g, seq = cycle(6)
        metric = composed_metric_graph(g, seq)
        return run_reference(seq, metric, rng or random.Random(0))

    def test_identical_endpoints(self):
        state = self.make_state()
        v = next(iter(state.clique))
        assert state.canonical_path(v, v) == []

    def test_clique_pair_single_edge(self):
        state = self.make_state()
        a, b = sorted(state.clique)[:2]
        assert state.canonical_path(a, b) == [(a, b)]

    def test_absent_vertex(self):
        state = self.make_state()
        with pytest.raises(KeyError):
            state.canonical_path(0, 99)

    def test_pendant_paths_cross_one_clique_edge(self):
        rng = random.Random(1)
        for _ in range(20):
            g, seq, metric = random_instance(2, 12, rng)
            state = run_reference(seq, metric, rng)
            verts = sorted(state.vertices())
            clique_pairs = set(state.clique_edges())
            for i, u in enumerate(verts):
                for v in verts[i + 1:]:
                    path = state.canonical_path(u, v)
                    assert path, (u, v)
                    crossings = [e for e in path if e in clique_pairs]
                    assert len(crossings) <= 1
                    # path edges exist in H and chain from u to v
                    assert all(e in state.edges for e in path)
                    ends = {u, v}
                    for e in path:
                        ends ^= set(e)
                    assert not ends


class TestEdgeRank:
    def test_fresh_state_all_zero(self):
        g, seq = cycle(5)
        metric = composed_metric_graph(g, seq)
        state = ReferenceState(seq, metric)
        for e in state.clique_edges():
            assert state.edge_rank(e) == 0

    def test_not_a_clique_edge(self):
        g, seq = cycle(5)
        metric = composed_metric_graph(g, seq)
        state = ReferenceState(seq, metric)
        with pytest.raises(KeyError):
            state.edge_rank((99, 100))

    def test_bump_after_transition(self):
        g, seq = cycle(5)
        metric = composed_metric_graph(g, seq)
        plan = _plan(seq, metric, None)
        ranks = [0] * plan.ncodes
        d = plan.departures[0]
        _keep(ranks, d, sample_prefix_length(d.thresholds, random.Random(0)), plan.cap)
        assert any(r >= 1 for r in ranks)

    def test_classrank_matches_bruteforce(self):
        # the step rule's per-edge counters equal the reference's per-pair
        # ranks maximized over canonical paths, after every step, both on
        # edge tuples and on the plan's edge codes
        rng = random.Random(9)
        checked = 0
        for _ in range(25):
            g, seq, metric = random_instance(2, 10, rng)
            plan = _plan(seq, metric, None)
            code = {e: i for i, e in enumerate(sorted(seq.composed_edges()))}
            state = ReferenceState(seq, metric)
            by_edge, by_code = {}, [0] * plan.ncodes
            for d, (w, ranked), (v, window) in zip(
                    plan.departures, ranked_departures(plan, metric), seq.steps[1:]):
                j = state.random_step(v, window, rng)
                kept = keep(by_edge, w, ranked, j, plan.cap)
                assert d.edges[_keep(by_code, d, j, plan.cap)][0] == kept
                want = state.clique_edge_ranks()
                assert {e: by_edge.get(e, 0) for e in state.clique_edges()} == want
                assert {e: by_code[code[e]] for e in state.clique_edges()} == want
                assert set(by_edge) <= set(state.clique_edges())
                checked += len(by_edge)
        assert checked > 100

    def test_rank_cap_holds(self):
        rng = random.Random(77)
        for k, n in ((2, 14), (3, 12), (4, 10)):
            cap = (k + 1) * k // 2
            for _ in range(10):
                g, seq, metric = random_instance(k, n, rng)
                plan = _plan(seq, metric, None)
                assert plan.cap == cap
                ranks = [0] * plan.ncodes
                for d in plan.departures:
                    _keep(ranks, d, sample_prefix_length(d.thresholds, rng), cap)
                    assert all(r <= cap for r in ranks)

    def test_cap_breach_raises_under_optimize(self):
        # the cap and pw2's invariants are proof invariants, so their checks
        # must survive `python -O`; pw2 is fed plans that break them
        code = textwrap.dedent("""
            import itertools
            import random
            import sys
            from pwtree import pw2
            from pwtree.harness import estimate_distortion
            from pwtree.instances import cycle
            from pwtree.pathwidth import composed_metric_graph
            from pwtree.pwk import InvariantViolated, _keep, _plan
            if __debug__:
                sys.exit("asserts are live")
            g, seq = cycle(5)
            metric = composed_metric_graph(g, seq)
            plan = _plan(seq, metric, None)
            d = plan.departures[0]
            ranks = [0] * plan.ncodes
            ranks[d.codes[0]] = plan.cap
            try:
                _keep(ranks, d, 1, plan.cap)
            except InvariantViolated:
                print("raised")
            first, steps = pw2._plan(seq, metric, pw2.DEFAULT_TAU)
            added, _, window, probs, thresholds = steps[0]
            # a plan whose step deletes the next window edge at either length
            pw2._plan = lambda *args: (first, ((added, (window, window), window, probs,
                                                 thresholds),))
            try:
                pw2.embed_pathwidth2(seq, metric, random.Random(0))
            except InvariantViolated:
                print("raised")
            # the harness tallies coins, which check nothing, and must still
            # realize a sample that checks them
            try:
                estimate_distortion(g, lambda rng: pw2.embed_pathwidth2(seq, metric, rng), 3, 0,
                                    outcome=lambda rng: pw2.draw_coins(seq, metric, rng))
            except InvariantViolated:
                print("raised")
            # the enumerator realizes its draws with the sampler's step rule
            try:
                pw2.enumerate_pw2_distribution(seq, metric)
            except InvariantViolated:
                print("raised")
            # per-step probabilities telescope to 1, so only an enumerator
            # that loses a draw breaks the sum
            pw2._plan = lambda *args: (first, steps)
            pw2.product = lambda *options: itertools.islice(itertools.product(*options), 1, None)
            try:
                pw2.enumerate_pw2_distribution(seq, metric)
            except InvariantViolated:
                print("raised")
        """)
        src = os.path.dirname(os.path.dirname(pwtree.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["raised"] * 5


class TestStepTransition:
    def test_k1_grows_pendant_path(self):
        seq = LinearCompositionSequence(1, [0], [(1, {1}), (2, {2}), (3, {3})])
        metric = build_metric_graph(range(4), [(i, i + 1, 1) for i in range(3)])
        state = ReferenceState(seq, metric)
        rng = random.Random(0)
        for v, w in seq.steps[1:]:
            state.random_step(v, w, rng)
            state.check_invariant()
        assert state.edges == {(0, 1), (1, 2), (2, 3)}
        assert embed_pathwidthk(seq, metric, random.Random(0)).edge_keys() == state.edges

    def test_structural_invariant(self):
        rng = random.Random(4)
        for k in (2, 3):
            for _ in range(10):
                g, seq, metric = random_instance(k, 12, rng)
                state = ReferenceState(seq, metric)
                for v, w in seq.steps[1:]:
                    state.random_step(v, w, rng)
                    state.check_invariant()

    def test_illegal_window(self):
        # a window outside the clique is rejected when the sequence is built
        with pytest.raises(BadSequence):
            LinearCompositionSequence(2, [0, 1], [(2, {1, 2}), (3, {7, 8})])

    def test_reintroduced_vertex(self):
        with pytest.raises(BadSequence):
            LinearCompositionSequence(2, [0, 1], [(2, {1, 2}), (0, {0, 2})])

    def test_missing_length(self):
        g, seq = cycle(5)
        sparse = g  # original cycle lacks the chord edges the clique needs
        with pytest.raises(MissingLength):
            embed_pathwidthk(seq, sparse, random.Random(0))
        with pytest.raises(MissingLength):
            enumerate_pwk_distribution(seq, sparse)
        with pytest.raises(MissingLength):
            ReferenceState(seq, sparse)

    def test_negative_tau(self):
        g, seq = cycle(6)
        metric = composed_metric_graph(g, seq)
        with pytest.raises(NegativeTau):
            enumerate_pwk_distribution(seq, metric, tau=-1)
        with pytest.raises(NegativeTau):
            embed_pathwidthk(seq, metric, random.Random(0), tau=Fraction(-1, 2))
        assert sum(p for _, p in enumerate_pwk_distribution(seq, metric, tau=0)) == 1

    def test_fresh_ranks_keep_shortest(self):
        # all-unit instance, fresh ranks: kept edge is the lexicographically
        # least shortest edge from the departing vertex
        g, seq = cycle(5)
        metric = composed_metric_graph(g, seq)
        plan = _plan(seq, metric, None)
        assert _keep([0] * plan.ncodes, plan.departures[0], 2, plan.cap) == 0
        (w, ranked), *_ = ranked_departures(plan, metric)
        assert keep({}, w, ranked, 2, plan.cap) == ranked[0][0]
        state = ReferenceState(seq, metric)
        v, win = seq.steps[1]
        assert state.step(v, win, 2) == ranked[0][0]


class TestReference:
    def test_trees_match_embed(self):
        # per-pair ranks over canonical paths pick the same kept edges as the
        # step rule's per-edge maxima: identical trees from identical streams
        rng = random.Random(31)
        samples = 0
        for k in (2, 3, 4):
            for _ in range(10):
                g, seq, metric = random_instance(k, 10, rng)
                for i in range(35):
                    ref = reference_embed(seq, metric, sample_rng(3100, i))
                    assert ref == embed_pathwidthk(seq, metric, sample_rng(3100, i))
                    samples += 1
        assert samples >= 1000


@st.composite
def mixed_instances(draw):
    """A random width-2/3/4 instance on scattered vertex labels whose lengths
    mix small rationals with small rationals times 2^j, j up to 40."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(k + 1, k + 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def length(r):
        base = small_rational_lengths(r)
        return base * 2 ** r.randint(1, 40) if r.random() < 0.5 else base

    g, seq = random_pathwidth_graph(k, n, length, rng)
    label = dict(zip(range(n), rng.sample(range(-99, 100), n)))
    g = build_metric_graph(label.values(), [(label[u], label[v], d) for (u, v), d in g.edges()])
    seq = LinearCompositionSequence(k, [label[v] for v in seq.initial],
                                    [(label[v], {label[x] for x in w}) for v, w in seq.steps])
    return g, seq


class TestParentLinks:
    @settings(max_examples=40, deadline=None)
    @given(instance=mixed_instances(), mult=st.sampled_from([1, 6]))
    def test_links_match_the_edge_rule_and_a_traversal(self, instance, mult):
        # on every admissible prefix-length vector, the sample's parent links
        # give the tuple-keyed step rule's edges, and the harness measures
        # the same distances from them as from a traversal of the tree
        g, seq = instance
        metric = composed_metric_graph(g, seq)
        plan = _plan(seq, metric, None)
        verts = metric.vertices
        scale = integer_scale([g]) * mult
        idx = range(len(verts))
        pairs = list(itertools.product(idx, idx))
        for lengths in itertools.product(*[range(1, len(d.anchors) + 1)
                                           for d in plan.departures]):
            tree = _sampled_tree(metric, plan, _realize(plan, lengths))
            order, parent, scaled, own = tree._links
            assert {edge_key(verts[x], verts[parent[x]]) for x in order[1:]} \
                == set(realize(plan, metric, lengths)) == tree.edge_keys()
            assert all(Fraction(scaled[x], own) == metric.length(verts[x], verts[parent[x]])
                       for x in order[1:])
            linked = harness._RootedTree(tree, scale)
            walked = harness._RootedTree(tree.with_edges(dict(tree.edges())), scale)
            assert linked.order is order and walked.order[0] == 0
            assert linked.pair_distances(pairs) == walked.pair_distances(pairs)
            (lrows, lpos), (wrows, wpos) = linked.rows(), walked.rows()
            assert ([lrows[i][lpos[j]] for i, j in pairs]
                    == [wrows[i][wpos[j]] for i, j in pairs])

    def test_links_off_the_harness_scale_fall_back_to_a_traversal(self):
        # a scale the plan's does not divide measures the tree's own edges,
        # which may still fit it; one that does not fit raises as before
        metric = build_metric_graph(range(3), [(0, 1, Fraction(1, 2)), (0, 2, 1),
                                               (1, 2, Fraction(4, 3))])
        seq = LinearCompositionSequence(2, [0, 1], [(2, {0, 2})])
        tree = embed_pathwidthk(seq, metric, random.Random(0))
        assert tree._links[3] == 6 and tree.edge_keys() == {(0, 1), (0, 2)}
        assert harness._RootedTree(tree, 2).pair_distances([(1, 2)]) == [3]
        with pytest.raises(ValueError, match="instance scale"):
            harness._RootedTree(tree, 3)


class TestDraws:
    def test_draws_consume_the_stream_as_the_sample(self):
        # the harness tallies draws and realizes each distinct one from its
        # first sample's stream: a draw must read exactly what the sample
        # reads, and fix its tree.  The default tau saturates most steps of
        # these small graphs, so tau = 1 is run too
        rng = random.Random(53)
        varied = 0
        for k in (2, 3, 4):
            for _ in range(4):
                g, seq, metric = random_instance(k, 12, rng)
                samplers = [(draw_prefixes, embed_pathwidthk,
                             len(_plan(seq, metric, None).departures))]
                if k == 2:
                    samplers.append((pw2.draw_coins, pw2.embed_pathwidth2, len(seq.steps)))
                for (draw, embed, steps), tau in itertools.product(samplers, (None, 1)):
                    trees = {}
                    for i in range(40):
                        drawn, sampled = sample_rng(53, i), sample_rng(53, i)
                        key = draw(seq, metric, drawn, tau)
                        tree = embed(seq, metric, sampled, tau)
                        assert drawn.getstate() == sampled.getstate()
                        assert isinstance(key, bytes) and len(key) == steps
                        assert trees.setdefault(key, tree) == tree
                    varied += len(trees) > 1
        assert varied >= 16

    def test_wide_prefixes_pack_in_eight_bytes(self):
        # unit lengths saturate every step, so each prefix is all k = 256
        # edges, one past a byte
        k = 256
        seq = LinearCompositionSequence(
            k, range(k), [(k + i, range(i + 1, k + i + 1)) for i in range(3)])
        metric = build_metric_graph(seq.vertices, [(u, v, 1) for u, v in seq.composed_edges()])
        drawn = draw_prefixes(seq, metric, random.Random(0))
        assert list(array("Q", drawn)) == [k, k]
        assert is_tree(embed_pathwidthk(seq, metric, random.Random(0)))


class TestEmbed:
    def test_zero_steps_mst(self):
        seq = LinearCompositionSequence(3, [0, 1, 2], [])
        metric = build_metric_graph(
            [0, 1, 2], [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
        )
        t = embed_pathwidthk(seq, metric, random.Random(0))
        assert is_tree(t)
        assert t.edge_keys() == {(0, 1), (0, 2)}
        dm = shortest_path_metric(t)
        assert max(d for _, _, d in dm.pairs()) == 2  # stretch <= k+1 on the clique

    def test_outputs_are_low_pathwidth_trees(self):
        rng = random.Random(6)
        for k in (2, 3):
            g, seq, metric = random_instance(k, 14, rng)
            for _ in range(30):
                t = embed_pathwidthk(seq, metric, rng)
                assert is_tree(t)
                assert set(t.vertices) == set(g.vertices)
                assert tree_pathwidth(t) <= k

    def test_noncontraction_exact(self):
        rng = random.Random(8)
        for k in (2, 3, 4):
            g, seq, metric = random_instance(k, 10, rng)
            dm_g = shortest_path_metric(g)
            for _ in range(15):
                t = embed_pathwidthk(seq, metric, rng)
                dm_t = shortest_path_metric(t)
                for u, v, d in dm_g.pairs():
                    assert dm_t.dist(u, v) >= d

    def test_tree_source_round_trips(self):
        t = phi(3)
        metric, seq = tree_metric_and_sequence(t)
        rng = random.Random(2)
        dm_s = shortest_path_metric(t)
        for _ in range(10):
            out = embed_pathwidthk(seq, metric, rng)
            dm_t = shortest_path_metric(out)
            for u, v, d in dm_s.pairs():
                assert dm_t.dist(u, v) >= d


class TestEnumeration:
    def test_zero_steps_single_outcome(self):
        seq = LinearCompositionSequence(2, [0, 1], [])
        metric = build_metric_graph([0, 1], [(0, 1, 1)])
        dist = enumerate_pwk_distribution(seq, metric)
        assert len(dist) == 1 and dist[0][1] == 1

    def test_probabilities_sum_to_one(self):
        rng = random.Random(12)
        for k in (2, 3):
            g, seq, metric = random_instance(k, 8, rng)
            dist = enumerate_pwk_distribution(seq, metric)
            assert sum(p for _, p in dist) == 1
            assert all(is_tree(t) for t, _ in dist)

    def test_limit_counts_positive_draws(self):
        # four departures have two positive prefix lengths each, the rest
        # one; the 16 draws keep only 4 distinct edge sets
        g, seq = random_pathwidth_graph(2, 32, small_rational_lengths, random.Random(101))
        metric = composed_metric_graph(g, seq)
        assert len(enumerate_pwk_distribution(seq, metric, limit=16)) == 4
        with pytest.raises(TooManyOutcomes, match="16 positive-probability draws"):
            enumerate_pwk_distribution(seq, metric, limit=15)

    def test_four_cycle_matches_sampling(self):
        g, seq = cycle(4)
        metric = composed_metric_graph(g, seq)
        dist = enumerate_pwk_distribution(seq, metric)
        rng = random.Random(3)
        counts = {}
        n = 2000
        for _ in range(n):
            t = embed_pathwidthk(seq, metric, rng)
            key = frozenset(t.edge_keys())
            counts[key] = counts.get(key, 0) + 1
        for t, p in dist:
            freq = counts.get(frozenset(t.edge_keys()), 0) / n
            assert abs(freq - float(p)) < 0.06
