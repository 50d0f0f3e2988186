import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import linked_edges, mixed_instances, tree_metric_and_sequence
from pwk_reference import (
    ReferenceState, keep, ranked_departures, realize, realize_by_steps, reference_embed,
    state_edges, zero_state)
from test_acceptance import build_corpus
import pwtree
from pwtree import harness, pwk
from pwtree.graphs import build_metric_graph, is_tree, shortest_path_metric
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
    _draw,
    _draw_lengths,
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


def run_optimized(code):
    """The standard output of `code` run under `python -O`, which must exit 0."""
    src = os.path.dirname(os.path.dirname(pwtree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


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
        d = plan.departures[0]
        _, state = _keep(zero_state(plan), d, sample_prefix_length(d.thresholds,
                                                                    random.Random(0)), plan.cap)
        assert any(r >= 1 for r in state)

    def test_classrank_matches_bruteforce(self):
        # the step rule's per-edge counters equal the reference's per-pair
        # ranks maximized over canonical paths, after every step, both on
        # edge tuples and on every rank of the plan's states
        rng = random.Random(9)
        checked = 0
        for _ in range(25):
            g, seq, metric = random_instance(2, 10, rng)
            plan = _plan(seq, metric, None)
            state = ReferenceState(seq, metric)
            by_edge, by_slot = {}, zero_state(plan)
            for d, (w, ranked), edges, (v, window) in zip(
                    plan.departures, ranked_departures(plan, metric),
                    state_edges(plan, metric), seq.steps[1:]):
                j = state.random_step(v, window, rng)
                kept = keep(by_edge, w, ranked, j, plan.cap)
                i, by_slot = _keep(by_slot, d, j, plan.cap)
                assert d.edges[i][0] == kept
                want = state.clique_edge_ranks()
                assert {e: by_edge.get(e, 0) for e in state.clique_edges()} == want
                held = dict(zip(edges, by_slot, strict=True))
                assert {e: held.get(e, 0) for e in state.clique_edges()} == want
                assert set(by_edge) <= set(state.clique_edges())
                assert set(held) <= set(state.clique_edges())
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
                state = zero_state(plan)
                for d in plan.departures:
                    _, state = _keep(state, d, sample_prefix_length(d.thresholds, rng), cap)
                    assert all(r <= cap for r in state)

    def test_cap_breach_raises_under_optimize(self):
        # the cap and the samplers' tree check are proof invariants, so their
        # checks must survive `python -O`; pw2 is fed plans that break them
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
            state = (plan.cap,) + (0,) * (plan.cap - 1)
            try:
                _keep(state, d, 1, plan.cap)
            except InvariantViolated:
                print("raised")
            plan = pw2._plan(seq, metric, pw2.DEFAULT_TAU)
            # a plan that loses the final window's edge: n - 2 edges at any draw
            pw2._plan = lambda *args: plan._replace(mst=())
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
            # the enumerator checks every draw it realizes
            try:
                pw2.enumerate_pw2_distribution(seq, metric)
            except InvariantViolated:
                print("raised")
            # per-step probabilities telescope to 1, so only an enumerator
            # that loses a draw breaks the sum
            pw2._plan = lambda *args: plan
            pw2.product = lambda *options: itertools.islice(itertools.product(*options), 1, None)
            try:
                pw2.enumerate_pw2_distribution(seq, metric)
            except InvariantViolated:
                print("raised")
        """)
        assert run_optimized(code).split() == ["raised"] * 5


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
        assert _keep(zero_state(plan), plan.departures[0], 2, plan.cap)[0] == 0
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

    def test_reference_invariant_holds_under_optimize(self):
        # a rank past the cap C(k+1, 2) breaks the reference's invariant:
        # its assert says so under `python -O` too, since conftest
        # registers it for rewriting
        g, seq = cycle(6)
        state = ReferenceState(seq, composed_metric_graph(g, seq))
        state.check_invariant()
        state.pair_rank[0, 1] = 4
        with pytest.raises(AssertionError):
            state.check_invariant()


class TestParentLinks:
    @settings(max_examples=40, deadline=None)
    @given(instance=mixed_instances())
    def test_links_match_the_edge_rule_and_a_traversal(self, instance):
        # on every admissible prefix-length vector, the sample's parent links
        # give the tuple-keyed step rule's edges, and the harness measures
        # the same distances from them as from a traversal of the tree
        g, seq = instance
        metric = composed_metric_graph(g, seq)
        plan = _plan(seq, metric, None)
        for lengths in itertools.product(*[range(1, len(d.anchors) + 1)
                                           for d in plan.departures]):
            tree = _sampled_tree(metric, plan, _realize(plan, lengths))
            assert linked_edges(tree, metric) \
                == set(realize(plan, metric, lengths)) == tree.edge_keys()

    @staticmethod
    def enumerated_trees():
        """(g, metric, tree) for every tree that either enumerator lists on
        cycles 3-10 and small random instances, at the default tau and 1."""
        instances = [cycle(n) for n in range(3, 11)]
        rng = random.Random(37)
        instances += [random_pathwidth_graph(k, n, small_rational_lengths, rng)
                      for k, n in ((2, 7), (2, 9), (2, 11), (3, 7), (3, 9), (4, 8))]
        for g, seq in instances:
            metric = composed_metric_graph(g, seq)
            enumerators = [enumerate_pwk_distribution]
            if seq.k == 2:
                enumerators.append(pw2.enumerate_pw2_distribution)
            for enumerate_distribution, tau in itertools.product(enumerators, (None, 1)):
                for tree, _ in enumerate_distribution(seq, metric, tau):
                    yield g, metric, tree

    def test_enumerated_trees_carry_links_that_measure_like_a_traversal(self):
        # the enumerators build every tree with the samplers' builder, so
        # each listed tree carries the links a sample of its draw would
        count = 0
        for g, metric, tree in self.enumerated_trees():
            assert linked_edges(tree, metric) == tree.edge_keys()
            count += 1
        assert count > 500

    def test_enumerated_trees_are_checked_from_their_links(self, monkeypatch):
        # the exact non-contraction check measures an enumerated tree from
        # its links, whatever scale the tree's own lengths have
        traversals = []
        real = harness.spanning_links
        monkeypatch.setattr(harness, "spanning_links",
                            lambda t: traversals.append(t) or real(t))
        for g, _, tree in self.enumerated_trees():
            assert harness.check_noncontraction(harness.identity_sample(g, tree)).ok
        assert traversals == []

    def test_links_off_the_harness_scale_are_read_at_the_lcm(self, monkeypatch):
        # the rooting reads the links at the plan's scale, with no
        # traversal; an estimate on a scale that the plan's does not divide
        # measures the tree at the lcm of the two
        traversals = []
        real = harness.spanning_links
        monkeypatch.setattr(harness, "spanning_links",
                            lambda t: traversals.append(t) or real(t))
        metric = build_metric_graph(range(3), [(0, 1, Fraction(1, 2)), (0, 2, 1),
                                               (1, 2, Fraction(4, 3))])
        seq = LinearCompositionSequence(2, [0, 1], [(2, {0, 2})])
        tree = embed_pathwidthk(seq, metric, random.Random(0))
        assert tree._links[3] == 6 and tree.edge_keys() == {(0, 1), (0, 2)}
        rooted = harness._RootedTree(tree)
        assert rooted.order is tree._links[0] and rooted.scale == 6
        assert rooted.pair_distances([(1, 2)]) == [9]
        for scale in (2, 3, 4, 6):
            # a triangle, so its own distances take no traversal either
            g = build_metric_graph(range(3), [(0, 1, Fraction(1, scale)), (0, 2, 1),
                                              (1, 2, 1)])
            for pairs in ("all", "edges"):
                report = harness.estimate_distortion(g, lambda rng: tree, 2, 0, pairs=pairs)
                means = {s.pair: s.mean_distance for s in report.pair_stats}
                assert means == {(0, 1): Fraction(1, 2), (0, 2): 1, (1, 2): Fraction(3, 2)}
        assert traversals == []


def canonical_ranks(k, rank):
    """A name for a (k+1)-clique's edge ranks `rank` (frozenset -> rank)
    that every relabelling shares: the vertices are ordered by their sorted
    incident ranks, which a relabelling keeps, and the least rank tuple over
    `combinations(range(k + 1), 2)` is taken over the orders that permute
    only vertices with equal incident ranks."""
    def incident(v):
        return tuple(sorted(rank[frozenset((u, v))] for u in range(k + 1) if u != v))
    groups = {}
    for v in range(k + 1):
        groups.setdefault(incident(v), []).append(v)
    blocks = [itertools.permutations(groups[key]) for key in sorted(groups)]
    return min(tuple(rank[frozenset((order[a], order[b]))]
                     for a, b in itertools.combinations(range(k + 1), 2))
               for order in (sum(choice, ()) for choice in itertools.product(*blocks)))


def rank_closure(k):
    """Every clique state the real step rule reaches from the zero state, up
    to relabelling, when each departure may pick any departing vertex, any
    order of its k candidates and any drawn length j in 1..k: a superset of
    what any metric and tau reach, since the rule reads no length."""
    cap = math.comb(k + 1, 2)
    pairs = list(itertools.combinations(range(k), 2))
    # candidates 0..k-1 with an identity `out`: the state comes back in the
    # layout it went in, the departing vertex's edges first, then the pairs
    departure = pw2._Departure(k, tuple(range(k)), tuple(((i, k), 1) for i in range(k)),
                               (), tuple(range(cap)), (), ())
    start = (0,) * cap
    seen, todo = {start}, [start]
    while todo:
        rank = dict(zip(map(frozenset, itertools.combinations(range(k + 1), 2)), todo.pop()))
        for w in range(k + 1):
            for xs in itertools.permutations([v for v in range(k + 1) if v != w]):
                state = tuple([rank[frozenset((w, x))] for x in xs]
                              + [rank[frozenset((xs[a], xs[b]))] for a, b in pairs])
                for j in range(1, k + 1):
                    _, after = _keep(state, departure, j, cap)
                    # the candidates keep their positions; the new vertex is k
                    nxt = {frozenset(pair): after[k + i] for i, pair in enumerate(pairs)}
                    nxt.update((frozenset((a, k)), 0) for a in range(k))
                    form = canonical_ranks(k, nxt)
                    if form not in seen:
                        seen.add(form)
                        todo.append(form)
    return seen


class TestRankClosure:
    """The width-k rule's reachable ranks, closed by exhaustion: no sample
    of any instance holds a rank above k - 1 for k <= 4, far below the cap
    C(k+1, 2) that `_keep` and criterion 05 check."""

    def test_closure_up_to_width_4(self):
        closures = {k: rank_closure(k) for k in (1, 2, 3, 4)}
        assert {k: len(states) for k, states in closures.items()} == {1: 1, 2: 2, 3: 7, 4: 77}
        assert {k: max(map(max, states)) for k, states in closures.items()} == {
            1: 0, 2: 1, 3: 2, 4: 3}

    def test_canonical_form_names_the_state_up_to_relabelling(self):
        # one of the state's own relabellings, and the same for all of them
        rng = random.Random(30)
        edges = list(itertools.combinations(range(4), 2))
        for _ in range(100):
            rank = {frozenset(e): rng.randint(0, 2) for e in edges}
            relabellings = [{frozenset(perm[v] for v in e): r for e, r in rank.items()}
                            for perm in itertools.permutations(range(4))]
            forms = {canonical_ranks(3, other) for other in relabellings}
            assert len(forms) == 1
            assert forms <= {tuple(other[frozenset(e)] for e in edges) for other in relabellings}
        rank = dict(zip(map(frozenset, edges), (2, 0, 1, 0, 1, 0)))
        assert canonical_ranks(3, rank) == (0, 0, 0, 1, 1, 2)


def wide_lengths(rng):
    """A small rational length times 2^j, j <= 40: prefix probabilities
    far below 1 even at the default tau."""
    return small_rational_lengths(rng) * 2 ** rng.randint(0, 40)


def cold_plan(seq, metric, tau):
    """A new plan, whose transition table is empty."""
    _plan.cache_clear()
    return _plan(seq, metric, tau)


def stored_transitions(plan):
    return sum(len(table) for table in plan.memo[0])


class TestTransitionTable:
    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([2, 3, 4]), extra=st.integers(1, 30),
           sampler=st.sampled_from([small_rational_lengths, wide_lengths]),
           tau=st.sampled_from([None, 1, 0]), seed=st.integers(0, 2 ** 32))
    def test_kept_candidates_match_the_step_by_step_rule(self, k, extra, sampler, tau, seed):
        # the table keeps what the rule run on every departure keeps: on a
        # cold plan, again on the warm one, and on a cold one fed the
        # samples in another order; drawn lengths and lengths from the
        # whole admissible range, which reach states no draw does
        rng = random.Random(seed)
        g, seq = random_pathwidth_graph(k, k + extra, sampler, rng)
        metric = composed_metric_graph(g, seq)
        plan = cold_plan(seq, metric, tau)
        draws = [_draw_lengths(plan.departures, sample_rng(seed, i)) for i in range(20)]
        draws += [[rng.randint(1, len(d.anchors)) for d in plan.departures] for _ in range(20)]
        want = [realize_by_steps(plan, lengths) for lengths in draws]
        assert [_realize(plan, lengths) for lengths in draws] == want
        assert [_realize(plan, lengths) for lengths in draws] == want
        order = list(range(len(draws)))
        rng.shuffle(order)
        plan = cold_plan(seq, metric, tau)
        assert [_realize(plan, draws[i]) for i in order] == [want[i] for i in order]

    def test_keep_runs_once_per_reachable_transition(self, monkeypatch):
        # the rule ran once per departure and sample: 50,900 times for
        # these 100 samples of 509 departures.  The plan holds the rule it
        # was built with, so the rule is patched before the cold plan is built
        g, seq = random_pathwidth_graph(2, 512, small_rational_lengths, random.Random(17))
        metric = composed_metric_graph(g, seq)
        calls = []
        real = pwk._keep
        monkeypatch.setattr(pwk, "_keep", lambda *args: calls.append(args[2]) or real(*args))
        plan = cold_plan(seq, metric, None)
        trees = [embed_pathwidthk(seq, metric, sample_rng(17, i)) for i in range(100)]
        assert len(plan.departures) == 509 and len({frozenset(t.edge_keys()) for t in trees}) > 1
        assert len(calls) == stored_transitions(plan) <= 2 * len(plan.departures)
        # a warm plan runs it no more
        embed_pathwidthk(seq, metric, sample_rng(17, 0))
        assert len(calls) == stored_transitions(plan)
        _plan.cache_clear()  # the cached plan holds the patched rule

    def test_cap_breach_on_a_miss_raises_under_optimize(self):
        # a breach is found on a miss, before its transition is stored, so
        # the same draw raises again, under `python -O` too; the plan's
        # cap is lowered to 1, which the second departure's ranks reach
        code = textwrap.dedent("""
            import sys
            from pwtree.instances import cycle
            from pwtree.pathwidth import composed_metric_graph
            from pwtree.pwk import InvariantViolated, _plan, _realize
            if __debug__:
                sys.exit("asserts are live")
            g, seq = cycle(6)
            metric = composed_metric_graph(g, seq)
            plan = _plan(seq, metric, None)._replace(cap=1)
            lengths = [2] * len(plan.departures)
            for _ in range(2):
                try:
                    _realize(plan, lengths)
                except InvariantViolated:
                    print("raised", sum(len(table) for table in plan.memo[0]))
        """)
        assert run_optimized(code).splitlines() == ["raised 1", "raised 1"]


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

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([2, 3, 4]), extra=st.integers(1, 30),
           sampler=st.sampled_from([small_rational_lengths, wide_lengths]),
           tau=st.sampled_from([None, 1, 0]), seed=st.integers(0, 2 ** 32))
    def test_draw_stops_at_the_last_departure_that_varies(self, k, extra, sampler, tau, seed):
        # the lengths of drawing at every departure, on a twin stream; at
        # tau = 0 every probability is 0 or 1, so nothing is drawn
        g, seq = random_pathwidth_graph(k, k + extra, sampler, random.Random(seed))
        metric = composed_metric_graph(g, seq)
        plan = _plan(seq, metric, tau)
        varies = [pw2._fixed_length(d.thresholds) is None for d in plan.departures]
        assert len(plan.drawn) == (len(varies) - varies[::-1].index(True) if any(varies) else 0)
        assert tau != 0 or plan.drawn == ()
        for i in range(10):
            assert _draw(plan, sample_rng(seed, i)) \
                == _draw_lengths(plan.departures, sample_rng(seed, i))

    def test_fixed_length_reads_the_float_thresholds(self):
        # None and 1.0 extend, 0.0 stops, anything else varies; a
        # probability of 1 - 2^-60 is a threshold of 1.0
        assert prefix_thresholds([1 - Fraction(1, 2 ** 60), Fraction(0)]) == (1.0, 0.0)
        cases = {(): 1, (None, None): 3, (1.0,): 2, (0.0, 0.5): 1, (None, 1.0, 0.0, 0.3): 3,
                 (0.5,): None, (None, 0.3, 0.0): None, (1.0, 1e-300): None}
        for thresholds, length in cases.items():
            assert pw2._fixed_length(thresholds) == length
            if length is not None:
                assert sample_prefix_length(thresholds, random.Random(0)) == length

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

    def test_one_vertex_single_outcome(self):
        # the final clique {0} has no spanning-tree edge to root the tree
        # at; it used to raise "min() arg is an empty sequence"
        seq = LinearCompositionSequence(1, [0], [])
        metric = build_metric_graph([0], [])
        dist = enumerate_pwk_distribution(seq, metric)
        assert dist == [(metric, 1)] and dist[0][0]._links[:2] == ((0,), [0])
        assert embed_pathwidthk(seq, metric, random.Random(0)) == metric

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


def lengths_by_product(probs):
    """[(j, P[length j])] over the lengths of positive probability: the
    product of the first j - 1 extension probabilities, times the chance
    of stopping at j, which is certain at the last length."""
    out = []
    for j in range(1, len(probs) + 2):
        p_j = math.prod(probs[:j - 1], start=Fraction(1))
        if j <= len(probs):
            p_j *= 1 - probs[j - 1]
        if p_j:
            out.append((j, p_j))
    return out


def check_length_distribution(plan):
    """Check every departure's length distribution; the number of
    departures with more than one length."""
    branching = 0
    for d in plan.departures:
        lengths = pw2._length_distribution(d)
        assert [j for j, _ in lengths] == sorted({j for j, _ in lengths})
        assert all(isinstance(p, Fraction) and p > 0 for _, p in lengths)
        assert sum(p for _, p in lengths) == 1
        assert lengths == lengths_by_product(d.probs)
        assert 1 <= lengths[0][0] and lengths[-1][0] <= len(d.anchors)
        branching += len(lengths) > 1
    return branching


class TestLengthDistribution:
    def test_corpus_plans(self):
        branching = 0
        for _, g, seq in build_corpus():
            metric = composed_metric_graph(g, seq)
            branching += check_length_distribution(_plan(seq, metric, None))
            if seq.k == 2:
                branching += check_length_distribution(pw2._plan(seq, metric, None))
        assert branching > 10

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([2, 3, 4]), extra=st.integers(1, 20),
           sampler=st.sampled_from([small_rational_lengths, wide_lengths]),
           tau=st.sampled_from([None, 1, 0]), seed=st.integers(0, 2 ** 32))
    def test_drawn_plans(self, k, extra, sampler, tau, seed):
        g, seq = random_pathwidth_graph(k, k + extra, sampler, random.Random(seed))
        metric = composed_metric_graph(g, seq)
        check_length_distribution(_plan(seq, metric, tau))
        if k == 2:
            check_length_distribution(pw2._plan(seq, metric, tau))
