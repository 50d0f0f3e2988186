"""The exact checkers against an independent oracle.

Every expected value is built from `distance_reference.reference_distances`
(a `Fraction` Dijkstra) run on both the source and the target, and from
`tree_pathwidth_reference`; nothing is shared with the harness's
distance layers.  The sources are trees (drawn twice as often),
graphs with n - 1 edges and a cycle (so not connected), and forests,
whose rows hold infinite distances; the vertex maps are the identity, the
identity into a target with extra vertices, a relabelling, a permutation
of the source's own labels out of their order, and an arbitrary map onto
them; the targets are paths along the source distances, which may
contract slightly on a finer scale, spanning trees whose edges sit at or
above d_G of their ends, on scales of their own, but for at most one
edge just below it or at zero, and random trees, which mostly contract.
A spy on the pairwise scan shows that both ways the checkers decide, by
the target's links alone and by every pair, take a real share of the
examples.  `check_close_to_P` is checked on random trees s with one
subtree per branch at a random root, on samples of s as above or onto s
itself stretched, along a random path of the target, with a `min_leg`
that puts some subtrees' distances to the path at or within the
threshold; the reference takes each subtree's least distance to every
path vertex.  The comparisons raise by themselves rather than by
`assert`, so the tests also check under ``python -O``.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pwtree
from conftest import LENGTHS, adjacency
from distance_reference import reference_distances
from pwtree import harness
from pwtree.graphs import build_metric_graph
from pwtree.harness import (
    EmbeddingSample,
    EmptyEdgeSet,
    HypothesisViolation,
    PreconditionFailed,
    average_edge_stretch,
    check_close_to_P,
    check_noncontraction,
    identity_sample,
    verify_lower_bound_witness,
)
from tree_pathwidth_reference import tree_pathwidth

SOURCES = ("tree", "tree", "cycle", "forest")
MAPS = ("identity", "steiner", "relabel", "permute", "arbitrary")
TARGETS = ("path", "tree", "random")
STRETCH = (1, 1, 1, 2, Fraction(8, 7), Fraction(999_999, 1_000_003))
# a spanning tree's edges at or above d_G of their ends, on scales of their
# own, and the one edge that may shrink: just below d_G, or to zero
ABOVE = (1, 1, 2, Fraction(8, 7), Fraction(10**9 + 7, 10**9))
BELOW = (Fraction(999_999, 1_000_003), 0)


@st.composite
def cases(draw):
    """(source, sample, k, r): a witness check at m = r^(2^k)."""
    kind = draw(st.sampled_from(SOURCES))
    n = draw(st.integers(4 if kind == "cycle" else 1, 9))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    label = rng.sample(range(-40, 40), n)
    if kind == "cycle":  # a cycle, a forest on the rest, one vertex left out
        c = rng.randint(3, n - 1)
        pairs = [(i, (i + 1) % c) for i in range(c)]
        pairs += [(rng.randrange(v), v) for v in range(c, n - 1)]
    else:
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        if kind == "forest":
            pairs = [p for p in pairs if rng.random() < 0.6]
    source = build_metric_graph(label, [(label[a], label[b], draw(LENGTHS)) for a, b in pairs])
    sample = draw_sample(draw, rng, source, MAPS, TARGETS)
    k = draw(st.integers(1, 2))
    r = 2 * draw(st.integers(1, 2 ** 16))  # threshold r / (2^(8+2k) k), around the means
    return source, sample, k, r


def draw_sample(draw, rng, source, maps, shapes):
    """A sample of `source` under a map of one of the kinds `maps`, onto a
    target of one of the shapes `shapes`."""
    n = source.n
    how = draw(st.sampled_from(maps))
    shift = 1000 if how == "relabel" else 0
    order = sorted(source.vertices)
    names = [v + shift for v in order] + ([99] if how == "steiner" else [])
    fmap = dict(zip(order, names))
    if how == "permute":  # a bijection onto the source's own labels, out of their order
        image = rng.sample(names, n)
        fmap = dict(zip(order, image if image != names else image[::-1]))
    # the image of each source vertex, in the source's order, along which
    # the path and the spanning tree lay their edges
    walk = [fmap[v] for v in order]
    shape = draw(st.sampled_from(shapes))
    d = reference_distances(source)
    if shape == "path":
        # a path along the source distances, times factors that may make it
        # contract slightly, on a finer scale
        edges = [(a, b, (d[u, v] or 1) * rng.choice(STRETCH))
                 for (u, v), a, b in zip(zip(order, order[1:]), walk, walk[1:])]
    elif shape == "tree":
        # a random recursive tree, each edge at or above d_G of its ends'
        # preimages (a drawn length across two components), and in half
        # the cases one edge below it
        ends = [(rng.randrange(i), i) for i in range(1, n)]
        edges = [(walk[j], walk[i], draw(LENGTHS) if d[order[j], order[i]] is None
                  else d[order[j], order[i]] * rng.choice(ABOVE)) for j, i in ends]
        if edges and rng.random() < 0.5:
            a, b, length = edges.pop(rng.randrange(len(edges)))
            edges.append((a, b, length * rng.choice(BELOW)))
    else:
        edges = [(walk[rng.randrange(i)], walk[i], draw(LENGTHS)) for i in range(1, n)]
    if how == "steiner":
        edges.append((names[rng.randrange(n)], 99, draw(LENGTHS)))
    target = build_metric_graph(names, edges)
    if how == "arbitrary":
        fmap = {v: rng.choice(names) for v in order}
    return EmbeddingSample(source, target, fmap)


@st.composite
def proximity_cases(draw):
    """(s, root, subtrees, target_path, sample, min_leg): a random weighted
    tree s, lengths of zero included, with one subtree per branch at a
    random root, each a vertex x of the branch and some of the vertices
    below it; a sample under a bijection or onto a Steiner target, on a
    path or a spanning tree as in `cases`, or onto s stretched, so mostly
    dominating; the target path from a random target vertex to another,
    or to the image of an x's parent; and `min_leg` at most the shortest
    leg, the distance from the root to an x."""
    n = draw(st.integers(2, 9))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    label = rng.sample(range(-40, 40), n)
    root, reach = rng.choice(label), rng.choice((0, 20))
    edges = [(label[rng.randrange(v)], label[v]) for v in range(1, n)]
    # in half the cases each edge at the root is longer by 20, so the legs
    # are long beside the subtrees' distances to the path
    s = build_metric_graph(label, [(a, b, draw(LENGTHS) + (reach if root in (a, b) else 0))
                                   for a, b in edges])
    parent = tree_parents(s, root)

    def above(v):  # v and the vertices on its way up to the root
        while v != root:
            yield v
            v = parent[v]

    branches = {}
    for v in label:
        if v != root:
            branches.setdefault(list(above(v))[-1], []).append(v)
    subtrees, tops = [], []
    for members in branches.values():
        x = rng.choice(members)
        tops.append(x)
        subtrees.append({x} | {v for v in members if x in above(v) and rng.random() < 0.6})
    if rng.random() < 0.5:
        sample = draw_sample(draw, rng, s, MAPS[:-1], TARGETS[:-1])
    else:  # s itself, each edge at or above its length, so its paths pass by the subtrees
        sample = identity_sample(s, s.with_edges({e: w * rng.choice(ABOVE) for e, w in s.edges()}))
    ends = sorted(sample.target.vertices)
    # in half the cases the path ends beside a subtree: at the image of
    # the parent of its vertex nearest the root
    a = rng.choice(ends)
    b = sample.fmap[parent[rng.choice(tops)]] if rng.random() < 0.5 else rng.choice(ends)
    to_a = tree_parents(sample.target, a)
    path = [b]
    while path[-1] != a:
        path.append(to_a[path[-1]])
    # a part of the shortest leg, or a multiple of a subtree's distance to
    # the path, around the nearness threshold min_leg / 2, within the leg
    d, d_t, f = reference_distances(s), reference_distances(sample.target), sample.fmap
    shortest = min(d[root, x] for x in tops)
    gaps = [g for g in (min(d_t[f[v], p] for v in sub for p in path) for sub in subtrees) if g]
    if gaps and rng.random() < 0.7:  # a gap at the threshold, or a half or a quarter of it
        min_leg = min(shortest, rng.choice(gaps) * rng.choice((2, 3, 4)))
    else:
        min_leg = shortest * Fraction(rng.randint(0, 4), 4)
    return s, root, subtrees, path, sample, min_leg


def tree_parents(t, root):
    """{vertex: its parent} of the tree `t` hung from `root`."""
    adj, parent, todo = adjacency(t), {root: None}, [root]
    while todo:
        v = todo.pop()
        for u, _ in adj[v]:
            if u not in parent:
                parent[u] = v
                todo.append(u)
    return parent


def expected(source, sample, k, r):
    """(violations, edge average or None, witness verdict or the error it
    raises), all from the reference distances."""
    d_s, d_t = reference_distances(source), reference_distances(sample.target)
    f = sample.fmap
    order = sorted(source.vertices)
    violations = []
    for i, u in enumerate(order):
        for v in order[i + 1:]:
            ds, dt = d_s[u, v], d_t[f[u], f[v]]
            if ds is None or dt < ds:
                violations.append((u, v, ds, dt))
    if not source.m:
        return violations, None, EmptyEdgeSet
    dists = [(d_t[f[u], f[v]], length) for (u, v), length in source.edges()]
    ratios = [d / length for d, length in dists if length > 0]
    average = (sum(d for d, _ in dists) / source.m,
               sum(ratios) / len(ratios) if ratios else None, source.m, len(ratios))
    if violations:
        return violations, average, PreconditionFailed
    pw = tree_pathwidth(sample.target)
    if pw > k:
        return violations, average, PreconditionFailed
    threshold = Fraction(r, 2 ** (8 + 2 * k) * k)
    return violations, average, (average[0] >= threshold, average[0], average[1], pw)


def mismatches(source, sample, k, r):
    """What the checkers give that the reference does not, as strings."""
    want_violations, want_average, want_witness = expected(source, sample, k, r)
    out = []
    got = check_noncontraction(sample)
    if got.violations != want_violations or got.ok != (not want_violations):
        out.append(f"violations {got.violations} != {want_violations}")
    if want_average is not None:
        avg = average_edge_stretch(source, sample, require_noncontraction=False)
        got_average = (avg.mean_distance, avg.mean_ratio, avg.edges_total, avg.edges_in_ratio)
        if got_average != want_average:
            out.append(f"average {got_average} != {want_average}")
        try:
            average_edge_stretch(source, sample)
            raised = None
        except PreconditionFailed:
            raised = PreconditionFailed
        if raised != (PreconditionFailed if want_violations else None):
            out.append(f"checked average raised {raised}")
    try:
        verdict = verify_lower_bound_witness(k, r ** (2 ** k), sample)
        got_witness = (verdict.passed, verdict.mean_distance, verdict.mean_ratio,
                       verdict.target_pathwidth)
    except (EmptyEdgeSet, PreconditionFailed) as exc:
        got_witness = type(exc)
    if got_witness != want_witness:
        out.append(f"witness {got_witness} != {want_witness}")
    return out


@settings(max_examples=150, deadline=None, database=None)
@given(cases())
def compare(scans, scanned, case):
    """Raise on any mismatch with the reference, and add to `scanned`
    whether the checkers scanned every pair of the example, read from
    `scans`, which grows by one per scan."""
    before = len(scans)
    problems = mismatches(*case)
    if problems:
        raise AssertionError(problems)
    scanned.append(len(scans) > before)


def test_checkers_match_the_reference():
    # every checker decides through one function: the target's links alone
    # when the map is a bijection and no link contracts, else the pairwise
    # scan; each must decide a real share of the examples
    scans, scanned, scan = [], [], harness._contracted_pairs
    harness._contracted_pairs = lambda *args: scans.append(args) or scan(*args)
    try:
        compare(scans, scanned)
    finally:
        harness._contracted_pairs = scan
    # about a quarter of the examples are certified by the links, and at
    # least 26 of 150 in each of eight runs
    if not 0.1 * len(scanned) <= sum(scanned) <= 0.9 * len(scanned):
        raise AssertionError(f"{sum(scanned)} of {len(scanned)} examples scanned every pair")


def expected_proximity(s, root, subtrees, path, sample, min_leg):
    """`check_close_to_P`'s (passed, near_indices, lhs, rhs), or
    HypothesisViolation for a sample that contracts, from the reference
    distances, each subtree's distance to the path over every path vertex."""
    d_s, d_t = reference_distances(s), reference_distances(sample.target)
    f = sample.fmap
    if any(d_t[f[u], f[v]] < d_s[u, v] for u, v in itertools.combinations(s.vertices, 2)):
        return HypothesisViolation
    near = [i for i, sub in enumerate(subtrees)
            if min(d_t[f[v], p] for v in sub for p in path) < Fraction(min_leg) / 2]
    lhs = sum(d_t[f[u], f[v]] for (u, v), _ in s.edges())
    rhs = len(near) ** 2 * Fraction(min_leg) / 16
    return lhs >= rhs, near, lhs, rhs


@settings(max_examples=200, deadline=None, database=None)
@given(proximity_cases())
def compare_proximity(seen, case):
    """Raise on any mismatch with the reference, and add to `seen` the
    reference verdict of the example."""
    want = expected_proximity(*case)
    try:
        got = check_close_to_P(*case)
        got = got.passed, got.near_indices, got.lhs, got.rhs
    except HypothesisViolation:
        got = HypothesisViolation
    if got != want:
        raise AssertionError(f"{got} != {want}")
    seen.append((want, len(case[2])))


def test_close_to_P_matches_the_reference():
    # nearness is read from two distances to the path's ends; the
    # reference takes the least distance to every vertex of the path
    seen = []
    compare_proximity(seen)
    checked = [(want, subtrees) for want, subtrees in seen if want is not HypothesisViolation]
    near = sum(bool(want[1]) for want, _ in checked)
    far = sum(len(want[1]) < subtrees for want, subtrees in checked)
    # a subtree near the path and one far from it, each in at least a
    # tenth of the examples: 18 to 39 and 42 to 61 of 100 in three runs
    if not min(near, far) >= 0.1 * len(seen):
        raise AssertionError(f"of {len(seen)} examples, {near} had a subtree near the path "
                             f"and {far} one far from it")


def test_checkers_match_the_reference_under_optimize(tmp_path):
    code = textwrap.dedent("""
        import sys
        if __debug__:
            sys.exit("asserts are live")
        import test_checker_oracle
        test_checker_oracle.test_checkers_match_the_reference()
        test_checker_oracle.test_close_to_P_matches_the_reference()
        print("checked")
    """)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(pwtree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [tests, src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["checked"]
