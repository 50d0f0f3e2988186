"""The exact checkers against an independent oracle.

Every expected value is built from `distance_reference.reference_distances`
(a `Fraction` Dijkstra) run on both the source and the target, and from
`tree_pathwidth_reference`; nothing is shared with the harness's
distance layers.  The sources are trees, graphs with n - 1 edges and a
cycle (so not connected), and forests, whose rows hold infinite
distances; the vertex maps are the identity, the identity into a target
with extra vertices, a relabelling and an arbitrary map onto the
source's own vertices; the targets are paths along the source distances,
which may contract slightly on a finer scale, or random trees, which
mostly contract.  The
comparison raises by itself rather than by `assert`, so the test also
checks under ``python -O``.
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pwtree
from conftest import LENGTHS
from distance_reference import reference_distances
from pwtree.graphs import build_metric_graph
from pwtree.harness import (
    EmbeddingSample,
    EmptyEdgeSet,
    PreconditionFailed,
    average_edge_stretch,
    check_noncontraction,
    verify_lower_bound_witness,
)
from tree_pathwidth_reference import tree_pathwidth

SOURCES = ("tree", "cycle", "forest")
MAPS = ("identity", "steiner", "relabel", "arbitrary")
STRETCH = (1, 1, 1, 2, Fraction(8, 7), Fraction(999_999, 1_000_003))


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

    how = draw(st.sampled_from(MAPS))
    shift = 1000 if how == "relabel" else 0
    order = sorted(source.vertices)
    names = [v + shift for v in order] + ([99] if how == "steiner" else [])
    if draw(st.booleans()):
        # a path along the source distances, times factors that may make it
        # contract slightly, on a finer scale
        d = reference_distances(source)
        edges = [(a, b, (d[u, v] or 1) * rng.choice(STRETCH))
                 for (u, v), a, b in zip(zip(order, order[1:]), names, names[1:])]
    else:
        edges = [(names[rng.randrange(i)], names[i], draw(LENGTHS)) for i in range(1, n)]
    if how == "steiner":
        edges.append((names[rng.randrange(n)], 99, draw(LENGTHS)))
    target = build_metric_graph(names, edges)
    fmap = {v: v + shift for v in order}
    if how == "arbitrary":
        fmap = {v: rng.choice(names) for v in order}
    sample = EmbeddingSample(source, target, fmap)

    k = draw(st.integers(1, 2))
    r = 2 * draw(st.integers(1, 2 ** 16))  # threshold r / (2^(8+2k) k), around the means
    return source, sample, k, r


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
def test_checkers_match_the_reference(case):
    problems = mismatches(*case)
    if problems:
        raise AssertionError(problems)


def test_checkers_match_the_reference_under_optimize(tmp_path):
    code = textwrap.dedent("""
        import sys
        if __debug__:
            sys.exit("asserts are live")
        import test_checker_oracle
        test_checker_oracle.test_checkers_match_the_reference()
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
