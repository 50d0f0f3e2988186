"""Reference width-k embedding with a risk counter for every vertex pair.

This is the literal form of the construction in ``pwtree.pwk``: the working
subgraph (a clique on the window plus pendant trees) is kept explicitly,
every vertex pair carries its own rank, and the rank of a clique edge is
recomputed as the largest rank over the pairs whose canonical path crosses
that edge.  ``pwtree.pwk`` keeps only those per-edge maxima and updates
them in O(k) per step; the tests check that both give the same ranks and
the same trees.  It is slow (quadratic in n per step) and meant for small
instances only.

`keep` and `realize` are the per-edge step rule as it reads on edge
tuples, ranks in a dict keyed by edge and each departing vertex's edges
popped when it leaves; ``pwtree.pwk`` runs the same rule on states, one
rank per edge of a departure's clique, and the tests check that both keep
the same edges.  `realize_by_steps` is ``pwtree.pwk._keep`` folded over
the departures from the zero state, without the transition table that
the shared walk ``pwtree.pw2._realize`` keeps; the tests check that both
keep the same candidates.  `state_edges` names the edge of every rank of those states.
"""

from fractions import Fraction
from itertools import combinations

from pwtree.graphs import edge_key, minimum_spanning_tree
from pwtree.pwk import (
    InvariantViolated, MissingLength, _keep, eligible_probs, prefix_thresholds,
    sample_prefix_length)


class ReferenceState:
    """The working subgraph after the first step of `seq`, then one step per call."""

    def __init__(self, seq, g, tau=None):
        self.k = seq.k
        self.g = g
        self.tau = Fraction(4 * seq.k) if tau is None else Fraction(tau)
        v1, window = seq.steps[0]
        self.clique = frozenset(seq.initial) | {v1}
        self.current = frozenset(window)
        self.edges = set()
        for a, b in combinations(sorted(self.clique), 2):
            self._add_edge(a, b)
        self.tree_parent = {}
        self.pair_rank = {}

    def _add_edge(self, a, b):
        if not self.g.has_edge(a, b):
            raise MissingLength(f"composed edge ({a!r}, {b!r}) absent from the metric")
        self.edges.add(edge_key(a, b))

    def vertices(self):
        return set(self.clique) | set(self.tree_parent)

    def clique_edges(self):
        return [edge_key(a, b) for a, b in combinations(sorted(self.clique), 2)]

    def _chain(self, v):
        """Vertices from v up to its clique attachment point, inclusive."""
        chain = [v]
        while chain[-1] in self.tree_parent:
            chain.append(self.tree_parent[chain[-1]])
        return chain

    def canonical_path(self, u, v):
        """Edge list of the unique u-v path crossing at most one clique edge."""
        present = self.vertices()
        for x in (u, v):
            if x not in present:
                raise KeyError(f"{x!r} is not in the current subgraph")
        if u == v:
            return []
        cu = self._chain(u)
        cv = self._chain(v)
        if cu[-1] != cv[-1]:
            up = [edge_key(a, b) for a, b in zip(cu, cu[1:])]
            down = [edge_key(a, b) for a, b in zip(cv, cv[1:])]
            return up + [edge_key(cu[-1], cv[-1])] + down[::-1]
        # same attachment: meet at the lowest common ancestor of the two chains
        while len(cu) > 1 and len(cv) > 1 and cu[-2] == cv[-2]:
            cu.pop()
            cv.pop()
        if cu[-1] in cv[:-1]:
            cv = cv[: cv.index(cu[-1]) + 1]
        elif cv[-1] in cu[:-1]:
            cu = cu[: cu.index(cv[-1]) + 1]
        up = [edge_key(a, b) for a, b in zip(cu, cu[1:])]
        down = [edge_key(a, b) for a, b in zip(cv, cv[1:])]
        return up + down[::-1]

    def clique_edge_ranks(self):
        """Per clique edge, the largest rank of a pair whose canonical path uses it."""
        ranks = dict.fromkeys(self.clique_edges(), 0)
        for pair, r in self.pair_rank.items():
            for e in self.canonical_path(*pair):
                if e in ranks and r > ranks[e]:
                    ranks[e] = r
        return ranks

    def edge_rank(self, e):
        """Rank of clique edge `e`; KeyError when `e` is not a clique edge."""
        return self.clique_edge_ranks()[edge_key(*e)]

    def departing(self):
        """(w, [(length, edge)]) for the vertex leaving the clique, edges sorted."""
        (w,) = self.clique - self.current
        return w, sorted((self.g.length(w, x), edge_key(w, x)) for x in self.current)

    def step(self, v_new, window_new, prefix_len):
        """Keep one of the departing vertex's first `prefix_len` edges; admit v_new.

        Returns the kept edge."""
        w, ranked = self.departing()
        eligible = [e for _, e in ranked[:prefix_len]]
        ranks = self.clique_edge_ranks()
        kept = max(eligible, key=ranks.__getitem__)
        for u, v in combinations(sorted(self.vertices()), 2):
            if any(e in eligible for e in self.canonical_path(u, v)):
                self.pair_rank[(u, v)] = self.pair_rank.get((u, v), 0) + 1
        (anchor,) = set(kept) - {w}
        self.edges -= {e for _, e in ranked if e != kept}
        for x in self.current:
            self._add_edge(v_new, x)
        self.tree_parent[w] = anchor
        self.clique = self.current | {v_new}
        self.current = frozenset(window_new)
        return kept

    def random_step(self, v_new, window_new, rng):
        """One step with the prefix length drawn from `rng`; returns it."""
        _, ranked = self.departing()
        probs = eligible_probs([l for l, _ in ranked], self.tau)
        j = sample_prefix_length(prefix_thresholds(probs), rng)
        self.step(v_new, window_new, j)
        return j

    def tree(self):
        """The output: pendant edges plus the final clique's spanning tree."""
        mst = set(minimum_spanning_tree(self.g, self.clique))
        tree_edges = (self.edges - set(self.clique_edges())) | mst
        return self.g.with_edges({e: self.g.length(*e) for e in tree_edges})

    def check_invariant(self):
        """Assert the clique-plus-pendant-forest structure and the rank cap."""
        clique_edges = set(self.clique_edges())
        assert clique_edges <= self.edges, "window clique is incomplete"
        # the pendant part is a forest whose components each touch one clique vertex
        adj = {}
        for a, b in self.edges - clique_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = set()
        for start in adj:
            if start in seen:
                continue
            comp, stack = {start}, [start]
            nedges = 0
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    nedges += 1
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            assert nedges // 2 == len(comp) - 1, "pendant part contains a cycle"
            assert len(comp & self.clique) == 1, "pendant component must touch one clique vertex"
        cap = (self.k + 1) * self.k // 2
        assert all(0 <= r <= cap for r in self.pair_rank.values())


def reference_embed(seq, g, rng, tau=None):
    """Reference counterpart of ``pwtree.pwk.embed_pathwidthk``."""
    if not seq.steps:
        mst = minimum_spanning_tree(g, seq.initial)
        return g.with_edges({e: g.length(*e) for e in mst})
    state = ReferenceState(seq, g, tau)
    for v, window in seq.steps[1:]:
        state.random_step(v, window, rng)
    return state.tree()


def ranked_departures(plan, g):
    """Each departure of a ``pwtree.pwk`` plan on `g` as (w, ranked): the
    departing vertex and its candidates as ((edge, other endpoint), ...)."""
    verts = g.vertices
    return [(verts[d.w], tuple((e, verts[x]) for (e, _), x in zip(d.edges, d.anchors)))
            for d in plan.departures]


def keep(ranks, w, ranked, j, cap):
    """The step rule on edge tuples: `w` leaves the clique keeping one of its
    first `j` edges, the eligible one of largest rank, ties going to the
    first.  Every eligible edge's rank goes up by one, and the ranks of
    `w`'s edges move to the kept edge's other endpoint (the anchor).
    Mutates `ranks` and returns the kept edge."""
    eligible = ranked[:j]
    kept, anchor = max(eligible, key=lambda cand: ranks.get(cand[0], 0))
    for e, _ in eligible:
        bumped = ranks.get(e, 0) + 1
        if bumped > cap:
            raise InvariantViolated(f"rank of {e!r} would pass its cap {cap}")
        ranks[e] = bumped
    for e, x in ranked:
        old = ranks.pop(e, 0)
        if x != anchor and old > ranks.get(edge_key(anchor, x), 0):
            ranks[edge_key(anchor, x)] = old
    return kept


def realize(plan, g, lengths):
    """The sample's edges for its prefix lengths: `keep` once per
    departure, then the final clique's minimum spanning tree."""
    ranks = {}
    return ([keep(ranks, w, ranked, j, plan.cap)
             for (w, ranked), j in zip(ranked_departures(plan, g), lengths)]
            + [e for e, _ in plan.mst])


def zero_state(plan):
    """The state of a ``pwtree.pwk`` plan's first departure: every rank 0."""
    k = len(plan.departures[0].anchors) if plan.departures else 0
    return (0,) * (k * (k + 1) // 2)


def realize_by_steps(plan, lengths):
    """The kept candidate of every departure of a ``pwtree.pwk`` plan: the
    step rule `_keep` folded over the departures from the zero state."""
    kept, state = [], zero_state(plan)
    for d, j in zip(plan.departures, lengths):
        i, state = _keep(state, d, j, plan.cap)
        kept.append(i)
    return kept


def state_edges(plan, g):
    """Per departure of a ``pwtree.pwk`` plan on `g`, the edges whose ranks
    the state after it holds, in the state's order: the next departure's
    candidate edges, then each pair of its candidates; after the last
    departure, the pairs of its own candidates."""
    verts = g.vertices

    def pairs(d):
        return [edge_key(verts[a], verts[b]) for a, b in combinations(d.anchors, 2)]

    layouts = [[e for e, _ in d.edges] + pairs(d) for d in plan.departures[1:]]
    return layouts + [pairs(d) for d in plan.departures[-1:]]
