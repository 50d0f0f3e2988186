"""The three workloads: their inputs, operations and output checks.

`setup(...)` generates a workload's instances from the workload seed and
writes them as the JSON files the CLI reads; `operations(...)` lists the
fixed pass of operations over those files.  Each operation drives pwtree
through `cli.main` or its public API and returns a value; each check
returns a list of problems, empty when the value is correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from pwtree import cli, graphs, harness, instances, pathwidth, pw2, pwk

import oracle

# criterion-09 triples (k, m, root branches kept) from the acceptance suite
WITNESSES = ((1, 16, 2), (1, 256, 8), (2, 256, 8))
# the random unit trees of `certify` come from this fixed seed, not the
# workload seed: tree_pathwidth's cost swings by 100x between trees of one size
TREE_SEED = 20260823

SIZES = {
    "full": {
        "corpus": {"cycles": range(3, 13), "random": ((2, 32), (3, 24), (4, 16)),
                   "psi": ((1, 9, None), (2, 81, 2)), "samples": 1000},
        "large-edges": {"n": 512, "samples": 100},
        "certify": {"psi": ((1, 9, 2), (2, 81, 3)), "trees": (60, 80), "peel_trees": (60,),
                    "small_trees": (12, 14, 16, 18, 20), "exact": (16, 18, 20),
                    "witnesses": WITNESSES, "nc_samples": 8,
                    "enum_cycles": range(3, 13), "enum_random": (5, 12),
                    "mc_cycles": (4, 5, 6), "mc_random": (3, 8)},
    },
    "tiny": {
        "corpus": {"cycles": range(3, 6), "random": ((2, 8), (3, 6)),
                   "psi": ((1, 4, None),), "samples": 20},
        "large-edges": {"n": 24, "samples": 5},
        "certify": {"psi": ((1, 9, 2),), "trees": (10, 12), "peel_trees": (10,),
                    "small_trees": (8,), "exact": (8,), "witnesses": WITNESSES[:1],
                    "nc_samples": 1, "enum_cycles": range(3, 5), "enum_random": (1, 6),
                    "mc_cycles": (4,), "mc_random": (1, 6)},
    },
}

WORKLOADS = tuple(SIZES["full"])


@dataclass
class Op:
    id: str
    run: Callable[[dict], Any]           # pass context -> raw result (timed)
    check: Callable[[Any, dict], list]   # (value, values of the pass by op id) -> problems
    # raw result -> value, run after the pass so that the benchmark's own
    # file reads and serialisation are not timed
    encode: Callable[[Any], Any] = lambda raw: raw
    samples: int = 0                     # samples this op certifies (a sampling op)
    params: dict = field(default_factory=dict)


# --- files -------------------------------------------------------------------

def _write(indir: Path, name, g, seq=None, pd=None):
    graphs.dump_graph(g, indir / f"{name}.graph.json")
    if seq is not None:
        pathwidth.dump_composition(seq, indir / f"{name}.comp.json")
    if pd is not None:
        with open(indir / f"{name}.pd.json", "w") as fh:
            json.dump(pathwidth.decomposition_to_json(pd), fh, sort_keys=True)


def _write_json(path: Path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)


def _tree_composition(t):
    pd = pathwidth.tree_path_decomposition(t)
    return pathwidth.decomposition_to_composition(pd, t), pd


def _random_unit_tree(n, rng):
    return {"vertices": list(range(n)),
            "edges": sorted([rng.randrange(v), v, 1] for v in range(1, n))}


def _flatten_to_path(g):
    """Non-contractive path on the sorted vertices, joined by d_G."""
    dists = graphs.shortest_path_metric(g)
    order = sorted(g.vertices)
    return graphs.build_metric_graph(
        order, [(a, b, dists.dist(a, b)) for a, b in zip(order, order[1:])])


def _psi(i, m, branches):
    return instances.psi(i, m) if branches is None else instances.psi_truncated(i, m, branches)


# --- set-up ------------------------------------------------------------------

def setup(workload, size, seed, indir: Path):
    """Generate the workload's instances from `seed` and write them to `indir`."""
    indir.mkdir(parents=True, exist_ok=True)
    s = SIZES[size][workload]
    lengths = instances.small_rational_lengths
    if workload == "corpus":
        for n in s["cycles"]:
            g, seq = instances.cycle(n)
            _write(indir, f"cycle-{n}", g, seq)
        for k, n in s["random"]:
            rng = random.Random(f"{seed}:random-k{k}-n{n}")
            g, seq = instances.random_pathwidth_graph(k, n, lengths, rng)
            _write(indir, f"random-k{k}-n{n}", g, seq)
        for i, m, branches in s["psi"]:
            t = _psi(i, m, branches)
            _write(indir, _psi_name(i, m, branches), t, _tree_composition(t)[0])
    elif workload == "large-edges":
        rng = random.Random(f"{seed}:large-edges")
        g, seq = instances.random_pathwidth_graph(2, s["n"], lengths, rng)
        _write(indir, f"random-k2-n{s['n']}", g, seq)
    else:
        for i, m, _ in s["psi"]:
            t = instances.psi(i, m)
            seq, pd = _tree_composition(t)
            _write(indir, f"psi-{i}-{m}", t, seq, pd)
        tree_rng = random.Random(TREE_SEED)
        for n in s["trees"]:
            _write_json(indir / f"tree-{n}.graph.json", _random_unit_tree(n, tree_rng))
        rng = random.Random(f"{seed}:small-trees")
        for n in s["small_trees"]:
            _write_json(indir / f"small-tree-{n}.graph.json", _random_unit_tree(n, rng))
        for n in s["exact"]:
            g, _ = instances.random_pathwidth_graph(3, n, lengths, random.Random(f"{seed}:exact-{n}"))
            _write(indir, f"random-k3-n{n}", g)
        for k, m, keep in s["witnesses"]:
            g = instances.psi_truncated(k, m, keep)
            _write(indir, f"witness-{k}-{m}-{keep}", g)
            graphs.dump_graph(_flatten_to_path(g), indir / f"witness-{k}-{m}-{keep}.target.json")
        for n in s["enum_cycles"]:
            g, seq = instances.cycle(n)
            _write(indir, f"enum-cycle-{n}", g, seq)
        count, n = s["enum_random"]
        rng = random.Random(f"{seed}:enum")
        for j in range(count):
            g, seq = instances.random_pathwidth_graph(2, n, lengths, rng)
            _write(indir, f"enum-random-{j}", g, seq)
        g, _ = instances.cycle(3)
        _write(indir, "mc-triangle", g, pathwidth.LinearCompositionSequence(2, (0, 1), [(2, {0, 1})]))
        for n in s["mc_cycles"]:
            g, seq = instances.cycle(n)
            _write(indir, f"mc-cycle-{n}", g, seq)
        count, n = s["mc_random"]
        rng = random.Random(f"{seed}:mc")
        for j in range(count):
            g, seq = instances.random_pathwidth_graph(2, n, lengths, rng)
            _write(indir, f"mc-random-{j}", g, seq)


def _psi_name(i, m, branches):
    return f"psi-{i}-{m}" if branches is None else f"psi-{i}-{m}-trunc{branches}"


# --- operations --------------------------------------------------------------

class _Files:
    """Lazily parsed input files and their oracle distances, for checks."""

    def __init__(self, indir: Path):
        self.indir = indir
        self._json = {}
        self._dists = {}

    def path(self, name, kind="graph"):
        return str(self.indir / f"{name}.{kind}.json")

    def json(self, name, kind="graph"):
        key = (name, kind)
        if key not in self._json:
            self._json[key] = oracle.read_json(self.path(name, kind))
        return self._json[key]

    def dists(self, name):
        if name not in self._dists:
            self._dists[name] = oracle.Distances(self.json(name))
        return self._dists[name]


def _cli_op(op_id, argv, out: Path, check, **kw):
    def run(ctx):
        out.unlink(missing_ok=True)
        return cli.main(argv + ["--out", str(out)])

    def encode(code):
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return code, data

    return Op(op_id, run, check, encode, **kw)


def _embed_op(files, name, outdir, samples, seed, pairs, warmup=False):
    op_id = f"embed:{name}:{'pw2' if warmup else 'pwk'}"
    argv = ["embed", files.path(name), "--composition", files.path(name, "comp"),
            "--samples", str(samples), "--seed", str(seed), "--pairs", pairs]
    if warmup:
        argv.append("--warmup")
    comp = files.json(name, "comp")

    def check(value, _values):
        code, data = value
        return oracle.check_embed_report(code, data, files.json(name), files.dists(name),
                                         samples, seed, pairs)

    params = {"n": len(files.json(name)["vertices"]), "k": comp["k"], "samples": samples,
              "pairs": pairs}
    return _cli_op(op_id, argv, outdir / f"{op_id.replace(':', '_')}.json", check,
                   samples=samples, params=params)


def _report(value):
    code, data = value
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(data)


def _pathwidth_op(files, name, method, outdir, check):
    op_id = f"pathwidth:{name}:{method}"
    argv = ["pathwidth", files.path(name), "--method", method]
    n = len(files.json(name)["vertices"])
    return _cli_op(op_id, argv, outdir / f"{op_id.replace(':', '_')}.json", check,
                   params={"n": n})


def operations(workload, size, seed, indir: Path, outdir: Path):
    """The workload's fixed pass of operations over the files in `indir`."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = _Files(indir)
    s = SIZES[size][workload]
    if workload == "corpus":
        names = [f"cycle-{n}" for n in s["cycles"]]
        names += [f"random-k{k}-n{n}" for k, n in s["random"]]
        names += [_psi_name(*p) for p in s["psi"]]
        ops = []
        for name in names:
            ops.append(_embed_op(files, name, outdir, s["samples"], seed, "all"))
            if files.json(name, "comp")["k"] == 2:
                ops.append(_embed_op(files, name, outdir, s["samples"], seed, "all", warmup=True))
        return ops
    if workload == "large-edges":
        return [_embed_op(files, f"random-k2-n{s['n']}", outdir, s["samples"], seed, "edges")]
    return _certify_ops(files, s, seed, outdir)


def _certify_ops(files, s, seed, outdir):
    ops = []
    for i, m, pinned in s["psi"]:
        psi_name = f"psi-{i}-{m}"
        ops.append(_pathwidth_op(files, psi_name, "tree", outdir,
                                 _pinned_check(files, psi_name, pinned)))
        ops.append(_pathwidth_op(files, psi_name, "peel", outdir, _peel_check(files, psi_name)))
    for n in s["trees"]:
        name = f"tree-{n}"
        ops.append(_pathwidth_op(files, name, "tree", outdir, _tree_cap_check(n)))
        if n in s["peel_trees"]:
            ops.append(_pathwidth_op(files, name, "peel", outdir, _peel_check(files, name)))
    for n in s["small_trees"]:
        name = f"small-tree-{n}"
        ops.append(_pathwidth_op(files, name, "tree", outdir, _tree_cap_check(n)))
        ops.append(_pathwidth_op(files, name, "exact", outdir, _agree_check(name)))
    for n in s["exact"]:
        ops.append(_pathwidth_op(files, f"random-k3-n{n}", "exact", outdir, _width_check(3)))
    for k, m, keep in s["witnesses"]:
        ops.append(_witness_op(files, k, m, keep))
    i, m, _ = s["psi"][-1]
    sampled = f"psi-{i}-{m}"
    ops.append(Op(f"metric:{sampled}", _psi_metric(files, sampled),
                  lambda value, _values: [], params={"n": len(files.json(sampled)["vertices"])}))
    for j in range(s["nc_samples"]):
        ops.append(_noncontraction_op(files, sampled, seed, j))
    enum = [(f"enum-cycle-{n}", "pw2") for n in s["enum_cycles"]]
    enum += [(f"enum-random-{j}", "pw2") for j in range(s["enum_random"][0])]
    enum += [("mc-triangle", "pw2")]
    for n in s["mc_cycles"]:
        enum += [(f"mc-cycle-{n}", "pw2"), (f"mc-cycle-{n}", "pwk")]
    enum += [(f"mc-random-{j}", "pwk") for j in range(s["mc_random"][0])]
    for name, algo in enum:
        ops.append(_enumerate_op(files, name, algo))
    return ops


def _pinned_check(files, name, pinned):
    def check(value, _values):
        got = _report(value)["pathwidth"]
        pd = pathwidth.decomposition_from_json(files.json(name, "pd"))
        width = pathwidth.validate_path_decomposition(graphs.load_graph(files.path(name)), pd)
        problems = [] if got == pinned else [f"pathwidth {got}, pinned {pinned}"]
        if width != got:
            problems.append(f"tree decomposition has width {width}, reported {got}")
        return problems
    return check


def _peel_check(files, name):
    def check(value, values):
        got = _report(value)
        level = _report(values[f"pathwidth:{name}:tree"])["pathwidth"]
        g = files.json(name)
        adj = {v: set() for v in g["vertices"]}
        for u, v, _ in g["edges"]:
            adj[u].add(v)
            adj[v].add(u)
        path = got["path"]
        problems = []
        if len(set(path)) != len(path) or any(b not in adj[a] for a, b in zip(path, path[1:])):
            problems.append("peel path is not a simple path of the tree")
        rest = set(adj) - set(path)
        comps = []
        while rest:
            start = min(rest)
            comp, stack = {start}, [start]
            while stack:
                for y in adj[stack.pop()] & rest:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            rest -= comp
            comps.append(sorted(comp))
        if sorted(got["components"]) != sorted(comps):
            problems.append("peel components are not the forest left by the path")
        if any(pw > level - 1 for pw in got["component_pathwidths"]):
            problems.append(f"a component keeps pathwidth {level}")
        return problems
    return check


def _tree_cap_check(n):
    def check(value, _values):
        got = _report(value)["pathwidth"]
        cap = oracle.tree_pathwidth_cap(n)
        return [] if 1 <= got <= cap else [f"tree pathwidth {got} outside 1..{cap}"]
    return check


def _agree_check(name):
    def check(value, values):
        exact = _report(value)["pathwidth"]
        tree = _report(values[f"pathwidth:{name}:tree"])["pathwidth"]
        return [] if exact == tree else [f"exact {exact} != tree {tree}"]
    return check


def _width_check(k):
    def check(value, _values):
        got = _report(value)["pathwidth"]
        return [] if 1 <= got <= k else [f"pathwidth {got} outside 1..{k}"]
    return check


def _witness_op(files, k, m, keep):
    name = f"witness-{k}-{m}-{keep}"

    def run(ctx):
        source = graphs.load_graph(files.path(name))
        target = graphs.load_graph(files.path(name, "target"))
        return harness.verify_lower_bound_witness(k, m, harness.identity_sample(source, target))

    def encode(verdict):
        return {"passed": verdict.passed, "threshold": str(verdict.threshold),
                "mean_distance": str(verdict.mean_distance),
                "target_pathwidth": verdict.target_pathwidth}

    def check(value, _values):
        threshold, mean = oracle.witness_expectation(
            k, m, files.json(name), files.json(name, "target"))
        problems = [] if value["passed"] else ["witness verdict failed"]
        if Fraction(value["threshold"]) != threshold:
            problems.append(f"threshold {value['threshold']} != {threshold}")
        if Fraction(value["mean_distance"]) != mean:
            problems.append(f"mean distance {value['mean_distance']} != {mean}")
        if value["target_pathwidth"] > k:
            problems.append(f"target pathwidth {value['target_pathwidth']} > {k}")
        return problems

    return Op(f"witness:{k}-{m}-{keep}", run, check, encode,
              params={"n": len(files.json(name)["vertices"]), "k": k})


def _psi_metric(files, name):
    def run(ctx):
        g = graphs.load_graph(files.path(name))
        seq = pathwidth.load_composition(files.path(name, "comp"))
        ctx[name] = (g, seq, pathwidth.composed_metric_graph(g, seq))
        return "ok"
    return run


def _noncontraction_op(files, name, seed, j):
    def run(ctx):
        g, seq, metric = ctx[name]
        tree = pwk.embed_pathwidthk(seq, metric, harness.sample_rng(seed, j))
        return tree, harness.check_noncontraction(harness.identity_sample(g, tree))

    def encode(raw):
        tree, verdict = raw
        return {"ok": verdict.ok, "violations": len(verdict.violations),
                "tree": [[u, v, str(l)] for (u, v), l in tree.edges()]}

    def check(value, _values):
        problems = [] if value["ok"] and value["violations"] == 0 else ["verdict: contracts"]
        return problems + oracle.check_inherited_tree(files.dists(name), value["tree"])

    return Op(f"noncontraction:{name}:{j}", run, check, encode, samples=1,
              params={"n": len(files.json(name)["vertices"]), "k": files.json(name, "comp")["k"]})


def _enumerate_op(files, name, algo):
    def run(ctx):
        g = graphs.load_graph(files.path(name))
        seq = pathwidth.load_composition(files.path(name, "comp"))
        metric = pathwidth.composed_metric_graph(g, seq)
        if algo == "pw2":
            return pw2.enumerate_pw2_distribution(seq, metric)
        return pwk.enumerate_pwk_distribution(seq, metric)

    def encode(dist):
        return [[[[u, v, str(l)] for (u, v), l in t.edges()], str(p)] for t, p in dist]

    def check(value, _values):
        probs = [Fraction(p) for _, p in value]
        problems = [] if sum(probs) == 1 else [f"probabilities sum to {sum(probs)}"]
        if any(not 0 < p <= 1 for p in probs):
            problems.append("a probability lies outside (0, 1]")
        for tree, _ in value:
            problems += oracle.check_inherited_tree(files.dists(name), tree)
        return problems

    return Op(f"enumerate:{name}:{algo}", run, check, encode,
              params={"n": len(files.json(name)["vertices"]), "k": 2})
