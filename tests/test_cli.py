import json
import os
import random
import subprocess
import sys

import pytest

import pwtree
from pwtree import graphs, harness, instances, pathwidth, pw2, pwk
from pwtree.cli import main
from pwtree.graphs import graph_from_json
from pwtree.instances import psi, random_pathwidth_graph, small_rational_lengths
from pwtree.pathwidth import LinearCompositionSequence, composed_metric_graph, dump_composition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_psi_to_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "psi", "--i", "1", "--m", "9")
        assert code == 0
        g = graph_from_json(json.loads(out))
        assert g == psi(1, 9)
        assert g.n == 10

    def test_cycle_writes_composition(self, capsys, tmp_path):
        gpath = tmp_path / "cycle.json"
        cpath = tmp_path / "cycle.comp.json"
        code, _, err = run(
            capsys, "generate", "cycle", "--n", "4",
            "--out", str(gpath), "--composition-out", str(cpath),
        )
        assert code == 0
        data = json.loads(cpath.read_text())
        assert data["k"] == 2 and data["initial"] == [0, 1]

    def test_random_reproducible(self, capsys, tmp_path):
        cpath = str(tmp_path / "c.json")
        argv = ("generate", "random-pw", "--k", "2", "--n", "20", "--seed", "7",
                "--composition-out", cpath)
        a = run(capsys, *argv)
        first = open(cpath).read()
        b = run(capsys, *argv)
        assert a == b
        assert open(cpath).read() == first


class TestPathwidth:
    def make_graph(self, capsys, tmp_path, *spec):
        path = tmp_path / "g.json"
        code, *_ = run(capsys, "generate", *spec, "--out", str(path))
        assert code == 0
        return path

    def test_tree_method_on_nested_spider(self, capsys, tmp_path):
        p = self.make_graph(capsys, tmp_path, "psi", "--i", "1", "--m", "9")
        code, out, _ = run(capsys, "pathwidth", str(p), "--method", "tree")
        assert code == 0
        assert json.loads(out)["pathwidth"] == 2

    def test_exact_method(self, capsys, tmp_path):
        p = self.make_graph(capsys, tmp_path, "cycle", "--n", "5")
        code, out, _ = run(capsys, "pathwidth", str(p), "--method", "exact")
        assert code == 0
        assert json.loads(out)["pathwidth"] == 2

    def test_peel_method(self, capsys, tmp_path):
        p = self.make_graph(capsys, tmp_path, "psi", "--i", "2", "--m", "81")
        code, out, _ = run(capsys, "pathwidth", str(p), "--method", "peel")
        assert code == 0
        data = json.loads(out)
        assert all(pw <= 2 for pw in data["component_pathwidths"])

    def test_non_tree_input_errors(self, capsys, tmp_path):
        p = self.make_graph(capsys, tmp_path, "cycle", "--n", "5")
        code, _, err = run(capsys, "pathwidth", str(p), "--method", "tree")
        assert code == 1 and "error" in err


class TestEmbed:
    def generate(self, capsys, tmp_path, *spec, composition=False):
        gpath = tmp_path / "g.json"
        args = ["generate", *spec, "--out", str(gpath)]
        cpath = None
        if composition:
            cpath = tmp_path / "c.json"
            args += ["--composition-out", str(cpath)]
        code, *_ = run(capsys, *args)
        assert code == 0
        return gpath, cpath

    def test_cycle_passes(self, capsys, tmp_path):
        gpath, cpath = self.generate(
            capsys, tmp_path, "cycle", "--n", "4", composition=True
        )
        code, out, _ = run(
            capsys, "embed", str(gpath), "--composition", str(cpath),
            "--k", "2", "--samples", "500", "--seed", "3",
        )
        assert code == 0
        data = json.loads(out)
        assert data["noncontraction_ok"] and data["bound_ok"]
        assert data["samples"] == 500

    def test_edges_mode_on_non_reduced_graph(self, capsys, tmp_path):
        # edge (0, 2) is longer than the path through 1; a correct run exits 0
        gpath = tmp_path / "triangle.json"
        gpath.write_text(json.dumps(
            {"vertices": [0, 1, 2], "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 5]]}
        ))
        code, out, _ = run(
            capsys, "embed", str(gpath), "--pairs", "edges", "--samples", "200",
        )
        assert code == 0
        data = json.loads(out)
        assert data["noncontraction_ok"] and data["violations"] == 0
        assert {p["source_distance"] for p in data["pairs"]} == {"1/1", "2/1"}

    def test_warmup_mode(self, capsys, tmp_path):
        gpath, cpath = self.generate(
            capsys, tmp_path, "cycle", "--n", "6", composition=True
        )
        code, out, _ = run(
            capsys, "embed", str(gpath), "--composition", str(cpath),
            "--samples", "200", "--seed", "1", "--warmup",
        )
        assert code == 0
        assert json.loads(out)["noncontraction_ok"]

    def test_byte_identical_reports(self, capsys, tmp_path):
        gpath, cpath = self.generate(
            capsys, tmp_path, "cycle", "--n", "5", composition=True
        )
        argv = ["embed", str(gpath), "--composition", str(cpath),
                "--samples", "300", "--seed", "11"]
        a = run(capsys, *argv)
        b = run(capsys, *argv)
        assert a == b

    def test_small_graph_without_composition(self, capsys, tmp_path):
        gpath, _ = self.generate(capsys, tmp_path, "cycle", "--n", "5")
        code, out, _ = run(capsys, "embed", str(gpath), "--samples", "50")
        assert code == 0

    def test_large_graph_requires_composition(self, capsys, tmp_path):
        gpath, _ = self.generate(
            capsys, tmp_path, "psi", "--i", "2", "--m", "81"
        )
        code, _, err = run(capsys, "embed", str(gpath), "--samples", "10")
        assert code == 1
        assert "composition" in err

    def test_composition_missing_an_edge(self, capsys, tmp_path):
        # K4 has pathwidth 3; a width-2 composition leaves edge (0, 3) in no
        # bag, so it witnesses nothing and the run is an input error
        gpath, cpath = tmp_path / "k4.json", tmp_path / "c.json"
        gpath.write_text(json.dumps({"vertices": [0, 1, 2, 3], "edges": [
            [u, v, 1] for u in range(4) for v in range(u + 1, 4)]}))
        dump_composition(
            LinearCompositionSequence(2, (0, 1), [(2, {1, 2}), (3, {2, 3})]), cpath)
        code, out, err = run(capsys, "embed", str(gpath), "--composition", str(cpath),
                             "--samples", "20")
        assert code == 1 and out == ""
        assert "edge (0, 3)" in err

    @pytest.mark.parametrize("pairs, runs", [("edges", 0), ("all", 1)])
    def test_all_pairs_runs(self, capsys, tmp_path, monkeypatch, pairs, runs):
        # edges mode reads every distance from the bag sweep; all mode needs
        # one all-pairs run, for the measured pairs
        gpath, cpath = self.generate(capsys, tmp_path, "random-pw", "--k", "2",
                                     "--n", "40", "--seed", "5", composition=True)
        calls = []
        real = graphs.shortest_path_metric
        for module in (graphs, harness, instances, pathwidth):
            monkeypatch.setattr(module, "shortest_path_metric",
                                lambda g: calls.append(g) or real(g))
        code, _, _ = run(capsys, "embed", str(gpath), "--composition", str(cpath),
                         "--pairs", pairs, "--samples", "20")
        assert code == 0
        assert len(calls) == runs

    def test_width_mismatch(self, capsys, tmp_path):
        gpath, cpath = self.generate(
            capsys, tmp_path, "cycle", "--n", "4", composition=True
        )
        code, _, err = run(
            capsys, "embed", str(gpath), "--composition", str(cpath), "--k", "3"
        )
        assert code == 1


class TestTau:
    def generate(self, capsys, tmp_path):
        gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
        code, *_ = run(capsys, "generate", "random-pw", "--k", "2", "--n", "10",
                       "--seed", "5", "--out", str(gpath), "--composition-out", str(cpath))
        assert code == 0
        return ["embed", str(gpath), "--composition", str(cpath), "--samples", "200"]

    @pytest.mark.parametrize("warmup", [[], ["--warmup"]])
    def test_negative_tau_is_an_input_error(self, capsys, tmp_path, warmup):
        code, out, err = run(capsys, *self.generate(capsys, tmp_path), "--tau=-1", *warmup)
        assert code == 1 and out == ""
        assert "tau must be non-negative" in err

    @pytest.mark.parametrize("warmup", [[], ["--warmup"]])
    def test_empty_tau_is_an_input_error(self, capsys, tmp_path, warmup):
        # an empty --tau used to run silently at the default tau
        code, out, err = run(capsys, *self.generate(capsys, tmp_path), "--tau=", *warmup)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("warmup", [[], ["--warmup"]])
    def test_zero_denominator_tau_is_an_input_error(self, capsys, tmp_path, warmup):
        # a --tau of 1/0 used to escape as a ZeroDivisionError traceback
        code, out, err = run(capsys, *self.generate(capsys, tmp_path), "--tau", "1/0", *warmup)
        assert code == 1 and out == ""
        assert err.startswith("error: --tau") and err.count("\n") == 1

    def test_zero_denominator_branches_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "generate", "psi-trunc", "--branches", "1/0")
        assert code == 1 and out == ""
        assert err.startswith("error: --branches") and err.count("\n") == 1

    def test_warmup_tau_zero_is_not_the_default(self, capsys, tmp_path):
        argv = [*self.generate(capsys, tmp_path), "--warmup"]
        code, zero, _ = run(capsys, *argv, "--tau", "0")
        assert code == 0
        assert zero != run(capsys, *argv, "--tau", "12")[1]
        assert zero == run(capsys, *argv, "--tau", "0/7")[1]

    @pytest.mark.parametrize("pairs", ["edges", "all"])
    def test_sampled_trees_are_measured_from_their_links(
            self, capsys, tmp_path, monkeypatch, pairs):
        # each distinct draw's tree carries the parent links it was sampled
        # with, in both samplers: whatever the number of draws, no target is
        # traversed
        argv = self.generate(capsys, tmp_path)[:-2] + ["--pairs", pairs, "--tau", "1"]
        counts = dict.fromkeys(["traverse", "pwk", "pw2"], 0)

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(harness, "spanning_links",
                            counting("traverse", harness.spanning_links))
        monkeypatch.setattr(pwk, "embed_pathwidthk", counting("pwk", pwk.embed_pathwidthk))
        monkeypatch.setattr(pw2, "embed_pathwidth2", counting("pw2", pw2.embed_pathwidth2))
        realized = []
        for samples in ("1", "300"):
            assert run(capsys, *argv, "--samples", samples)[0] == 0
            realized.append(counts["pwk"])
        assert realized[0] == 1 and realized[1] > 10
        assert counts["traverse"] == 0
        assert run(capsys, *argv, "--samples", "300", "--warmup")[0] == 0
        assert counts["pw2"] > 10 and counts["traverse"] == 0

    def test_plan_built_once_per_run(self, capsys, tmp_path, monkeypatch):
        argv = self.generate(capsys, tmp_path)
        calls = []
        real = pwk.minimum_spanning_tree
        monkeypatch.setattr(pwk, "minimum_spanning_tree",
                            lambda *args: calls.append(args) or real(*args))
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1
        misses = pw2._plan.cache_info().misses
        assert run(capsys, *argv, "--warmup")[0] == 0
        assert pw2._plan.cache_info().misses == misses + 1
        # the cache key is (sequence, metric, tau): an equal metric reuses the
        # plan, a change of any of them rebuilds it
        g, seq = random_pathwidth_graph(2, 10, small_rational_lengths, random.Random(5))
        metric = composed_metric_graph(g, seq)
        for tau in (None, None, 3, 3):
            pwk.embed_pathwidthk(seq, metric, random.Random(0), tau)
        pwk.embed_pathwidthk(seq, metric.with_edges(dict(metric.edges())), random.Random(0), 3)
        assert len(calls) == 3
        longer = metric.with_edges({e: 2 * length for e, length in metric.edges()})
        pwk.embed_pathwidthk(seq, longer, random.Random(0), 3)
        assert len(calls) == 4


@pytest.mark.parametrize("pairs", ["edges", "all"])
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, pairs):
    # string labels hash differently under each PYTHONHASHSEED; the tally,
    # the bundles and the report must not follow any set or dict order
    # that hashing decides.  At tau = 1 the plans' trees vary
    g, seq = random_pathwidth_graph(2, 24, small_rational_lengths, random.Random(5))
    name = {v: f"v{v}" for v in g.vertices}  # "v10" sorts before "v2"
    gdata = graphs.graph_to_json(g)
    gdata = {"vertices": [name[v] for v in gdata["vertices"]],
             "edges": [[name[u], name[v], length] for u, v, length in gdata["edges"]]}
    cdata = pathwidth.composition_to_json(seq)
    cdata = {"k": cdata["k"], "initial": [name[v] for v in cdata["initial"]],
             "steps": [{"new": name[step["new"]], "window": [name[v] for v in step["window"]]}
                       for step in cdata["steps"]]}
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps(gdata))
    cpath.write_text(json.dumps(cdata))
    src = os.path.dirname(os.path.dirname(pwtree.__file__))
    for warmup in ([], ["--warmup"]):
        reports = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"report-{hash_seed}.json"
            argv = ["embed", str(gpath), "--composition", str(cpath), "--samples", "200",
                    "--seed", "3", "--tau", "1", "--pairs", pairs, "--out", str(out), *warmup]
            done = subprocess.run([sys.executable, "-m", "pwtree.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["samples"] == 200


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "pathwidth", "/nonexistent/graph.json")
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["embed", "g.json", "--samples", "abc"], "argument --samples: invalid int value: 'abc'"),
    (["embed"], "the following arguments are required: graph"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["embed", "g.json", "--pairs", "some"], "argument --pairs: invalid choice: 'some'"),
], ids=["bad-int", "no-graph", "unknown-command", "bad-choice"])
def test_parse_errors_exit_1(capsys, argv, message):
    # argparse exits 2 on these, the code pwtree keeps for a violated property
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.startswith("usage: pwtree") and message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["embed", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: pwtree")


TRIANGLE = {"vertices": [0, 1, 2], "edges": [[0, 1, 1], [1, 2, "1/2"], [0, 2, 1]]}
TRIANGLE_STEPS = {"k": 2, "initial": [0, 1], "steps": [{"new": 2, "window": [0, 2]}]}
LETTERS = {"vertices": ["a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 1], ["a", "c", 1]]}
LETTER_STEPS = {"k": 2, "initial": ["a", "b"], "steps": [{"new": "c", "window": ["a", "c"]}]}


@pytest.mark.parametrize("graph, composition", [
    ([1, 2], TRIANGLE_STEPS),
    ({"vertices": 5, "edges": []}, TRIANGLE_STEPS),
    ({"vertices": [[0], [1]], "edges": [[[0], [1], 1]]}, None),
    ({"vertices": [0, "a"], "edges": [[0, "a", 1]]}, None),
    ({"vertices": [0, 1], "edges": [[0, 1, [1]]]}, None),
    ({"vertices": [0, 1], "edges": [[0, 1, float("inf")]]}, None),  # JSON's 1e400 loads as inf
    (TRIANGLE, dict(TRIANGLE_STEPS, steps=[{"new": 2, "window": 5}])),
    (TRIANGLE, dict(TRIANGLE_STEPS, initial=5)),
    (TRIANGLE, dict(TRIANGLE_STEPS, k=[2])),
    (TRIANGLE, dict(TRIANGLE_STEPS, k=float("inf"))),
    ({"vertices": [0, 1], "edges": [[0, 1, "1/0"]]}, None),
    (TRIANGLE, dict(TRIANGLE_STEPS, k=2.5)),
    (TRIANGLE, dict(TRIANGLE_STEPS, k=2.0)),
    (TRIANGLE, dict(TRIANGLE_STEPS, k="2")),
    (TRIANGLE, dict(TRIANGLE_STEPS, k=True)),
    ({"vertices": [0, 1]}, TRIANGLE_STEPS),
    (TRIANGLE, {"k": 2, "initial": [0, 1]}),
    (TRIANGLE, dict(TRIANGLE_STEPS, steps=[{"window": [0, 2]}])),
    ({"vertices": [0, 1], "edges": [[0, 1]]}, None),
    ({"vertices": [0, 1], "edges": [[0, 1, 1, 2]]}, None),
    ({"vertices": [0, 1], "edges": [[0, 1, float("nan")]]}, None),  # JSON's NaN
    ({"vertices": [0, 1], "edges": [[0, 1, "abc"]]}, None),
    ({"vertices": [0, 1, True], "edges": [[0, 1, 1]]}, None),
    ({"vertices": [0, 1], "edges": [[0, True, 1]]}, None),
    ({"vertices": [0, 1], "edges": [[0, 1, True]]}, None),
    ({"vertices": "ab", "edges": []}, None),
    ({"vertices": {"0": 1, "1": 2}, "edges": []}, None),
    ({"vertices": ["a", "b"], "edges": "ab1"}, None),
    ({"vertices": [0, 1], "edges": {"0": [0, 1, 1]}}, None),
    ({"vertices": ["0", "1"], "edges": [{"0": 0, "1": 1, "2": 0}]}, None),
    (TRIANGLE, dict(TRIANGLE_STEPS, steps=[{"new": 2, "window": [0, True]}])),
    (TRIANGLE, dict(TRIANGLE_STEPS, initial=[0, True])),
    (TRIANGLE, dict(TRIANGLE_STEPS, steps=[{"new": True, "window": [0, 1]}])),
    (LETTERS, dict(LETTER_STEPS, initial="ab")),
    (LETTERS, dict(LETTER_STEPS, steps=[{"new": "c", "window": "ac"}])),
    (LETTERS, dict(LETTER_STEPS, steps={"0": {"new": "c", "window": ["a", "c"]}})),
    (LETTERS, dict(LETTER_STEPS, steps="c")),
    ({"vertices": [0, 1, 0], "edges": [[0, 1, 1]]}, None),
    ({"vertices": [0, 1, 1.0], "edges": [[0, 1, 1]]}, None),
], ids=["graph-list", "vertices-int", "list-ids", "mixed-ids", "list-length",
        "infinite-length", "window-int", "initial-int", "k-list", "infinite-k",
        "zero-denominator", "k-fraction", "k-float", "k-string", "k-bool",
        "no-edges", "no-steps", "step-without-new", "short-edge", "long-edge",
        "nan-length", "text-length", "vertex-bool", "endpoint-bool", "length-bool",
        "vertices-string", "vertices-object", "edges-string", "edges-object", "edge-object",
        "window-bool", "initial-bool", "new-bool", "initial-string", "window-string",
        "steps-object", "steps-string", "repeated-vertex", "repeated-vertex-float"])
def test_malformed_json_is_an_input_error(capsys, tmp_path, graph, composition):
    # each of these used to escape as a TypeError (a zero denominator: a
    # ZeroDivisionError) traceback, except a non-int k, which int(k) coerced:
    # 2.5 to a width-2 run, True to width 1.  A missing key printed the bare
    # key, caught as a KeyError, which would also have hidden a program fault.
    # An edge of the wrong length, a NaN length and a length that is no
    # rational printed a bare ValueError's message.  A JSON true loaded
    # silently: as a length of 1, as an endpoint equal to vertex 1, and as a
    # vertex id that merged with vertex 1, also in a composition.  A string
    # or an object where an array belongs was read as its characters or its
    # keys: "ab" as the vertices a and b.  A repeated vertex, also as 1 and
    # 1.0, merged into one
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph))
    argv = ["embed", str(gpath), "--samples", "3"]
    if composition is not None:
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(composition))
        argv += ["--composition", str(cpath)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: malformed") and err.count("\n") == 1


def test_zero_denominator_length_names_its_edge(capsys, tmp_path):
    # it printed the bare ZeroDivisionError text: "Fraction(1, 0)"
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1, 1], [1, 2, "1/0"]]}))
    code, out, err = run(capsys, "pathwidth", str(gpath))
    assert code == 1 and out == ""
    assert err == ("error: malformed graph JSON: length '1/0' of edge [1, 2, '1/0'] "
                   "has a zero denominator\n")


@pytest.mark.parametrize("n, reason", [
    (0, "(empty graph)"), (21, "(21 vertices exceeds the oracle limit of 20)"),
], ids=["empty", "too-large"])
def test_embed_without_composition_names_why_it_cannot_analyze(capsys, tmp_path, n, reason):
    # an empty graph used to be reported as too large
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"vertices": list(range(n)),
                                 "edges": [[i, i + 1, 1] for i in range(n - 1)]}))
    code, out, err = run(capsys, "embed", str(gpath), "--samples", "3")
    assert code == 1 and out == ""
    assert err == ("error: cannot analyze the graph without a composition file "
                   f"{reason}; pass --composition\n")


def test_width_0_graph_without_composition(capsys, tmp_path):
    # pathwidth reports 0 for these; embed used to exit 1 with
    # "error: k must be positive", naming a k nobody gave.  One vertex now
    # gets the report of the explicit width-1 composition, and more than
    # one the error of any disconnected input
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    one.write_text(json.dumps({"vertices": [0], "edges": []}))
    two.write_text(json.dumps({"vertices": [0, 1], "edges": []}))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"k": 1, "initial": [0], "steps": []}))
    for path in (one, two):
        code, out, _ = run(capsys, "pathwidth", str(path))
        assert code == 0 and json.loads(out)["pathwidth"] == 0
    code, out, err = run(capsys, "embed", str(one), "--samples", "3")
    assert code == 0 and err == ""
    assert out == run(capsys, "embed", str(one), "--composition", str(cpath),
                      "--samples", "3")[1]
    code, out, err = run(capsys, "embed", str(two), "--samples", "3")
    assert code == 1 and out == ""
    assert err == "error: 0 and 1 are disconnected in the input\n"


def test_one_vertex_instance_embeds(capsys, tmp_path):
    # the plan rooted the tree at an edge of the final clique's spanning
    # tree, and a one-vertex clique has none: this used to print
    # "error: min() arg is an empty sequence" and exit 1
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps({"vertices": [0], "edges": []}))
    cpath.write_text(json.dumps({"k": 1, "initial": [0], "steps": []}))
    code, out, err = run(capsys, "embed", str(gpath), "--composition", str(cpath),
                         "--samples", "3")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["pairs"] == [] and report["noncontraction_ok"] and report["bound_ok"]


def test_well_formed_json_still_embeds(capsys, tmp_path):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps(TRIANGLE))
    cpath.write_text(json.dumps(TRIANGLE_STEPS))
    code, *_ = run(capsys, "embed", str(gpath), "--composition", str(cpath), "--samples", "3")
    assert code == 0
