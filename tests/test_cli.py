import json
import random

import pytest

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

    def test_warmup_tau_zero_is_not_the_default(self, capsys, tmp_path):
        argv = [*self.generate(capsys, tmp_path), "--warmup"]
        code, zero, _ = run(capsys, *argv, "--tau", "0")
        assert code == 0
        assert zero != run(capsys, *argv, "--tau", "12")[1]
        assert zero == run(capsys, *argv, "--tau", "0/7")[1]

    def test_edges_mode_measures_sampled_trees_from_their_links(
            self, capsys, tmp_path, monkeypatch):
        # each distinct draw's tree carries the parent links it was sampled
        # with: whatever the number of draws, no target is traversed and no
        # adjacency is built.  The width-2 sampler's trees are traversed
        argv = self.generate(capsys, tmp_path)[:-2] + ["--pairs", "edges", "--tau", "1"]
        counts = dict.fromkeys(["traverse", "adjacency", "pwk", "pw2"], 0)

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(harness, "_traverse", counting("traverse", harness._traverse))
        monkeypatch.setattr(graphs.MetricGraph, "_adjacency",
                            counting("adjacency", graphs.MetricGraph._adjacency))
        monkeypatch.setattr(pwk, "embed_pathwidthk", counting("pwk", pwk.embed_pathwidthk))
        monkeypatch.setattr(pw2, "embed_pathwidth2", counting("pw2", pw2.embed_pathwidth2))
        realized = []
        for samples in ("1", "300"):
            assert run(capsys, *argv, "--samples", samples)[0] == 0
            realized.append(counts["pwk"])
        assert realized[0] == 1 and realized[1] > 10
        assert counts["traverse"] == counts["adjacency"] == 0
        assert run(capsys, *argv, "--samples", "300", "--warmup")[0] == 0
        assert counts["traverse"] == counts["pw2"] > 1 and counts["adjacency"] == 0

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


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "pathwidth", "/nonexistent/graph.json")
    assert code == 1


TRIANGLE = {"vertices": [0, 1, 2], "edges": [[0, 1, 1], [1, 2, "1/2"], [0, 2, 1]]}
TRIANGLE_STEPS = {"k": 2, "initial": [0, 1], "steps": [{"new": 2, "window": [0, 2]}]}


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
], ids=["graph-list", "vertices-int", "list-ids", "mixed-ids", "list-length",
        "infinite-length", "window-int", "initial-int", "k-list", "infinite-k"])
def test_malformed_json_is_an_input_error(capsys, tmp_path, graph, composition):
    # each of these used to escape as a TypeError traceback
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


def test_well_formed_json_still_embeds(capsys, tmp_path):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps(TRIANGLE))
    cpath.write_text(json.dumps(dict(TRIANGLE_STEPS, k="2")))
    code, *_ = run(capsys, "embed", str(gpath), "--composition", str(cpath), "--samples", "3")
    assert code == 0
