"""Span tracer that wraps pwtree's public functions from the outside.

Each layer function is wrapped by rebinding the name its caller looks up:
a module attribute (``cli`` calls ``pwk.embed_pathwidthk``) or a name one
module imported from another (``harness.shortest_path_metric``).  Every
call records a span ``[name, start, end, parent, op, error]``; spans stay
in memory and are summarised per pass.  Nothing in pwtree waits on a queue
or lock, so spans carry busy time only.
"""

from __future__ import annotations

import functools
import random
import statistics
from time import perf_counter

from pwtree import cli, graphs, harness, instances, pathwidth, pw2, pwk

# (defining module, function, modules whose binding of the name is wrapped)
TARGETS = [
    (graphs, "graph_from_json", [graphs]),
    (graphs, "load_graph", [graphs]),
    (graphs, "shortest_path_metric", [graphs, harness, pathwidth, instances]),
    (graphs, "minimum_spanning_tree", [graphs, pwk]),
    (pathwidth, "composed_metric_graph", [pathwidth]),
    (pathwidth, "tree_pathwidth", [pathwidth, harness]),
    (pathwidth, "peel_path", [pathwidth]),
    (pathwidth, "exact_pathwidth", [pathwidth]),
    (pathwidth, "tree_path_decomposition", [pathwidth]),
    (pathwidth, "load_composition", [pathwidth]),
    (pwk, "embed_pathwidthk", [pwk]),
    (pwk, "enumerate_pwk_distribution", [pwk]),
    (pw2, "embed_pathwidth2", [pw2]),
    (pw2, "enumerate_pw2_distribution", [pw2]),
    (harness, "estimate_distortion", [harness]),
    (harness, "check_noncontraction", [harness]),
    (harness, "verify_lower_bound_witness", [harness]),
    (harness, "average_edge_stretch", [harness]),
    (instances, "random_pathwidth_graph", [instances]),
    (instances, "psi_truncated", [instances]),
    (cli, "main", [cli]),
]

SPAN_NAMES = [f"{mod.__name__.split('.')[-1]}.{fn}" for mod, fn, _ in TARGETS]

# per-layer metrics: (name, unit, better).  Values are for one set-up plus
# one pass; times are medians over the traced passes, counts are exact.
_SPAN_METRICS = {
    "graphs.shortest_path_metric": ("calls", "total_s"),
    "graphs.minimum_spanning_tree": ("calls", "total_s"),
    "graphs.graph_from_json": ("total_s",),
    "pathwidth.composed_metric_graph": ("self_s",),
    "pathwidth.tree_pathwidth": ("calls", "total_s"),
    "pathwidth.peel_path": ("total_s",),
    "pathwidth.exact_pathwidth": ("total_s",),
    "pathwidth.tree_path_decomposition": ("total_s",),
    "pwk.embed_pathwidthk": ("calls", "self_s", "p50_ms", "p99_ms"),
    "pwk.enumerate_pwk_distribution": ("total_s",),
    "pw2.embed_pathwidth2": ("calls", "self_s", "p50_ms"),
    "pw2.enumerate_pw2_distribution": ("total_s",),
    "harness.estimate_distortion": ("self_s",),
    "harness.check_noncontraction": ("total_s",),
    "harness.verify_lower_bound_witness": ("total_s",),
    "harness.average_edge_stretch": ("total_s",),
    "instances.random_pathwidth_graph": ("total_s",),
    "instances.psi_truncated": ("total_s",),
    "cli.main": ("self_s",),
}
_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_ms": "ms",
          "p99_ms": "ms", "errors": "count"}
_DERIVED = [
    ("pwk.draws_per_step", "draws/step", "lower"),
    ("pwk.distinct_tree_ratio", "trees/sample", "lower"),
    ("harness.accumulate_ms_per_sample", "ms", "lower"),
    ("harness.pairs_measured", "pairs", "higher"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _layer_metrics():
    out = []
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds + ("errors",):
            out.append((f"{span}.{kind}", _UNITS[kind], "lower"))
    return out + _DERIVED


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Installs span wrappers on pwtree and collects spans until removed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.draws = 0
        self.counts = {}
        self.trees = set()
        self._stack = []
        self._saved = []

    def install(self):
        hooks = {
            "pwk.embed_pathwidthk": self._after_pwk,
            "harness.estimate_distortion": self._after_estimate,
        }
        for (mod, fn, callers), name in zip(TARGETS, SPAN_NAMES):
            wrapped = self._wrap(getattr(mod, fn), name, hooks.get(name))
            for caller in callers:
                self._saved.append((caller, fn, getattr(caller, fn)))
                setattr(caller, fn, wrapped)
        self._saved.append((harness, "sample_rng", harness.sample_rng))
        harness.sample_rng = self._counting_rng(harness.sample_rng)

    def remove(self):
        for caller, fn, original in reversed(self._saved):
            setattr(caller, fn, original)
        self._saved = []

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            draws = tracer.draws
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result, draws)
            return result

        return wrapper

    def _counting_rng(self, make_rng):
        tracer = self

        class CountingRandom(random.Random):
            # overriding getrandbits keeps randrange/shuffle on the same stream
            def random(self):
                tracer.draws += 1
                return super().random()

            def getrandbits(self, k):
                return super().getrandbits(k)

        @functools.wraps(make_rng)
        def sample_rng(seed, index):
            rng = CountingRandom(0)
            rng.setstate(make_rng(seed, index).getstate())
            return rng

        return sample_rng

    def _bump(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after_pwk(self, args, tree, draws_before):
        seq = args[0]
        self._bump("pwk.steps", max(0, len(seq.steps) - 1))
        self._bump("pwk.draws", self.draws - draws_before)
        self._bump("pwk.samples", 1)
        self.trees.add(frozenset(tree.edge_keys()))

    def _after_estimate(self, args, report, draws_before):
        self._bump("harness.pairs", len(report.pair_stats) + len(report.zero_distance_pairs))
        self._bump("harness.samples", report.num_samples)

    def mark(self):
        """Start a new section (a set-up or a pass); returns its first span."""
        self.counts = {}
        self.trees = set()
        return len(self.spans)

    def summarize(self, first):
        """Calls, total, self and error counts per span name since `first`."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0,
                        "durations": []} for name in SPAN_NAMES}
        for name, start, end, parent, _op, _error in spans:
            if parent >= first:
                child[parent - first] += end - start
        for i, (name, start, end, _parent, _op, error) in enumerate(spans):
            dur = end - start
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += dur - child[i]
            s["errors"] += error
            s["durations"].append(dur)
            if not self._nested_in_same(spans, first, i):
                s["total_s"] += dur
        return {"spans": stats, "counts": dict(self.counts),
                "distinct_trees": len(self.trees),
                "self_sum_s": sum(s["self_s"] for s in stats.values())}

    @staticmethod
    def _nested_in_same(spans, first, i):
        name = spans[i][0]
        parent = spans[i][3]
        while parent >= first:
            rec = spans[parent - first]
            if rec[0] == name:
                return True
            parent = rec[3]
        return False


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_values(setup_summaries, pass_summaries, pass_report_bytes,
                 traced_pass_s, untraced_pass_s):
    """Per-layer metric values for one set-up plus one pass.

    Times are the median over set-ups plus the median over traced passes;
    counts come from the first set-up and the first traced pass, since
    every set-up and every pass does the same work.
    """
    def med(summaries, fn):
        return statistics.median(fn(s) for s in summaries) if summaries else 0.0

    setup0, pass0 = setup_summaries[0], pass_summaries[0]
    values = {}
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds + ("errors",):
            key = f"{span}.{kind}"
            if kind in ("calls", "errors"):
                values[key] = setup0["spans"][span][kind] + pass0["spans"][span][kind]
            elif kind in ("p50_ms", "p99_ms"):
                durs = [d for s in pass_summaries for d in s["spans"][span]["durations"]]
                values[key] = 1000 * _percentile(durs, 0.5 if kind == "p50_ms" else 0.99)
            else:
                values[key] = (med(setup_summaries, lambda s: s["spans"][span][kind])
                               + med(pass_summaries, lambda s: s["spans"][span][kind]))
    counts = pass0["counts"]
    steps = counts.get("pwk.steps", 0)
    samples = counts.get("pwk.samples", 0)
    measured_samples = counts.get("harness.samples", 0)
    values["pwk.draws_per_step"] = counts.get("pwk.draws", 0) / steps if steps else 0.0
    values["pwk.distinct_tree_ratio"] = pass0["distinct_trees"] / samples if samples else 0.0
    values["harness.accumulate_ms_per_sample"] = (
        1000 * med(pass_summaries, lambda s: s["spans"]["harness.estimate_distortion"]["self_s"])
        / measured_samples if measured_samples else 0.0
    )
    values["harness.pairs_measured"] = counts.get("harness.pairs", 0)
    values["cli.report_bytes"] = pass_report_bytes
    values["trace.pass_s"] = statistics.median(traced_pass_s)
    values["trace.self_sum_s"] = med(pass_summaries, lambda s: s["self_sum_s"])
    values["trace.overhead_s"] = statistics.median(traced_pass_s) - statistics.median(untraced_pass_s)
    return values
