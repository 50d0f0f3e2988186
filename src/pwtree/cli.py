"""Command-line front-end: generate instances, compute pathwidth, run embeddings.

Exit codes: 0 success, 1 usage/input error, 2 property violation.
Reports go to stdout (or --out); logs to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import graphs, harness, instances, pathwidth, pw2, pwk


class BadSpec(ValueError):
    pass


def _write_json(data, out_path):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rational(text, option):
    try:
        return Fraction(text)
    except ZeroDivisionError:  # Fraction("1/0")
        raise BadSpec(f"{option} {text!r} has a zero denominator") from None
    except ValueError:  # Fraction("abc")
        raise BadSpec(f"{option} {text!r} is not a rational") from None


def cmd_generate(args) -> int:
    seq = None
    if args.family == "phi":
        g = instances.phi(args.i)
    elif args.family == "psi":
        g = instances.psi(args.i, args.m)
    elif args.family == "psi-trunc":
        g = instances.psi_truncated(args.i, args.m, _rational(args.branches, "--branches"))
    elif args.family == "cycle":
        g, seq = instances.cycle(args.n)
    elif args.family == "random-pw":
        rng = random.Random(args.seed)
        g, seq = instances.random_pathwidth_graph(
            args.k, args.n, instances.small_rational_lengths, rng
        )
    else:
        raise BadSpec(f"unknown generator {args.family!r}")
    _write_json(graphs.graph_to_json(g), args.out)
    if seq is not None:
        comp_path = args.composition_out or (
            (args.out or "composition") + ".composition.json"
        )
        pathwidth.dump_composition(seq, comp_path)
        print(f"composition written to {comp_path}", file=sys.stderr)
    return 0


def cmd_pathwidth(args) -> int:
    g = graphs.load_graph(args.graph)
    if args.method == "exact":
        value = pathwidth.exact_pathwidth(g)
        _write_json({"method": "exact", "pathwidth": value}, args.out)
    elif args.method == "tree":
        value = pathwidth.tree_pathwidth(g)
        _write_json({"method": "tree", "pathwidth": value}, args.out)
    else:
        path, comps = pathwidth.peel_path(g)
        _write_json(
            {
                "method": "peel",
                "path": path,
                "components": [sorted(c.vertices) for c in comps],
                "component_pathwidths": [pathwidth.tree_pathwidth(c) for c in comps],
            },
            args.out,
        )
    return 0


def cmd_embed(args) -> int:
    g = graphs.load_graph(args.graph)
    if args.composition:
        seq = pathwidth.load_composition(args.composition)
    else:
        # no witness supplied: only oracle-scale graphs may proceed
        try:
            pd = pathwidth.exact_path_decomposition(g)
        except pathwidth.TooLarge as exc:
            print(
                f"error: cannot analyze the graph without a composition file ({exc}); "
                "pass --composition",
                file=sys.stderr,
            )
            return 1
        seq = pathwidth.decomposition_to_composition(pd, g)
    if args.k is not None and args.k != seq.k:
        print(f"error: composition has width {seq.k}, not {args.k}", file=sys.stderr)
        return 1
    k = seq.k
    metric = pathwidth.composed_metric_graph(g, seq)
    tau = None if args.tau is None else _rational(args.tau, "--tau")

    # each sampler's draws determine its tree: the harness tallies the
    # draws and builds one tree per distinct draw
    if args.warmup:
        if k != 2:
            print("error: --warmup requires a width-2 composition", file=sys.stderr)
            return 1
        embed, draw = pw2.embed_pathwidth2, pw2.draw_coins
    else:
        embed, draw = pwk.embed_pathwidthk, pwk.draw_prefixes
    report = harness.estimate_distortion(
        g, lambda rng: embed(seq, metric, rng, tau), args.samples, args.seed,
        pairs=args.pairs, source_metric=metric, outcome=lambda rng: draw(seq, metric, rng, tau),
    )
    bound = pwk.proven_bound(k)
    payload = report.to_json()
    payload["bound"] = f"{bound.numerator}/{bound.denominator}"
    payload["bound_ok"] = (
        report.max_mean_stretch is None or report.max_mean_stretch <= bound
    )
    _write_json(payload, args.out)
    if not report.noncontraction_ok or not payload["bound_ok"]:
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a violated property."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pwtree",
        description="bounded-pathwidth metric graphs, random tree embeddings, "
                    "and distortion reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance (and composition) as JSON")
    gen.add_argument("family", choices=["phi", "psi", "psi-trunc", "cycle", "random-pw"])
    gen.add_argument("--i", type=int, default=1, help="depth parameter")
    gen.add_argument("--m", type=int, default=9, help="size parameter")
    gen.add_argument("--branches", default="2", help="root branches kept (psi-trunc)")
    gen.add_argument("--n", type=int, default=8, help="vertex count (cycle, random-pw)")
    gen.add_argument("--k", type=int, default=2, help="width (random-pw)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="graph output path (default stdout)")
    gen.add_argument("--composition-out", help="composition output path")
    gen.set_defaults(func=cmd_generate)

    pw = sub.add_parser("pathwidth", help="compute pathwidth of a graph file")
    pw.add_argument("graph")
    pw.add_argument("--method", choices=["exact", "tree", "peel"], default="exact")
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_pathwidth)

    emb = sub.add_parser("embed", help="sample random tree embeddings and report stretch")
    emb.add_argument("graph")
    emb.add_argument("--composition", help="composition JSON witnessing the width")
    emb.add_argument("--k", type=int, help="expected width (checked against the file)")
    emb.add_argument("--seed", type=int, default=0)
    emb.add_argument("--samples", type=int, default=1000)
    emb.add_argument("--tau", help="inflation factor override (rational)")
    emb.add_argument("--pairs", choices=["all", "edges"], default="all")
    emb.add_argument("--warmup", action="store_true",
                     help="use the width-2 spanning-tree construction")
    emb.add_argument("--out")
    emb.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
