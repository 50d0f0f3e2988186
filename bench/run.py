"""pwtree benchmark: one workload, closed loop, one operation at a time.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

The run generates the workload's inputs from --seed, times the set-up
several times, then repeats the workload's fixed pass of operations for
about --seconds.  Every output is checked after the passes; the last line
of standard output is one JSON object with the metrics.  With --trace 1
it alternates untraced and traced passes and reports per-layer metrics.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the run stops starting operations this long after it began, so that it
# always exits within three minutes
RUN_DEADLINE_S = 150.0
SETUP_MIN_REPS = 3
SETUP_MIN_TOTAL_S = 1.5
SETUP_MAX_REPS = 25
SETUP_MAX_TOTAL_S = 10.0
# seconds one operation may take before it counts as failed
OP_BUDGET_S = 60.0

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("samples_per_s", "1/s"),
              ("peak_rss_mb", "MB")]


class BudgetExceeded(BaseException):
    """Raised by the alarm inside an operation that ran past its budget.

    A BaseException, so that the program's own `except Exception` and
    `except ValueError` handlers cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def call_with_budget(fn, seconds):
    """(status, value): status is "ok", "budget_exceeded" or "error: ..."."""
    if seconds <= 0:
        return "budget_exceeded", None
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return "ok", fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return "budget_exceeded", None
    except Exception as exc:  # an operation failing is a result, not a crash
        return f"error: {type(exc).__name__}: {exc}", None


def _import_program():
    """Import pwtree from this checkout's src/, never from elsewhere."""
    if not (SRC / "pwtree" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pwtree'} not found; run from a pwtree checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pwtree
    if Path(pwtree.__file__).resolve().parent != SRC / "pwtree":
        sys.exit(f"error: imported pwtree from {pwtree.__file__}, not {SRC}")


def run_record(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "op_budget_s": OP_BUDGET_S,
    }


def _git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Set-up, passes and checks of one workload in this process.

    Only the first correct-looking value of each operation is kept; later
    passes keep its digest, so memory does not grow with the pass count.
    """

    def __init__(self, args, run_dir: Path):
        import workloads
        from speed import SpeedProbe
        from tracer import Tracer
        self.workloads = workloads
        self.speed = SpeedProbe()
        self.args = args
        self.indir = run_dir / "inputs"
        self.outdir = run_dir / "reports"
        self.tracer = Tracer() if args.trace else None
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.setup_times = []  # (start, end) of each set-up
        self.setup_sections = []
        # {"traced", "start", "end", "results": [[status, digest, start, seconds, bytes]]}
        self.passes = []
        self.ops = []
        self.reference = []  # per op: (digest, value) of its first ok result

    def setup(self):
        """Time the set-up until it has repeated enough; keep the last files.

        Raises BudgetExceeded when the set-up runs past the run's deadline.
        """
        signal.setitimer(signal.ITIMER_REAL, max(0.001, self.deadline - perf_counter()))
        try:
            self._repeat_setup()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.ops = self.workloads.operations(
            self.args.workload, self.args.size, self.args.seed, self.indir, self.outdir)
        self.reference = [None] * len(self.ops)

    def _repeat_setup(self):
        total = 0.0
        digests = set()
        while not self.setup_times or (
                (len(self.setup_times) < SETUP_MIN_REPS or total < SETUP_MIN_TOTAL_S)
                and len(self.setup_times) < SETUP_MAX_REPS and total < SETUP_MAX_TOTAL_S):
            shutil.rmtree(self.indir, ignore_errors=True)
            traced = self.tracer is not None
            if traced:
                first = self.tracer.mark()
                self.tracer.install()
            start = perf_counter()
            try:
                self.workloads.setup(self.args.workload, self.args.size, self.args.seed, self.indir)
            finally:
                elapsed = perf_counter() - start
                if traced:
                    self.tracer.remove()
                    self.setup_sections.append(self.tracer.summarize(first))
            self.setup_times.append((start, start + elapsed))
            total += elapsed
            digests.add(_dir_digest(self.indir))
        if len(digests) != 1:
            raise RuntimeError("set-up wrote different inputs on repeated runs")

    def run_pass(self, traced):
        ctx = {}
        timed = []
        section = None
        if traced:
            section = self.tracer.mark()
            self.tracer.install()
        start = perf_counter()
        try:
            for op in self.ops:
                if traced:
                    self.tracer.op = op.id
                limit = min(OP_BUDGET_S, self.deadline - perf_counter())
                t0 = perf_counter()
                status, value = call_with_budget(lambda: op.run(ctx), limit)
                timed.append((status, value, t0, perf_counter() - t0))
        finally:
            end = perf_counter()
            if traced:
                self.tracer.remove()
        results = []
        for i, (status, value, t0, seconds) in enumerate(timed):
            if status == "ok":
                status, value = call_with_budget(lambda: self.ops[i].encode(value), OP_BUDGET_S)
            digest = _digest(value) if status == "ok" else None
            if digest is not None and self.reference[i] is None:
                self.reference[i] = (digest, value)
            results.append([status, digest, t0, seconds, _byte_count(value)])
        entry = {"traced": traced, "start": start, "end": end, "results": results}
        if traced:
            entry["section"] = self.tracer.summarize(section)
        self.passes.append(entry)
        return end - start

    def run_passes(self):
        """Closed loop: passes back to back until --seconds is spent."""
        start = perf_counter()
        while True:
            traced = bool(self.tracer) and len(self.passes) % 2 == 1
            last = self.run_pass(traced)
            elapsed = perf_counter() - start
            if self.tracer and len(self.passes) < 2:
                continue  # a traced run needs one untraced and one traced pass
            if perf_counter() >= self.deadline or elapsed + last > self.args.seconds:
                break

    def check(self):
        """Check every result; returns [(op, statuses per pass, digest)]."""
        values = {op.id: ref and ref[1] for op, ref in zip(self.ops, self.reference)}
        report = []
        for i, op in enumerate(self.ops):
            ref = self.reference[i]
            problems = _check_op(op, ref[1], values) if ref else []
            statuses = []
            for p in self.passes:
                result = p["results"][i]
                if result[0] == "ok":
                    if problems:
                        result[0] = "check_failed: " + "; ".join(problems[:3])
                    elif result[1] != ref[0]:
                        result[0] = "not_identical: output differs between passes"
                statuses.append(result[0])
            report.append((op, statuses, ref and ref[0]))
        return report


def _check_op(op, value, values):
    try:
        return op.check(value, values)
    except Exception as exc:  # a crashing check is a failed check, never a pass
        return [f"check raised {type(exc).__name__}: {exc}"]


def _digest(value) -> str:
    if _is_report(value):
        code, data = value
        blob = str(code).encode() + b"\n" + data
    else:
        blob = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _is_report(value):
    """CLI operations return (exit code, report bytes)."""
    return isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], bytes)


def _byte_count(value):
    return len(value[1]) if _is_report(value) else 0


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def end_to_end(runner, peak_rss_mb, length):
    """The end-to-end metrics, with `length(start, end)` timing an interval."""
    untraced = [p for p in runner.passes if not p["traced"]]
    rates = []
    for p in untraced:
        pairs = [(op, r) for op, r in zip(runner.ops, p["results"]) if op.samples]
        busy = sum(length(r[2], r[2] + r[3]) for _, r in pairs)
        if busy > 0:
            rates.append(sum(op.samples for op, r in pairs if r[0] == "ok") / busy)
    return {
        "setup_s": statistics.median(length(a, b) for a, b in runner.setup_times),
        # each operation is timed on its own, so a speed change within a pass
        # is calibrated where it happened
        "pass_s": statistics.median(sum(length(r[2], r[2] + r[3]) for r in p["results"])
                                    for p in untraced),
        "samples_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def _describe(runner):
    """The workload's n, k, samples and pairs mode, for every printed number."""
    keys = {}
    for op in runner.ops:
        for k, v in op.params.items():
            keys.setdefault(k, set()).add(v)
    parts = [f"workload={runner.args.workload}", f"seed={runner.args.seed}",
             f"ops/pass={len(runner.ops)}"]
    for k in ("n", "k", "samples", "pairs"):
        vals = sorted(keys.get(k, ()))
        if len(vals) > 4:
            parts.append(f"{k}={vals[0]}..{vals[-1]}")
        elif vals:
            parts.append(f"{k}={','.join(map(str, vals))}")
    return " ".join(parts)


def main(argv=None):
    _import_program()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    parser.add_argument("--run-dir", help="where inputs, reports and the record go")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    run_dir = Path(args.run_dir) if args.run_dir else (
        ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = run_record(args)
    print("record " + json.dumps(record, sort_keys=True), flush=True)

    runner = Runner(args, run_dir)
    runner.speed.start()
    try:
        runner.setup()
    except BudgetExceeded:
        sys.exit(f"error: set-up did not finish within {RUN_DEADLINE_S:.0f} s")
    runner.run_passes()
    runner.speed.stop()
    # read before the checks, whose own distance tables are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = runner.check()

    attempted = failed = 0
    for op, statuses, digest in checked:
        bad = [s for s in statuses if s != "ok"]
        attempted += len(statuses)
        failed += len(bad)
        line = f"op {op.id} digest={digest} passes={len(statuses)} failed={len(bad)}"
        if bad:
            line += f" first_failure={bad[0]}"
        print(line)

    desc = _describe(runner)
    untraced = [p["end"] - p["start"] for p in runner.passes if not p["traced"]]
    e2e = end_to_end(runner, peak_rss_mb, runner.speed.calibrated)
    wall = end_to_end(runner, peak_rss_mb, lambda a, b: b - a)
    units = dict(END_TO_END)
    print(f"setup repetitions={len(runner.setup_times)} passes={len(runner.passes)} "
          f"untraced={len(untraced)} pass_walls_s={[round(w, 3) for w in untraced]} "
          f"speed_probes={len(runner.speed.probes)}")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]} (uncalibrated {wall[name]:.6g})  [{desc}]")
    share = failed / attempted if attempted else 1.0
    print(f"failed_ops {share:.6g} share ({failed} of {attempted} attempted)  [{desc}]")

    if args.trace:
        import tracer
        traced = [p for p in runner.passes if p["traced"]]
        values = tracer.layer_values(
            runner.setup_sections, [p["section"] for p in traced],
            sum(r[4] for r in traced[0]["results"] if r[0] == "ok"),
            [p["end"] - p["start"] for p in traced], untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.LAYER_METRICS}
        with open(run_dir / "spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "spans": runner.tracer.spans}, fh)
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    record.update({"ops": [{"id": op.id, "params": op.params, "digest": d, "statuses": st,
                            "seconds": [p["results"][i][3] for p in runner.passes]}
                           for i, (op, st, d) in enumerate(checked)],
                   "setup_times_s": [b - a for a, b in runner.setup_times],
                   "pass_walls_s": untraced, "uncalibrated": wall,
                   "attempted": attempted, "failed": failed, "metrics": metrics})
    with open(run_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(runner.outdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
