"""Closed-loop benchmark of the stochpert command line.

    python3 perfbench/run.py --workload gauge_exact --seed 1 --seconds 30 \
        --trace 0

One client runs ops back to back, each one in-process
``stochpert.cli.main([...])`` call on a config generated from ``--seed``,
until the ops have taken ``--seconds`` of wall time and every op kind has
run at least once.  Set-up (imports, configs, one warm-up op per kind) is
measured in this process and again in fresh child processes.  Each op
writes its report to a file of its own; the kind's oracle checks every
report after the loop, so no oracle work lands in a timed op, in the
set-up time or in the peak memory.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced ops on the same configs and prints the per-layer metrics from the
spans (see ``spans.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the run
environment, goes to ``.perfbench_out/`` in the checkout.

Run from the root of a checkout; the package is imported from its
``src/`` directory and nowhere else.
"""

import os
import sys
import time

_START = time.perf_counter()
# BLAS threads are pinned before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-ups measured per run, each in a fresh process: this one and
#: ``SETUP_REPS - 1`` children; setup_s is their median
SETUP_REPS = 3
WORKLOAD_NAMES = ("gauge_exact", "large_n", "norm_lp")


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import stochpert
    except ImportError as e:
        sys.exit(f"perfbench: cannot import stochpert from {SRC}: {e}")
    if Path(stochpert.__file__).resolve().parent != SRC / "stochpert":
        sys.exit(f"perfbench: stochpert imported from {stochpert.__file__}, "
                 f"not from {SRC}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set in a child that measures one more set-up and exits
    p.add_argument("--setup-rep", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _commit() -> str:
    """HEAD of the checkout's git directory, read as files; ``unknown``
    for a plain source tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    import numpy as np
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Op:
    """One op: its kind, config index and wall time, the report it wrote,
    and, once checked, the failure message (``None`` if it passed) and the
    report size."""
    kind: str
    config: int
    wall: float
    report: Path
    failure: str | None = None
    report_bytes: int = 0


class Runner:
    """Writes the generated configs, runs ops on them and checks the
    reports afterwards."""

    def __init__(self, workload, seed: int, out_dir: Path, tag: str):
        from workloads import make_pools
        self.workload = workload
        self.kinds = {kind.name: kind for kind in workload.kinds}
        self.out_dir = out_dir
        self.tag = tag
        self.seq = 0
        self.pools = make_pools(workload, seed)
        self.paths = {}
        for kind in workload.kinds:
            for i, cfg in enumerate(self.pools[kind.name]):
                path = out_dir / f"config-{kind.name}-{i}.json"
                path.write_text(json.dumps(cfg, indent=1))
                self.paths[kind.name, i] = path
        self.cursor = dict.fromkeys(self.pools, 0)

    def next_op(self, position: int):
        """Op at a cycle position: kind plus the next config of its pool."""
        kind = self.workload.cycle[position % len(self.workload.cycle)]
        i = self.cursor[kind.name]
        self.cursor[kind.name] = (i + 1) % len(self.pools[kind.name])
        return kind, i

    def run(self, kind, i, main) -> Op:
        """One timed op.  Its report goes to a file of its own, so that
        :meth:`check` can run every oracle after the loop has ended."""
        out = self.out_dir / f"{self.tag}-{self.seq:05d}.json"
        self.seq += 1
        argv = [*kind.argv, "--config", str(self.paths[kind.name, i]),
                "--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as e:          # an op that raises has failed
                code = repr(e)
            wall = time.perf_counter() - start
        op = Op(kind.name, i, wall, out)
        if code != 0:
            op.failure = (f"{kind.name}[{i}]: exit {code}: "
                          f"{sink.getvalue()[-300:].strip()}")
        return op

    def check(self, op: Op) -> None:
        """Run the kind's oracle on the op's report, then keep the report
        as the last one of its kind."""
        if op.failure is not None:
            return
        try:
            text = op.report.read_text()
            failure = self.kinds[op.kind].check(
                self.pools[op.kind][op.config], json.loads(text))
        except Exception as e:              # a broken report fails the op
            op.failure = f"{op.kind}[{op.config}]: oracle raised {e!r}"
            return
        if failure:
            op.failure = f"{op.kind}[{op.config}]: {failure}"
        op.report_bytes = len(text.encode())
        for suffix in (".json", ".csv"):
            written = op.report.with_suffix(suffix)
            if written.exists():
                os.replace(written, self.out_dir / f"report-{op.kind}{suffix}")


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic that still has
    at least ten samples above it (the maximum when there are ten or
    fewer samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def setup(args, workload, out_dir, main):
    """Config generation and one warm-up op per kind.  Returns the runner,
    the set-up time counted from the first line of this file, and the
    warm-up ops, whose reports are checked after the loop.  Set-up ``r``
    warms up on config ``r`` of each pool, so the median of the set-ups
    does not hang on the cost of a single drawn config."""
    runner = Runner(workload, args.seed, out_dir, f"setup{args.setup_rep}")
    warmups = [runner.run(kind, args.setup_rep, main)
               for kind in workload.kinds]
    runner.tag = "op"
    return runner, time.perf_counter() - _START, warmups


def child_setup(argv, rep: int) -> tuple[float, list[Op]]:
    """Set-up ``rep`` measured in a fresh process, so that it pays for the
    imports and every first-call cost again."""
    proc = subprocess.run(
        [sys.executable, __file__, *argv, "--setup-rep", str(rep)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up {rep} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], [Op(**{**op, "report": Path(op["report"])})
                            for op in out["ops"]]


def closed_loop(runner, seconds, step) -> list[Op]:
    """Call ``step(kind, i)`` -> list of ops until their walls add up to
    ``seconds`` and every kind has run."""
    results, kinds_done, busy, position = [], set(), 0.0, 0
    n_kinds = len(runner.workload.kinds)
    while busy < seconds or len(kinds_done) < n_kinds:
        kind, i = runner.next_op(position)
        position += 1
        ops = step(kind, i)
        busy += sum(op.wall for op in ops)
        results.extend(ops)
        kinds_done.add(kind.name)
    return results


def end_to_end(results: list[Op], setup_s: float, peak_rss_mb: float):
    walls = [op.wall for op in results]
    ok = sum(1 for op in results if op.failure is None)
    tail_s, tail_pct = tail(walls)
    return {
        "ops_per_s": (ok / sum(walls), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"samples": len(walls), "tail_percentile": tail_pct}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    _import_package()
    import spans
    from stochpert import cli
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - _START

    out_dir = (ROOT / ".perfbench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)
    runner, setup_s, warmups = setup(args, workload, out_dir, cli.main)
    if args.setup_rep:
        print(json.dumps({"setup_s": setup_s, "ops": [
            {**dataclasses.asdict(op), "report": str(op.report)}
            for op in warmups]}))
        return 0
    reps = [setup_s]
    for rep in range(1, SETUP_REPS):
        rep_s, ops = child_setup(argv, rep)
        reps.append(rep_s)
        warmups += ops
    setup_s = statistics.median(reps)
    # objects left by imports and setup are moved out of the collector's
    # generations, so collections cost the same all through the loop
    gc.collect()
    gc.freeze()

    if args.trace:
        rec = spans.Recorder()
        traced_walls, plain_walls = [], []

        def traced_main(argv):
            with spans.installed(rec, len(traced_walls)) as timed_main:
                return timed_main(argv)

        def step(kind, i):
            """An untraced and a traced op on one config; which one runs
            first alternates, so neither always gets the warmer caches."""
            pair = [(cli.main, plain_walls), (traced_main, traced_walls)]
            if len(plain_walls) % 2:
                pair.reverse()
            ops = []
            for fn, walls in pair:
                ops.append(runner.run(kind, i, fn))
                walls.append(ops[-1].wall)
            return ops

        results = closed_loop(runner, args.seconds, step)
    else:
        results = closed_loop(runner, args.seconds,
                              lambda kind, i: [runner.run(kind, i, cli.main)])
    # read before any oracle runs, so the peak is the program's own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op in warmups + results:
        runner.check(op)

    record = {"run": run_record(args), "import_s": import_s,
              "setup_reps_s": reps}
    if args.trace:
        metrics, attribution = spans.layer_metrics(rec.spans,
                                                   len(traced_walls))
        metrics["cli.report_bytes"] = (
            statistics.fmean(op.report_bytes for op in results), "B")
        metrics["trace.overhead_frac"] = (
            sum(traced_walls) / sum(plain_walls) - 1.0, "ratio")
        attribution["op_wall_s"] = statistics.fmean(traced_walls)
        attribution["unattributed_s"] = attribution["op_wall_s"] - sum(
            attribution[layer] for layer in spans.LAYERS)
        record["attribution_per_op"] = attribution
        record["span_names"] = sorted({s.name for s in rec.spans})
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for index, span in enumerate(rec.spans):
                fh.write(json.dumps(span.as_dict(index)) + "\n")
        detail = {"traced_ops": len(traced_walls)}
    else:
        metrics, detail = end_to_end(results, setup_s, peak_rss_mb)

    # warm-up ops count as attempted, and fail like any other op
    failures = [op.failure for op in warmups + results
                if op.failure is not None]
    attempted = len(warmups) + len(results)
    detail["warmup_ops"] = len(warmups)
    detail["ops_per_kind"] = {k.name: sum(1 for op in results
                                          if op.kind == k.name)
                              for k in workload.kinds}
    detail["p50_s_per_kind"] = {
        k.name: statistics.median([op.wall for op in results
                                   if op.kind == k.name])
        for k in workload.kinds}
    detail["ops_failed_frac"] = len(failures) / attempted
    record.update(metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  detail=detail, failures=failures[:20])
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))

    print("run " + json.dumps(record["run"], sort_keys=True))
    print(f"setup import_s={import_s:.4f} reps_s="
          + ",".join(f"{r:.4f}" for r in reps))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric ops_failed_frac = {detail['ops_failed_frac']:.6g} ratio "
          f"({len(failures)}/{attempted})")
    print("detail " + json.dumps(detail, sort_keys=True))
    if args.trace:
        print("attribution_per_op " + json.dumps(
            {k: round(v, 6) for k, v in attribution.items()}))
    for failure in failures[:5]:
        print("failure " + failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
