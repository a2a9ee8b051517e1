"""Request benchmark for galbench: one closed-loop client driving
`galbench.cli.run_command(argv, out)` in-process, checking every response.

    python3 perfbench/run.py --workload query_stream --seed 1 --seconds 20 --trace 0

Run from the repository root; it imports galbench from ./src and writes its
structure files and span dumps under ./.bench_work.  One invocation runs one
workload, so caches and peak memory belong to that workload alone.  The last
line of standard output is a JSON object: end-to-end metrics with --trace 0,
per-layer metrics from a traced round with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # before measuring, and again after it
# Throughput and median latency come from the run's slowest block of rounds.
# On a shared 2-vCPU VM the CPU speed was seen to switch between levels up to
# 1.6x apart, each held for tens of seconds to minutes; a figure pooled over
# the run reads whichever mix of levels the run caught, while the slowest
# block of a few seconds reads the loaded level, which most runs reach.
BLOCK_S = 4.0


def _import_fresh():
    """Import galbench from scratch, dropping any modules loaded before."""
    for name in [k for k in sys.modules if k == "galbench" or k.startswith("galbench.")]:
        del sys.modules[name]
    return importlib.import_module("galbench.cli"), importlib.import_module("galbench.corpus")


def call(run_command, req):
    """Run one request; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = run_command(list(req.argv), out)
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def setup(workload: str, seed: int, workdir: Path):
    """Generate inputs, write structure files, import galbench and run the
    warm-up round.  Returns (galbench.cli, plan, warm-up responses)."""
    from workloads import Plan, write_files
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli, corpus = _import_fresh()
    plan = Plan(workload, seed, workdir,
                {name: entry.source for name, entry in corpus.CORPUS.items()})
    warm = plan.round("W")
    write_files(plan, warm + plan.round(0))
    return cli, plan, [call(cli.run_command, req) for req in warm]


def setups(workload: str, seed: int, workdir: Path):
    """SETUP_REPEATS set-ups in a row; returns the last one's result and the
    median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        got = setup(workload, seed, workdir)
        times.append(perf_counter() - start)
    return got, statistics.median(times)


class Inputs:
    """Input properties of the requests sent: repeat share, request-type
    shares and the distribution of |Aut(M)| over requests."""

    def __init__(self):
        self.total = self.repeats = 0
        self.seen: set[str] = set()
        self.kinds: Counter = Counter()
        self.orders: Counter = Counter()

    def add(self, plan, requests) -> None:
        for req in requests:
            self.total += 1
            self.repeats += req.struct in self.seen
            self.seen.add(req.struct)
            self.kinds["msym-code (reject)" if req.kind == "reject" else req.kind] += 1
            order = plan.instances[req.struct].order
            self.orders[len(str(order - 1)) if order > 1 else 0] += 1

    def summary(self) -> dict:
        return {
            "requests": self.total,
            "repeat_share": round(self.repeats / self.total, 4),
            "kinds": {k: round(v / self.total, 4) for k, v in sorted(self.kinds.items())},
            "group_orders": {("1" if k == 0 else f"<=10^{k}"): round(v / self.total, 4)
                             for k, v in sorted(self.orders.items())},
        }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def blocks(per_round: list[list[float]]) -> list[list[float]]:
    """Consecutive whole rounds joined into blocks of at least BLOCK_S seconds
    of request time; a shorter remainder joins the last block."""
    out: list[list[float]] = []
    current: list[float] = []
    for latencies in per_round:
        current += latencies
        if sum(current) >= BLOCK_S:
            out.append(current)
            current = []
    if current:
        if out:
            out[-1] += current
        else:
            out.append(current)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "galbench" / "__init__.py").is_file():
        print(f"error: no galbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from check import Checker
    from workloads import WORKLOADS, write_files
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    workdir = Path(".bench_work") / f"{args.workload}-{args.seed}"

    (cli, plan, warm), setup_before = setups(args.workload, args.seed, workdir)

    checker = Checker(plan)
    inputs = Inputs()

    def run_round(cli, index, timed: list | None = None, digest: bool = False) -> float:
        """Send one round and check every response; returns the time spent
        inside run_command."""
        run_command = cli.run_command  # looked up now: the tracer may replace it
        reqs = plan.round(index)
        write_files(plan, reqs)
        inputs.add(plan, reqs)
        busy = 0.0
        for req in reqs:
            code, out, err, elapsed = call(run_command, req)
            busy += elapsed
            if timed is not None:
                timed.append(elapsed)
            checker.record(req, code, out, err, digest)
        checker.forget(plan.forget(index))
        return busy

    for req, (code, out, err, _) in zip(plan.round("W"), warm):
        checker.record(req, code, out, err)
    inputs.add(plan, plan.round("W"))

    per_round: list[list[float]] = []
    deadline = perf_counter() + args.seconds
    while not per_round or perf_counter() < deadline:
        per_round.append([])
        run_round(cli, len(per_round) - 1, per_round[-1], digest=len(per_round) == 1)
    latencies = [t for r in per_round for t in r]
    slowest = min(blocks(per_round), key=lambda b: len(b) / sum(b))
    pooled = len(latencies) / sum(latencies)

    if args.trace:
        from tracer import Tracer
        # A fresh import and warm-up make the state before the traced round
        # independent of how many rounds ran, so its counts repeat exactly.
        cli = _import_fresh()[0]
        run_round(cli, "W")
        size = len(plan.round("T"))
        tracer = Tracer()
        tracer.install()
        try:
            traced = size / run_round(cli, "T")
        finally:
            tracer.uninstall()
        tracer.write(Path(".bench_work") / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in tracer.metrics().items()}
        metrics["trace.overhead_ratio"] = {"value": traced / pooled, "unit": "ratio"}
    else:
        # Set up again a run's length later; the slower median reads the
        # loaded level, as the slowest block does.
        _, setup_after = setups(args.workload, args.seed, workdir)
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "throughput_rps": {"value": len(slowest) / sum(slowest), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(slowest) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "success_ratio": {"value": 1 - checker.failed / checker.attempted,
                              "unit": "ratio"},
            "setup_s": {"value": max(setup_before, setup_after), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
        print(f"latency tail: p{tail_pct:.2f} of {len(latencies)} samples")
        print(f"slowest block: {len(slowest)} requests in {sum(slowest):.2f} s; whole run: "
              f"{pooled:.2f}/s, p50 {statistics.median(latencies) * 1e3:.3f} ms")

    shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}: {len(per_round)} rounds, "
          f"{checker.attempted} requests checked, {checker.failed} failed, "
          f"error_rate {checker.failed / checker.attempted:.6f}")
    print("inputs: " + json.dumps(inputs.summary()))
    print(f"response digest (warm-up and first round): {checker.digest()}")
    for problem in checker.failures:
        print("FAILED " + problem, file=sys.stderr)
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
