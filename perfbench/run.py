"""Benchmark of the `groupoids` package, driven from outside.

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0

Runs one workload (build, enumerate, derive or cli; see workloads.py)
for a fixed number of whole rounds, about --seconds long, checks every
operation's output against oracle.json, and prints one JSON object as
the last line of stdout: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with no tracing.
--trace 1 runs half the rounds untraced and half traced (tracer.py), and
reports the per-layer metrics of the first traced round plus the ratio of
traced to untraced throughput; the round's spans go to
perfbench/.out/spans-<workload>.tsv.

Times are host-speed corrected: a fixed pure-Python loop (`calibrate`)
runs between operations, and each operation's wall time is scaled by
REFERENCE_S over the mean of the loop's times just before and after it.
On a shared machine whose speed drifts by 10-20% within seconds this keeps
runs comparable; the uncorrected throughput goes to stderr.  The process
and its children are pinned to one CPU, where the loop runs too.

Exit status is 0 when a result was printed, 2 on a usage error or when
the checkout has no src/groupoids package.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE = os.path.join(HERE, "oracle.json")
WORKLOADS = ("build", "enumerate", "derive", "cli")
SETUP_SAMPLES = 7
# calibrate()'s time on the 2-core Python 3.11.7 host the benchmark was
# tuned on; corrected times read as if every operation ran at that speed
REFERENCE_S = 0.0007


def unit_of(name) -> str:
    """Units follow the metric names' suffixes."""
    if name == "cli.bytes_out":
        return "bytes"
    for suffix, unit in (("_ops_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Put the checkout's src/ first on the path and import the package
    from there, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "groupoids", "__init__.py")):
        die(f"no groupoids package under {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    import groupoids

    if not os.path.abspath(groupoids.__file__).startswith(SRC + os.sep):
        die("groupoids was imported from outside the checkout")


def calibrate() -> float:
    """Seconds taken by a fixed loop of dict, string, tuple and sort work
    like the package's, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(1500):
            key = str(i)
            table[key] = (key + "," + key, i)
        sorted(table.values())
        frozenset(table)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def execute(fn, summarize):
    """Run one operation; return (summary, seconds).  Only fn is timed.
    A domain error is a result in its own right (law and offender
    included); any other exception is summarized as a crash."""
    from groupoids.errors import AlgebraError
    from workloads import jsonable

    start = time.perf_counter()
    try:
        result = fn()
    except AlgebraError as err:
        seconds = time.perf_counter() - start
        return {
            "raised": type(err).__name__,
            "law": getattr(err, "law", None),
            "offender": jsonable(getattr(err, "offender", None)),
        }, seconds
    except Exception as err:  # a wrong answer, counted as a failure
        seconds = time.perf_counter() - start
        return {"crash": type(err).__name__, "message": str(err)[:200]}, seconds
    seconds = time.perf_counter() - start
    return summarize(result), seconds


class Phase:
    """Every operation of a run of whole rounds, with its verdict.
    Latencies are host-speed corrected seconds."""

    def __init__(self):
        self.latencies = []
        self.reject_latencies = []
        self.wall = 0.0
        self.failed = 0
        self.unexpected = 0
        self.first_round = None  # detached tracer of the first traced round
        self.first_bytes = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return self.ops / sum(self.latencies)


def run_phase(wl, seed, rounds, expected, known, max_ops=0, tracer=None) -> Phase:
    phase = Phase()
    before = calibrate()
    for r in range(rounds):
        bytes_before = getattr(wl, "bytes_out", 0)
        for op_id, fn, summarize in wl.round_ops(seed, r):
            summary, dt = execute(fn, summarize)
            after = calibrate()
            phase.wall += dt
            dt *= 2 * REFERENCE_S / (before + after)
            before = after
            want = expected.get(op_id)
            phase.latencies.append(dt)
            if want is not None and want["reject"]:
                phase.reject_latencies.append(dt)
            if want is None or summary != want["result"]:
                phase.failed += 1
                if op_id not in known:
                    phase.unexpected += 1
                    if phase.unexpected <= 5:
                        print(
                            f"perfbench: {op_id}: expected "
                            f"{None if want is None else want['result']}, got {summary}",
                            file=sys.stderr,
                        )
            if max_ops and phase.ops >= max_ops:
                break
        if tracer is not None and phase.first_round is None:
            phase.first_round = tracer.detach()
            phase.first_bytes = getattr(wl, "bytes_out", 0) - bytes_before
        elif tracer is not None:
            tracer.reset()
        if max_ops and phase.ops >= max_ops:
            break
    return phase


def percentile(values, q, band):
    """The q-th percentile, as the mean of the samples ranked between the
    (q - band)-th and (q + band)-th percentiles.  A single order statistic
    jumps between operation kinds of very different cost from run to run;
    the band mean moves with the costs of a fixed set of kinds."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    top = len(ordered) - 1
    lo = max(0, math.floor(top * (q - band) / 100))
    hi = min(top, math.ceil(top * (q + band) / 100))
    return statistics.fmean(ordered[lo:hi + 1])


def peak_rss_mb(workload) -> float:
    """Peak resident set of this process, or for cli of its largest
    child (read before any set-up sample is spawned)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_seconds(args, samples) -> list:
    """Time from spawning a fresh interpreter to the end of its set-up
    (import, oracle, raw inputs), host-speed corrected, once per sample."""
    out = []
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    before = calibrate()
    for _ in range(samples):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "setup-done":
            die(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
        after = calibrate()
        out.append((float(lines[1]) - start) * 2 * REFERENCE_S / (before + after))
        before = after
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many operations (smoke checks)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'setup-done <monotonic time>', exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    with open(ORACLE, encoding="utf-8") as fh:
        oracle = json.load(fh)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.make(args.workload)
        if args.workload == "cli":
            wl.setup(args.seed, oracle, workdir)
        else:
            wl.setup(args.seed, oracle)
        if args.setup_only:
            print(f"setup-done {time.monotonic():.9f}")
            return 0
        result = measure(args, wl, oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's work directory is still there
    print(json.dumps(result))
    return 0


def rounds_for(wl, seconds) -> int:
    """Whole rounds that take about `seconds` at the reference speed.
    The count does not depend on how fast the host is today, so every run
    of a workload does the same work."""
    return max(1, round(seconds / wl.round_seconds))


def measure(args, wl, oracle) -> dict:
    # one CPU for this process and its children, so the calibration loop
    # runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    expected = oracle["results"][args.workload]
    known = wl.known_defects() if hasattr(wl, "known_defects") else set()
    if not args.trace:
        rounds = rounds_for(wl, args.seconds)
        phase = run_phase(wl, args.seed, rounds, expected, known, args.max_ops)
        phases = [phase]
        rss = peak_rss_mb(args.workload)
        setup = setup_seconds(args, 1 if args.max_ops else SETUP_SAMPLES)
        values = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": phase.throughput,
            "op_p50_ms": percentile(phase.latencies, 50, 10) * 1e3,
            "op_p90_ms": percentile(phase.latencies, 90, 5) * 1e3,
            "reject_p50_ms": percentile(phase.reject_latencies, 50, 10) * 1e3,
            "peak_rss_mb": rss,
            "ok_ratio": 1.0 - phase.failed / phase.ops,
        }
        print(
            f"perfbench: {args.workload}: {phase.ops} operations in {rounds} rounds, "
            f"{len(phase.reject_latencies)} rejections, {phase.failed} failed; "
            f"uncorrected {phase.ops / phase.wall:.4g} ops/s",
            file=sys.stderr,
        )
    else:
        from tracer import Tracer

        rounds = rounds_for(wl, args.seconds / 2)
        plain = run_phase(wl, args.seed, rounds, expected, known, args.max_ops)
        tracer = Tracer()
        tracer.install()
        if args.workload == "cli":
            wl.tracer = tracer
        try:
            traced = run_phase(wl, args.seed, rounds, expected, known, args.max_ops, tracer)
        finally:
            tracer.uninstall()
            if args.workload == "cli":
                wl.tracer = None
        phases = [plain, traced]
        first = traced.first_round
        values = first.layer_metrics()
        values["cli.bytes_out"] = traced.first_bytes
        values["trace.overhead_ratio"] = traced.throughput / plain.throughput
        out_dir = os.path.join(HERE, ".out")
        os.makedirs(out_dir, exist_ok=True)
        first.write_spans(os.path.join(out_dir, f"spans-{args.workload}.tsv"))
    return {
        "correct": all(p.unexpected == 0 for p in phases),
        "attempted": sum(p.ops for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in values.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
