"""Benchmark of the indom command line, end to end and per module.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 20 --trace 0

For one workload and seed it draws the instance pool, writes the input
files, and calls the real entry point ``indom.cli.main`` in this process,
one instance at a time from a single thread (a closed loop with one
client), in whole passes over the pool until ``--seconds`` seconds of timed
calls have passed. Every answer is checked against a reference found by a
second route (see workloads.py).

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
first runs the same untraced loop, then replays the same sequence of
instances with spans around every public function of each indom module
(tracing.py), and prints the per-layer metrics plus the tracing overhead.

Times are calibrated against the speed of the machine at the moment they
are taken: a fixed pure-Python probe, which does not use indom, runs
between calls, and each call's wall time is scaled by PROBE_REFERENCE_S
divided by the mean of the probes just before and just after it. Other
tenants of the host slow this kind of machine by up to a factor of two for
minutes at a time; raw wall times of two runs then differ by that factor,
calibrated ones do not (WORKLOADS.md has the measurements). Uncalibrated
figures are printed on the lines before the result.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. indom is
imported from ``src/`` next to this directory and nowhere else; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up is repeated and its median reported, so one slow pass does not count
SETUP_REPEATS = 3
# with fewer calls, each instance's median rests on few of them
MIN_SAMPLES = 100
SHOWN_FAILURES = 20
# the probe takes about PROBE_REFERENCE_S on an idle 2.1 GHz Xeon VM core
PROBE_ITERATIONS = 3500
PROBE_REFERENCE_S = 0.001

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_cli():
    """indom.cli from this checkout's src/, or None when it is not there."""
    # the script's own directory would shadow standard modules; use the root
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    try:
        import indom.cli
    except ImportError:
        return None
    if Path(indom.cli.__file__).resolve().parent != ROOT / "src" / "indom":
        return None
    return indom.cli


@dataclass
class Loop:
    """Outcome of the closed loop: one entry per attempt."""

    order: list = field(default_factory=list)  # pool index of each attempt
    latencies: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # probe before each attempt, and one after
    outcomes: list = field(default_factory=list)  # (exit code, report, error) of each attempt
    failures: list = field(default_factory=list)  # (attempt, instance id, reason)
    algorithms: dict = field(default_factory=dict)

    @property
    def busy_s(self):
        return sum(self.latencies)

    def judge(self, pool, check):
        """Check every answer of the loop; ``check`` needs the references."""
        for attempt, (index, (rc, report, error)) in enumerate(zip(self.order, self.outcomes)):
            reason = error or check(pool[index], rc, report)
            if reason is not None:
                self.failures.append((attempt, pool[index].ident, reason))
            else:
                algo = report.get("algorithm")
                self.algorithms[algo] = self.algorithms.get(algo, 0) + 1

    def calibrated(self):
        """Each call's latency as if the probe around it had taken
        PROBE_REFERENCE_S."""
        return [latency * PROBE_REFERENCE_S / ((self.probes[k] + self.probes[k + 1]) / 2)
                for k, latency in enumerate(self.latencies)]

    def instance_latencies(self, latencies):
        """Per pool instance, the median latency of its calls."""
        calls = {}
        for index, latency in zip(self.order, latencies):
            calls.setdefault(index, []).append(latency)
        return [statistics.median(calls[i]) for i in sorted(calls)]


def probe():
    """Seconds taken by a fixed pure-Python task of bit-mask and dict work,
    the kind the solvers do; its fastest time tracks the machine's speed."""
    start = time.perf_counter()
    mask, seen = 0, {}
    for i in range(PROBE_ITERATIONS):
        mask |= 1 << (i * 7 % 512)
        seen[mask & 0xFFFF] = i
        mask ^= mask >> 3
    return time.perf_counter() - start


def call(cli, inst):
    """Run one command line in-process; (latency, exit code, report, error)."""
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(inst.argv)
        except SystemExit as exc:  # argparse refuses bad arguments this way
            rc = exc.code
        except Exception as exc:  # a raise is a failed instance, not the end of the run
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    report = None
    lines = out.getvalue().strip().splitlines()
    if lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return latency, rc, report, error


def run_loop(cli, pool, seconds=None, order=None, tracer=None):
    """Closed loop over the pool in whole passes, until a pass ends after
    ``seconds`` of timed calls; or over a given order of pool indices.
    Whole passes give every instance the same weight in every run. Answers
    are kept for ``Loop.judge``."""
    loop = Loop()
    attempt = 0
    while (attempt < len(order) if order is not None
           else attempt % len(pool) or loop.busy_s < seconds):
        index = order[attempt] if order is not None else attempt % len(pool)
        inst = pool[index]
        if tracer is not None:
            tracer.instance = attempt
        loop.probes.append(probe())
        latency, rc, report, error = call(cli, inst)
        loop.order.append(index)
        loop.latencies.append(latency)
        loop.outcomes.append((rc, report, error))
        attempt += 1
    loop.probes.append(probe())
    return loop


def end_to_end(loop, setup_s, peak_rss_mb, calibrated=True):
    """Throughput over all calls. Percentiles over the pool's instances, each
    at the median of its calls: a single call's calibration is off by up to
    a tenth, which moved percentiles over calls twice as much between runs
    (WORKLOADS.md). Whole passes give every instance the same weight."""
    latencies = loop.calibrated() if calibrated else loop.latencies
    per_instance = loop.instance_latencies(latencies)
    return {
        "instances_per_s": (len(latencies) - len(loop.failures)) / sum(latencies),
        "latency_p50_s": statistics.median(per_instance),
        # interpolated between order statistics, which moves less from run
        # to run than the nearest rank
        "latency_p90_s": statistics.quantiles(per_instance, n=10, method="inclusive")[-1],
        "setup_s": setup_s[calibrated],
        "peak_rss_mb": peak_rss_mb,
    }


def describe(loop, label):
    n = len(loop.latencies)
    print(f"# {label}: {n} calls, {loop.busy_s:.3f} s of timed calls, "
          f"solvers used {dict(sorted(loop.algorithms.items(), key=str))}")
    print(f"# {label}: failed_frac = {len(loop.failures) / n:.6f} ratio "
          f"({len(loop.failures)} of {n} attempted)")
    for attempt, ident, reason in loop.failures[:SHOWN_FAILURES]:
        print(f"# {label}: FAILED attempt {attempt} ({ident}): {reason}")
    if n < MIN_SAMPLES:
        print(f"# {label}: WARNING only {n} calls, fewer than {MIN_SAMPLES}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["classes", "treewidth", "exact", "ptas"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    cli = load_cli()
    if cli is None:
        print("perfbench: no indom package under src/ in this checkout", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads

    import_s = time.perf_counter() - started
    # the command line reads ceilings from INDOM_* variables; use its defaults
    for key in [k for k in os.environ if k.startswith("INDOM_")]:
        del os.environ[key]

    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        raw_times, calibrated_times = [], []
        probes = [probe()]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            pool = workloads.draw_pool(args.workload, args.seed)
            workloads.write_inputs(pool, work)
            raw_times.append(time.perf_counter() - start)
            probes.append(probe())
            calibrated_times.append(
                raw_times[-1] * PROBE_REFERENCE_S / ((probes[-2] + probes[-1]) / 2))
        # indexed by "calibrated"
        setup_s = (import_s + statistics.median(raw_times),
                   import_s * PROBE_REFERENCE_S / probes[0] + statistics.median(calibrated_times))

        print(f"# workload {args.workload}, seed {args.seed}, {len(pool)} distinct instances, "
              f"closed loop with one client, {args.seconds:g} s of timed calls")
        untraced = run_loop(cli, pool, seconds=args.seconds)
        # before the references, whose second routes are not the user's path
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workloads.compute_references(pool)
        untraced.judge(pool, workloads.check_output)
        describe(untraced, "untraced")
        attempted = len(untraced.latencies)
        failed = len(untraced.failures)
        print(f"# probe median {statistics.median(untraced.probes) * 1e3:.4f} ms, "
              f"fastest {min(untraced.probes) * 1e3:.4f} ms, reference {PROBE_REFERENCE_S * 1e3:g} ms")
        if args.trace == 0:
            raw = end_to_end(untraced, setup_s, peak_rss_mb, calibrated=False)
            print("# uncalibrated: " + ", ".join(
                f"{name} = {raw[name]:.6g} {unit}" for name, unit in END_TO_END_UNITS.items()))
            metrics = end_to_end(untraced, setup_s, peak_rss_mb)
            units = END_TO_END_UNITS
            print(f"# latency percentiles over {len(pool)} instances, each the median of "
                  f"{attempted / len(pool):g} calls; "
                  f"{len(pool) - math.ceil(0.9 * len(pool))} instances beyond latency_p90_s")
        else:
            from indom.treewidth import DEFAULT_WIDTH_CEILING

            tracer = tracing.Tracer(DEFAULT_WIDTH_CEILING)
            tracer.install()
            try:
                traced = run_loop(cli, pool, order=untraced.order, tracer=tracer)
            finally:
                tracer.remove()
            leftover = tracing.leftover_wrappers()
            if leftover:
                print(f"perfbench: tracing left wrappers behind: {leftover}", file=sys.stderr)
                return 3
            traced.judge(pool, workloads.check_output)
            describe(traced, "traced")
            attempted += len(traced.latencies)
            failed += len(traced.failures)
            # spans are not bracketed by probes; scale by the traced loop's median probe
            scale = PROBE_REFERENCE_S / statistics.median(traced.probes)
            metrics = {name: value * scale if tracing.PER_LAYER[name] == "s" else value
                       for name, value in tracer.metrics().items()}
            metrics["trace.overhead_frac"] = (
                sum(traced.calibrated()) / sum(untraced.calibrated()) - 1)
            units = tracing.PER_LAYER
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}.tsv"
            tracer.write_spans(spans_path)
            print(f"# {metrics['trace.spans']} spans written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
