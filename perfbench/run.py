"""Benchmark of tenselab's exhaustive sweeps, Galois-pair search and CLI.

Run from the root of a checkout; tenselab is imported from ``src``:

    python3 perfbench/run.py --workload claims-size5 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs whole passes over the workload's operations,
one at a time in a closed loop, until ``--seconds`` have gone by, checks
every output, and prints the end-to-end metrics.  Between operations it
times the set-up again in fresh interpreters, spread over the run.
With ``--trace 1`` it runs one untraced and one traced pass and prints
the per-layer metrics.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  The exit code is 1 when
a check failed or an operation raised, and 2 on a usage error.
``--expected`` prints the command lines of a cli-oneshot pass with the
outcome the oracles predict, and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # fresh-interpreter set-ups per timed run, spread over it
PROBES = 5  # fresh interpreters per start-up probe in the traced run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tenselab").is_dir():
        print(f"error: no tenselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.expected and args.workload != "cli-oneshot":
        print("error: --expected lists the cli-oneshot commands only", file=sys.stderr)
        return 2

    if args.setup_probe:
        print(timed_setup(workload, args.seed))
        return 0

    checks = Checks(CheckFailed)
    if args.trace:
        import tenselab.cli  # noqa: F401  imported before wrapping
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        timed_setup(workload, args.seed)
        tracer.uninstall()
    else:
        setup = timed_setup(workload, args.seed)
    checks.call(workload.expect)

    if args.expected:
        for cmd in workload.commands:
            print(shlex.join(["tenselab", *cmd.argv]), f"-> exit {cmd.exit_code}")
            if cmd.exact is not None:
                print("   " + cmd.exact.rstrip("\n"))
        return 0 if checks.ok else 1

    if args.trace:
        return traced_run(workload, args, checks, tracer)

    durations, attempted, failed, probes = measure(workload, args, checks)
    if getattr(workload, "peak_rss_kb", 0):
        rss_kb = workload.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median([setup] + probes), "s"),
        "ops_per_s": (len(durations) / sum(durations) if durations else 0.0, "ops/s"),
        "op_p50_ms": (1000 * statistics.median(durations) if durations else 0.0, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    print(f"{workload.name} seed {args.seed}: {attempted} operations, {failed} failed, "
          f"{'outputs correct' if checks.ok else 'WRONG OUTPUT'}")
    print(f"  set-up (s): {setup:.4f} in this process; "
          f"{', '.join(f'{s:.4f}' for s in probes)} in fresh interpreters")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    if len(durations) < 40:
        print(f"  operations (ms): {', '.join(f'{1000 * d:.1f}' for d in durations)}")
    if len(durations) >= 100:
        p90 = 1000 * statistics.quantiles(durations, n=10)[-1]
        print(f"  {'op_p90_ms':<12} {p90:12.4f} ms  (over {len(durations)} operations)")
    emit(checks, attempted, failed, metrics)
    return 0 if checks.ok and not failed else 1


def timed_setup(workload, seed: int) -> float:
    start = perf_counter()
    workload.setup(seed)
    return perf_counter() - start


def setup_probe(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(workload, args, checks):
    """Whole passes over the workload's operations; only the ops are timed.

    The run stops after the number of passes nearest to ``args.seconds``
    divided by the mean time of a pass so far.  Between operations, at
    even steps of that time, it times SETUP_PROBES set-ups in fresh
    interpreters, so that they meet the same drift of the machine as
    the operations do.  Probes left over at the end run then.
    """
    durations, attempted, failed, probes = [], 0, 0, []
    begin, probing = perf_counter(), 0.0
    step = args.seconds / SETUP_PROBES

    def between() -> None:
        nonlocal probing
        measured = perf_counter() - begin - probing
        if len(probes) < SETUP_PROBES and measured >= (len(probes) + 0.5) * step:
            start = perf_counter()
            probes.append(setup_probe(args))
            probing += perf_counter() - start

    done = 0
    while True:
        pass_durations, pass_failed = one_pass(workload, checks, between=between)
        durations += pass_durations
        attempted += len(workload.items())
        failed += pass_failed
        done += 1
        if done >= round(args.seconds * done / (perf_counter() - begin - probing)):
            break
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    return durations, attempted, failed, probes


def one_pass(workload, checks, tracer=None, between=None):
    durations, failed = [], 0
    for item in workload.items():
        start = perf_counter()
        span = tracer.open("op") if tracer else None
        ran = False
        try:
            result = workload.run(item)
            ran = True
        except Exception as exc:
            failed += 1
            print(f"operation {item!r} failed: {exc!r}", file=sys.stderr)
        finally:
            if tracer:
                tracer.close(span)
        if ran:
            durations.append(perf_counter() - start)
            checks.call(workload.check, item, result)
        if between:
            between()
    return durations, failed


def traced_run(workload, args, checks, tracer) -> int:
    """Set-up and one pass traced, after one untraced pass for the overhead."""
    if hasattr(workload, "in_process"):
        workload.in_process = True
    plain, failed_plain = one_pass(workload, checks)
    tracer.install()
    try:
        traced, failed_traced = one_pass(workload, checks, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    interpreter = probe([sys.executable, "-c", "pass"])
    imported = probe([sys.executable, "-c", "import tenselab.cli"])
    metrics["cli.interpreter_ms"] = 1000 * interpreter
    metrics["cli.import_ms"] = 1000 * (imported - interpreter)

    from tracing import PER_LAYER

    _, _, ops, inside = tracer.self_times()
    tracer.write(HERE / "out" / f"trace-{workload.name}.tsv.gz")
    print(f"{workload.name} seed {args.seed}, traced: {len(traced)} operations, "
          f"{'outputs correct' if checks.ok else 'WRONG OUTPUT'}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, _, _ in PER_LAYER:
        print(f"  {name:<26} {metrics[name]:14.6g} {units[name]}")
    total, covered = sum(ops), sum(inside.values())
    print(f"  self time covered inside operations: {covered:.4f} s of {total:.4f} s "
          f"({covered / total if total else 0:.1%})")
    for name, seconds in sorted(inside.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<20} {seconds:10.4f} s  {seconds / total if total else 0:6.1%}")
    overhead = 1000 * (statistics.median(traced) - statistics.median(plain)) if traced and plain else 0.0
    print(f"  op_p50_ms untraced {1000 * statistics.median(plain) if plain else 0:.4f}, "
          f"traced {1000 * statistics.median(traced) if traced else 0:.4f}, "
          f"tracing overhead {overhead:.4f} ms")
    attempted = 2 * len(workload.items())
    failed = failed_plain + failed_traced
    emit(checks, attempted, failed, {name: (metrics[name], unit) for name, unit, _ in PER_LAYER})
    return 0 if checks.ok and not failed else 1


def probe(command) -> float:
    """Median wall time of a fresh interpreter running ``command``."""
    from workloads import child_env

    env = child_env()
    times = []
    for _ in range(PROBES):
        start = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Checks:
    """Runs checks and keeps the first few failures."""

    def __init__(self, failure_type):
        self.failure_type = failure_type
        self.failures = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def call(self, check, *args) -> None:
        try:
            check(*args)
        except self.failure_type as exc:
            self.failures += 1
            if self.failures <= 5:
                print(f"check failed: {exc}", file=sys.stderr)


def emit(checks, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
