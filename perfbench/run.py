"""Run one couplemap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battery-b50 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload runs whole rounds of operations until ``--seconds``
have passed, checks every operation's output outside the timed region, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (see BENCHMARK.json), among them
``setup_s``, the median time a fresh interpreter takes to import
``couplemap.cli``, probed after each of the first operations within the
run's ``--seconds``. On a shared virtual machine the share of CPU time the
hypervisor steals (the ``steal`` column of ``/proc/stat``) swings between
nothing and over half within minutes, whatever the program does. The
set-up probes, and the operations of workloads whose ``subtract_stolen`` is
true, are timed as wall time less the time stolen from the machine's
average CPU meanwhile; the wall-time median and the stolen share are
printed beside them. Where ``/proc/stat`` has no steal column nothing is
subtracted.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (self time per operation, from raw
span times, and counts per operation) plus ``trace.overhead_ms``, the
traced minus the untraced median operation time. Spans are written to
``perfbench/out/<workload>.trace.jsonl``; inputs and outputs of the run
live in a temporary directory under ``perfbench/out/`` that is removed at
the end.

``COUPLEMAP_THREADS`` is removed from the environment, so the package uses
its default of one thread per CPU, unless ``--threads`` sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 3


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--threads", type=int, default=None, help="set COUPLEMAP_THREADS (default: unset)"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="toy-size inputs and one set-up probe"
    )
    return parser.parse_args(argv)


def stolen_s() -> float:
    """Seconds stolen by the hypervisor from the average CPU since boot."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return 0.0
    total = lines[0].split()  # "cpu user nice system idle iowait irq softirq steal ..."
    cpus = sum(1 for line in lines if line.startswith("cpu") and line[3:4].isdigit())
    if total[0] != "cpu" or len(total) < 9 or not cpus:
        return 0.0
    return int(total[8]) / os.sysconf("SC_CLK_TCK") / cpus


class Clock:
    """Wall time of an interval, and that time less what was stolen in it."""

    def __enter__(self):
        self.stolen0, self.start = stolen_s(), perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self.start
        self.stolen = stolen_s() - self.stolen0
        self.time = self.wall - self.stolen


def setup_probe() -> float:
    """Time, less stolen time, of a fresh interpreter importing couplemap.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with Clock() as clock:
        subprocess.run(
            [sys.executable, "-c", "import couplemap.cli"], env=env, cwd=ROOT, check=True
        )
    return clock.time


def tail(values: list) -> str:
    """The highest of p90/p99 with at least ten samples beyond it, if any."""
    label = ""
    for pct in (90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            label = f", p{pct} {cut:.6g}"
    return label


def run(args, cls) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as work:
        return measure(args, cls, Path(work))


def measure(args, cls, work: Path) -> dict:
    """Warm up, run the timed loop and turn it into metrics."""
    import tracing  # imports couplemap, found on sys.path only now

    (work / "warmup").mkdir()
    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    setup_times = []

    # A toy-size operation and its check first, so lazy imports and
    # first-call costs are paid before timing starts.
    warm = cls(args.seed, work / "warmup", smoke=True)
    warm.check(0, warm.operation(0)())
    workload = cls(args.seed, work, smoke=args.smoke)

    tracer = tracing.Tracer() if args.trace else None
    round_len = workload.round_len * (2 if args.trace else 1)
    walls, cpus, traced_walls = [], [], []
    raw_walls, stolen = [], []
    attempted = failed = wrong = 0
    deadline = perf_counter() + args.seconds
    while attempted == 0 or attempted % round_len or perf_counter() < deadline:
        i = attempted
        traced = args.trace and (i // workload.round_len) % 2 == 1
        operation = workload.operation(i)
        if traced:
            tracer.install()
        cpu0 = process_time()
        with Clock() as clock:
            try:
                result = operation()
                problems = None
            except Exception as exc:  # an operation that raises counts as failed
                problems = [f"{type(exc).__name__}: {exc}"]
        cpu = process_time() - cpu0
        if traced:
            tracer.uninstall()
        attempted += 1
        # Set-up probes run between the first operations, outside the
        # operations' timings but inside the run's --seconds, so that like
        # the operations they sample the host across the run.
        if len(setup_times) < probes:
            setup_times.append(setup_probe())
        if problems is None:
            problems = workload.check(i, result)
            wrong += bool(problems)
        if problems:
            failed += 1
            print(f"operation {i} failed: {'; '.join(problems)}", file=sys.stderr)
            continue
        op_time = clock.time if workload.subtract_stolen else clock.wall
        (traced_walls if traced else walls).append(op_time)
        raw_walls.append(clock.wall)
        stolen.append(clock.stolen)
        cpus.append(cpu)

    while len(setup_times) < probes:
        setup_times.append(setup_probe())
    ok = attempted - failed
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, {failed} failed")
    metrics = {}
    if args.trace and walls and traced_walls:
        metrics = tracer.layer_metrics(len(traced_walls))
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
        spans = OUT / f"{args.workload}.trace.jsonl"
        tracer.dump(spans)
        print(f"traced {len(traced_walls)} / untraced {len(walls)} operations; spans in {spans}")
    elif not args.trace and walls:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "networks_per_s": (workload.networks_per_op * ok / sum(walls), "1/s"),
            "cpu_s": (sum(cpus) / ok, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        print(f"wall_s is the median of {ok} operations{tail(walls)}")
    if raw_walls:
        print(
            f"wall time: median {statistics.median(raw_walls):.6g} s; stolen share "
            f"{sum(stolen) / sum(raw_walls):.3f}, subtracted: {workload.subtract_stolen}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    if not (SRC / "couplemap" / "__init__.py").is_file():
        print(f"perfbench: no couplemap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports couplemap

    args = parse_args(argv, sorted(WORKLOADS))
    if args.threads is None:
        os.environ.pop("COUPLEMAP_THREADS", None)
    else:
        os.environ["COUPLEMAP_THREADS"] = str(args.threads)
    result = run(args, WORKLOADS[args.workload])
    if not result["metrics"]:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
