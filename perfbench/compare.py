"""Run two sets of benchmark runs of one checkout and check that they agree.

    python3 perfbench/compare.py                  # 2 sets x 10 seeds x every workload
    python3 perfbench/compare.py --runs 5 --workloads surrogate-b200
    python3 perfbench/compare.py --smoke          # toy sizes, 1 s runs: tests the harness

Each run is a fresh ``perfbench/run.py`` process with ``--trace 0``; set A
uses seeds 1..runs and set B the next ``runs`` seeds. For every workload and
end-to-end metric in BENCHMARK.json it prints both medians and each set's
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. The pair
agrees when both spreads are within the metric's bound and the two medians
differ by no more than the bound, as a share of set A's median, in either
direction. The failed share of operations must be the same in both sets.
Exit status 0 means every pair agreed. Raw results go to
``perfbench/out/compare.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def one_run(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"elapsed_s": elapsed, **json.loads(proc.stdout.strip().splitlines()[-1])}


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument(
        "--workloads", default=None, help="comma list of BENCHMARK.json workloads (default: all)"
    )
    parser.add_argument("--smoke", action="store_true", help="toy sizes, 1 s runs, 2 runs per set")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        unknown = set(args.workloads.split(",")) - set(names)
        if unknown:
            parser.error(f"not in BENCHMARK.json: {', '.join(sorted(unknown))}")
        names = args.workloads.split(",")
    runs, seconds = (2, 1) if args.smoke else (args.runs, bench["run_seconds"])

    results = {}  # (set, workload) -> list of run results
    for set_index, label in enumerate("AB"):
        for k in range(runs):
            seed = 1 + set_index * runs + k
            for name in names:
                result = one_run(name, seed, seconds, args.smoke)
                results.setdefault(f"{label} {name}", []).append({"seed": seed, **result})
                print(f"set {label} {name} seed {seed} ({result['elapsed_s']:.1f} s): " + ", ".join(
                    f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()
                ), flush=True)
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.json").write_text(json.dumps(results, indent=1))

    agree = True
    print(f"\n{'workload':16} {'metric':15} {'median A':>11} {'median B':>11} "
          f"{'spread A':>8} {'spread B':>8} {'B worse':>7} {'bound':>6}  verdict")
    for name in names:
        sets = [results[f"{label} {name}"] for label in "AB"]
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if shares[0] != shares[1] or not all(r["correct"] for s in sets for r in s):
            agree = False
            print(f"{name}: failed share A {shares[0]} B {shares[1]}, or an output was wrong")
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][m]["value"] for r in s] for s in sets]
            med = [statistics.median(v) for v in values]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in values]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (med[1] - med[0]) / med[0]
            ok = abs(worse) <= bound and max(spreads) <= bound
            agree &= ok
            print(f"{name:16} {m:15} {med[0]:11.5g} {med[1]:11.5g} {spreads[0]:8.3f} "
                  f"{spreads[1]:8.3f} {worse:+7.3f} {bound:6.3f}  {'agree' if ok else 'DIFFER'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
