"""Steadiness: run one workload repeatedly and report each metric's spread.

``python3 perfbench/steady.py --workload corpus-eager --runs 10``
runs the benchmark once per seed (``--first-seed`` onwards), each in a
fresh process exactly as a single benchmark run, and prints for every
metric its median, first and third quartile (``statistics.quantiles``
with ``n=4``) and the quartile spread as a share of the median, plus
the share of failed operations of each run.  With ``--trace 0`` it
also prints the same for the wall-clock figures each run's summary
carries (``run.WALL_CLOCK``).  These spreads are what the
bounds in ``BENCHMARK.json`` were set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int,
            trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    return (json.loads(done.stdout.splitlines()[-1]),
            json.loads(done.stderr.splitlines()[-1]))


def table(title: str, rows: dict[str, list[float]]) -> None:
    print(f"\n{title}")
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}")
    for name, values in rows.items():
        median, q1, q3, share = spread(values)
        print(f"{name:36s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{share:8.2%}")


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    seconds = args.seconds or json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results, walls = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.monotonic()
        result, summary = one_run(args.workload, seed, seconds, args.trace)
        results.append(result)
        walls.append(summary.get("wall_clock", {}))
        print(f"seed {seed} ({time.monotonic() - start:.1f}s wall): "
              f"correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={entry['value']:.5g}" for name, entry
                         in result["metrics"].items())
              + "".join(f" {name}={value:.5g}" for name, value
                        in walls[-1].items()), flush=True)
    table(f"{args.workload}: {args.runs} runs of {seconds}s",
          {name: [r["metrics"][name]["value"] for r in results]
           for name in results[0]["metrics"]})
    if walls[0]:
        table("wall-clock figures (summary only)",
              {name: [wall[name] for wall in walls] for name in walls[0]})
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}; all correct: "
          f"{all(r['correct'] for r in results)}")


if __name__ == "__main__":
    main(sys.argv[1:])
