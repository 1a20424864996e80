"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-eager --seed 1 \\
        --seconds 24 --trace 0

Workloads (see README.md for why each exists):

- ``corpus-eager``: ``tcpanaly batch`` over single-connection 100 KB
  sender and receiver pcaps of every core-study implementation;
- ``capture-demux``: ``tcpanaly batch --stream`` over multi-connection
  captures of short (2-10 KB) connections;
- ``serve-live``: an in-process serve daemon with one worker tailing
  captures that an open-loop writer appends at a fixed record rate.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the JSON result; a summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("corpus-eager", "capture-demux", "serve-live")
#: Fresh-process set-up samples per run; the median is reported.
SETUP_SAMPLES = 7
#: Flows that must retire while the live captures are still growing.
MIN_LATENCY_SAMPLES = 200
#: Figures measured in wall-clock time over the analysis itself.  The
#: host drifts between speed phases over minutes, so from one run to the
#: next they spread wider than any bound worth setting (see README).
#: They go to the summary on standard error, not to the result.
WALL_CLOCK = ("records_per_s", "flow_latency_p50_ms", "flow_latency_p95_ms")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program() -> None:
    """Put the checkout's own package first on the path, or fail."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        fail(f"no program source at {source}/repro")
    sys.path.insert(0, str(source))
    import repro
    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not {source}")


def setup_samples(workload: str, input_dir: Path, work: Path,
                  count: int) -> list[float]:
    samples = []
    for i in range(count):
        stamp = work / f"probe-{i}.stamp"
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload,
             str(input_dir), str(work / f"probe-{i}"), str(stamp)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120)
        if done.returncode != 0 or not stamp.is_file():
            fail(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(stamp.read_text()) - start)
    return samples


def round_figures(done) -> dict:
    """The time-based end-to-end figures of one round.  Latency
    percentiles are medians over the round's windows that have samples
    (one window on the batch workloads)."""
    from measure import quantile

    def latency_ms(q):
        return statistics.median(quantile(window, q)
                                 for window in done.windows if window) * 1e3

    return {"records_per_s": done.delivered / done.seconds,
            "cpu_ms_per_krecord": done.cpu * 1e6 / done.records,
            "flow_latency_p50_ms": latency_ms(0.50),
            "flow_latency_p95_ms": latency_ms(0.95)}


def stream_reference(manifest: dict) -> list[str]:
    """``batch --stream`` over the finished live captures, each payload
    without the capture-wide ``ingest`` block a growing capture cannot
    have.  Computed on every run, after the timed phase."""
    from repro.pipeline.runner import BatchItem, run_batch

    directory = Path(manifest["dir"])
    batch = run_batch([BatchItem(name=name, path=directory / name)
                       for name in sorted(manifest["truth"])],
                      jobs=1, stream=True)
    reference = []
    for result in batch.results:
        payload = dict(result.payload)
        payload.pop("ingest", None)
        reference.append(json.dumps(payload, sort_keys=True))
    return reference


def measure(args: argparse.Namespace, manifest: dict, work: Path) -> dict:
    """Whole rounds until ``--seconds`` of timed phase have passed (one
    live run on ``serve-live``).  A traced run alternates plain and
    traced rounds, so tracing overhead is measured against plain
    rounds on the same inputs."""
    from checks import Outcome, check_eager, check_live_equals_batch, \
        check_stream
    from tracing import Spans
    from workloads import batch_round, serve_round

    serve = args.workload == "serve-live"
    check = check_eager if args.workload == "corpus-eager" else check_stream
    kinds = (False, True) if args.trace else (False,)
    rounds = []
    outcome = Outcome()
    while sum(done.seconds for done in rounds) < args.seconds:
        for full in kinds:
            directory = work / f"round-{len(rounds)}"
            if serve:
                done = serve_round(manifest, directory,
                                   manifest["settings"]["rate"], full)
            else:
                done = batch_round(Path(manifest["dir"]), directory,
                                   args.workload == "capture-demux", full)
            outcome.add(check(done.payloads, manifest["truth"]))
            # Keep only what later steps read, so the benchmark
            # process does not grow from round to round.
            done.payloads = []
            if not full:
                done.spans = Spans()
            rounds.append(done)
        if serve:
            break
    if serve:
        reference = stream_reference(manifest)
        for done in rounds:
            outcome.problems.extend(check_live_equals_batch(
                done.sink_lines, reference))
            if len(done.latencies) < MIN_LATENCY_SAMPLES:
                outcome.problems.append(
                    f"only {len(done.latencies)} flows retired while the "
                    f"captures grew (need {MIN_LATENCY_SAMPLES})")
                done.windows = [done.latencies or [0.0]]
    return {"rounds": rounds, "outcome": outcome}


def end_to_end(result: dict, setup: list[float]) -> dict:
    """Medians over the rounds of a run (one round on ``serve-live``)."""
    rounds = result["rounds"]
    figures = [round_figures(done) for done in rounds]
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (max(done.peak_mb for done in rounds), "MB")}
    for name, unit in (("records_per_s", "1/s"),
                       ("cpu_ms_per_krecord", "ms"),
                       ("flow_latency_p50_ms", "ms"),
                       ("flow_latency_p95_ms", "ms")):
        metrics[name] = (statistics.median(f[name] for f in figures), unit)
    return metrics


def split_wall_clock(metrics: dict) -> tuple[dict, dict]:
    """The result's end-to-end metrics, and the wall-clock figures kept
    out of them (``WALL_CLOCK``) for the summary."""
    kept = {name: entry for name, entry in metrics.items()
            if name not in WALL_CLOCK}
    wall = {name: round(metrics[name][0], 4) for name in WALL_CLOCK}
    return kept, wall


def keep_spans(workload: str, rounds: list, work: Path) -> None:
    """Leave the traced rounds' span files in ``.perfbench/trace-W``."""
    keep = ROOT / ".perfbench" / f"trace-{workload}"
    shutil.rmtree(keep, ignore_errors=True)
    for number, done in enumerate(rounds):
        if done.full:
            (keep / f"round-{number}").mkdir(parents=True)
            for path in (work / f"round-{number}").glob("spans-*.jsonl"):
                path.rename(keep / f"round-{number}" / path.name)


def summary(args: argparse.Namespace, result: dict, setup: list[float],
            work: Path, backend: str, wall: dict) -> dict:
    from measure import filesystem, quantile

    outcome = result["outcome"]
    rounds = result["rounds"]
    lines = {"workload": args.workload, "seed": args.seed,
             "backend": backend, "filesystem": filesystem(work),
             "rounds": len(rounds),
             "timed_s": round(sum(done.seconds for done in rounds), 3),
             "setup_samples": [round(s, 4) for s in setup],
             "failed_ops": sorted(set(outcome.failed)),
             "problems": outcome.problems[:20]}
    if wall:
        lines["wall_clock"] = wall
    late = [t for done in rounds for t in done.late]
    if late:
        lines["writer_late_ms"] = {
            "p50": round(quantile(late, 0.5) * 1e3, 3),
            "p99": round(quantile(late, 0.99) * 1e3, 3),
            "max": round(max(late) * 1e3, 3)}
    return lines


def run(args: argparse.Namespace) -> dict:
    load_program()
    from inputs import InputError, prepare
    from layers import per_layer
    from tracing import BoundaryError

    from repro.trace.columns import active_backend

    backend = active_backend()
    if backend != "numpy":
        fail(f"trace backend is {backend!r}; the benchmark measures the "
             f"numpy backend")
    try:
        manifest = prepare(ROOT, args.workload, args.seed, args.seconds)
    except InputError as error:
        fail(str(error))
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup: list[float] = []
    wall: dict = {}
    try:
        if not args.trace:
            setup = setup_samples(args.workload, Path(manifest["dir"]),
                                  work, SETUP_SAMPLES)
        result = measure(args, manifest, work)
        if args.trace:
            metrics = per_layer(args.workload, manifest, result)
            keep_spans(args.workload, result["rounds"], work)
        else:
            metrics, wall = split_wall_clock(end_to_end(result, setup))
        print(json.dumps(summary(args, result, setup, work, backend, wall),
                         sort_keys=True), file=sys.stderr)
    except BoundaryError as error:
        fail(str(error))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome = result["outcome"]
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str]) -> None:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
