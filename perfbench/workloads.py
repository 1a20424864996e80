"""The timed phases: batch rounds and live serve rounds.

Each batch round is one ``tcpanaly batch`` invocation with the
command's defaults (one supervised worker, the default per-trace
timeout, the checkpoint journal) plus ``--jsonl``; ``capture-demux``
adds ``--stream``.  A round analyses every input once, so every run
attempts whole rounds of the same operations.

A serve round starts an in-process :class:`ServeDaemon` with one worker
and the open-loop writer (``writer.py``, a process of its own) that
appends the prepared captures on a fixed schedule, whether or not the
daemon keeps up.

Every round runs under a :class:`tracing.Recorder`; its timestamps give
the round's flow latencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from measure import PeakMemory, cpu_seconds
from tracing import Recorder, Spans

HERE = Path(__file__).resolve().parent
clock = time.perf_counter

#: Seconds the live writer may take beyond any run's length.
WRITER_TIMEOUT = 150
#: Idle seconds after which the daemon declares the captures finished.
QUIET_SECONDS = 2.0
#: Equal spans of the writer's run whose latency samples are kept apart.
LATENCY_WINDOWS = 6


@dataclass
class Round:
    """What one round measured and produced."""

    full: bool              # every layer traced
    seconds: float          # the timed phase
    cpu: float              # CPU of this process and its reaped workers
    peak_mb: float          # peak RSS of the analysing processes
    records: int            # records analysed
    delivered: int          # of those, records delivered within seconds
    windows: list[list[float]]  # latency samples per window of the round
    payloads: list[dict]
    spans: Spans
    sink_lines: list[str] = field(default_factory=list)
    late: list[float] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [sample for window in self.windows for sample in window]


def batch_command(input_dir: Path, work: Path, stream: bool) -> Path:
    """Run ``tcpanaly batch`` over *input_dir*; return its JSONL path.

    The journal and the JSONL go to *work*; the aggregate report the
    command prints is captured and dropped.
    """
    import repro.cli

    out = work / "batch.jsonl"
    argv = ["batch", str(input_dir), "--jsonl", str(out),
            "--journal", str(work / "journal.jsonl")]
    if stream:
        argv.append("--stream")
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tcpanaly batch exited {code}")
    return out


def batch_latencies(spans: Spans) -> list[float]:
    """From the start of each flow's analysis in the worker (of its
    item's, when the item is not demultiplexed) to the end of its
    item's journal write in the parent."""
    journaled = {tag: end for _i, _p, _n, _s, end, tag
                 in spans.named("pipeline.journal.record", pid=os.getpid())}
    samples = []
    for pid, entries in spans.by_pid.items():
        if pid == os.getpid():
            continue
        flows = [start for _i, _p, name, start, _e, _t in entries
                 if name == "stream.demux.flow"]
        for _i, _p, name, start, end, tag in entries:
            if name == "pipeline.worker.item":
                starts = [s for s in flows if start <= s <= end] or [start]
                samples.extend(journaled[tag] - s for s in starts)
    return samples


def batch_round(input_dir: Path, directory: Path, stream: bool,
                full: bool) -> Round:
    """One timed ``tcpanaly batch`` over *input_dir*, with its payloads."""
    with Recorder(directory, full) as recorder, PeakMemory() as memory:
        cpu = cpu_seconds()
        start = clock()
        out = batch_command(input_dir, directory, stream)
        seconds = clock() - start
        cpu = cpu_seconds() - cpu
    spans = recorder.collect()
    payloads = [json.loads(line) for line in out.read_text().splitlines()]
    records = sum(p.get("records") or 0 for p in payloads)
    return Round(full=full, seconds=seconds, cpu=cpu,
                 peak_mb=memory.peak_mb, records=records,
                 delivered=records, windows=[batch_latencies(spans)],
                 payloads=payloads, spans=spans)


# -- live serve ----------------------------------------------------------


def serve_config(out_dir: Path, captures: list[Path]):
    """``tcpanaly serve --jobs 1 --exit-when-idle`` with its defaults."""
    from repro.serve import ServeConfig

    return ServeConfig(out_dir=out_dir, captures=list(captures), workers=1,
                       timeout=300.0, exit_when_idle=True,
                       quiet_seconds=QUIET_SECONDS)


def serve_round(manifest: dict, directory: Path, rate: float,
                full: bool) -> Round:
    """Tail the prepared captures while the writer appends them.

    The timed phase is the writer's run, first append to last.  A
    latency sample runs from a tailer poll handing back a retired flow
    while the writer was still appending to the sink writing its line;
    samples are kept apart by the window of the writer's run in which
    the poll handed the flow back (``LATENCY_WINDOWS`` equal windows).
    """
    from repro.serve import ServeDaemon

    input_dir = Path(manifest["dir"])
    captures = [directory / name for name in sorted(manifest["truth"])]
    argv = [sys.executable, str(HERE / "writer.py"), str(rate),
            str(directory / "writer.json")]
    for path in captures:
        argv += [str(input_dir / path.name), str(path)]
    outcome: dict = {}
    with Recorder(directory, full) as recorder, PeakMemory() as memory:
        daemon = ServeDaemon(serve_config(directory / "serve-out", captures))

        def run_daemon():
            try:
                outcome["code"] = daemon.run()
            except BaseException as error:   # reported below
                outcome["error"] = error

        cpu = cpu_seconds()
        thread = threading.Thread(target=run_daemon, name="perfbench-serve",
                                  daemon=True)
        thread.start()
        while not daemon.ready and thread.is_alive():
            time.sleep(0.001)
        writer = subprocess.Popen(argv, stderr=subprocess.PIPE, text=True)
        try:
            _out, errors = writer.communicate(timeout=WRITER_TIMEOUT)
            thread.join(timeout=150)
            idle_exit = not thread.is_alive()
        finally:
            if writer.poll() is None:
                writer.kill()
                writer.wait()
            if thread.is_alive():
                daemon.request_stop()
                thread.join(timeout=20)
        cpu = cpu_seconds() - cpu
    if not idle_exit:
        raise RuntimeError("serve daemon did not reach idle exit")
    if writer.returncode != 0:
        raise RuntimeError(f"writer exited {writer.returncode}:\n{errors}")
    if "error" in outcome:
        raise RuntimeError(f"serve daemon failed: {outcome['error']!r}")
    if outcome["code"] != 0:
        raise RuntimeError(f"serve daemon exited {outcome['code']}")
    written = json.loads((directory / "writer.json").read_text())
    start, end = written["started_at"], written["finished_at"]
    handed = {(source, index): at for at, source, index in recorder.handed
              if at <= end}
    windows: list[list[float]] = [[] for _ in range(LATENCY_WINDOWS)]
    for at, source, index, _n in recorder.sunk:
        if (source, index) in handed:
            began = handed[(source, index)]
            window = int((began - start) / (end - start) * LATENCY_WINDOWS)
            windows[min(max(window, 0), LATENCY_WINDOWS - 1)].append(
                at - began)
    sink_lines = []
    for path in sorted((directory / "serve-out" / "results").glob("*.jsonl")):
        sink_lines.extend(path.read_text().splitlines())
    return Round(
        full=full, seconds=end - start,
        cpu=cpu - written["cpu"],
        peak_mb=memory.peak_mb,
        records=sum(n for _t, _s, _i, n in recorder.sunk),
        delivered=sum(n for at, _s, _i, n in recorder.sunk if at <= end),
        windows=windows,
        payloads=[json.loads(line) for line in sink_lines],
        spans=recorder.collect(), sink_lines=sink_lines, late=written["late"])
