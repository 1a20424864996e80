"""Timestamps at the program's layer boundaries, taken from outside.

A :class:`Recorder` wraps the public functions at layer boundaries of
the analysis package and records one span per call: id, enclosing
span, name, start, end, and an optional tag (the work item a span
belongs to).  Counts and maxima are taken at the same boundaries.
Nothing inside the package changes: the wrappers are installed on
module and class attributes for one round and removed after it, and
analysis workers inherit them because the supervised pool forks its
workers.

Every round installs the *latency* boundaries, which the end-to-end
figures are computed from: the per-item worker function (one root span
per work item, tagged with its name), per-flow report building, the
journal write of each item, and, on the serve path, the tailer's polls
and the sink's writes (timestamps only).  A traced round (``full``)
installs every boundary listed in README.md as a span.

Spans stay in memory.  A worker appends its spans to
``spans-<pid>.jsonl`` in the round's directory after each work item (a
worker may be killed at pool shutdown, so nothing waits for its exit);
the benchmark process writes its own when the round is collected.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

clock = time.perf_counter

#: Work item roots: the function a pool worker calls per item.
WORKER_ROOTS = [("repro.pipeline.runner", "_guarded_payloads"),
                ("repro.serve.scheduler", "analyze_flow_item")]


class BoundaryError(RuntimeError):
    """A layer boundary the benchmark wraps no longer exists."""


@dataclass
class Spans:
    """What one round recorded, over every process."""

    by_pid: dict[int, list[list]] = field(
        default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)
    maxima: dict[str, float] = field(default_factory=dict)

    def add(self, other: "Spans") -> None:
        for pid, entries in other.by_pid.items():
            self.by_pid[pid].extend(entries)
        self.counts.update(other.counts)
        for name, value in other.maxima.items():
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def named(self, name: str, pid: int | None = None,
              workers: bool = False) -> list[list]:
        """Spans called *name*: of process *pid*, or of every process
        but the benchmark's own when *workers* is set."""
        return [entry for p, entries in self.by_pid.items()
                if (pid is None or p == pid)
                and not (workers and p == os.getpid())
                for entry in entries if entry[2] == name]


class Recorder:
    """Spans, counts and timestamps of one round.

    Use as a context manager: entering installs the wrappers (the
    latency boundaries, or every boundary when *full*), leaving removes
    them.  A boundary that no longer exists raises
    :class:`BoundaryError`, so a refactored package fails the run
    instead of reading 0.
    """

    def __init__(self, directory: Path, full: bool):
        self.directory = Path(directory)
        self.full = full
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        #: (time, source, flow index) per flow a tailer poll handed back.
        self.handed: list[tuple[float, str, int]] = []
        #: (time, source, flow index, records) per line the sink wrote.
        self.sunk: list[tuple[float, str, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            install(self)
        except BoundaryError:
            self.unpatch()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.unpatch()

    # -- recording ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def fork_check(self) -> None:
        """In a forked worker, drop what was copied from the parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.counts = Counter()
            self.maxima = {}
            self._local = threading.local()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def span(self, name: str, fn, tag_fn=None, after=None):
        """Wrap *fn* so each call records a span named *name*."""
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else -1
            tag = tag_fn(args) if tag_fn is not None else None
            entry = [span_id, parent, name, clock(), 0.0, tag]
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[4] = clock()
                stack.pop()
                recorder.spans.append(entry)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def counter(fn, after):
        """Wrap *fn* to run *after* on each call's result (no span)."""
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------

    def patch(self, target: str, attr: str, make) -> None:
        """Replace ``target.attr`` with ``make(original)``.

        *target* is ``module`` or ``module:Class``.
        """
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name \
                else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as error:
            raise BoundaryError(f"layer boundary {target}.{attr} not found "
                                f"({error!r})") from None
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------

    def flush(self) -> None:
        """Append this process's spans and counts to its file."""
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        lines = [json.dumps(span) for span in self.spans]
        if self.counts or self.maxima:
            lines.append(json.dumps({"counts": dict(self.counts),
                                     "maxima": self.maxima}))
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        if lines:
            with open(path, "a") as handle:
                handle.write("\n".join(lines) + "\n")

    def collect(self) -> Spans:
        """Every process's spans of this round (call after the round)."""
        self.flush()
        spans = Spans()
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                if isinstance(entry, dict):
                    spans.add(Spans(counts=Counter(entry["counts"]),
                                    maxima=entry["maxima"]))
                else:
                    spans.by_pid[pid].append(entry)
        return spans


def install(r: Recorder) -> None:
    """Wrap the round's boundaries; see the module docstring."""

    def wrap(target, attr, name, tag_fn=None, after=None, latency=False):
        """A span when *r* is full; on other rounds, a span only for a
        *latency* boundary (``"span"``), or just *after* (``"mark"``)."""
        if r.full or latency == "span":
            r.patch(target, attr, lambda fn: r.span(name, fn, tag_fn, after))
        elif latency == "mark":
            r.patch(target, attr, lambda fn: r.counter(fn, after))

    def count(target, attr, after):
        if r.full:
            r.patch(target, attr, lambda fn: r.counter(fn, after))

    # -- latency boundaries (every round) ------------------------------

    parent_pid = os.getpid()

    def make_root(fn):
        traced = r.span("pipeline.worker.item", fn,
                        tag_fn=lambda args: args[1].name)

        def root(*args, **kwargs):
            r.fork_check()
            try:
                return traced(*args, **kwargs)
            finally:
                if os.getpid() != parent_pid:
                    r.flush()

        root.__wrapped__ = fn
        return root

    for target, attr in WORKER_ROOTS:
        r.patch(target, attr, make_root)
    wrap("repro.stream.demux", "build_flow_report", "stream.demux.flow",
         latency="span")
    wrap("repro.pipeline.journal:BatchJournal", "record",
         "pipeline.journal.record", tag_fn=lambda args: args[1],
         after=lambda _a, _r: r.count("pipeline.journal.records"),
         latency="span")

    def polled(args, flows):
        tailer = args[0]
        if flows:
            now = clock()
            r.handed.extend((now, tailer.source, flow.index)
                            for flow in flows)
        if r.full:      # ingest_lag stats the file: not on plain rounds
            r.count("serve.tailer.polls")
            r.peak("serve.tailer.lag_bytes_max", tailer.ingest_lag)

    wrap("repro.serve.tailer:CaptureTailer", "poll", "serve.tailer.poll",
         after=polled, latency="mark")

    def written(args, lines):
        _sink, source, payloads = args
        now = clock()
        r.sunk.extend((now, source, (p.get("flow") or {}).get("index"),
                       p.get("records") or 0) for p in payloads)
        r.count("serve.sink.lines", lines)

    wrap("repro.serve.sink:JsonlSink", "write", "serve.sink.write",
         after=written, latency="mark")

    # -- every other layer (traced rounds) -----------------------------

    def decoded(_args, results):
        r.count("trace.wire.packets", len(results))
        r.count("trace.wire.decode_errors", sum(
            1 for outcome in results
            if isinstance(outcome, Exception)
            and getattr(outcome, "kind", "") != "non-tcp"))

    def decoded_one(_args, _result):
        r.count("trace.wire.packets")

    wrap("repro.stream.reader", "decode_packet_batch", "trace.wire.decode",
         after=decoded)
    wrap("repro.stream.reader", "decode_packet", "trace.wire.decode",
         after=decoded_one)

    def added(args, _result):
        r.peak("stream.flowtable.peak_live", args[0].live_flows)

    wrap("repro.stream.flowtable:FlowTable", "add", "stream.flowtable.add",
         after=added)
    count("repro.stream.flowtable:FlowTable", "_retire",
          lambda _a, _r: r.count("stream.flowtable.retired"))

    wrap("repro.trace.columns:NumpyTraceColumns", "__init__",
         "trace.columns.build")
    wrap("repro.core.report", "infer_vantage", "core.vantage.infer")
    for module in ("repro.core.report", "repro.core.engine"):
        wrap(module, "extract_pass_one", "core.sender.pass_one")
        wrap(module, "extract_receiver_pass_one", "core.receiver.pass_one")
    wrap("repro.core.report", "calibrate_trace", "core.calibrate.calibrate")

    def identified(_args, report):
        r.count("core.engine.candidates_pruned", sum(
            1 for fit in report.fits if fit.pruned_reason))

    wrap("repro.core.engine:IdentificationEngine", "identify_sender",
         "core.engine.identify_sender", after=identified)
    wrap("repro.core.engine:IdentificationEngine", "identify_receiver",
         "core.engine.identify_receiver")

    def replayed(_args, analysis):
        r.count("core.engine.sender_replays")
        if analysis.replay_aborted:
            r.count("core.engine.sender_replays_aborted")

    wrap("repro.core.engine", "analyze_sender", "core.sender.replay",
         after=replayed)
    count("repro.core.engine", "analyze_receiver",
          lambda _a, _r: r.count("core.engine.receiver_replays"))
    wrap("repro.core.report:TraceReport", "to_dict", "core.report.to_dict")

    # Parent side of the batch pipeline.
    wrap("repro.pipeline", "write_jsonl", "pipeline.report.serialize")
    wrap("repro.pipeline", "aggregate_report", "pipeline.report.aggregate")
    wrap("repro.pipeline.runner:BatchItem", "content_digest",
         "pipeline.runner.digest")

    # The serve daemon (runs in the benchmark process).
    wrap("repro.serve.scheduler:FlowScheduler", "submit",
         "serve.scheduler.submit", tag_fn=lambda args: args[1].name,
         after=lambda args, _r: r.peak("serve.scheduler.queue_depth_max",
                                       args[0].queue_depth))
    wrap("repro.serve.scheduler:FlowScheduler", "poll",
         "serve.scheduler.poll")
    count("repro.serve.daemon:ServeDaemon", "_govern",
          lambda _a, _r: r.count("serve.daemon.ticks"))
    wrap("repro.serve.daemon:ServeDaemon", "run", "serve.daemon.run")


def self_times(spans: Spans) -> dict[str, float]:
    """Seconds per span name, each span minus its children."""
    totals: dict[str, float] = defaultdict(float)
    for entries in spans.by_pid.values():
        child: dict[int, float] = defaultdict(float)
        for _id, parent, _name, start, end, _tag in entries:
            if parent >= 0:
                child[parent] += end - start
        for span_id, _parent, name, start, end, _tag in entries:
            totals[name] += (end - start) - child.get(span_id, 0.0)
    return dict(totals)
