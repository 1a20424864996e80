"""Per-layer metrics of a traced run.

Taken from the traced rounds of a run.  Times are self times (a span
minus its child spans) and, like counts, are given per traced round:
per ``tcpanaly batch`` invocation on the batch workloads, per live run
on ``serve-live``.  A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

import os
import statistics

from measure import quantile
from tracing import Spans, self_times

#: (metric, span name): self times of each span name.
TIMES = [
    ("trace.wire.decode_s", "trace.wire.decode"),
    ("stream.flowtable.add_s", "stream.flowtable.add"),
    ("trace.columns.build_s", "trace.columns.build"),
    ("core.vantage.infer_s", "core.vantage.infer"),
    ("core.sender.pass_one_s", "core.sender.pass_one"),
    ("core.receiver.pass_one_s", "core.receiver.pass_one"),
    ("core.calibrate.calibrate_s", "core.calibrate.calibrate"),
    ("core.engine.identify_sender_s", "core.engine.identify_sender"),
    ("core.engine.identify_receiver_s", "core.engine.identify_receiver"),
    ("core.sender.replay_s", "core.sender.replay"),
    ("core.report.to_dict_s", "core.report.to_dict"),
    ("pipeline.worker.item_s", "pipeline.worker.item"),
    ("pipeline.report.serialize_s", "pipeline.report.serialize"),
    ("pipeline.report.aggregate_s", "pipeline.report.aggregate"),
    ("pipeline.runner.digest_s", "pipeline.runner.digest"),
    ("pipeline.journal.record_s", "pipeline.journal.record"),
    ("serve.tailer.poll_s", "serve.tailer.poll"),
    ("serve.scheduler.submit_s", "serve.scheduler.submit"),
    ("serve.scheduler.poll_s", "serve.scheduler.poll"),
    ("serve.sink.write_s", "serve.sink.write"),
    ("serve.daemon.run_s", "serve.daemon.run"),
]
COUNTS = [
    "trace.wire.packets", "trace.wire.decode_errors",
    "stream.flowtable.retired",
    "core.engine.sender_replays", "core.engine.sender_replays_aborted",
    "core.engine.candidates_pruned", "core.engine.receiver_replays",
    "pipeline.journal.records",
    "serve.tailer.polls", "serve.sink.lines", "serve.daemon.ticks",
]
MAXIMA = [
    ("stream.flowtable.peak_live", "count"),
    ("serve.tailer.lag_bytes_max", "bytes"),
    ("serve.scheduler.queue_depth_max", "count"),
]
#: Parent-side spans that are on the critical path of a batch round
#: with one worker (journal writes overlap the worker's next item).
BATCH_PARENT_SERIAL = ("pipeline.runner.digest", "pipeline.report.serialize",
                       "pipeline.report.aggregate")
#: Sequence helpers counted by the separate counting pass.
SEQ_HELPERS = ("seq_diff", "seq_lt", "seq_le", "seq_gt", "seq_ge")
SENDER_MODULES = ("repro.core.sender.analyzer", "repro.core.sender.windows",
                  "repro.core.sender.inference")


def count_seq_ops(workload: str, manifest: dict) -> int:
    """Calls to the modular sequence helpers from ``core.sender``
    while the workload's sender-side inputs are analysed once.

    Kept apart from the timed spans: a counting wrapper on a helper
    called hundreds of thousands of times per trace would distort them.
    """
    import importlib
    from pathlib import Path

    from repro.pipeline.runner import BatchItem, analyze_item
    from repro.stream import analyze_stream

    calls = [0]
    patched = []

    def counting(fn):
        def counted(a, b):
            calls[0] += 1
            return fn(a, b)
        return counted

    for name in SENDER_MODULES:
        module = importlib.import_module(name)
        for helper in SEQ_HELPERS:
            original = module.__dict__.get(helper)
            if original is not None:
                setattr(module, helper, counting(original))
                patched.append((module, helper, original))
    directory = Path(manifest["dir"])
    try:
        for name, entry in sorted(manifest["truth"].items()):
            if entry["side"] != "sender":
                continue
            if workload == "corpus-eager":
                analyze_item(BatchItem(name=name, path=directory / name))
            else:
                for _report in analyze_stream(directory / name,
                                              identify=True, tolerant=True):
                    pass
    finally:
        for module, helper, original in patched:
            setattr(module, helper, original)
    return calls[0]


def pool_overhead(spans: Spans) -> float:
    """Item time the parent saw minus the worker's time, over a batch
    round's items.

    The parent sees an item from the previous delivery (or from the
    end of the up-front digests, when the pool starts) to its own
    delivery, which is when its journal write begins.
    """
    parent = os.getpid()
    digests = spans.named("pipeline.runner.digest", pid=parent)
    previous = max(end for _i, _p, _n, _s, end, _t in digests)
    worker = {tag: end - start for _i, _p, _n, start, end, tag
              in spans.named("pipeline.worker.item", workers=True)}
    total = 0.0
    for entry in sorted(spans.named("pipeline.journal.record", pid=parent),
                        key=lambda entry: entry[3]):
        start, tag = entry[3], entry[5]
        total += (start - previous) - worker[tag]
        previous = start
    return total


def per_layer(workload: str, manifest: dict, result: dict) -> dict:
    rounds = result["rounds"]
    traced = [done for done in rounds if done.full]
    plain = [done for done in rounds if not done.full]
    serve = workload == "serve-live"
    spans = Spans()
    for done in traced:
        spans.add(done.spans)
    n = len(traced)
    parent = os.getpid()
    selfs = self_times(spans)
    metrics: dict[str, tuple[float, str]] = {}
    for metric, name in TIMES:
        metrics[metric] = (selfs.get(name, 0.0) / n, "s")
    for name in COUNTS:
        metrics[name] = (spans.counts.get(name, 0) / n, "count")
    for name, unit in MAXIMA:
        metrics[name] = (spans.maxima.get(name, 0), unit)

    items = spans.named("pipeline.worker.item", workers=True)
    overhead = 0.0 if serve else sum(pool_overhead(done.spans)
                                     for done in traced)
    metrics["pipeline.resilience.overhead_s"] = (overhead / n, "s")
    metrics["pipeline.resilience.items"] = (len(items) / n, "count")

    submitted = {tag: end for _i, _p, _n, _s, end, tag
                 in spans.named("serve.scheduler.submit", pid=parent)}
    waits = [start - submitted[tag] for _i, _p, _n, start, _e, tag in items
             if tag in submitted]
    metrics["serve.scheduler.wait_ms_p50"] = (
        statistics.median(waits) * 1e3 if waits else 0.0, "ms")
    metrics["core.sender.seq_ops"] = (count_seq_ops(workload, manifest),
                                      "count")

    # Accounting: how much of the timed phase the layers explain.
    timed = sum(done.seconds for done in traced)
    if serve:
        timed = sum(end - start for _i, _p, _n, start, end, _t
                    in spans.named("serve.daemon.run", pid=parent))
        residual = selfs.get("serve.daemon.run", 0.0)
    else:
        worker = sum(end - start for _i, _p, _n, start, end, _t in items)
        serial = sum(selfs.get(name, 0.0) for name in BATCH_PARENT_SERIAL)
        residual = timed - worker - overhead - serial
    metrics["bench.trace.residual_pct"] = (100.0 * residual / timed, "%")
    # Overhead against the plain rounds of the same run: the round time
    # on batch; the median flow latency on serve, whose run time is set
    # by the writer.
    if serve:
        def cost(done):
            return quantile(done.latencies, 0.5)
    else:
        def cost(done):
            return done.seconds
    metrics["bench.trace.overhead_pct"] = (100.0 * (
        statistics.median(map(cost, traced))
        / statistics.median(map(cost, plain)) - 1.0), "%")
    metrics["bench.trace.spans"] = (
        sum(len(entries) for entries in spans.by_pid.values()) / n, "count")
    metrics["bench.rounds"] = (n, "count")
    late = [t for done in traced for t in done.late]
    metrics["bench.writer.late_ms_p99"] = (
        quantile(late, 0.99) * 1e3 if late else 0.0, "ms")
    return metrics
