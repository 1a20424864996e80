"""One set-up sample, run as a fresh process.

``python3 perfbench/probe.py WORKLOAD INPUT_DIR WORK_DIR STAMP_FILE``
starts the same path the timed phase measures and writes the
``time.monotonic()`` at which it is set up to STAMP_FILE: for the batch
workloads, the moment the pool worker begins its first analysis; for
``serve-live``, the moment the daemon reports ready.  The parent takes
the time from just before it started this process, so interpreter
start and imports count.

The batch probe replaces the per-item analysis with a stub once the
first call is stamped, so the rest of the batch finishes at once.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path


def _stamp(path: Path) -> None:
    try:
        with open(path, "x") as handle:
            handle.write(repr(time.monotonic()))
    except FileExistsError:
        pass


def probe_batch(input_dir: Path, work: Path, stamp: Path,
                stream: bool) -> None:
    import repro.pipeline.runner as runner
    from workloads import batch_command

    def stub(item):
        _stamp(stamp)
        payload = {"trace": item.name, "implementation": item.implementation,
                   "error": "set-up probe", "error_kind": "model"}
        return [payload] if stream else payload

    runner.analyze_item_stream = stub
    runner.analyze_item = stub
    batch_command(input_dir, work, stream)


def probe_serve(work: Path, stamp: Path) -> None:
    from workloads import serve_config

    from repro.serve import ServeDaemon

    daemon = ServeDaemon(serve_config(work / "probe-serve",
                                      [work / "probe-live.pcap"]))
    thread = threading.Thread(target=daemon.run, name="probe-daemon")
    thread.start()
    try:
        while not daemon.ready and thread.is_alive():
            time.sleep(0.0005)
        _stamp(stamp)
    finally:
        daemon.request_stop()
        thread.join(timeout=60)


def main(argv: list[str]) -> None:
    workload, input_dir, work, stamp = argv
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    if workload == "serve-live":
        probe_serve(work, Path(stamp))
    else:
        probe_batch(Path(input_dir), work, Path(stamp),
                    stream=workload == "capture-demux")


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    main(sys.argv[1:])
