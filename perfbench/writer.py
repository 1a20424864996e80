"""The open-loop writer of ``serve-live``, run as a process of its own.

``python3 perfbench/writer.py RATE RESULT SOURCE DEST [SOURCE DEST ...]``
appends each SOURCE capture to DEST at a fixed record rate (RATE
records per second, summed over the captures), whether or not anything
reads them, and then writes to RESULT a JSON object with ``started_at``
and ``finished_at`` (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` and so comparable across processes), ``late``
(seconds per append) and ``cpu`` (this process's CPU seconds).

Record *k* of a capture is due ``(k + 1) / rate`` seconds after the
start; each append also writes half of the next, not-yet-due record,
so a tailer keeps meeting partial trailing records.  Lateness is the
delay of each append past the due time of the earliest record it
completed.  The writer runs apart from the daemon it feeds, like a
packet capture: as a thread of the daemon's process it would compete
with the daemon for the interpreter lock.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import time
from pathlib import Path

clock = time.perf_counter

#: Longest sleep (seconds) between two appends.
MAX_SLEEP = 0.01


def record_ends(data: bytes) -> list[int]:
    """Byte offset just past each pcap record (big-endian or little)."""
    endian = ">" if data[:4] == b"\xa1\xb2\xc3\xd4" else "<"
    ends = []
    offset = 24
    while offset + 16 <= len(data):
        incl_len = struct.unpack_from(endian + "I", data, offset + 8)[0]
        offset += 16 + incl_len
        ends.append(offset)
    return ends


def write_open_loop(sources: list[tuple[bytes, Path]], rate: float) -> dict:
    rate /= len(sources)
    captures = [(data, record_ends(data)) for data, _dest in sources]
    handles = [open(dest, "wb") for _data, dest in sources]
    late = []
    try:
        started_at = clock()
        for handle, (data, _ends) in zip(handles, captures):
            handle.write(data[:24])
            handle.flush()
        done = [0] * len(captures)
        written = [24] * len(captures)
        while True:
            now = clock() - started_at
            pending = False
            for s, (handle, (data, ends)) in enumerate(zip(handles,
                                                          captures)):
                due = min(len(ends), int(now * rate))
                if due > done[s]:
                    target = ends[due - 1]
                    if due < len(ends):
                        target += (ends[due] - ends[due - 1]) // 2
                    handle.write(data[written[s]:target])
                    handle.flush()
                    late.append(now - (done[s] + 1) / rate)
                    written[s] = target
                    done[s] = due
                pending |= done[s] < len(ends)
            if not pending:
                break
            next_due = (min(done) + 1) / rate
            time.sleep(min(max(next_due - (clock() - started_at), 0.0005),
                           MAX_SLEEP))
        finished_at = clock()
    finally:
        for handle in handles:
            handle.close()
    times = os.times()
    return {"started_at": started_at, "finished_at": finished_at,
            "late": late, "cpu": times.user + times.system}


def main(argv: list[str]) -> None:
    rate, result, pairs = float(argv[0]), Path(argv[1]), argv[2:]
    sources = [(Path(pairs[i]).read_bytes(), Path(pairs[i + 1]))
               for i in range(0, len(pairs), 2)]
    result.write_text(json.dumps(write_open_loop(sources, rate)))


if __name__ == "__main__":
    main(sys.argv[1:])
