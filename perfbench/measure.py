"""Process-level measurements: CPU time, peak memory, quantiles."""

from __future__ import annotations

import os
import threading
from pathlib import Path


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def _status_kib(pid: int | str, field: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def _children() -> list[str]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend((task / "children").read_text().split())
        except OSError:
            continue
    return pids


class PeakMemory:
    """Samples resident memory of this process and its children.

    The benchmark process reports its current RSS (its high-water mark
    would include input loading before the timed phase); each child
    reports its own high-water mark, so a worker's peak between two
    samples is not missed.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="perfbench-rss", daemon=True)

    def sample(self) -> None:
        peak = _status_kib("self", "VmRSS")
        for pid in _children():
            peak = max(peak, _status_kib(pid, "VmHWM"))
        self.peak_kib = max(self.peak_kib, peak)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PeakMemory":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024.0


def filesystem(path: Path) -> str:
    """The type of the filesystem holding *path* (from /proc/mounts)."""
    path = Path(path).resolve()
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) > 2 and str(path).startswith(fields[1]) \
                and len(fields[1]) > len(best):
            best, kind = fields[1], fields[2]
    return kind


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (the ``inclusive`` method)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
