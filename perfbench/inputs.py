"""Seeded, cached, digest-checked inputs for the benchmark workloads.

Every input is a pure function of (workload, seed, generator settings).
The first run for a key generates the inputs in a child process (so the
generator's memory never inflates the measured processes), writes them
under ``.perfbench/cache/<key>/`` together with a manifest of SHA-256
digests and the generator's ground truth, and renames the directory
into place.  Every later run re-hashes the files against the manifest
before it measures anything, so all runs of a key analyse identical
bytes.

Run as a script to generate one key:
``python3 perfbench/inputs.py WORKLOAD SEED SECONDS RATE CACHE_DIR``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

#: Bump when generation changes, so stale cache entries are not reused.
GENERATOR_VERSION = 4

#: Connection payload sizes (KiB) of the multi-connection captures.
SIZES_KB = (2, 4, 6, 8, 10)
#: Capture-clock seconds between connection starts in a capture.
START_INTERVAL = 1.0
#: The one scenario of the default rotation with random loss.  On it,
#: the fit of the generating implementation depends on the loss
#: pattern and fails on some seeds only (receiver side of 100 KB
#: transfers; either side of 2-10 KB ones), so those inputs are left
#: out: see the FOUND lines in CHANGES.md.
LOSSY_SCENARIO = "wan-lossy"
#: Live workload: sources tailed and the offered record rate (records
#: per second, summed over sources), about half of what one worker
#: sustains on the reference machine (see README).
SERVE_SOURCES = 2
SERVE_OFFERED_RATE = 1200.0
PORT_BASE = 40000


def settings(workload: str, seed: int, seconds: int,
             rate: float = SERVE_OFFERED_RATE) -> dict:
    """Everything the inputs of one run depend on (the cache key)."""
    base = {"workload": workload, "seed": seed,
            "generator": GENERATOR_VERSION}
    if workload == "corpus-eager":
        base.update(size_kb=100, per_implementation=5)
    elif workload == "capture-demux":
        base.update(sizes_kb=list(SIZES_KB), interval=START_INTERVAL,
                    captures={"sender": 2, "receiver": 2})
    elif workload == "serve-live":
        base.update(sizes_kb=list(SIZES_KB), interval=START_INTERVAL,
                    sources=SERVE_SOURCES, rate=rate,
                    seconds=seconds)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return base


def cache_key(config: dict) -> str:
    text = json.dumps(config, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class InputError(RuntimeError):
    """The cached inputs are missing, damaged, or failed to generate."""


def prepare(root: Path, workload: str, seed: int, seconds: int,
            rate: float = SERVE_OFFERED_RATE) -> dict:
    """Return the verified manifest for one run, generating on a miss.

    The manifest's ``dir`` entry is the absolute input directory.
    """
    config = settings(workload, seed, seconds, rate)
    cache = root / ".perfbench" / "cache"
    directory = cache / cache_key(config)
    if not (directory / "manifest.json").is_file():
        cache.mkdir(parents=True, exist_ok=True)
        script = Path(__file__).resolve()
        done = subprocess.run(
            [sys.executable, str(script), workload, str(seed),
             str(seconds), str(rate), str(cache)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=600)
        if done.returncode != 0:
            raise InputError(f"input generation failed:\n{done.stderr}")
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest["settings"] != config:
        raise InputError(f"{directory}: manifest settings mismatch")
    for name, digest in manifest["files"].items():
        path = directory / name
        if not path.is_file() or file_sha256(path) != digest:
            raise InputError(f"{path}: digest mismatch")
    manifest["dir"] = str(directory)
    return manifest


# -- generation (child process) ------------------------------------------


def _write_capture(path: Path, transfers: list[tuple], side: str) -> dict:
    """Interleave *transfers* (``_transfer`` tuples) into one capture;
    return its truth.  Connection *i* gets client port PORT_BASE + i."""
    from repro.harness.corpus import interleave_traces
    from repro.trace.pcap import write_pcap

    capture = interleave_traces([t[3] for t in transfers],
                                [t[0] for t in transfers],
                                start_interval=START_INTERVAL,
                                port_base=PORT_BASE)
    write_pcap(capture.trace, path)
    connections = {}
    for flow in capture.flows:
        label, scenario, size_kb, _trace = transfers[flow.client.port
                                                     - PORT_BASE]
        connections[str(flow.client.port)] = {
            "implementation": label, "scenario": scenario,
            "size_kb": size_kb, "records": flow.records}
    return {"side": side, "server_port": capture.flows[0].server.port,
            "connections": connections}


def _transfer(label: str, scenario: str, size_kb: int, seed: int,
              side: str) -> tuple:
    """``(label, scenario, size_kb, trace)`` of one generated transfer,
    as seen from *side*."""
    from repro.harness.scenarios import traced_transfer
    from repro.tcp.catalog import get_behavior

    transfer = traced_transfer(get_behavior(label), scenario,
                               data_size=size_kb * 1024, seed=seed)
    return (label, scenario, size_kb, transfer.sender_trace
            if side == "sender" else transfer.receiver_trace)


def _generate_corpus(directory: Path, config: dict) -> dict:
    from repro.harness.corpus import DEFAULT_ROTATION, write_corpus
    from repro.tcp.catalog import CORE_STUDY
    from repro.units import kbyte

    written = write_corpus(directory,
                           implementations=config.get("implementations",
                                                      CORE_STUDY),
                           traces_per_implementation=len(DEFAULT_ROTATION),
                           scenarios=DEFAULT_ROTATION,
                           data_size=kbyte(config["size_kb"]),
                           base_seed=config["seed"])
    truth = {}
    for entry in written:
        scenario = entry.transfer.scenario.name
        common = {"implementation": entry.implementation,
                  "scenario": scenario, "size_kb": config["size_kb"]}
        truth[entry.sender_path.name] = {
            "side": "sender", **common,
            "records": len(entry.transfer.sender_trace.records)}
        if scenario == LOSSY_SCENARIO:
            entry.receiver_path.unlink()
            continue
        truth[entry.receiver_path.name] = {
            "side": "receiver", **common,
            "records": len(entry.transfer.receiver_trace.records)}
    return truth


def _loss_free() -> list[str]:
    from repro.harness.corpus import DEFAULT_ROTATION

    return [s for s in DEFAULT_ROTATION if s != LOSSY_SCENARIO]


def _generate_demux(directory: Path, config: dict) -> dict:
    from repro.tcp.catalog import CORE_STUDY

    truth = {}
    for side in ("sender", "receiver"):
        for k in range(2):
            transfers = []
            for i, label in enumerate(CORE_STUDY):
                for c, scenario in enumerate(_loss_free()):
                    for j in (0, 1):
                        size = SIZES_KB[(i + c + 2 * k + j) % len(SIZES_KB)]
                        transfers.append(_transfer(label, scenario, size,
                                                   0, side))
            if side == "sender":
                # The seed sets the interleaving of the sender captures.
                # Receiver captures stay seed-independent: their
                # mislabelled flows (a known vantage fault) must be the
                # same flows on every run.
                random.Random(f"{config['seed']}-{side}-{k}").shuffle(
                    transfers)
            name = f"demux-{side[0]}{k}.pcap"
            truth[name] = _write_capture(directory / name, transfers, side)
    return truth


def _generate_serve(directory: Path, config: dict) -> dict:
    from repro.tcp.catalog import CORE_STUDY

    seed = config["seed"]
    grid = [_transfer(label, scenario, size, 0, "sender")
            for label in CORE_STUDY for scenario in _loss_free()
            for size in SIZES_KB]
    per_source = config["rate"] * config["seconds"] / config["sources"]
    truth = {}
    for s in range(config["sources"]):
        rng = random.Random(f"{seed}-live-{s}")
        transfers, records = [], 0
        while records < per_source:
            order = list(grid)
            rng.shuffle(order)
            for transfer in order:
                transfers.append(transfer)
                records += len(transfer[3].records)
                if records >= per_source:
                    break
        name = f"live-{s}.pcap"
        truth[name] = _write_capture(directory / name, transfers, "sender")
    return truth


def generate(workload: str, seed: int, seconds: int, rate: float,
             cache: Path) -> None:
    config = settings(workload, seed, seconds, rate)
    final = cache / cache_key(config)
    staging = cache / f"{final.name}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    if workload == "corpus-eager":
        truth = _generate_corpus(staging, config)
    elif workload == "capture-demux":
        truth = _generate_demux(staging, config)
    else:
        truth = _generate_serve(staging, config)
    files = {path.name: file_sha256(path)
             for path in sorted(staging.iterdir()) if path.is_file()}
    records = sum(entry["records"] for entry in truth.values()
                  if "records" in entry) + sum(
        conn["records"] for entry in truth.values()
        for conn in entry.get("connections", {}).values())
    manifest = {"settings": config, "files": files, "truth": truth,
                "records": records}
    (staging / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1))
    try:
        staging.rename(final)
    except OSError:
        # Another run generated the same key first; its copy is
        # identical by construction.
        shutil.rmtree(staging, ignore_errors=True)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    generate(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]),
             float(sys.argv[4]), Path(sys.argv[5]))
