"""Correctness checks on the program's output, from generator truth.

Nothing here compares against a stored copy of earlier output.  Each
check uses what the generator knows (which connections it wrote, how
many records each has, which implementation produced it, which side
the capture was taken on) or a property the method must have.

A receiver-side flow that :func:`known_vantage_fault` names and whose
inferred vantage is ``sender`` counts as *failed*: that is the known
fault of the kernel-speed timing heuristic in ``core/vantage.py``, and
its fit checks are skipped because the wrong side's analysis ran.  Any
other wrong vantage, and every other violation, is a *problem* and
makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Outcome:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed.extend(other.failed)
        self.problems.extend(other.problems)


def known_vantage_fault(implementation: str, scenario: str,
                        size_kb: int) -> bool:
    """Receiver-side transfers that ``core/vantage.py`` labels
    ``sender`` (see README.md, *Known faults*)."""
    if implementation in ("solaris-2.3", "solaris-2.4"):
        return scenario == "modem-56k"
    if implementation == "osf1-1.3a":
        return (size_kb == 2 and scenario in ("wan", "lan", "transatlantic")
                or size_kb == 4 and scenario == "modem-56k")
    return False


def _category(fits: list[dict], implementation: str) -> str | None:
    for fit in fits:
        if fit.get("implementation") == implementation:
            return fit.get("category")
    return None


def check_flow(name: str, payload: dict, side: str, expected: dict,
               outcome: Outcome) -> None:
    """The per-connection checks shared by every workload; *expected*
    is the generator's truth for the connection."""
    implementation, records = expected["implementation"], expected["records"]
    if "error_kind" in payload or "error" in payload:
        outcome.problems.append(
            f"{name}: error_kind {payload.get('error_kind')!r}: "
            f"{payload.get('error')}")
        return
    if payload.get("records") != records:
        outcome.problems.append(f"{name}: {payload.get('records')} records, "
                                f"generator wrote {records}")
    vantage = payload.get("vantage")
    if vantage != side:
        if side == "receiver" and known_vantage_fault(
                implementation, expected["scenario"], expected["size_kb"]):
            outcome.failed.append(name)
        else:
            outcome.problems.append(f"{name}: {side}-side flow inferred "
                                    f"as {vantage!r}")
        return
    if side == "sender":
        fits = (payload.get("identification") or {}).get("fits") or []
        category = _category(fits, implementation)
        if category != "close":
            outcome.problems.append(f"{name}: generating implementation "
                                    f"{implementation} is {category!r}, "
                                    f"not a close fit")
    else:
        fits = (payload.get("receiver_identification") or {}).get("fits") \
            or []
        category = _category(fits, implementation)
        if category is None or category == "incorrect":
            outcome.problems.append(f"{name}: generating implementation "
                                    f"{implementation} is {category!r} "
                                    f"on the receiver side")


def check_eager(payloads: list[dict], truth: dict) -> Outcome:
    """One payload per generated trace file (``batch`` default path)."""
    outcome = Outcome(attempted=len(truth))
    seen = set()
    for payload in payloads:
        name = payload.get("trace")
        if name not in truth:
            outcome.problems.append(f"{name}: payload for no generated trace")
            continue
        if name in seen:
            outcome.problems.append(f"{name}: more than one payload")
            continue
        seen.add(name)
        expected = truth[name]
        check_flow(name, payload, expected["side"], expected, outcome)
    for name in sorted(set(truth) - seen):
        outcome.problems.append(f"{name}: no payload")
    return outcome


def _client_port(payload: dict, server_port: int) -> str | None:
    connection = (payload.get("flow") or {}).get("connection", "")
    ports = set()
    for endpoint in connection.split(" <-> "):
        _addr, _, port = endpoint.rpartition(".")
        if port.isdigit():
            ports.add(int(port))
    ports.discard(server_port)
    return str(ports.pop()) if len(ports) == 1 else None


def check_stream(payloads: list[dict], truth: dict) -> Outcome:
    """One payload per generated connection of each capture."""
    outcome = Outcome(attempted=sum(len(entry["connections"])
                                    for entry in truth.values()))
    seen: set[tuple[str, str]] = set()
    for payload in payloads:
        name = str(payload.get("trace"))
        capture = name.split("#", 1)[0]
        entry = truth.get(capture)
        port = _client_port(payload, entry["server_port"]) \
            if entry is not None else None
        if port is None or port not in entry["connections"]:
            outcome.problems.append(f"{name}: payload for no generated "
                                    f"connection")
            continue
        if (capture, port) in seen:
            outcome.problems.append(f"{name}: second payload for "
                                    f"connection port {port}")
            continue
        seen.add((capture, port))
        expected = entry["connections"][port]
        check_flow(name, payload, entry["side"], expected, outcome)
    for capture, entry in sorted(truth.items()):
        for port in sorted(entry["connections"]):
            if (capture, port) not in seen:
                outcome.problems.append(f"{capture}: no payload for "
                                        f"connection port {port}")
    return outcome


def check_live_equals_batch(sink_lines: list[str],
                            reference: list[str]) -> list[str]:
    """The serve sink must equal ``batch --stream`` minus ``ingest``."""
    live = sorted(json.dumps(json.loads(line), sort_keys=True)
                  for line in sink_lines)
    if live == sorted(reference):
        return []
    missing = len(set(reference) - set(live))
    extra = len(set(live) - set(reference))
    return [f"serve sink differs from batch --stream: {missing} reference "
            f"line(s) missing, {extra} unexpected line(s) "
            f"({len(live)} live vs {len(reference)} batch)"]
