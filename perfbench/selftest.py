"""Reduced-size self-test of the benchmark's correctness checks.

``python3 perfbench/selftest.py`` generates a small corpus and a small
pair of multi-connection captures, analyses them with the real
``tcpanaly batch`` path, and shows that every check passes on that
output and fails on a deliberately corrupted copy of it.  Exit status
0 means every corruption was caught.
"""

from __future__ import annotations

import copy
import json
import os
import shutil

import run
from checks import known_vantage_fault

FAILURES: list[str] = []


def expect(label: str, outcome, problems: bool,
           failed: int | None = None) -> None:
    """Record whether *outcome* has problems (and, when given, exactly
    *failed* failed operations) as expected."""
    caught = bool(outcome.problems) == problems \
        and (failed is None or len(outcome.failed) == failed)
    print(f"{'ok  ' if caught else 'FAIL'} {label}: "
          f"{len(outcome.problems)} problem(s), {len(outcome.failed)} "
          f"failed", flush=True)
    if not caught:
        FAILURES.append(label)


def fits_of(payload: dict) -> list[dict]:
    block = payload.get("identification") \
        or payload.get("receiver_identification")
    return block["fits"]


def demote(payloads: list[dict], truth_of, side: str) -> list[dict]:
    """Copy of *payloads* with one *side* flow's generating
    implementation recategorised as ``incorrect``."""
    corrupted = copy.deepcopy(payloads)
    for payload in corrupted:
        expected = truth_of(payload)
        if expected["side"] == side and payload["vantage"] == side:
            for fit in fits_of(payload):
                if fit["implementation"] == expected["implementation"]:
                    fit["category"] = "incorrect"
                    return corrupted
    raise AssertionError(f"no {side}-side payload to corrupt")


def common_corruptions(check, payloads, truth, truth_of, baseline_failed):
    expect("output as produced", check(payloads, truth), False,
           baseline_failed)
    expect("a payload dropped", check(payloads[1:], truth), True)
    expect("a payload duplicated", check(payloads + payloads[:1], truth),
           True)
    changed = copy.deepcopy(payloads)
    changed[0]["records"] += 1
    expect("a record count changed", check(changed, truth), True,
           baseline_failed)
    errored = copy.deepcopy(payloads)
    errored[0]["error_kind"] = "model"
    errored[0]["error"] = "corrupted"
    expect("an error_kind added", check(errored, truth), True)
    for side in ("sender", "receiver"):
        expect(f"a {side}-side truth fit made incorrect",
               check(demote(payloads, truth_of, side), truth), True,
               baseline_failed)
    for side, other in (("sender", "receiver"), ("receiver", "sender")):
        flipped = copy.deepcopy(payloads)
        target = next(p for p in flipped
                      if truth_of(p)["side"] == side
                      and p["vantage"] == side
                      and not known_vantage_fault(
                          truth_of(p)["implementation"],
                          truth_of(p)["scenario"], truth_of(p)["size_kb"]))
        target["vantage"] = other
        expect(f"a {side} flow outside the named faults inferred {other}",
               check(flipped, truth), True, baseline_failed)


def main() -> None:
    run.load_program()
    from checks import (Outcome, check_eager, check_live_equals_batch,
                        check_stream)
    from inputs import _generate_corpus, _transfer, _write_capture
    from workloads import batch_round

    work = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    corpus, captures = work / "corpus", work / "captures"
    corpus.mkdir(parents=True)
    captures.mkdir()
    try:
        print("== eager batch (check_eager)")
        truth = _generate_corpus(corpus, {
            "seed": 1, "size_kb": 20,
            "implementations": ["bsdi-2.0", "solaris-2.4"]})
        payloads = batch_round(corpus, work / "eager", False, False).payloads
        baseline = len(check_eager(payloads, truth).failed)
        print(f"named vantage faults in this output: {baseline}")
        common_corruptions(check_eager, payloads, truth,
                           lambda p: truth[p["trace"]], baseline)

        print("== streamed batch (check_stream)")
        truth = {}
        for side in ("sender", "receiver"):
            transfers = [_transfer(label, scenario, size, 3, side)
                         for label in ("bsdi-2.0", "linux-1.0")
                         for scenario in ("wan", "lan")
                         for size in (2, 6)]
            name = f"cap-{side}.pcap"
            truth[name] = _write_capture(captures / name, transfers, side)
        payloads = batch_round(captures, work / "stream", True,
                               False).payloads

        def truth_of(payload):
            capture = payload["trace"].split("#")[0]
            entry = truth[capture]
            connection = payload["flow"]["connection"]
            port = [e.rpartition(".")[2] for e in connection.split(" <-> ")
                    if e.rpartition(".")[2] != str(entry["server_port"])][0]
            return {"side": entry["side"],
                    **entry["connections"][port]}

        baseline = len(check_stream(payloads, truth).failed)
        common_corruptions(check_stream, payloads, truth, truth_of, baseline)
        moved = copy.deepcopy(payloads)
        moved[0]["flow"]["connection"] = "10.0.0.1.1 <-> 10.0.0.2.9000"
        expect("a flow attributed to no generated connection",
               check_stream(moved, truth), True)

        print("== live sink against batch --stream")
        reference = []
        for payload in payloads:
            payload = dict(payload)
            payload.pop("ingest", None)
            reference.append(json.dumps(payload, sort_keys=True))
        sink = [json.dumps(json.loads(line)) for line in reversed(reference)]

        def Problems(problems):
            return Outcome(problems=problems)

        expect("sink equal to batch, in another order",
               Problems(check_live_equals_batch(sink, reference)), False, 0)
        expect("a sink line missing",
               Problems(check_live_equals_batch(sink[1:], reference)), True)
        altered = json.loads(sink[0])
        altered["vantage"] = "receiver"
        expect("a sink line altered", Problems(check_live_equals_batch(
            [json.dumps(altered)] + sink[1:], reference)), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if FAILURES:
        print(f"self-test FAILED: {FAILURES}")
        raise SystemExit(1)
    print("self-test passed: every corruption was caught")


if __name__ == "__main__":
    main()
