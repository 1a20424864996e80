"""Reference sweep of offered rates on the live workload.

``python3 perfbench/sweep.py --seconds 20 --seed 1 --rates 600,1200,2400``
runs ``serve-live`` once per offered rate (records per second, summed
over the tailed captures) and prints, per rate, the delivered rate,
flow latency, CPU per 1,000 records and how late the writer ran.  The
benchmark's fixed rate is about half of the rate the daemon sustains
when saturated; the README records one sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rates", required=True)
    args = parser.parse_args(argv)
    run.load_program()
    from checks import check_stream
    from inputs import prepare
    from measure import quantile
    from workloads import serve_round

    for rate in [float(r) for r in args.rates.split(",")]:
        manifest = prepare(run.ROOT, "serve-live", args.seed, args.seconds,
                           rate)
        work = run.ROOT / ".perfbench" / f"sweep-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            done = serve_round(manifest, work, rate, full=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        figures = run.round_figures(done)
        print(json.dumps({
            "offered": rate,
            "delivered": round(figures["records_per_s"], 1),
            "p50_ms": round(figures["flow_latency_p50_ms"], 2),
            "p95_ms": round(figures["flow_latency_p95_ms"], 2),
            "cpu_ms_per_krecord": round(figures["cpu_ms_per_krecord"], 1),
            "samples": len(done.latencies),
            "writer_late_p99_ms": round(quantile(done.late, 0.99) * 1e3, 2),
            "correct": not check_stream(done.payloads,
                                        manifest["truth"]).problems}),
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
