"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --size full|quick
                                --trace 0|1 --workdir DIR [--spans-out FILE]
                                [--setup-only]

Imports ulrich_forge, generates the seeded inputs (ring files go to DIR),
then runs every job back to back in this single thread and prints one JSON
line: when set-up ended, each job's start, end, status and outcome, the
speed probes (machine.py) with their start times, the process's peak
resident memory and, with --trace 1, the per-layer metrics.
A fresh interpreter per pass keeps the lru_cache tables of one pass out of
the next.  run.py starts this script; it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

PROBE_EVERY_S = 0.1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "quick"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import ulrich_forge  # noqa: F401  (set-up includes the package import)
    import machine
    import oracles
    import workloads

    size = workloads.FULL if args.size == "full" else workloads.QUICK
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.make_jobs(args.workload, args.seed, size, workdir)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end, "jobs": [job.name for job in jobs]}))
        return 0

    tracer = caches = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        caches = tracing.install(tracer)

    # Probes of the machine's speed: one before the first job, one after each
    # job and, in an untraced pass, one every PROBE_EVERY_S from a timer
    # signal, inside jobs too.  run.py leaves the probes taken inside a job
    # out of its time.
    probes = []
    busy = []

    def probe(*_):
        if not busy:
            busy.append(True)
            probes.append([time.monotonic(), machine.probe_s()])
            busy.clear()

    if tracer is None:
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    probe()
    records = []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = k
        start = time.monotonic()
        try:
            status, outcome = "ok", job.run()
        except oracles.Mismatch as exc:
            status, outcome = "mismatch", str(exc)
        except Exception as exc:  # noqa: BLE001 - every raise is a failed job
            status, outcome = "error", f"{type(exc).__name__}: {exc}"
        end = time.monotonic()
        if status == "ok" and "INCONCLUSIVE" in outcome:
            status = "inconclusive"
        records.append([job.name, start, end, status, outcome])
        probe()
    signal.setitimer(signal.ITIMER_REAL, 0)

    result = {
        "setup_end": setup_end,
        "jobs": records,
        "probes": probes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, caches())
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
