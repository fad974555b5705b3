#!/usr/bin/env python3
"""Benchmark for ulrich-forge: time to a checked verdict, end to end and by layer.

    python3 perfbench/run.py --workload certify|ideals|semigroups --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
With --trace 0 the run repeats passes over the seed's fixed job list, each
pass in a fresh interpreter, as many times as typical passes fit in S
seconds (at least two), and prints the end-to-end metrics.  Times are
scaled to the machine's nominal speed, measured by probes between jobs
(machine.py).  With --trace 1 it runs one untraced and one traced pass and
prints the per-layer metrics.
The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import machine  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify", "ideals", "semigroups")
# Pass length, with its set-up samples, on a 2-core machine in its slow
# state.  The number of passes is --seconds divided by this, at least
# MIN_PASSES: a count that does not depend on the machine's speed keeps
# job_tail_ms at the same rank.
NOMINAL_PASS_S = {"certify": 9.0, "ideals": 8.5, "semigroups": 14.0}
MIN_PASSES = 2
# No pass starts once a typical pass would end later than this share of
# --seconds past the start, so a run on a slow machine stays bounded.
OVERRUN = 1.1
SETUP_SAMPLES = 8
PASS_TIMEOUT_S = 170
TAIL_BEYOND = 10
# A job's time is scaled by the probes taken during it and within this many
# seconds before its start or after its end.
WINDOW_S = 0.02


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # String hashing decides set order, and set order decides which S-pairs
    # Buchberger meets first; a fixed seed keeps the work counts repeatable.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@functools.cache
def fixed_layout_prefix() -> list:
    """`setarch -R` turns off address randomisation for the worker.  QQ has
    no __hash__ of its own, so polynomial hashes over Q follow memory
    addresses, and with them set order and Buchberger's S-pair order; with a
    fixed layout the work counts of a traced pass repeat exactly."""
    cmd = ["setarch", platform.machine(), "-R"]
    try:
        works = subprocess.run(cmd + ["true"], capture_output=True).returncode == 0
    except OSError:
        works = False
    return cmd if works else []


def run_worker(workload, seed, size, trace, workdir, setup_only=False, spans_out=None):
    cmd = fixed_layout_prefix() + [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass of {workload} exceeded {PASS_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    ended = time.monotonic()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - spawned
    result["elapsed_s"] = ended - spawned
    jobs = result["jobs"]
    if not setup_only:
        # how much slower than nominal the machine ran during this pass
        result["slowdown"] = (statistics.mean(d for _, d in result["probes"])
                              / machine.PROBE_NOMINAL_S)
        result["job_ms"] = nominal_job_ms(result)
        result["raw_wall_s"] = sum(job_s(result["probes"], start, end)
                                   for _, start, end, _, _ in jobs)
    return result


def job_s(probes, start, end) -> float:
    """A job's time as measured, less the probes taken inside it."""
    return end - start - sum(d for t, d in probes if start <= t < end)


def nominal_job_ms(result) -> list:
    """Each job's time in ms at the nominal speed: divided by the slowdown
    that the probes around and inside the job measured.  The machine's state
    can change within a tenth of a second, so probes further away say less
    about the job."""
    probes = result["probes"]
    times = []
    for _, start, end, _, _ in result["jobs"]:
        near = [d for t, d in probes if start - WINDOW_S <= t <= end + WINDOW_S]
        times.append(1000.0 * job_s(probes, start, end) * machine.PROBE_NOMINAL_S
                     / statistics.mean(near))
    return times


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, sample count).  With too few samples for that, the
    maximum, reported as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def check_passes(passes):
    """attempted, failed, the failing jobs, and whether every pass gave each
    job the same outcome (passes repeat one seed's inputs)."""
    attempted = failed = 0
    failures, outcomes = {}, {}
    consistent = True
    for p in passes:
        for name, _, _, status, outcome in p["jobs"]:
            attempted += 1
            if status != "ok":
                failed += 1
                failures[name] = f"{status}: {outcome}"
            key = (status, outcome)
            if outcomes.setdefault(name, key) != key:
                consistent = False
    return attempted, failed, failures, consistent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "quick"), default="full",
                    help="quick: the small job list the self-check uses")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ulrich_forge").is_dir():
        print(f"error: no ulrich_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the worker is stopped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # fixed-width name: the worker's argument lengths shape its memory layout
    workdir = BENCH / ".work" / f"run-{os.getpid():08d}"
    try:
        return measure(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    started = time.monotonic()
    ref_start = machine.ref_loop_s()
    passes, setups, traced = [], [], None
    if args.trace:
        passes.append(run_worker(args.workload, args.seed, args.size, 0, workdir))
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
        traced = run_worker(args.workload, args.seed, args.size, 1, workdir,
                            spans_out=spans_out)
    else:
        # Set-up is short and the machine's speed drifts within seconds, so
        # set-up is also sampled by set-up-only workers spread over the run.
        count = max(MIN_PASSES, int(args.seconds // NOMINAL_PASS_S[args.workload]))
        setup_workers = -(-SETUP_SAMPLES // count)
        for _ in range(count):
            if len(passes) >= MIN_PASSES:
                typical = statistics.median(p["elapsed_s"] for p in passes)
                if time.monotonic() - started + typical > OVERRUN * args.seconds:
                    break
            for _ in range(setup_workers):
                setups.append(run_worker(args.workload, args.seed, args.size, 0, workdir,
                                         setup_only=True)["setup_s"])
            passes.append(run_worker(args.workload, args.seed, args.size, 0, workdir))
            setups.append(passes[-1]["setup_s"])
    ref_end = machine.ref_loop_s()

    checked = passes + ([traced] if traced else [])
    attempted, failed, failures, consistent = check_passes(checked)
    # Every pass runs the same job list.  A job's time is its median over the
    # passes and the percentiles are taken over the jobs; a list too short
    # to leave ten jobs above the tail takes its tail over every pass's
    # times instead.  A pass's time is the sum of its jobs' times.
    slowdown = statistics.mean(p["slowdown"] for p in passes)
    durations = [p["job_ms"] for p in passes]
    job_ms = [statistics.median(times) for times in zip(*durations)]
    if len(job_ms) > TAIL_BEYOND:
        tail_ms, tail_pct, tail_n = tail(job_ms)
    else:
        tail_ms, tail_pct, tail_n = tail([ms for times in durations for ms in times])
    wall = statistics.median(sum(times) / 1000.0 for times in durations)
    ref = (ref_start + ref_end) / 2

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = sum(traced["job_ms"]) / sum(passes[0]["job_ms"])
        metrics["machine.ref_loop_s"] = ref
        metrics["machine.slowdown"] = traced["slowdown"]
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups) / slowdown,
            "wall_s": wall,
            "job_p50_ms": statistics.median(job_ms),
            "job_tail_ms": tail_ms,
            "peak_rss_mib": max(p["peak_rss_kib"] for p in passes) / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                 "peak_rss_mib": "MiB"}

    for name, reason in sorted(failures.items()):
        print(f"# failed job: {name}: {reason}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed_share = {failed}/{attempted} = {failed / attempted:.4f}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "python": platform.python_version(),
        "nproc": os.cpu_count(), "passes": len(passes), "jobs_per_pass": len(passes[0]["jobs"]),
        "setup_samples": len(setups),
        "job_tail_percentile": round(tail_pct, 2), "job_tail_samples": tail_n,
        "failed_share": failed / attempted, "failed": failed, "attempted": attempted,
        "outcomes_repeat": consistent,
        "machine.ref_loop_s": {"start": ref_start, "end": ref_end},
        "machine.slowdown": [round(p["slowdown"], 4) for p in passes],
        "raw": {"setup_s": statistics.median(setups) if setups else None,
                "wall_s": statistics.median(p["raw_wall_s"] for p in passes)},
        "elapsed_s": time.monotonic() - started,
    }
    if traced:
        record["spans"] = traced["spans"]
    print("# run record: " + json.dumps(record))
    print(json.dumps({
        "correct": consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith(("fp_over_q", "slowdown")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
