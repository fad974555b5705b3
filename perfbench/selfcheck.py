#!/usr/bin/env python3
"""Self-check of the benchmark at small size.

    python3 perfbench/selfcheck.py [--seed N]

1. Quick mode: runs each workload once at the small size and requires every
   job to pass its oracle.
2. Counter determinism: two traced runs with one seed must give identical
   call counts, basis sizes and cache hit/miss counts, and a second seed
   must give a different job list.
3. Containment: no file outside perfbench/ may appear, change or vanish.

Exits 0 when every check holds and prints one line per check.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def snapshot() -> dict:
    """Every file of the checkout outside the benchmark and .git."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        here = Path(dirpath)
        dirnames[:] = [d for d in dirnames
                       if here / d not in (BENCH, ROOT / ".git")]
        for name in filenames:
            st = (here / name).stat()
            files[str((here / name).relative_to(ROOT))] = (st.st_size, st.st_mtime_ns)
    return files


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    failures = [line for line in lines if line.startswith("# failed job:")]
    return json.loads(lines[-1]), failures


def job_names(workload, seed, workdir):
    return run.run_worker(workload, seed, "quick", 0, workdir, setup_only=True)["jobs"]


def counters(result) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count" or k.endswith("hit_ratio")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    before = snapshot()
    results = []
    workdir = BENCH / ".work" / f"selfcheck-{os.getpid():08d}"

    def report(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)

    try:
        for w in run.WORKLOADS:
            res, failures = bench(w, args.seed, 0)
            report(f"quick {w}: every oracle passes",
                   res["correct"] and res["failed"] == 0,
                   f"{res['failed']}/{res['attempted']} failed" + "".join(
                       "\n    " + f for f in failures))
            first, _ = bench(w, args.seed, 1)
            second, _ = bench(w, args.seed, 1)
            a, b = counters(first), counters(second)
            diff = sorted(k for k in a if a[k] != b.get(k))
            report(f"determinism {w}: {len(a)} counters repeat for seed {args.seed}",
                   not diff, f"differ: {diff}" if diff else "")
            names = job_names(w, args.seed, workdir), job_names(w, args.seed + 1, workdir)
            report(f"determinism {w}: seed {args.seed + 1} gives another job list",
                   names[0] != names[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = snapshot()
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    report("no file outside perfbench/ was written", not changed, ", ".join(changed[:10]))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
