#!/usr/bin/env python3
"""Run every command-line pin of tests/golden/cli/pins.json against the
`ulrich-forge` console script on PATH, each in a fresh directory and a
subprocess killed at the pin's timeout.  Prints one line per pin and exits
1 if any pin fails.

Usage: python scripts/run_pins.py
"""
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

import pins  # noqa: E402


def run(entry) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        pins.write_files(entry, directory)
        try:
            proc = subprocess.run(["ulrich-forge", *entry["argv"]], cwd=directory,
                                  capture_output=True, encoding="utf-8",
                                  timeout=entry["timeout"], check=False)
        except subprocess.TimeoutExpired:
            return [f"killed after {entry['timeout']} s"]
        files = {path.name: path.read_text(encoding="utf-8") for path in directory.iterdir()}
        return pins.check(entry, proc.returncode, proc.stdout, proc.stderr, files)


def main() -> int:
    if shutil.which("ulrich-forge") is None:
        print("error: no ulrich-forge on PATH; install the package first", file=sys.stderr)
        return 2
    failures = 0
    for entry in pins.load():
        start = time.perf_counter()
        failed = run(entry)
        elapsed = time.perf_counter() - start
        print(f"{'FAIL' if failed else 'ok'} {entry['id']} ({elapsed:.2f} s)")
        for message in failed:
            print(f"    {message}")
        failures += bool(failed)
    print(f"{failures} of the pins failed" if failures else "every pin passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
