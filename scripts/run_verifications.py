#!/usr/bin/env python3
"""Run every shipped verification pipeline and write the JSON reports.

Usage: python scripts/run_verifications.py [OUTPUT_DIR]
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ulrich_forge.pipelines import (  # noqa: E402
    verify_localization,
    verify_no_ulrich,
    verify_ulrich_equivalence_for_example,
)


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for n in (2, 3, 4, 5):
        jobs.append((f"no-ulrich-n{n}", verify_no_ulrich, n))
    for n in (2, 3):
        jobs.append((f"equivalence-n{n}", verify_ulrich_equivalence_for_example, n))
    for n in (1, 2, 3):
        jobs.append((f"localization-n{n}", verify_localization, n))

    for name, runner, n in jobs:
        report = runner(n)
        path = out_dir / f"{name}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        print(f"{name:20} -> {report.verdict}  ({path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
