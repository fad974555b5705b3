"""The table of command-line pins, tests/golden/cli/pins.json, and the one
check of a run against an entry.

Each entry runs `ulrich-forge` with its argv in a directory that holds its
`files`, and expects its exit code and each of the output kinds it names:

    stdout       the whole of stdout
    stdout_line  one full line of stdout
    stdout_has   a substring of stdout
    stderr_line  one full line of stderr
    stderr_has   a substring of stderr
    json_has     a substring of the file that argv names after --json

`timeout` is in seconds, or null for none; `why` says what the pin guards.
tests/test_pins.py runs the table in-process and scripts/run_pins.py against
the installed console script; both load it and check runs here.
"""
import json
import pathlib

TABLE = pathlib.Path(__file__).resolve().parent / "golden" / "cli" / "pins.json"
EXPECTATIONS = ("stdout", "stdout_line", "stdout_has", "stderr_line", "stderr_has", "json_has")
REQUIRED = ("id", "why", "argv", "exit", "timeout")
KEYS = frozenset(REQUIRED + ("files",) + EXPECTATIONS)


def load(path=TABLE) -> list:
    entries = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    validate(entries)
    return entries


def validate(entries) -> None:
    """Reject an entry with a missing or unknown key, an empty `why`, or an
    id already used: a misspelt expectation would otherwise check nothing."""
    seen = set()
    for entry in entries:
        name = entry.get("id")
        missing = [key for key in REQUIRED if key not in entry]
        unknown = sorted(set(entry) - KEYS)
        if missing or unknown:
            raise ValueError(f"pin {name!r}: missing {missing}, unknown {unknown}")
        if not entry["why"].strip():
            raise ValueError(f"pin {name!r}: empty why")
        if name in seen:
            raise ValueError(f"pin {name!r}: duplicate id")
        seen.add(name)
        if "json_has" in entry and "--json" not in entry["argv"]:
            raise ValueError(f"pin {name!r}: json_has without --json")


def write_files(entry, directory: pathlib.Path) -> None:
    for name, text in entry.get("files", {}).items():
        (directory / name).write_text(text, encoding="utf-8")


def check(entry, code: int, stdout: str, stderr: str, files: dict) -> list:
    """The failed expectations of one run, as messages; empty when it
    passes.  `files` maps each file name in the run's directory to its
    text."""
    failed = []
    if code != entry["exit"]:
        failed.append(f"exit {code}, expected {entry['exit']}")
    if "stdout" in entry and stdout != entry["stdout"]:
        failed.append(f"stdout {stdout!r}, expected {entry['stdout']!r}")
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        line = entry.get(f"{stream}_line")
        if line is not None and line not in text.splitlines():
            failed.append(f"no {stream} line {line!r} in {text!r}")
        part = entry.get(f"{stream}_has")
        if part is not None and part not in text:
            failed.append(f"no {part!r} in {stream} {text!r}")
    if "json_has" in entry:
        report = files.get(entry["argv"][entry["argv"].index("--json") + 1], "")
        if entry["json_has"] not in report:
            failed.append(f"no {entry['json_has']!r} in the --json report")
    return failed
