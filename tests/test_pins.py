"""The command-line pins of tests/golden/cli/pins.json, run in-process
through cli.main; scripts/run_pins.py runs the same table against the
installed console script."""
import copy
import time

import pytest

import pins
from ulrich_forge.cli import main

TABLE = pins.load()


@pytest.mark.parametrize("entry", TABLE, ids=[entry["id"] for entry in TABLE])
def test_pin(entry, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pins.write_files(entry, tmp_path)
    start = time.perf_counter()
    try:
        code = main(entry["argv"])
    except SystemExit as stopped:  # argparse's own usage errors
        code = stopped.code
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    files = {path.name: path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}
    assert pins.check(entry, code, captured.out, captured.err, files) == []
    if entry["timeout"] is not None:
        assert elapsed < entry["timeout"]


# one run and, per expectation kind, a value it meets and one it does not
RUN = (3, "head\nverdict: X\n", "inconclusive: ROW_CAP=4096\n", {"r31.json": '{"anchor": "v"}\n'})
MET = {"exit": 3, "stdout": "head\nverdict: X\n", "stdout_line": "verdict: X",
       "stdout_has": "dict: X", "stderr_line": "inconclusive: ROW_CAP=4096",
       "stderr_has": "ROW_CAP=4096", "json_has": '"anchor": "v"'}
UNMET = {"exit": 0, "stdout": "head\nverdict: X", "stdout_line": "verdict:",
         "stdout_has": "verdict: Y", "stderr_line": "ROW_CAP=4096",
         "stderr_has": "ROW_CAP=100", "json_has": '"anchor": "w"'}


def _entry(**expect):
    """A copy of the verify51-r31 pin with its expectations replaced."""
    (entry,) = [copy.deepcopy(e) for e in TABLE if e["id"] == "verify51-r31"]
    for key in pins.EXPECTATIONS:
        entry.pop(key, None)
    entry.update(expect)
    return entry


@pytest.mark.parametrize("kind", sorted(MET))
def test_each_expectation_kind_can_fail(kind):
    assert pins.check(_entry(**MET), *RUN) == []
    assert pins.check(_entry(**dict(MET, **{kind: UNMET[kind]})), *RUN) != []


@pytest.mark.parametrize("change", [
    lambda table: table[0].pop("why"),
    lambda table: table[0].update(why=" "),
    lambda table: table[1].update(id=table[0]["id"]),
    lambda table: table[0].update(stdout_lines="verdict: NO_ULRICH"),
    lambda table: table[0].pop("timeout"),
    lambda table: table[0].update(json_has="{"),
], ids=["no-why", "blank-why", "duplicate-id", "unknown-key", "no-timeout", "json-without-file"])
def test_malformed_table_is_rejected(change):
    table = copy.deepcopy(TABLE)
    pins.validate(table)
    change(table)
    with pytest.raises(ValueError):
        pins.validate(table)
