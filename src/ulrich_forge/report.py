"""Structured verification reports with deterministic JSON output.

JSON schema (version 1):
    {schema, pipeline, inputs, checks: [{claim, anchor, verdict, certificate}],
     verdict, field}
Timings are kept out of the JSON so identical inputs give byte-identical
reports; the text rendering shows them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, is_dataclass, asdict
from fractions import Fraction
from functools import cached_property

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INFO = "info"
SKIP = "skipped"


def jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    return str(value)


@dataclass
class Check:
    claim: str
    anchor: str
    verdict: str
    certificate: object = None

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "certificate": jsonable(self.certificate),
        }


@dataclass
class VerificationReport:
    pipeline: str
    inputs: dict
    checks: list
    verdict: str
    field_name: str
    timings_ms: dict = dc_field(default_factory=dict)

    @cached_property
    def _schema(self) -> dict:
        """The schema-1 dict, built once and shared: the text lines and the
        JSON both read it, so each certificate is converted once.  Neither
        the report nor the dict is changed once it is read."""
        return {
            "schema": SCHEMA_VERSION,
            "pipeline": self.pipeline,
            "inputs": jsonable(self.inputs),
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
            "field": self.field_name,
        }

    def to_dict(self) -> dict:
        return self._schema

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def text_lines(self) -> list[str]:
        data = self.to_dict()
        lines = [f"pipeline: {data['pipeline']}"]
        for key, value in data["inputs"].items():
            lines.append(f"  input {key} = {value}")
        for c in data["checks"]:
            lines.append(f"  [{c['verdict'].upper()}] {c['claim']}")
            if c["certificate"] is not None:
                lines.append(f"         certificate: {c['certificate']}")
        lines.append(f"verdict: {data['verdict']}")
        if self.timings_ms:
            total = sum(self.timings_ms.values())
            lines.append(f"elapsed: {total} ms")
        return lines
