"""Deterministic experiment reports.

The JSON layout separates the deterministic payload (under "report") from
wall time, so double runs with identical command, inputs, field, seed, and
parameters produce byte-identical payloads.  Keys are sorted and rationals
are rendered in fixed "p/q" form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from .linalg import format_scalar

SCHEMA_VERSION = "2"


def to_jsonable(value):
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(asdict(value))
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_report(
    command: str,
    field_descriptor: str,
    seed: int,
    parameters: dict,
    inputs: dict,
    results: dict,
    certificates: dict | None = None,
    wall_time_ms: float = 0.0,
) -> dict:
    return {
        "report": {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "field": field_descriptor,
            "seed": seed,
            "parameters": to_jsonable(parameters),
            "inputs": {k: digest(v) for k, v in inputs.items()},
            "results": to_jsonable(results),
            "certificates": to_jsonable(certificates or {}),
        },
        "wall_time_ms": wall_time_ms,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def render_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return "\n".join(lines)
