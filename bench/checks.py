"""Exact content checks of carrychain CLI responses, in all three formats.

A response is first parsed into fields of text cells, the way the CLI renders
them in CSV and pretty output (rationals as ``K`` or ``K/L``, booleans as
``pass``/``FAIL``). JSON is brought to the same form, so one checker serves
every format. The checks compare content, never a byte digest, and every
arithmetic comparison is exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from workloads import Request, state_range

_KEY = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass
class Field:
    cells: list[str] = field(default_factory=list)     # scalar or flat list
    rows: list[list[str]] = field(default_factory=list)  # nested list
    entries: dict[str, str] = field(default_factory=dict)  # mapping


class CheckError(Exception):
    """The response is malformed or states something false."""


def _json_cell(x) -> str:
    if isinstance(x, dict) and set(x) == {"num", "den"}:
        return x["num"] if x["den"] == "1" else f"{x['num']}/{x['den']}"
    if isinstance(x, bool):
        return "pass" if x else "FAIL"
    return str(x)


def _parse_json(text: str, command: str) -> dict[str, Field]:
    doc = json.loads(text)
    if doc.get("command") != command:
        raise CheckError(f"command is {doc.get('command')!r}, expected {command!r}")
    out = {}
    for key, value in doc["payload"].items():
        f = Field()
        if isinstance(value, dict) and set(value) != {"num", "den"}:
            f.entries = {str(k): _json_cell(v) for k, v in value.items()}
        elif isinstance(value, list) and value and isinstance(value[0], list):
            f.rows = [[_json_cell(x) for x in row] for row in value]
        elif isinstance(value, list):
            f.cells = [_json_cell(x) for x in value]
        else:
            f.cells = [_json_cell(value)]
        out[key] = f
    return out


def _parse_csv(text: str) -> dict[str, Field]:
    out: dict[str, Field] = {}
    current = None
    for row in csv.reader(io.StringIO(text)):
        if row and _KEY.match(row[0]):
            current = out[row[0]] = Field()
            cells = row[1:]
            if cells and all("=" in c for c in cells):
                current.entries = dict(c.split("=", 1) for c in cells)
            else:
                current.cells = cells
        elif current is None:
            raise CheckError(f"CSV row before any key: {row!r}")
        else:
            current.rows.append(row)
    return out


def _parse_pretty(text: str, command: str) -> dict[str, Field]:
    lines = text.splitlines()
    if not lines or lines[0] != command:
        raise CheckError(f"pretty output does not start with {command!r}")
    out: dict[str, Field] = {}
    current = None
    for line in lines[1:]:
        if line.startswith("  "):
            if current is None:
                raise CheckError(f"indented line before any key: {line!r}")
            if ": " in line:
                k, v = line.strip().split(": ", 1)
                current.entries[k] = v
            else:
                current.rows.append(line.split())
        else:
            key, _, rest = line.partition(":")
            current = out[key] = Field(cells=rest.split())
    return out


def parse(text: str, fmt: str, command: str) -> dict[str, Field]:
    try:
        if fmt == "json":
            return _parse_json(text, command)
        if fmt == "csv":
            return _parse_csv(text)
        return _parse_pretty(text, command)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckError(f"unparseable {fmt} output: {exc}") from exc


def _field(payload: dict[str, Field], key: str) -> Field:
    if key not in payload:
        raise CheckError(f"missing field {key!r}")
    return payload[key]


def _scalar(payload, key) -> str:
    cells = _field(payload, key).cells
    if len(cells) != 1:
        raise CheckError(f"{key} should be one value, got {cells!r}")
    return cells[0]


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"not a rational: {text!r}") from exc


def _matrix(payload, key) -> list[list[Fraction]]:
    return [[_rat(x) for x in row] for row in _field(payload, key).rows]


def check_verify(req: Request, payload) -> None:
    if _scalar(payload, "verified") != "pass":
        raise CheckError("verified is not true")
    verdicts = _field(payload, "verdicts").entries
    if not verdicts:
        raise CheckError("no verdicts reported")
    failed = [k for k, v in verdicts.items() if v != "pass"]
    if failed:
        raise CheckError(f"verdicts not true: {failed}")


def check_matrix(req: Request, payload) -> None:
    states = [int(x) for x in _field(payload, "states").cells]
    m = len(states)
    if "digits" not in req.params:
        s, t = state_range(req.params["base"], req.params["d"],
                           req.params["n"], req.params["negative"])
        if states != list(range(s, t + 1)):
            raise CheckError(f"states {states} != {s}..{t}")
    rows = _matrix(payload, "matrix")
    if len(rows) != m or any(len(r) != m for r in rows):
        raise CheckError(f"matrix is not {m}x{m}")
    bad = [i for i, r in enumerate(rows) if sum(r) != 1]
    if bad:
        raise CheckError(f"rows {bad} do not sum to exactly 1")
    if "--char-poly" in req.argv:
        coeffs = [_rat(x) for x in _field(payload, "char_poly_ascending").cells]
        if len(coeffs) != m + 1:
            raise CheckError(f"char poly has degree {len(coeffs) - 1}, expected {m}")
        if coeffs[-1] != 1:
            raise CheckError("char poly is not monic")
        if sum(coeffs) != 0:
            raise CheckError("char poly coefficients do not sum to 0")


def check_triangle(req: Request, payload) -> None:
    p, n_max = req.params["p"], req.params["n_max"]
    rows = _matrix(payload, "rows")
    if len(rows) != n_max + 1:
        raise CheckError(f"{len(rows)} rows, expected {n_max + 1}")
    for k, row in enumerate(rows):
        if len(row) != k + 1 or sum(row) != p ** k * math.factorial(k):
            raise CheckError(f"row {k} does not sum to p^k k!")


def check_uniform_sum(req: Request, payload) -> None:
    if _scalar(payload, "match") != "pass":
        raise CheckError("match is not true")


def check_find_system(req: Request, payload) -> None:
    got = _rat(_scalar(payload, "verified_p"))
    if got != req.params["p"]:
        raise CheckError(f"verified_p {got} != p {req.params['p']}")


def check_simulate(req: Request, payload) -> None:
    params = req.params
    counts = {int(k): int(v) for k, v in _field(payload, "counts").entries.items()}
    samples = params["steps"] - params["burn_in"]
    if sum(counts.values()) != samples:
        raise CheckError(f"counts sum to {sum(counts.values())}, expected {samples}")
    s, t = state_range(params["base"], params["d"], params["n"], params["negative"])
    outside = [c for c in counts if not s <= c <= t]
    if outside:
        raise CheckError(f"visited states {outside} outside {s}..{t}")


CHECKS = {
    "verify": check_verify,
    "matrix": check_matrix,
    "triangle": check_triangle,
    "uniform-sum": check_uniform_sum,
    "find-system": check_find_system,
    "simulate": check_simulate,
}


def check_response(req: Request, code: int, stdout: str, stderr: str) -> str | None:
    """None when the response is correct, else the reason it is not."""
    if "Traceback" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1]
    try:
        CHECKS[req.command](req, parse(stdout, req.fmt, req.command))
    except CheckError as exc:
        reason = str(exc)
    except (ValueError, IndexError) as exc:
        reason = f"malformed output: {exc}"
    else:
        reason = None
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:] or reason}"
    return reason
