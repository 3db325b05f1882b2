"""The csv and pretty writers behind carrychain.cli.render.

``render`` imports this module only for ``--format csv`` or ``pretty``, so a
JSON request never loads it. Both writers take one walk of the payload,
``_fields``: matrix cells come from ``ratios()`` through ``ratio_text``, the
reduced pairs the JSON writer reads too. This module never imports
carrychain.cli, which under ``python -m`` runs as ``__main__``.
"""

from __future__ import annotations


def _cell(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    return str(value)


def _fields(payload: dict):
    """Yield (key, kind, cells) per payload field: kind "table" with rows of
    text cells, "mapping" with (name, text) pairs, or "line" with text cells."""
    for key, value in payload.items():
        if hasattr(value, "ratios"):
            from .exactmath import ratio_text

            yield key, "table", [[ratio_text(num, den) for num, den in row]
                                 for row in value.ratios()]
        elif isinstance(value, list) and value and isinstance(value[0], list):
            yield key, "table", [[_cell(x) for x in row] for row in value]
        elif isinstance(value, list):
            yield key, "line", [_cell(x) for x in value]
        elif isinstance(value, dict):
            yield key, "mapping", [(k, _cell(v)) for k, v in value.items()]
        else:
            yield key, "line", [_cell(value)]


def _emit_csv(fields, stream) -> None:
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    for key, kind, cells in fields:
        if kind == "table":
            writer.writerows([[key], *cells])
        elif kind == "mapping":
            writer.writerow([key, *[f"{k}={v}" for k, v in cells]])
        else:
            writer.writerow([key, *cells])


def _emit_pretty(command: str, fields, stream) -> None:
    stream.write(f"{command}\n")
    for key, kind, cells in fields:
        if kind == "table":
            stream.write(f"{key}:\n")
            widths = [max(len(row[j]) for row in cells if j < len(row))
                      for j in range(max(len(r) for r in cells))]
            for row in cells:
                stream.write("  " + "  ".join(
                    cell.rjust(widths[j]) for j, cell in enumerate(row)) + "\n")
        elif kind == "mapping":
            stream.write(f"{key}:\n")
            for k, v in cells:
                stream.write(f"  {k}: {v}\n")
        else:
            stream.write(f"{key}: " + " ".join(cells) + "\n")
