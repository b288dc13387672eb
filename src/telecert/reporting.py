"""Result documents: run manifests plus table, CSV, and JSON renderings.

Every document written to disk embeds the manifest of the command that
produced it.  A manifest is a plain dict, and its key order is the order
in which documents write its fields.  Numbers are rendered with shortest
round-trip precision so structured output carries full double precision.

A records document is byte for byte ``json.dumps(doc, indent=2) + "\n"``.
``json`` renders an indented document with its pure-Python encoder, so
``_render`` writes the values documents hold itself (dicts with string
keys, lists, strings, ints, finite floats, ``None`` and bools) and hands
everything else to ``json.dumps``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
from datetime import datetime, timezone

import numpy as np

from . import simulator
from ._version import __version__

FORMATS = ("table", "records", "csv")


def make_manifest(
    command: str,
    parameters: dict,
    seed: int | None = None,
    sampler: str = simulator.SAMPLER,
) -> dict:
    """Manifest of one command; ``sampler`` names what drew its seeded numbers.

    Seeded numbers depend on the sampler and on numpy's bit generator,
    whose streams numpy does not promise to keep across versions (NEP 19),
    so the manifest names both along with the Python and numpy versions
    and the platform.
    """
    return {
        "command": command,
        "parameters": parameters,
        "artifact_version": __version__,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "bit_generator": simulator.BIT_GENERATOR,
        "sampler": sampler,
    }


def fmt(value) -> str:
    """Render one cell; floats keep shortest round-trip precision."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def format_table(headers: list[str], rows: list[list]) -> str:
    cells = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = [
        "  ".join(h.ljust(widths[j]) for j, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[j] for j in range(len(headers))),
    ]
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"


def format_pairs(pairs: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {fmt(v)}" for k, v in pairs) + "\n"


def _manifest_comment_lines(manifest: dict) -> list[str]:
    lines = [f"# {name}: {fmt(value)}" for name, value in manifest.items() if name != "parameters"]
    lines += [f"# parameter {key}: {fmt(value)}" for key, value in manifest["parameters"].items()]
    return lines


_encode_str = json.encoder.encode_basestring_ascii


def _render(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` for a value nested at indent ``pad``.

    An all-int list is written with one join.  Any other value, and any
    empty container, goes to ``json.dumps`` with its newlines indented by
    ``pad``; that is exact because a JSON string holds no raw newline.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return str(value)
    if kind is float and math.isfinite(value):
        return repr(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = pad + "  "
    if kind is list and value:
        if set(map(type, value)) == {int}:
            items = map(str, value)
        else:
            items = [_render(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict and value and set(map(type, value)) == {str}:
        items = [_encode_str(k) + ": " + _render(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def records_document(manifest: dict, payload: dict) -> str:
    """``json.dumps({"manifest": ..., **payload}, indent=2) + "\\n"``, byte for byte."""
    return _render({"manifest": manifest, **payload}, "") + "\n"


def csv_document(manifest: dict, headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for line in _manifest_comment_lines(manifest):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def table_document(manifest: dict, headers: list[str], rows: list[list]) -> str:
    lines = _manifest_comment_lines(manifest)
    return "\n".join(lines) + "\n" + format_table(headers, rows)
