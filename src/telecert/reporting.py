"""Result documents: run manifests plus table, CSV, and JSON renderings.

Every document written to disk embeds the manifest of the command that
produced it.  Numbers are rendered with shortest round-trip precision so
structured output carries full double precision.
"""

from __future__ import annotations

import csv
import io
import json
import platform
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import simulator
from ._version import __version__

FORMATS = ("table", "records", "csv")


@dataclass(frozen=True)
class RunManifest:
    """What produced a document.

    Seeded numbers depend on the sampler and on numpy's bit generator,
    whose streams numpy does not promise to keep across versions (NEP 19),
    so the manifest names both along with the Python and numpy versions
    and the platform.
    """

    command: str
    parameters: dict
    artifact_version: str
    seed: int | None
    timestamp: str
    python: str
    numpy: str
    platform: str
    bit_generator: str
    sampler: str


def make_manifest(
    command: str,
    parameters: dict,
    seed: int | None = None,
    sampler: str = simulator.SAMPLER,
) -> RunManifest:
    """Manifest of one command; ``sampler`` names what drew its seeded numbers."""
    return RunManifest(
        command=command,
        parameters=parameters,
        artifact_version=__version__,
        seed=seed,
        timestamp=datetime.now(timezone.utc).isoformat(),
        python=platform.python_version(),
        numpy=np.__version__,
        platform=platform.platform(),
        bit_generator=type(simulator.stream(0).bit_generator).__name__,
        sampler=sampler,
    )


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


def _manifest_comment_lines(manifest: RunManifest) -> list[str]:
    lines = [
        f"# command: {manifest.command}",
        f"# artifact_version: {manifest.artifact_version}",
        f"# seed: {'' if manifest.seed is None else manifest.seed}",
        f"# timestamp: {manifest.timestamp}",
        f"# python: {manifest.python}",
        f"# numpy: {manifest.numpy}",
        f"# platform: {manifest.platform}",
        f"# bit_generator: {manifest.bit_generator}",
        f"# sampler: {manifest.sampler}",
    ]
    for key, value in manifest.parameters.items():
        lines.append(f"# parameter {key}: {fmt(value)}")
    return lines


def records_document(manifest: RunManifest, payload: dict) -> str:
    return json.dumps({"manifest": asdict(manifest), **payload}, indent=2) + "\n"


def csv_document(manifest: RunManifest, headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for line in _manifest_comment_lines(manifest):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def table_document(manifest: RunManifest, headers: list[str], rows: list[list]) -> str:
    lines = _manifest_comment_lines(manifest)
    return "\n".join(lines) + "\n" + format_table(headers, rows)
