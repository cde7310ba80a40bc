"""The on-disk conventions every writer shares, declared once.

JSON is dumped with sorted keys, indent 2 and a trailing newline; CSV rows
end in "\\n"; each writer makes its file's parent directories. This module
imports nothing from loudclass, so every other module may use it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path


def dump_json(payload, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def write_csv_rows(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV. ``csv`` writes a float, numpy's
    float64 included, as its shortest round-trip repr, and an int or a bool
    as ``str`` does; no row holds None, which it would write as ''."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
