"""The one on-disk format of every artifact.

CSV: the header line as given, then one line per row with each value
written as ``format(float(v), ".17g")`` (round-trips every double) and an
empty field for None.  JSON: ``indent=2, sort_keys=True``.  Identical values
give identical bytes, which is what the report's sha256 manifest relies on.
"""
from __future__ import annotations

import json


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(["" if v is None else format(float(v), ".17g")
                               for v in row]) + "\n")


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
