"""The one on-disk format of every artifact.

CSV: the header line as given, then one line per row with each value
written as ``format(float(v), ".17g")`` (round-trips every double) and an
empty field for None; ``write_grid_csv`` writes the same bytes for the
(x, y, u) rows of a tensor grid, formatting each x- and y-node once.  JSON:
``indent=2, sort_keys=True``.  Identical values give identical bytes, which
is what the report's sha256 manifest relies on.
"""
from __future__ import annotations

import json


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(["" if v is None else format(float(v), ".17g")
                               for v in row]) + "\n")


def write_grid_csv(path, header, axes, values) -> None:
    """``write_csv`` of the rows (x[i], y[j], values[i, j]) in ij order."""
    x, y = ([format(v, ".17g") + "," for v in axis.tolist()] for axis in axes)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for xi, row in zip(x, values):
            fh.writelines([xi + yj + format(v, ".17g") + "\n" for yj, v in zip(y, row.tolist())])


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
