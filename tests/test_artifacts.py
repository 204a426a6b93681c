import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from blowup_lab import ExperimentConfig, run
from blowup_lab.artifacts import write_csv, write_grid_csv, write_json

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_csv_golden_bytes(tmp_path):
    write_csv(tmp_path / "t.csv", "a,b,c,d",
              [(0.1, np.float64(1.0 / 3.0), 7, None), (1e300, -0.0, np.int64(2), 1.5)])
    assert (tmp_path / "t.csv").read_bytes() == (
        b"a,b,c,d\n"
        b"0.10000000000000001,0.33333333333333331,7,\n"
        b"1.0000000000000001e+300,-0,2,1.5\n")


def test_grid_csv_equals_the_meshgrid_rows(tmp_path):
    x, y = np.linspace(-1.0, 1.0, 3), np.array([-0.0, 1.0 / 3.0, 0.5, 1e300])
    values = np.array([[1.0, -0.0, 1e300, 1.0 / 3.0],
                       [0.1, 2.0, -1e-300, 7.0],
                       [np.inf, -2.5, 0.0, 1.0 / 3.0]])
    X, Y = np.meshgrid(x, y, indexing="ij")
    write_csv(tmp_path / "rows.csv", "x,y,u", zip(X.ravel(), Y.ravel(), values.ravel()))
    write_grid_csv(tmp_path / "grid.csv", "x,y,u", (x, y), values)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert b"\n-1,-0,1\n" in (tmp_path / "grid.csv").read_bytes()


def test_json_golden_bytes(tmp_path):
    write_json(tmp_path / "t.json", {"b": [1, 0.1, None], "a": {"z": True, "y": "s"}})
    assert (tmp_path / "t.json").read_bytes() == (
        b'{\n  "a": {\n    "y": "s",\n    "z": true\n  },\n'
        b'  "b": [\n    1,\n    0.1,\n    null\n  ]\n}')


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_manifest_lists_and_hashes_every_artifact(path, tmp_path):
    rep = run(ExperimentConfig.from_file(path), tmp_path)
    written = {p.name for p in tmp_path.iterdir()} - {"report.json", "summary.txt"}
    assert written == {f["path"] for f in rep.files}
    assert len(rep.files) == len(written)
    for f in rep.files:
        assert hashlib.sha256((tmp_path / f["path"]).read_bytes()).hexdigest() == f["sha256"]
    assert json.loads((tmp_path / "report.json").read_text())["files"] == rep.files
