"""CLI report bytes of the catalog, pinned by sha256 against a committed file.

``data/catalog_reports.json`` holds, for every catalog entry, the sha256
of what these runs write:

- ``analyze NAME --trunc 24 --out F``: the JSON report and ``.metric.csv``;
- ``l2verify NAME --grid coarse`` and ``--grid default``: the exit code
  and stdout, and with ``--out F`` the ``.psi.csv`` and ``.vanishing.csv``
  tables (the report file must equal stdout).  The ``default`` keys carry
  ``l2verify.default.`` in front.

The float results follow numpy's and the CPU's rounding, so the file
records the numpy version and the machine it was made on, and the tests
skip anywhere else.  Regenerate it only when a report is meant to change:

    PYTHONPATH=src python tests/test_reports_pinned.py

which prints each (entry, key) whose digest it changed.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from connexion_lab import catalog, cli

DATA = Path(__file__).parent / "data" / "catalog_reports.json"
PINNED = json.loads(DATA.read_text())

pytestmark = pytest.mark.skipif(
    (PINNED["numpy"], PINNED["machine"]) != (np.__version__, platform.machine()),
    reason=f"digests were made with numpy {PINNED['numpy']} on "
           f"{PINNED['machine']}, not numpy {np.__version__} on "
           f"{platform.machine()}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue().encode()


def snapshot(name: str, tmp: Path) -> dict:
    report = tmp / f"{name}.json"
    _run("analyze", name, "--trunc", "24", "--out", str(report))
    doc = {"analyze": _sha(report.read_bytes()),
           "analyze.metric.csv": _sha((tmp / f"{name}.metric.csv").read_bytes())}
    for grid, key in (("coarse", "l2verify"), ("default", "l2verify.default")):
        rc, stdout = _run("l2verify", name, "--grid", grid)
        doc.update({f"{key}.rc": rc, f"{key}.stdout": _sha(stdout)})
        report = tmp / f"{name}.{grid}.json"
        _run("l2verify", name, "--grid", grid, "--out", str(report))
        if report.exists():
            assert report.read_bytes() == stdout
            for table in ("psi.csv", "vanishing.csv"):
                doc[f"{key}.{table}"] = _sha(
                    (tmp / f"{name}.{grid}.{table}").read_bytes())
    return doc


@pytest.mark.parametrize("name", catalog.names())
def test_reports_match_pinned(name, tmp_path):
    assert snapshot(name, tmp_path) == PINNED["reports"][name]


def test_pinned_file_covers_the_catalog():
    assert sorted(PINNED["reports"]) == sorted(catalog.names())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: snapshot(name, Path(tmp)) for name in catalog.names()}
    for name, doc in reports.items():
        old = PINNED["reports"].get(name, {})
        for key in sorted(doc.keys() | old.keys()):
            if doc.get(key) != old.get(key):
                print(name, key)
    DATA.write_text(json.dumps({"numpy": np.__version__,
                                "machine": platform.machine(),
                                "reports": reports}, indent=1, sort_keys=True) + "\n")
