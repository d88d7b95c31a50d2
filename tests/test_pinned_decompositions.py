"""Exact decompositions of the catalog, pinned against a committed file.

``data/catalog_decompositions.json`` holds, for every catalog entry at
trunc 12, 24 and 36, ``model_to_dict(formal_decompose(germ))`` and the
Newton-polygon slopes.  Every value is an integer or a rational, so the
file does not depend on the platform.  It pins each coefficient of φ
together with its truncation (the ``trunc`` printed in reports).

Regenerate it only when a decomposition is meant to change:

    PYTHONPATH=src python tests/test_pinned_decompositions.py
"""

import json
from pathlib import Path

import pytest

from connexion_lab import catalog
from connexion_lab.formal import formal_decompose, newton_polygon
from connexion_lab.model import model_to_dict

DATA = Path(__file__).parent / "data" / "catalog_decompositions.json"
TRUNCS = (12, 24, 36)


def snapshot(name: str, trunc: int) -> dict:
    germ = catalog.CATALOG[name].germ(trunc)
    slopes = newton_polygon(germ).slopes
    return {"model": model_to_dict(formal_decompose(germ)),
            "slopes": [[s.numerator, s.denominator, m] for s, m in slopes]}


def _pinned() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("trunc", TRUNCS)
@pytest.mark.parametrize("name", catalog.names())
def test_decomposition_matches_pinned(name, trunc):
    assert snapshot(name, trunc) == _pinned()[name][str(trunc)]


def test_pinned_file_covers_the_catalog():
    assert sorted(_pinned()) == sorted(catalog.names())


if __name__ == "__main__":
    doc = {name: {str(t): snapshot(name, t) for t in TRUNCS}
           for name in catalog.names()}
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
