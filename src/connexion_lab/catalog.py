"""Built-in example connections used by the CLI and the test-suite.

Each entry carries a matrix germ, optionally the elementary normal form
it should decompose to, optional rank-1 weight data for the L² lab, and
optional Stokes gluing data.  An entry with a model takes its germ from
that model; only the Airy germ is written out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ParseError
from .metric import StokesGluingData
from .model import (ConnectionGerm, ElementaryModel, RegularBlockData,
                    assemble_matrix)
from .series import CQ, CQ_ONE, PuiseuxSeries


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    rank: int
    germ: Optional[Callable[[int], ConnectionGerm]] = None
    model: Optional[Callable[[int], ElementaryModel]] = None
    l2: Optional[dict] = None
    gluing: Optional[Callable[[], StokesGluingData]] = None

    def __post_init__(self):
        if self.germ is None:
            model = self.model
            object.__setattr__(self, "germ", lambda trunc: assemble_matrix(
                model(trunc), trunc=trunc))


def _model(*blocks) -> Callable[[int], ElementaryModel]:
    """The unramified model ⊕ E^φ ⊗ R_φ at a truncation, one block per
    literal (φ coefficients {n: c}, ((α, partition), …))."""
    def build(trunc: int) -> ElementaryModel:
        return ElementaryModel(1, tuple(
            (PuiseuxSeries(1, {n: CQ.of(c) for n, c in phi.items()}, trunc),
             tuple(RegularBlockData(CQ.of(alpha), partition)
                   for alpha, partition in regs))
            for phi, regs in blocks))
    return build


def _airy_germ(trunc: int) -> ConnectionGerm:
    zero, one, inv_z = (PuiseuxSeries(1, terms, trunc)
                        for terms in ({}, {0: CQ_ONE}, {-1: CQ_ONE}))
    return ConnectionGerm.from_matrix([[zero, one], [inv_z, zero]])


def _stokes_gluing() -> StokesGluingData:
    # two arcs covering the circle; frame order is (φ = −1/z, φ = +1/z),
    # so the overlap near θ = π carries a constant in the (1,0) slot
    # (Re(φ_1 − φ_0) = 2cosθ/r < 0 there) and the wrap-around overlap
    # near θ ≈ 5.8 the reverse slot
    return StokesGluingData(
        intervals=((-0.6, 3.7), (2.9, 5.9)),
        constants=({(1, 0): 1.0}, {(0, 1): 0.5}),
    )


CATALOG: dict[str, CatalogEntry] = {entry.name: entry for entry in (
    CatalogEntry(
        name="trivial",
        description="rank-1 trivial connection (regular, alpha = 0)",
        rank=1,
        model=_model(({}, [(0, (1,))])),
        l2={"beta": 0.0, "kappa": 0, "a_ell": 0.0, "ell": 1,
            "sector": (0.2, 2.1), "inner": (0.6, 1.7)},
    ),
    CatalogEntry(
        name="kummer-half",
        description="rank-1 regular germ with residue exponent alpha = 1/2",
        rank=1,
        model=_model(({}, [((1, 2), (1,))])),
        l2={"beta": 0.5, "kappa": 0, "a_ell": 0.0, "ell": 1,
            "sector": (0.2, 2.1), "inner": (0.6, 1.7)},
    ),
    CatalogEntry(
        name="e-inverse-z",
        description="rank-1 irregular germ E^{1/z} (slope 1)",
        rank=1,
        model=_model(({-1: 1}, [(0, (1,))])),
        l2={"beta": 0.0, "kappa": 0, "a_ell": 1.0, "ell": 1,
            "sector": (0.3, 1.2), "inner": (0.5, 1.0)},
    ),
    CatalogEntry(
        name="jordan2-regular",
        description="rank-2 regular germ with a single 2x2 Jordan block",
        rank=2,
        model=_model(({}, [(0, (2,))])),
    ),
    CatalogEntry(
        name="airy",
        description="rank-2 Airy germ [[0, 1], [1/z, 0]] (slope 1/2)",
        rank=2,
        germ=_airy_germ,
    ),
    CatalogEntry(
        name="mixed-reg-irr",
        description="rank-2 direct sum of a slope-1 line and a regular line",
        rank=2,
        model=_model(({-1: -1}, [((1, 2), (1,))]), ({}, [(0, (1,))])),
        l2={"beta": 0.0, "kappa": 1, "a_ell": -1.0, "ell": 1,
            "sector": (2.0, 2.9), "inner": (2.25, 2.65)},
    ),
    CatalogEntry(
        name="rank2-stokes",
        description="rank-2 model with phi = +1/z and -1/z plus gluing data",
        rank=2,
        model=_model(({-1: -1}, [(0, (1,))]), ({-1: 1}, [(0, (1,))])),
        gluing=_stokes_gluing,
    ),
)}


def names() -> list[str]:
    return list(CATALOG.keys())


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        close = [n for n in CATALOG
                 if n.startswith(name[:3]) or name in n or n in name]
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ParseError(f"unknown catalog entry {name!r}{hint}") from None


def entries() -> list[dict]:
    return [{"name": e.name, "rank": e.rank, "description": e.description}
            for e in CATALOG.values()]
