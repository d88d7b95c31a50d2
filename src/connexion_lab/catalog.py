"""Built-in example connections used by the CLI and the test-suite.

Each entry carries a matrix germ, optionally the elementary normal form
it should decompose to, optional rank-1 weight data for the L² lab, and
optional Stokes gluing data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ParseError
from .metric import StokesGluingData
from .model import (ConnectionGerm, ElementaryModel, RegularBlockData,
                    assemble_matrix)
from .series import CQ, DEFAULT_BUDGET, PuiseuxSeries


def _mono(ram: int, n: int, re, im=0, trunc: int = DEFAULT_BUDGET) -> PuiseuxSeries:
    return PuiseuxSeries(ram, {n: CQ.of(re, im)}, trunc)


def _zero(ram: int = 1, trunc: int = DEFAULT_BUDGET) -> PuiseuxSeries:
    return PuiseuxSeries(ram, {}, trunc)


def _reg(alpha, partition) -> RegularBlockData:
    return RegularBlockData(CQ.of(alpha) if not isinstance(alpha, CQ) else alpha,
                            tuple(partition))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    rank: int
    germ: Callable[[int], ConnectionGerm]
    model: Optional[Callable[[int], ElementaryModel]] = None
    l2: Optional[dict] = None
    gluing: Optional[Callable[[], StokesGluingData]] = None


def _trivial_model(trunc: int) -> ElementaryModel:
    return ElementaryModel(1, ((_zero(1, trunc), (_reg(0, (1,)),)),))


def _kummer_model(trunc: int) -> ElementaryModel:
    return ElementaryModel(1, ((_zero(1, trunc), (_reg((1, 2), (1,)),)),))


def _einvz_model(trunc: int) -> ElementaryModel:
    return ElementaryModel(1, ((_mono(1, -1, 1, trunc=trunc), (_reg(0, (1,)),)),))


def _jordan2_model(trunc: int) -> ElementaryModel:
    return ElementaryModel(1, ((_zero(1, trunc), (_reg(0, (2,)),)),))


def _mixed_model(trunc: int) -> ElementaryModel:
    return ElementaryModel(1, (
        (_mono(1, -1, -1, trunc=trunc), (_reg((1, 2), (1,)),)),
        (_zero(1, trunc), (_reg(0, (1,)),)),
    ))


def _stokes_model(trunc: int) -> ElementaryModel:
    return ElementaryModel(1, (
        (_mono(1, -1, -1, trunc=trunc), (_reg(0, (1,)),)),
        (_mono(1, -1, 1, trunc=trunc), (_reg(0, (1,)),)),
    ))


def _airy_germ(trunc: int) -> ConnectionGerm:
    return ConnectionGerm.from_matrix([
        [_zero(1, trunc), _mono(1, 0, 1, trunc=trunc)],
        [_mono(1, -1, 1, trunc=trunc), _zero(1, trunc)],
    ])


def _stokes_gluing() -> StokesGluingData:
    # two arcs covering the circle; frame order is (φ = −1/z, φ = +1/z),
    # so the overlap near θ = π carries a constant in the (1,0) slot
    # (Re(φ_1 − φ_0) = 2cosθ/r < 0 there) and the wrap-around overlap
    # near θ ≈ 5.8 the reverse slot
    return StokesGluingData(
        intervals=((-0.6, 3.7), (2.9, 5.9)),
        constants=({(1, 0): 1.0}, {(0, 1): 0.5}),
    )


def _from_model(build: Callable[[int], ElementaryModel]):
    def germ(trunc: int) -> ConnectionGerm:
        return assemble_matrix(build(trunc), trunc=trunc)
    return germ


CATALOG: dict[str, CatalogEntry] = {}

for _entry in (
    CatalogEntry(
        name="trivial",
        description="rank-1 trivial connection (regular, alpha = 0)",
        rank=1,
        germ=_from_model(_trivial_model),
        model=_trivial_model,
        l2={"beta": 0.0, "kappa": 0, "a_ell": 0.0, "ell": 1,
            "sector": (0.2, 2.1), "inner": (0.6, 1.7)},
    ),
    CatalogEntry(
        name="kummer-half",
        description="rank-1 regular germ with residue exponent alpha = 1/2",
        rank=1,
        germ=_from_model(_kummer_model),
        model=_kummer_model,
        l2={"beta": 0.5, "kappa": 0, "a_ell": 0.0, "ell": 1,
            "sector": (0.2, 2.1), "inner": (0.6, 1.7)},
    ),
    CatalogEntry(
        name="e-inverse-z",
        description="rank-1 irregular germ E^{1/z} (slope 1)",
        rank=1,
        germ=_from_model(_einvz_model),
        model=_einvz_model,
        l2={"beta": 0.0, "kappa": 0, "a_ell": 1.0, "ell": 1,
            "sector": (0.3, 1.2), "inner": (0.5, 1.0)},
    ),
    CatalogEntry(
        name="jordan2-regular",
        description="rank-2 regular germ with a single 2x2 Jordan block",
        rank=2,
        germ=_from_model(_jordan2_model),
        model=_jordan2_model,
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
        germ=_from_model(_mixed_model),
        model=_mixed_model,
        l2={"beta": 0.0, "kappa": 1, "a_ell": -1.0, "ell": 1,
            "sector": (2.0, 2.9), "inner": (2.25, 2.65)},
    ),
    CatalogEntry(
        name="rank2-stokes",
        description="rank-2 model with phi = +1/z and -1/z plus gluing data",
        rank=2,
        germ=_from_model(_stokes_model),
        model=_stokes_model,
        gluing=_stokes_gluing,
    ),
):
    CATALOG[_entry.name] = _entry


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
