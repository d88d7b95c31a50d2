"""Degrees, local/global de Rham dimensions, Lefschetz-type checks.

The local minimal-extension dimensions use the closed form
(h0, h1) = (dim ker(T^reg − Id), Irr); the brute-force window oracle
local_full_dims validates it through χ_min = χ_full + dim ker(T^reg−Id).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .errors import (DomainError, InconsistentResidues, NonIntegralIrregularity,
                     UnstableDimensions)
from .model import ConnectionGerm, ElementaryModel, smat_min_val
from .series import CQ


@dataclass(frozen=True)
class SurfaceSpec:
    genus: int
    punctures: tuple[tuple[str, ElementaryModel], ...]
    rank: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        for label, m in self.punctures:
            if m.rank != self.rank:
                raise ValueError(f"puncture {label!r} has rank {m.rank}, "
                                 f"expected {self.rank}")


@dataclass(frozen=True)
class MonodromyRep:
    genus: int
    handles: tuple[tuple[np.ndarray, np.ndarray], ...]  # (A_i, B_i)
    punctures: tuple[np.ndarray, ...]                   # T_j

    @property
    def rank(self) -> int:
        if self.handles:
            return self.handles[0][0].shape[0]
        return self.punctures[0].shape[0]

    def relation_defect(self) -> float:
        d = self.rank
        acc = np.eye(d, dtype=complex)
        for a, b in self.handles:
            acc = acc @ a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        for t in self.punctures:
            acc = acc @ t
        return float(np.max(np.abs(acc - np.eye(d))))

    def generators(self):
        for a, b in self.handles:
            yield a
            yield b
        yield from self.punctures


def degree_check(s: SurfaceSpec):
    """(deg L, metric degree 0) for a rank-1 surface spec, exact."""
    if s.rank != 1:
        raise DomainError("degree_check is a rank-1 computation")
    total = Fraction(0)
    for _, m in s.punctures:
        for _, regs in m.blocks:
            for reg in regs:
                total += reg.alpha.re + Fraction(reg.lattice_shift, m.ram)
    if total.denominator != 1:
        raise InconsistentResidues(f"residue sum {total} is not an integer")
    return int(total), 0


def model_irregularity(m: ElementaryModel) -> int:
    """Irr = Σ rank(block)·(pole order of φ in the base variable)."""
    total = sum((rk * pole for rk, pole in zip(m.block_ranks(), m.pole_orders_z())),
                Fraction(0))
    if total.denominator != 1:
        raise NonIntegralIrregularity(f"model irregularity {total} not integral")
    return int(total)


def local_min_dims(m: ElementaryModel) -> tuple[int, int]:
    """(h0, h1) of the minimal extension: (dim ker(T^reg − Id), Irr)."""
    h0 = 0
    for phi, regs in m.blocks:
        if phi.is_zero or phi.valuation() is None:
            for reg in regs:
                h0 += reg.unit_monodromy_kernel_dim()
    return h0, model_irregularity(m)


def _window_dims(germ: ConnectionGerm, b: int) -> tuple[int, int]:
    d, q = germ.rank, germ.ram
    # the codomain window is matched to the image lattice row by row:
    # row i starts at the lowest exponent the poles of row i reach, and
    # stops at b, since the truncated domain hits the exponents above b
    # only in part and those rows would count as cokernel
    cod_index: dict[tuple[int, int], int] = {}
    rows = 0
    for i in range(d):
        lo_i = min([0] + [s.valuation() for s in germ.matrix[i]
                          if s.valuation() is not None])
        for n in range(-b + lo_i, b + 1):
            cod_index[(i, n)] = rows
            rows += 1
    dom_exps = list(range(-b, b + 1))
    cols = len(dom_exps) * d
    mat = exactla.zeros(rows, cols)
    for kn, n in enumerate(dom_exps):
        for i in range(d):
            col = kn * d + i
            # z∂ term
            r = cod_index[(i, n)]
            mat[r][col] = mat[r][col] + CQ.of(Fraction(n, q))
            # A·f term
            for ii in range(d):
                s = germ.matrix[ii][i]
                for exp, c in s.terms.items():
                    key = (ii, n + exp)
                    if key in cod_index:
                        r2 = cod_index[key]
                        mat[r2][col] = mat[r2][col] + c
    red_rank = exactla.rank(mat)
    return cols - red_rank, rows - red_rank


def _default_budget(germ: ConnectionGerm) -> int:
    mv = smat_min_val(germ.matrix) or 0
    return 2 * max(0, -mv) * germ.rank + 10


def local_full_dims(germ: ConnectionGerm, budget: int | None = None):
    """Brute-force (h0, h1) of f ↦ z∂f + A·f on a truncated Laurent window.

    The domain window holds the exponents −budget … budget, with budget
    ≥ 0 (default 2·pole·rank + 10). The answer must be stable when the
    window grows by 5 exponents.
    """
    if budget is None:
        budget = _default_budget(germ)
    elif budget < 0:
        raise DomainError(f"window budget must be nonnegative, got {budget}")
    first = _window_dims(germ, budget)
    second = _window_dims(germ, budget + 5)
    if first != second:
        raise UnstableDimensions(
            f"window {budget} gives {first} but window {budget + 5} "
            f"gives {second}")
    return first


def global_euler(s: SurfaceSpec) -> int:
    """χ = (2 − 2g − n)·d + Σ_x χ_x^min."""
    n = len(s.punctures)
    return (2 - 2 * s.genus - n) * s.rank + sum(
        h0 - h1 for h0, h1 in (local_min_dims(m) for _, m in s.punctures))


def lefschetz_dims(rep: MonodromyRep):
    """(h0, h2): common invariants and coinvariants of the representation."""
    if rep.relation_defect() > 1e-10:
        raise DomainError("surface-group relation violated")
    d = rep.rank
    gens = list(rep.generators())
    stacked_v = np.vstack([g - np.eye(d) for g in gens])
    stacked_h = np.hstack([g - np.eye(d) for g in gens])
    h0 = d - np.linalg.matrix_rank(stacked_v, tol=1e-8)
    h2 = d - np.linalg.matrix_rank(stacked_h, tol=1e-8)
    return int(h0), int(h2)


def index_report(s: SurfaceSpec, rep: MonodromyRep | None = None) -> dict:
    per = []
    for label, m in s.punctures:
        h0, h1 = local_min_dims(m)
        per.append({"puncture": label, "irr": model_irregularity(m),
                    "h0_min": h0, "h1_min": h1})
    chi = global_euler(s)
    out = {"punctures": per, "global": {"chi": chi}}
    if rep is not None:
        h0, h2 = lefschetz_dims(rep)
        out["global"].update({
            "h0": h0, "h2": h2, "h1": h0 + h2 - chi,
            "lefschetz_ok": bool(h0 == h2),
        })
    return out
