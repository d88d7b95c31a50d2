"""Formal reduction of connection germs at desk scale.

Newton polygon and irregularity from the characteristic polynomial,
residue normal form for logarithmic germs, spectral splitting, shearing
and ramified pullback, all combined in formal_decompose which returns an
elementary model ⊕ E^φ ⊗ R_φ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

from . import exactla
from .errors import (DomainError, InsufficientTruncation, NilpotentLeading,
                     NonIntegralIrregularity, NotLogarithmic,
                     RamificationGuardExceeded, ConnexionLabError)
from .model import (ConnectionGerm, ElementaryModel, RegularBlockData, SMatrix,
                    ramified_pullback, smat_coeff, smat_from_const,
                    smat_min_trunc, smat_min_val, smat_mul,
                    twist_by_exponential, unipotent_gauge)
from .series import (CQ, CQ_ONE, CQ_ZERO, PuiseuxSeries, ps_add, ps_eq_to_trunc,
                     ps_mul, ps_neg)

RANK_GUARD = 4
RAM_GUARD = 24


# -- Newton polygon --------------------------------------------------------

def _sdet(m: SMatrix) -> PuiseuxSeries:
    """Determinant of a small series matrix by Leibniz expansion."""
    d = len(m)
    ram = m[0][0].ram
    trunc = smat_min_trunc(m)
    acc = PuiseuxSeries(ram, {}, trunc)
    for perm in itertools.permutations(range(d)):
        sign = 1
        seen = list(perm)
        for i in range(d):
            for j in range(i + 1, d):
                if seen[i] > seen[j]:
                    sign = -sign
        term = m[0][perm[0]]
        for i in range(1, d):
            term = ps_mul(term, m[i][perm[i]])
        acc = ps_add(acc, term if sign > 0 else ps_neg(term))
    return acc


def _principal_minor_sum(m: SMatrix, k: int) -> PuiseuxSeries:
    d = len(m)
    ram = m[0][0].ram
    trunc = smat_min_trunc(m)
    acc = PuiseuxSeries(ram, {}, trunc)
    for idx in itertools.combinations(range(d), k):
        sub = [[m[i][j] for j in idx] for i in idx]
        acc = ps_add(acc, _sdet(sub))
    return acc


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull data of a germ; slopes are in base (z) units."""

    rank: int
    points: tuple[tuple[int, Fraction], ...]
    vertices: tuple[tuple[int, Fraction], ...]
    slopes: tuple[tuple[Fraction, int], ...]  # (slope, multiplicity)

    @property
    def top_slope(self) -> Fraction:
        return self.slopes[-1][0] if self.slopes else Fraction(0)

    @property
    def irregularity(self) -> Fraction:
        return sum((s * m for s, m in self.slopes), Fraction(0))


def _cap_entries(m: SMatrix, cap: int) -> SMatrix:
    """Drop the terms above exponent ``cap`` and lower each trunc to it."""
    return [[s if s.trunc <= cap else
             PuiseuxSeries(s.ram, {n: c for n, c in s.terms.items() if n <= cap},
                           cap)
             for s in row] for row in m]


def newton_polygon(germ: ConnectionGerm) -> NewtonPolygon:
    """Newton polygon from the principal-minor sums e_k of the matrix.

    Only the part of e_k below exponent 0 is read.  With pole order p, a
    product of k entries gets a negative exponent only from entry terms at
    exponents below (k − 1)·p, so e_k is formed from entries capped there
    (``_cap_entries``).  A capped product either keeps its truncation or
    lands at one ≥ 0, so every coefficient below 0, and whether the
    truncation is negative, is the same as without the cap.
    """
    d, q = germ.rank, germ.ram
    p = max(0, -(smat_min_val(germ.matrix) or 0))
    pts: list[tuple[int, Fraction]] = [(d, Fraction(0))]
    for k in range(1, d + 1):
        e_k = _principal_minor_sum(_cap_entries(germ.matrix, (k - 1) * p), k)
        v = e_k.valuation()
        if v is None:
            if e_k.trunc < 0:
                raise InsufficientTruncation(
                    f"cannot certify valuation of a degree-{d - k} "
                    "characteristic coefficient")
            h = Fraction(0)
        else:
            h = min(Fraction(v, q), Fraction(0))
        pts.append((d - k, h))
    pts.sort()
    # lower convex hull, left to right
    hull: list[tuple[int, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    slopes: list[tuple[Fraction, int]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = max(Fraction(0), Fraction(y2 - y1, x2 - x1))
        run = x2 - x1
        if slopes and slopes[-1][0] == s:
            slopes[-1] = (s, slopes[-1][1] + run)
        else:
            slopes.append((s, run))
    return NewtonPolygon(d, tuple(pts), tuple(hull), tuple(slopes))


def irregularity(germ: ConnectionGerm) -> Fraction:
    irr = newton_polygon(germ).irregularity
    if germ.ram == 1 and irr.denominator != 1:
        raise NonIntegralIrregularity(f"irregularity {irr} is not an integer")
    return irr


# -- helpers over constant matrices ----------------------------------------

def _extend_to_basis(vectors: list[list[CQ]], d: int) -> list[list[CQ]]:
    """Standard vectors completing the given independent set to a basis."""
    added: list[list[CQ]] = []
    current = [list(v) for v in vectors]
    for i in range(d):
        e = [CQ_ONE if j == i else CQ_ZERO for j in range(d)]
        if exactla.rank(_cols(current + [e], d)) > len(current):
            current.append(e)
            added.append(e)
        if len(current) == d:
            break
    return added


def _cols(vectors: list[list[CQ]], d: int) -> exactla.Matrix:
    return [[vectors[j][i] for j in range(len(vectors))] for i in range(d)]


def _const_gauge(a: SMatrix, p: exactla.Matrix) -> SMatrix:
    """A ↦ P⁻¹·A·P for a constant invertible P (no derivative term)."""
    ram = a[0][0].ram
    trunc = smat_min_trunc(a)
    ps = smat_from_const(p, ram, trunc)
    pinv = smat_from_const(exactla.inverse(p), ram, trunc)
    return smat_mul(pinv, smat_mul(a, ps))


def _diag_t_gauge(a: SMatrix, weights: list[int], q: int) -> SMatrix:
    """Gauge by D = diag(t^{w_i}): scale entries, shift the diagonal."""
    out: SMatrix = []
    for i, row in enumerate(a):
        new_row = []
        for j, s in enumerate(row):
            shift = weights[j] - weights[i]
            if shift:
                s = PuiseuxSeries(s.ram, {n + shift: c for n, c in s.terms.items()},
                                  s.trunc + shift)
            if i == j and weights[i]:
                s = ps_add(s, PuiseuxSeries(
                    s.ram, {0: CQ.of(Fraction(-weights[i], q))}, s.trunc))
            new_row.append(s)
        out.append(new_row)
    return out


def _sylvester_solve(left: exactla.Matrix, right: exactla.Matrix,
                     rhs: exactla.Matrix) -> exactla.Matrix | None:
    """Solve left·X − X·right = rhs for X (exact, vectorized)."""
    p, n = len(left), len(right)
    big = exactla.zeros(p * n, p * n)
    vec_rhs = []
    for i in range(p):
        for j in range(n):
            r = i * n + j
            vec_rhs.append(rhs[i][j])
            for k in range(p):
                big[r][k * n + j] = big[r][k * n + j] + left[i][k]
            for k in range(n):
                big[r][i * n + k] = big[r][i * n + k] - right[k][j]
    x = exactla.solve(big, vec_rhs)
    if x is None:
        return None
    return [[x[i * n + j] for j in range(n)] for i in range(p)]


# -- residue normal form ----------------------------------------------------

def _eigen_groups(a0: exactla.Matrix):
    """(eigenvalue, generalized eigenspace basis) pairs, exact."""
    return [(lam, exactla.generalized_eigenspace(a0, lam))
            for lam, _ in exactla.eigen_data(a0)]


def residue_normal_form(germ: ConnectionGerm) -> tuple[RegularBlockData, ...]:
    """Regular data of a logarithmic germ: α (Re ∈ [0,1/q)) and partitions.

    Resonant residue eigenvalues (differences in (1/q)·Z) are merged by
    unit shears.  After that the residue A₀ alone fixes the answer: no two
    eigenvalues differ by a positive multiple of 1/q, so every Sylvester
    operator X ↦ A₀X − XA₀ − (m/q)·X with m ≥ 1 is invertible and the tail
    A₁, A₂, … can be gauged away order by order by I + X·tᵐ, and on a
    logarithmic germ such a gauge leaves A₀ unchanged.  So the tail is
    never computed; the eigenvalues and Jordan partitions are read off A₀.
    """
    d, q = germ.rank, germ.ram
    a = germ.matrix
    mv = smat_min_val(a)
    if mv is not None and mv < 0:
        raise NotLogarithmic(f"pole of order {-mv} in the ramified variable")
    if smat_min_trunc(a) < 1:
        raise InsufficientTruncation("need at least one positive order")

    for _ in range(256):
        a0 = smat_coeff(a, 0)
        groups = _eigen_groups(a0)
        pair = None
        for lam, _ in groups:
            for mu, _ in groups:
                diff = (lam - mu).scale(Fraction(q))
                if diff.im == 0 and diff.re.denominator == 1 and diff.re > 0:
                    pair = (lam, mu)
                    break
            if pair:
                break
        if pair is None:
            break
        top = pair[0]
        ordered: list[list[CQ]] = []
        weights: list[int] = []
        for lam, basis in groups:
            for v in basis:
                ordered.append(v)
                weights.append(1 if lam == top else 0)
        p = _cols(ordered, d)
        a = _const_gauge(a, p)
        a = _diag_t_gauge(a, weights, q)
    else:
        raise ConnexionLabError("resonance clearing did not terminate")

    blocks = []
    for lam, basis in groups:
        b = _cols(basis, d)
        shifted = [[a0[i][j] - (lam if i == j else CQ_ZERO)
                    for j in range(d)] for i in range(d)]
        image = exactla.mat_mul(shifted, b)
        n_coords = []
        for col in range(len(basis)):
            rhs = [image[i][col] for i in range(d)]
            sol = exactla.solve(b, rhs)
            if sol is None:
                raise ConnexionLabError("generalized eigenspace is not invariant")
            n_coords.append(sol)
        n_mat = [[n_coords[j][i] for j in range(len(basis))]
                 for i in range(len(basis))]
        partition = exactla.nilpotent_partition(n_mat)
        alpha_raw = -lam
        k = floor(alpha_raw.re * q)
        alpha = CQ(alpha_raw.re - Fraction(k, q), alpha_raw.im)
        blocks.append(RegularBlockData(alpha, tuple(partition), k))
    blocks.sort(key=lambda r: (r.alpha.re, r.alpha.im, r.partition))
    return tuple(blocks)


# -- spectral splitting ------------------------------------------------------

def split_by_spectrum(germ: ConnectionGerm) -> list[ConnectionGerm]:
    """Block-diagonalize along the spectrum of the leading coefficient.

    Requires a pole (v ≥ 1) and at least two distinct leading eigenvalues;
    the off-diagonal blocks are removed order by order, exactly, up to the
    working truncation N (the least entry truncation after the change to
    the eigenbasis).  Order n is cleared by the gauge I + X·t^{n+v}, applied
    with ``unipotent_gauge``: the coefficient recurrence
    A′ₖ = (A·G)ₖ − ((n+v)/q)·X·[k = n+v] − X·A′ₖ₋ₙ₋ᵥ, with each entry given the
    truncation that the full product G⁻¹·A·G − G⁻¹·z∂G would give it.
    """
    d, q = germ.rank, germ.ram
    a = germ.matrix
    v = -(smat_min_val(a) or 0)
    if v < 1:
        raise DomainError("spectral splitting needs an irregular germ")
    lead = smat_coeff(a, -v)
    groups = _eigen_groups(lead)
    if len(groups) < 2:
        raise DomainError("leading coefficient has a single eigenvalue")
    ordered: list[list[CQ]] = []
    spans: list[tuple[int, int]] = []
    pos = 0
    for _, basis in groups:
        ordered.extend(basis)
        spans.append((pos, pos + len(basis)))
        pos += len(basis)
    if pos != d:
        raise ConnexionLabError("generalized eigenspaces do not fill the space")
    a = _const_gauge(a, _cols(ordered, d))
    trunc = smat_min_trunc(a)
    lead_blocks = []
    lead_now = smat_coeff(a, -v)
    for lo, hi in spans:
        lead_blocks.append([[lead_now[i][j] for j in range(lo, hi)]
                            for i in range(lo, hi)])

    for order in range(-v + 1, trunc + 1):
        coef = smat_coeff(a, order)
        x_full = exactla.zeros(d, d)
        dirty = False
        for bi, (lo_i, hi_i) in enumerate(spans):
            for bj, (lo_j, hi_j) in enumerate(spans):
                if bi == bj:
                    continue
                c = [[coef[i][j] for j in range(lo_j, hi_j)]
                     for i in range(lo_i, hi_i)]
                if all(x.is_zero for row in c for x in row):
                    continue
                x = _sylvester_solve(lead_blocks[bi], lead_blocks[bj],
                                     [[-y for y in row] for row in c])
                if x is None:
                    raise ConnexionLabError("leading Sylvester block is singular")
                for i in range(hi_i - lo_i):
                    for j in range(hi_j - lo_j):
                        x_full[lo_i + i][lo_j + j] = x[i][j]
                dirty = True
        if dirty:
            a = unipotent_gauge(a, x_full, order + v, trunc)

    out = []
    for lo, hi in spans:
        sub = [[a[i][j] for j in range(lo, hi)] for i in range(lo, hi)]
        out.append(ConnectionGerm(hi - lo, q, sub))
    return out


# -- shearing ----------------------------------------------------------------

def shear_step(germ: ConnectionGerm) -> ConnectionGerm:
    """One Moser-style shear lowering weight off the leading kernel."""
    d, q = germ.rank, germ.ram
    a = germ.matrix
    v = -(smat_min_val(a) or 0)
    if v < 1:
        raise DomainError("nothing to shear: the germ is logarithmic")
    lead = smat_coeff(a, -v)
    ker = exactla.kernel(lead)
    if not ker or len(ker) == d:
        raise NilpotentLeading("leading coefficient admits no shearing kernel")
    comp = _extend_to_basis(ker, d)
    ordered = comp + ker
    weights = [1] * len(comp) + [0] * len(ker)
    a = _const_gauge(a, _cols(ordered, d))
    a = _diag_t_gauge(a, weights, q)
    return ConnectionGerm(d, q, a)


# -- full decomposition -------------------------------------------------------

def _merge_regs(regs: tuple[RegularBlockData, ...]) -> tuple[RegularBlockData, ...]:
    merged: dict[CQ, list] = {}
    for r in regs:
        key = r.alpha
        if key in merged:
            merged[key][0] = tuple(sorted(merged[key][0] + r.partition,
                                          reverse=True))
        else:
            merged[key] = [r.partition, r.lattice_shift]
    out = [RegularBlockData(alpha, parts, shift)
           for alpha, (parts, shift) in merged.items()]
    out.sort(key=lambda r: (r.alpha.re, r.alpha.im, r.partition))
    return tuple(out)


def _merge_blocks(blocks, ram: int) -> ElementaryModel:
    lifted = [(phi.lift_ram(ram), regs) for phi, regs in blocks]
    merged: list[tuple[PuiseuxSeries, tuple[RegularBlockData, ...]]] = []
    for phi, regs in lifted:
        for k, (phi_k, regs_k) in enumerate(merged):
            if ps_eq_to_trunc(phi, phi_k):
                merged[k] = (phi_k, _merge_regs(regs_k + regs))
                break
        else:
            merged.append((phi, _merge_regs(regs)))
    merged.sort(key=lambda b: (b[0].valuation() or 0,
                               tuple((n, c.re, c.im)
                                     for n, c in sorted(b[0].terms.items()))))
    return ElementaryModel(ram, tuple(merged))


def formal_decompose(germ: ConnectionGerm, max_ram: int = RAM_GUARD) -> ElementaryModel:
    """Elementary model of a germ: slopes, exponential parts, regular data."""
    if germ.rank > RANK_GUARD:
        raise DomainError(f"rank {germ.rank} exceeds the desk-scale guard "
                          f"({RANK_GUARD})")
    return _decompose(germ, max_ram)


def _decompose(germ: ConnectionGerm, max_ram: int) -> ElementaryModel:
    d = germ.rank
    q = germ.ram
    a = germ.matrix
    trunc0 = smat_min_trunc(a)
    phi_acc = PuiseuxSeries(q, {}, max(trunc0, 0))
    shear_budget = 4 * d + 8

    for _ in range(64):
        cur = ConnectionGerm(d, q, a)
        poly = newton_polygon(cur)
        s_t = poly.top_slope * q  # top slope in the ramified variable
        v = -(smat_min_val(a) or 0)

        if s_t.denominator != 1:
            r = s_t.denominator
            if q * r > max_ram:
                raise RamificationGuardExceeded(
                    f"needed ramification {q * r} exceeds the guard {max_ram}")
            sub = ramified_pullback(cur, r)
            sub_model = _decompose(sub, max_ram)
            ram_z = lcm(sub_model.ram * r, q)
            blocks = []
            for phi, regs in sub_model.blocks:
                # re-read the sub-model series relative to the base variable
                phi_z = PuiseuxSeries(phi.ram * r, dict(phi.terms), phi.trunc)
                regs_z = tuple(
                    RegularBlockData(reg.alpha.scale(Fraction(1, r)),
                                     reg.partition, reg.lattice_shift)
                    for reg in regs)
                blocks.append((ps_add(phi_z.lift_ram(ram_z),
                                      phi_acc.lift_ram(ram_z)), regs_z))
            return _merge_blocks(blocks, ram_z)

        if v > s_t:
            if shear_budget == 0:
                raise NilpotentLeading("shearing budget exhausted")
            shear_budget -= 1
            a = shear_step(cur).matrix
            continue

        if s_t == 0:
            regs = residue_normal_form(cur)
            return _merge_blocks([(phi_acc, regs)], q)

        lead = smat_coeff(a, -v)
        eigs = exactla.eigen_data(lead)
        nonzero = [lam for lam, _ in eigs if not lam.is_zero]
        if len(eigs) >= 2:
            parts = split_by_spectrum(cur)
            sub_models = [_decompose(p, max_ram) for p in parts]
            ram_final = q
            for sm in sub_models:
                ram_final = lcm(ram_final, sm.ram)
            blocks = []
            for sm in sub_models:
                for phi, regs in sm.blocks:
                    blocks.append((ps_add(phi.lift_ram(ram_final),
                                          phi_acc.lift_ram(ram_final)), regs))
            return _merge_blocks(blocks, ram_final)
        if not nonzero:
            if shear_budget == 0:
                raise NilpotentLeading("leading coefficient stays nilpotent")
            shear_budget -= 1
            a = shear_step(cur).matrix
            continue
        lam = nonzero[0]
        c = lam.scale(Fraction(-q, v))
        phi_part = PuiseuxSeries(q, {-v: c}, phi_acc.trunc)
        phi_acc = ps_add(phi_acc, phi_part)
        a = twist_by_exponential(cur, ps_neg(phi_part)).matrix
    raise ConnexionLabError("formal reduction did not terminate")


def decomposition_report(germ: ConnectionGerm) -> dict:
    """JSON-friendly summary: polygon, irregularity, elementary model."""
    return decomposition_summary(germ, formal_decompose(germ))


def decomposition_summary(germ: ConnectionGerm, model: ElementaryModel) -> dict:
    """``decomposition_report`` for a model already decomposed from germ."""
    from .model import model_to_dict

    poly = newton_polygon(germ)
    irr = poly.irregularity
    return {
        "rank": germ.rank,
        "ram_in": germ.ram,
        "slopes": [[s.numerator, s.denominator, m] for s, m in poly.slopes],
        "irregularity": [irr.numerator, irr.denominator],
        "model": model_to_dict(model),
        "ram_out": model.ram,
    }
