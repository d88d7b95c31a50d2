"""Meromorphic connection germs in matrix form and in elementary normal form.

A germ is a square matrix A of Puiseux series with a common ramification
index q, read as z∇_{z∂} e = e·A, i.e. connection form A·dz/z in the
basis e.  An elementary model is the decomposed shape ⊕ E^φ ⊗ R_φ with
per-φ regular data (α, Jordan partition).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import reduce
from fractions import Fraction
from math import lcm

import numpy as np

from . import exactla
from .errors import IrrationalRootOfUnity, ParseError
from .series import (CQ, CQ_ZERO, CQ_ONE, PuiseuxSeries, _as_fraction,
                     _as_int, common_ram, ps_add, ps_derive, ps_eq_to_trunc,
                     ps_from_literal, ps_mul, ps_neg, ps_ramify, ps_scale,
                     ps_sub, ps_to_literal, quarter_root)

SMatrix = list[list[PuiseuxSeries]]


# -- matrices of series -------------------------------------------------

def smat_common_ram(a: SMatrix) -> tuple[SMatrix, int]:
    q = lcm(1, *(s.ram for row in a for s in row))
    return [[s.lift_ram(q) for s in row] for row in a], q


def smat_add(a: SMatrix, b: SMatrix) -> SMatrix:
    return [[ps_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_sub(a: SMatrix, b: SMatrix) -> SMatrix:
    return [[ps_sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_mul(a: SMatrix, b: SMatrix) -> SMatrix:
    return [[reduce(ps_add, (ps_mul(a[i][k], b[k][j]) for k in range(len(b))))
             for j in range(len(b[0]))] for i in range(len(a))]


def smat_derive(a: SMatrix) -> SMatrix:
    return [[ps_derive(x) for x in row] for row in a]


def smat_from_const(m, ram: int, trunc: int) -> SMatrix:
    """Lift a CQ matrix to a constant series matrix."""
    return [[PuiseuxSeries(ram, {0: x} if not x.is_zero else {}, trunc)
             for x in row] for row in m]


def smat_eye(d: int, ram: int, trunc: int) -> SMatrix:
    return smat_from_const(exactla.eye(d), ram, trunc)


def smat_min_val(a: SMatrix) -> int | None:
    vals = [s.valuation() for row in a for s in row if s.valuation() is not None]
    return min(vals) if vals else None


def smat_min_trunc(a: SMatrix) -> int:
    return min(s.trunc for row in a for s in row)


def smat_coeff(a: SMatrix, n: int):
    """Constant CQ matrix of the coefficient of t^n."""
    return [[s.coeff(n) for s in row] for row in a]


def smat_neumann_inverse(a: SMatrix) -> SMatrix:
    """Inverse of a series matrix of the shape C·(I + T) with val(T) >= 1."""
    d = len(a)
    ram = a[0][0].ram
    trunc = smat_min_trunc(a)
    c = smat_coeff(a, 0)
    cinv = exactla.inverse(c)
    cinv_s = smat_from_const(cinv, ram, trunc)
    t = smat_sub(smat_mul(cinv_s, a), smat_eye(d, ram, trunc))
    if (smat_min_val(t) or trunc + 1) < 1:
        raise ValueError("matrix is not unipotent-plus-higher-order")
    neg_t = [[ps_neg(x) for x in row] for row in t]
    acc = smat_eye(d, ram, trunc)
    pw = smat_eye(d, ram, trunc)
    for _ in range(trunc + 1):
        pw = smat_mul(pw, neg_t)
        v = smat_min_val(pw)
        if v is None or v > trunc:
            break
        acc = smat_add(acc, pw)
    return smat_mul(acc, cinv_s)


def gauge_transform(a: SMatrix, g: SMatrix) -> SMatrix:
    """A ↦ G⁻¹·A·G − G⁻¹·(z∂G) for a general gauge G.

    Full series-matrix products plus a Neumann-series inverse, about
    O(N³·d³) for truncation N.  The formal reduction applies its gauges
    I + X·tᵐ with ``unipotent_gauge`` instead; this stays the general
    gauge and the oracle that ``unipotent_gauge`` is tested against.
    """
    g_inv = smat_neumann_inverse(g)
    return smat_sub(smat_mul(g_inv, smat_mul(a, g)),
                    smat_mul(g_inv, smat_derive(g)))


def unipotent_gauge(a: SMatrix, x, m: int, trunc: int,
                    upto: int | None = None) -> SMatrix:
    """``gauge_transform(a, G)`` for G = I + X·tᵐ, m ≥ 1, by recurrence.

    G is the constant CQ matrix X at order m, with every entry of G at
    truncation ``trunc`` = N ≥ 0 (X is dropped when m > N, as the series
    constructor drops it).  With AG = A·G the result A′ = G⁻¹·(AG − (m/q)·X·tᵐ)
    obeys A′ₙ = AGₙ − (m/q)·X·[n = m] − X·A′ₙ₋ₘ, which costs O(N·d³).

    Each entry keeps the truncation that the ps_mul/ps_add chain of
    ``gauge_transform`` gives it, v being the valuation (the trunc of an
    empty entry):
      trunc(AG)ᵢⱼ = minₖ min(aᵢₖ.trunc + v(Gₖⱼ), N + v(aᵢₖ)),
      trunc(A′)ᵢⱼ = min(N, minₖ min(N + v(AGₖⱼ), AGₖⱼ.trunc + v(G⁻¹ᵢₖ))).
    G⁻¹ = Σ (−X)ᵖ·t^{pm} up to N, so v(G⁻¹ᵢₖ) for i ≠ k is p·m for the first
    p with (Xᵖ)ᵢₖ ≠ 0, read from exact powers because their entries can
    cancel; by Cayley–Hamilton p < d suffices.  Below its truncation A′
    agrees with the exact G⁻¹·(AG − (m/q)·X·tᵐ), so the recurrence gives
    every stored coefficient.  Order n reads no input order above n, so
    with ``upto`` the recurrence stops there: coefficients above ``upto``
    are left out and nothing else changes.
    """
    d = len(a)
    q = a[0][0].ram
    if trunc < 0:
        raise ValueError("the gauge needs a non-negative truncation")
    if m > trunc:
        x = exactla.zeros(d, d)
    vg = [[0 if k == j else (m if not x[k][j].is_zero else trunc)
           for j in range(d)] for k in range(d)]
    vginv = [[0 if i == k else trunc for k in range(d)] for i in range(d)]
    pw = x
    for p in range(1, min(d - 1, trunc // m) + 1):
        vginv = [[p * m if w == trunc and not c.is_zero else w
                  for w, c in zip(row, prow)] for row, prow in zip(vginv, pw)]
        pw = exactla.mat_mul(pw, x)

    x_rows = [[(k, c) for k, c in enumerate(row) if not c.is_zero] for row in x]
    top = trunc if upto is None else min(trunc, upto)

    def ag_entry(i, j):
        t_ij = min(min(a[i][k].trunc + vg[k][j], trunc + a[i][k].val_or_trunc())
                   for k in range(d))
        terms = dict(a[i][j].terms)
        for k in (k for k in range(d) if not x[k][j].is_zero):
            for n, s in a[i][k].terms.items():
                if n + m <= min(t_ij, top):
                    terms[n + m] = terms.get(n + m, CQ_ZERO) + s * x[k][j]
        return PuiseuxSeries(q, terms, t_ij)

    ag = [[ag_entry(i, j) for j in range(d)] for i in range(d)]

    out: SMatrix = [[None] * d for _ in range(d)]
    dm = Fraction(m, q)
    for j in range(d):
        tr = [min([trunc] + [min(trunc + ag[k][j].val_or_trunc(),
                                 ag[k][j].trunc + vginv[i][k]) for k in range(d)])
              for i in range(d)]
        exps = [n for k in range(d) for n in ag[k][j].terms]
        if any(not x[k][j].is_zero for k in range(d)):
            exps.append(m)
        col: dict[int, list[CQ]] = {}
        for n in range(min(exps, default=0), min(max(tr), top) + 1):
            prev = col.get(n - m)
            b = []
            for i in range(d):
                c = ag[i][j].coeff(n)
                if n == m and not x[i][j].is_zero:
                    c = c - x[i][j].scale(dm)
                if prev is not None:
                    for k, xik in x_rows[i]:
                        if not prev[k].is_zero:
                            c = c - xik * prev[k]
                b.append(c)
            col[n] = b
        for i in range(d):
            out[i][j] = PuiseuxSeries(
                q, {n: b[i] for n, b in col.items() if n <= tr[i]}, tr[i])
    return out


# -- domain types --------------------------------------------------------

@dataclass(frozen=True)
class ConnectionGerm:
    rank: int
    ram: int
    matrix: SMatrix = field(compare=False)
    #: watermark: every truncation, and every coefficient up to this order,
    #: is exact; those above it may be missing or wrong.  None: all exact.
    exact: int | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_matrix(matrix: SMatrix) -> "ConnectionGerm":
        m, q = smat_common_ram(matrix)
        d = len(m)
        if any(len(row) != d for row in m):
            raise ValueError("connection matrix must be square")
        return ConnectionGerm(d, q, m)


@dataclass(frozen=True)
class RegularBlockData:
    """Residue eigenvalue (normalized Re ∈ [0,1)) plus Jordan partition."""

    alpha: CQ
    partition: tuple[int, ...]
    lattice_shift: int = 0  # integer part split off during normalization

    def __post_init__(self):
        if not self.partition or any(p < 1 for p in self.partition):
            raise ValueError("partition entries must be >= 1")
        if not (0 <= self.alpha.re < 1):
            raise ValueError("alpha must be normalized to Re in [0,1)")

    @property
    def rank(self) -> int:
        return sum(self.partition)

    def monodromy(self) -> np.ndarray:
        """T = e^{−2πiα}·T_u with T_u unipotent from the partition."""
        from .sl2 import _nilpotent_exp

        n, pos = np.zeros((self.rank, self.rank)), 0
        for p in self.partition:  # ones just below the diagonal of each block
            n[range(pos + 1, pos + p), range(pos, pos + p - 1)] = 1.0
            pos += p
        lam = cmath.exp(-2j * cmath.pi * self.alpha.to_complex())
        return lam * _nilpotent_exp(n, 2j * np.pi)

    def unit_monodromy_kernel_dim(self) -> int:
        """dim ker(T − Id): the number of Jordan blocks when α = 0."""
        return len(self.partition) if self.alpha.is_zero else 0


@dataclass(frozen=True)
class ElementaryModel:
    """⊕ E^φ ⊗ R_φ in the variable t with t^ram = z."""

    ram: int
    blocks: tuple[tuple[PuiseuxSeries, tuple[RegularBlockData, ...]], ...]

    def __post_init__(self):
        if self.ram < 1:
            raise ValueError("ramification index must be >= 1")
        for phi, regs in self.blocks:
            if self.ram % phi.ram:
                raise ValueError(f"phi ramification {phi.ram} does not divide "
                                 f"the model ramification {self.ram}")
            if any(n >= 0 for n in phi.terms):
                raise ValueError("phi must have strictly negative support")
            if not regs:
                raise ValueError("each block needs regular data")
        phis = [phi for phi, _ in self.blocks]
        for i in range(len(phis)):
            for j in range(i + 1, len(phis)):
                if ps_eq_to_trunc(phis[i], phis[j]):
                    raise ValueError("the phi's must be pairwise distinct")

    @property
    def rank(self) -> int:
        return sum(r.rank for _, regs in self.blocks for r in regs)

    def block_ranks(self) -> list[int]:
        return [sum(r.rank for r in regs) for _, regs in self.blocks]

    def pole_orders_z(self) -> list[Fraction]:
        """Pole order of each φ in z-units (0 for φ = 0)."""
        return [Fraction(0) if phi.valuation() is None
                else Fraction(-phi.valuation(), phi.ram) for phi, _ in self.blocks]


# -- operations -----------------------------------------------------------

def assemble_matrix(m: ElementaryModel, trunc: int | None = None) -> ConnectionGerm:
    """Block-diagonal germ: each (φ, α, partition) gives Y + (−α + zφ′)·Id."""
    d = m.rank
    ram = m.ram
    if trunc is None:
        trunc = max((phi.trunc for phi, _ in m.blocks), default=0)
        trunc = max(trunc, 24)
    rows: SMatrix = [[PuiseuxSeries(ram, {}, trunc) for _ in range(d)]
                     for _ in range(d)]
    one = PuiseuxSeries(ram, {0: CQ_ONE}, trunc)
    pos = 0
    for phi, regs in m.blocks:
        dphi = ps_derive(phi).lift_ram(ram)
        for reg in regs:
            diag = ps_sub(dphi, PuiseuxSeries(ram, {0: reg.alpha}, trunc))
            for i in range(pos, pos + reg.rank):
                rows[i][i] = diag
            for p in reg.partition:  # Y: ones on each Jordan block's subdiagonal
                for j in range(pos, pos + p - 1):
                    rows[j + 1][j] = one
                pos += p
    return ConnectionGerm(d, ram, rows)


def ramified_pullback(g: ConnectionGerm, m: int) -> ConnectionGerm:
    """A_t(t) = m·A(t^m); dz/z picks up the factor m."""
    factor = CQ.of(m)
    mat = [[ps_scale(ps_ramify(s, m), factor) for s in row] for row in g.matrix]
    return ConnectionGerm.from_matrix(mat)


def twist_by_exponential(g: ConnectionGerm, phi: PuiseuxSeries) -> ConnectionGerm:
    """A + z·φ′(z)·Id (the E^φ twist)."""
    if any(n > 0 for n in phi.terms):
        raise ValueError("twist requires phi with non-positive support")
    dphi = ps_derive(phi)
    mat = [[ps_add(s, dphi) if i == j else s
            for j, s in enumerate(row)] for i, row in enumerate(g.matrix)]
    return ConnectionGerm.from_matrix(mat)


def _rotate_series(phi: PuiseuxSeries, k: int) -> PuiseuxSeries:
    """φ(t) ↦ φ(ζ^k t) with ζ = e^{2πi/q}, exactly or not at all."""
    q = phi.ram
    terms = {}
    for n, c in phi.terms.items():
        j = (k * n) % q
        if j == 0:
            terms[n] = c
            continue
        # ζ^j is Gaussian rational iff it is a fourth root of unity
        if (4 * j) % q:
            raise IrrationalRootOfUnity(
                f"rotation e^(2*pi*i*{j}/{q}) leaves the Gaussian rationals")
        terms[n] = c * quarter_root(4 * j // q)
    return PuiseuxSeries(q, terms, phi.trunc)


def sigma_pullback(m: ElementaryModel, k: int) -> ElementaryModel:
    """Pull back along t ↦ ζ^k t; regular data carried along."""
    q = m.ram
    if not 0 <= k < q:
        raise ValueError("k must satisfy 0 <= k < ram")
    blocks = tuple((_rotate_series(phi.lift_ram(q), k), regs)
                   for phi, regs in m.blocks)
    return ElementaryModel(q, blocks)


def _rotation_matches(phi_a: PuiseuxSeries, phi_b: PuiseuxSeries, k: int) -> bool:
    """Exact check of φ_b = φ_a∘σ^k up to the shared truncation.

    φ_a is cut at that truncation first, so a term above it never meets an
    irrational ζ^j; below it, a term that does cannot match a Gaussian
    rational.
    """
    a, b = common_ram(phi_a, phi_b)
    a = PuiseuxSeries(a.ram, a.terms, min(a.trunc, b.trunc))
    try:
        return ps_eq_to_trunc(_rotate_series(a, k), b)
    except IrrationalRootOfUnity:
        return False


@dataclass(frozen=True)
class DescentCertificate:
    descends: bool
    permutations: tuple[tuple[int, ...], ...] = ()
    orphans: tuple[int, ...] = ()


def descends_to_base(m: ElementaryModel) -> DescentCertificate:
    """Certificate that σ-pullback permutes the blocks, or a refusal.

    Succeeds iff the φ-set is stable under φ ↦ φ∘σ^k for every k, with
    matching regular data; the permutation per power of σ is returned.
    """
    q = m.ram
    n = len(m.blocks)
    perms = []
    orphans: set[int] = set()
    for k in range(q):
        perm = []
        for i, (phi_i, regs_i) in enumerate(m.blocks):
            target = None
            for j, (phi_j, regs_j) in enumerate(m.blocks):
                if regs_i == regs_j and _rotation_matches(phi_i, phi_j, k):
                    target = j
                    break
            if target is None:
                orphans.add(i)
                perm.append(-1)
            else:
                perm.append(target)
        if -1 not in perm and sorted(perm) != list(range(n)):
            # collision: not a permutation
            for i in range(n):
                if perm.count(perm[i]) > 1:
                    orphans.add(i)
        perms.append(tuple(perm))
    if orphans:
        return DescentCertificate(False, orphans=tuple(sorted(orphans)))
    return DescentCertificate(True, permutations=tuple(perms))


# -- connection spec files -------------------------------------------------

def _alpha_from_spec(val) -> CQ:
    if isinstance(val, (list, tuple)) and len(val) == 2:
        return CQ(_as_fraction(val[0]), _as_fraction(val[1]))
    return CQ(_as_fraction(val), Fraction(0))


def germ_or_model_from_dict(doc):
    """Parse a connection spec dict into a germ or an elementary model."""
    try:
        form = doc["form"]
    except (TypeError, KeyError) as exc:
        raise ParseError("connection spec needs a 'form' field") from exc
    if form == "matrix":
        try:
            rank = _as_int(doc["rank"], "rank")
            matrix = [[ps_from_literal(lit) for lit in row]
                      for row in doc["matrix"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad matrix spec: {exc}") from exc
        if len(matrix) != rank or any(len(r) != rank for r in matrix):
            raise ParseError("matrix shape does not match the declared rank")
        if rank < 1:
            raise ParseError("a connection needs rank >= 1")
        return ConnectionGerm.from_matrix(matrix)
    if form == "elementary":
        try:
            ram = _as_int(doc.get("ram", 1), "ram")
            blocks = []
            for blk in doc["blocks"]:
                phi = ps_from_literal(blk["phi"])
                regs = tuple(
                    RegularBlockData(_alpha_from_spec(r["alpha"]),
                                     tuple(_as_int(p, "partition entry")
                                           for p in r["partition"]))
                    for r in blk["regs"])
                blocks.append((phi, regs))
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad elementary spec: {exc}") from exc
        if not blocks:
            raise ParseError("an elementary model needs at least one block")
        try:
            return ElementaryModel(ram, tuple(blocks))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown form {form!r}")


def model_to_dict(m: ElementaryModel) -> dict:
    return {
        "form": "elementary",
        "ram": m.ram,
        "blocks": [
            {
                "phi": ps_to_literal(phi),
                "regs": [
                    {
                        "alpha": [[r.alpha.re.numerator, r.alpha.re.denominator],
                                  [r.alpha.im.numerator, r.alpha.im.denominator]],
                        "partition": list(r.partition),
                    }
                    for r in regs
                ],
            }
            for phi, regs in m.blocks
        ],
    }
