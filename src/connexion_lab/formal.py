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
                    ramified_pullback, smat_coeff, smat_min_trunc, smat_min_val,
                    twist_by_exponential, unipotent_gauge)
from .series import CQ, CQ_ZERO, PuiseuxSeries, ps_add, ps_neg

RANK_GUARD = 4
RAM_GUARD = 24
#: watermark of the first attempt of ``formal_decompose``
FIRST_WATERMARK = 2


class NeedOrder(Exception):
    """Internal: a read above a germ's watermark.  ``formal_decompose`` then
    starts again with the watermark doubled, so this never escapes it."""


def _need(germ: ConnectionGerm, order: int) -> None:
    if germ.exact is not None and order > germ.exact:
        raise NeedOrder(order)


# -- Newton polygon --------------------------------------------------------

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


def _times(prod: dict, terms: list, bound: int) -> dict:
    """Product of Gaussian-integer series, kept below exponent ``bound``.

    ``prod`` maps exponents to (re, im); ``terms`` is sorted (n, re, im).
    """
    out: dict[int, tuple[int, int]] = {}
    for n, (a, b) in prod.items():
        for m, c, e in terms:
            s = n + m
            if s >= bound:
                break
            re, im = out.get(s, (0, 0))
            out[s] = (re + a * c - b * e, im + a * e + b * c)
    return out


def newton_polygon(germ: ConnectionGerm) -> NewtonPolygon:
    """Newton polygon from the principal-minor sums e_k of the matrix.

    Only valuations of e_k are read, and e_k(D·A) = D^k·e_k(A).  So the
    entries are scaled once by D, the lcm of every real and imaginary
    denominator, and e_k is summed over its Leibniz terms in Gaussian
    integers.  Exponents count powers of t.  With p the pole order,
    every entry has valuation ≥ −p, so after j of the k factors of a term
    only exponents below (k − j)·p can still land below 0, and only the
    part of e_k below 0 is read; the other exponents are dropped.

    The truncation of e_k is the one the series product and sum would
    give it with every entry capped at (k − 1)·p (terms above dropped,
    trunc lowered to it).  A product of entries with truncations Nⱼ and
    valuations v̂ⱼ (v̂ is the trunc of an empty entry) has truncation
    minᵢ(Nᵢ + Σⱼ≠ᵢ v̂ⱼ); a sum has the least truncation of its terms and of
    every capped entry.  A part below 0 that is empty to a negative
    truncation cannot be certified and raises InsufficientTruncation.
    """
    d, q, mat = germ.rank, germ.ram, germ.matrix
    p = max(0, -(smat_min_val(mat) or 0))
    _need(germ, max(-1, (d - 1) * p - 1))
    read = [[[(n, c) for n, c in s.terms.items() if n < (d - 1) * p]
             for s in row] for row in mat]
    den = lcm(1, *(c.d for row in read for ts in row for _, c in ts))
    ints = [[[(n, c.a * (den // c.d), c.b * (den // c.d)) for n, c in ts]
             for ts in row] for row in read]
    pts: list[tuple[int, Fraction]] = [(d, Fraction(0))]
    for k in range(1, d + 1):
        cap = (k - 1) * p
        tr = [[min(s.trunc, cap) for s in row] for row in mat]
        val = [[min(s.val_or_trunc(), t) for s, t in zip(row, trow)]
               for row, trow in zip(mat, tr)]
        trunc = min(min(row) for row in tr)
        e_k: dict[int, tuple[int, int]] = {}
        for idx in itertools.combinations(range(d), k):
            for perm in itertools.permutations(idx):
                cells = list(zip(idx, perm))
                trunc = min(trunc, sum(val[i][j] for i, j in cells)
                            + min(tr[i][j] - val[i][j] for i, j in cells))
                prod = {0: (1, 0)}
                for step, (i, j) in enumerate(cells, 1):
                    prod = _times(prod, ints[i][j], (k - step) * p)
                    if not prod:
                        break
                odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
                for n, (a, b) in prod.items():
                    re, im = e_k.get(n, (0, 0))
                    e_k[n] = (re - a, im - b) if odd else (re + a, im + b)
        v = min((n for n, c in e_k.items() if n <= trunc and c != (0, 0)),
                default=None)
        if v is None and trunc < 0:
            raise InsufficientTruncation(
                f"cannot certify valuation of a degree-{d - k} "
                "characteristic coefficient")
        pts.append((d - k, Fraction(0) if v is None else Fraction(v, q)))
    pts.sort()
    # lower convex hull, left to right
    hull: list[tuple[int, Fraction]] = []
    for x, y in pts:
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])
                                  >= (y - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((x, y))
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
    """Standard vectors completing the given independent set to a basis.

    The pivot columns of [vectors | I] past the given vectors pick the
    standard vectors greedily, first index first.
    """
    k, eye = len(vectors), exactla.eye(d)
    aug = [row + e for row, e in zip(_cols(vectors, d), eye)]
    return [eye[c - k] for c in exactla.rref(aug)[1] if c >= k]


def _cols(vectors: list[list[CQ]], d: int) -> exactla.Matrix:
    return [[vectors[j][i] for j in range(len(vectors))] for i in range(d)]


def _const_gauge(a: SMatrix, p: exactla.Matrix, top: int | None = None) -> SMatrix:
    """A ↦ P⁻¹·A·P for a constant invertible P, one order at a time.

    Each entry keeps the truncation of smat_mul(P⁻¹, smat_mul(A, P)) with P
    and P⁻¹ constant series at the least truncation T (empty when T < 0):
    a product takes min(N₁ + v₂, N₂ + v₁), v the valuation (the trunc of an
    empty entry), and a sum its least truncation.  Orders above ``top`` are
    not computed.  A valuation above ``top`` enters only as T + v, which is
    then at least the greatest truncation and never below the term of a
    nonzero entry of P or P⁻¹, so every truncation is exact.
    """
    d, q, t = len(a), a[0][0].ram, smat_min_trunc(a)
    hi = max(s.trunc for row in a for s in row)
    if top is not None and top < hi - t - 1:
        raise NeedOrder(hi - t - 1)
    cap = hi if top is None else top
    pinv = exactla.inverse(p)
    ap = {n: exactla.mat_mul(smat_coeff(a, n), p) for n in sorted(
        {n for row in a for s in row for n in s.terms if n <= cap}) if t >= 0}
    t1 = [[min(min(s.trunc + (0 if t >= 0 and not p[l][j].is_zero else t),
                   t + min(s.val_or_trunc(), cap + 1)) for l, s in enumerate(row))
           for j in range(d)] for row in a]
    v1 = [[min([n for n in ap if n <= t1[k][j] and not ap[n][k][j].is_zero]
               + [t1[k][j], cap + 1]) for j in range(d)] for k in range(d)]
    t2 = [[min(min(t + v1[k][j], t1[k][j] + (0 if t >= 0 and not pinv[i][k].is_zero
                                              else t)) for k in range(d))
           for j in range(d)] for i in range(d)]
    out = {n: exactla.mat_mul(pinv, m) for n, m in ap.items()}
    return [[PuiseuxSeries(q, {n: c[i][j] for n, c in out.items()}, t2[i][j])
             for j in range(d)] for i in range(d)]


def _shear_gauge(germ: ConnectionGerm, vectors: list[list[CQ]],
                 weights: list[int]) -> ConnectionGerm:
    """Gauge by P·diag(t^{w_i}), P the columns ``vectors``, each w_i 0 or 1.

    After A ↦ P⁻¹·A·P the diagonal gauge scales entry (i, j) by
    t^{w_j − w_i} and shifts the diagonal by −w_i/q.  An entry moved down
    reads one order higher, so the watermark drops by one.
    """
    q = germ.ram

    def entry(i, j, s):
        terms = {n + weights[j] - weights[i]: c for n, c in s.terms.items()}
        if i == j and weights[i]:
            terms[0] = terms.get(0, CQ_ZERO) + CQ.of(Fraction(-weights[i], q))
        return PuiseuxSeries(q, terms, s.trunc + weights[j] - weights[i])

    a = _const_gauge(germ.matrix, _cols(vectors, germ.rank), germ.exact)
    return ConnectionGerm(germ.rank, q, [[entry(i, j, s) for j, s in enumerate(row)]
                                         for i, row in enumerate(a)],
                          None if germ.exact is None else germ.exact - 1)


# -- residue normal form ----------------------------------------------------

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
    q = germ.ram
    mv = smat_min_val(germ.matrix)
    if mv is not None and mv < 0:
        raise NotLogarithmic(f"pole of order {-mv} in the ramified variable")
    if smat_min_trunc(germ.matrix) < 1:
        raise InsufficientTruncation("need at least one positive order")

    for _ in range(256):
        _need(germ, 0)
        a0 = smat_coeff(germ.matrix, 0)
        groups = exactla.spectrum(a0)
        # an eigenvalue above another by a positive multiple of 1/q
        high = next((lam for lam, _, _ in groups for mu, _, _ in groups
                     if (x := (lam - mu).scale(Fraction(q))).im == 0
                     and x.re.denominator == 1 and x.re > 0), None)
        if high is None:
            break
        germ = _shear_gauge(germ, [u for _, basis, _ in groups for u in basis],
                            [int(lam == high) for lam, basis, _ in groups
                             for _ in basis])
    else:
        raise ConnexionLabError("resonance clearing did not terminate")

    blocks = [RegularBlockData(CQ(-lam.re - Fraction(k, q), -lam.im),
                               tuple(partition), k)
              for lam, _, partition in groups for k in [floor(-lam.re * q)]]
    return tuple(sorted(blocks, key=lambda r: (r.alpha.re, r.alpha.im, r.partition)))


# -- spectral splitting ------------------------------------------------------

def split_by_spectrum(germ: ConnectionGerm, groups,
                      top: int | None = None) -> list[ConnectionGerm]:
    """Block-diagonalize along ``groups``, the spectrum of the leading coefficient.

    ``groups`` is ``exactla.spectrum`` of the coefficient of t^{−v}; each
    group gives one part.  In its basis the leading coefficient L is
    block-diagonal, and the off-diagonal blocks are removed order by order,
    exactly, up to the working truncation N (the least entry truncation
    after the change of basis).  Order n is cleared by the gauge
    I + X·t^{n+v}, X on the off-diagonal positions solving L·X − X·L = −Aₙ.
    That operator is the same at every order and invertible, the block
    spectra being disjoint, so it is inverted once.  When N ≤ −v no order
    is cleared and L need not even be exact.  ``unipotent_gauge`` applies
    the gauge, each entry given the truncation that the full product
    G⁻¹·A·G − G⁻¹·z∂G would give it.

    The parts are exact up to the watermark w (``ConnectionGerm.exact``),
    the lower of ``top`` and the germ's own; a read above it raises
    ``NeedOrder``, which ``formal_decompose`` answers.  While order n is
    not cleared, the diagonal blocks differ from the full split's only from
    order 2n + v on, so the orders below 0 and up to (w − v) // 2 are
    cleared, each up to order w.  The truncations need no more.  Every
    entry truncation stays at least N − v and every valuation at least −v,
    so at an order n ≥ 0 the terms of the truncation rule that hold X or m
    are at least N and never attain its minimum, a valuation ν counts only
    through N + ν, below N only for ν < 0, and the gauge changes nothing
    below order 0.  Every gauge at an order n ≥ 0 thus moves the truncations
    as the gauge with X = 0 does.  Once that moves none, no later order
    does; until then the orders are cleared on.
    """
    d, q = germ.rank, germ.ram
    v = -(smat_min_val(germ.matrix) or 0)
    block = [k for k, (_, basis, _) in enumerate(groups) for _ in basis]
    change = _cols([u for _, basis, _ in groups for u in basis], d)
    cap = min((w for w in (germ.exact, top) if w is not None), default=None)
    a = _const_gauge(germ.matrix, change, germ.exact)
    known = germ.exact  # a is exact up to this order
    trunc = smat_min_trunc(a)
    last = trunc if cap is None else max(-1, (cap - v) // 2)
    off = [(i, j) for i in range(d) for j in range(d) if block[i] != block[j]]
    if trunc > -v:
        lead = smat_coeff(a, -v)
        # row (i, j), column (k, l) of X ↦ L·X − X·L on the off positions
        inv = exactla.inverse([[(lead[i][k] if l == j else CQ_ZERO)
                                - (lead[l][j] if k == i else CQ_ZERO)
                                for k, l in off] for i, j in off])
        solver = [[(k, s) for k, s in enumerate(row) if not s.is_zero]
                  for row in inv]

    settled = None  # the X = 0 probe's verdict: it reads a, not the order
    for order in range(-v + 1, trunc + 1):
        # every later gauge moves the truncations as one with X = 0 does
        if order > last and settled is None:
            probe = unipotent_gauge(a, exactla.zeros(d, d), order + v, trunc, -1)
            settled = all(x.trunc == s.trunc
                          for pr, row in zip(probe, a) for x, s in zip(pr, row))
        if settled:
            known = cap
            break
        if known is not None and order > known:
            raise NeedOrder(order)
        coef = smat_coeff(a, order)
        rhs = [-coef[i][j] for i, j in off]
        if all(c.is_zero for c in rhs):
            continue
        if trunc < 0:
            raise InsufficientTruncation(
                f"the change to the eigenbasis leaves truncation {trunc}, "
                f"below 0, to clear order {order}")
        x = exactla.zeros(d, d)
        for (i, j), row in zip(off, solver):
            x[i][j] = sum((s * rhs[k] for k, s in row if not rhs[k].is_zero),
                          CQ_ZERO)
        a = unipotent_gauge(a, x, order + v, trunc, cap)
        known, settled = cap, None

    parts = [[i for i in range(d) if block[i] == k] for k in range(len(groups))]
    return [ConnectionGerm(len(p), q, [[a[i][j] for j in p] for i in p], known)
            for p in parts]


# -- shearing ----------------------------------------------------------------

def shear_step(germ: ConnectionGerm) -> ConnectionGerm:
    """One Moser-style shear lowering weight off the leading kernel."""
    d = germ.rank
    v = -(smat_min_val(germ.matrix) or 0)
    if v < 1:
        raise DomainError("nothing to shear: the germ is logarithmic")
    ker = exactla.kernel(smat_coeff(germ.matrix, -v))
    if not ker or len(ker) == d:
        raise NilpotentLeading("leading coefficient admits no shearing kernel")
    comp = _extend_to_basis(ker, d)
    return _shear_gauge(germ, comp + ker, [1] * len(comp) + [0] * len(ker))


# -- full decomposition -------------------------------------------------------

def formal_decompose(germ: ConnectionGerm) -> ElementaryModel:
    """Elementary model of a germ: slopes, exponential parts, regular data.

    The splits keep their parts exact up to ``FIRST_WATERMARK``, doubled
    after each read above it, so only the orders that are read are computed.
    Every φ is lifted to the least common ramification, and the blocks are
    sorted by the valuation and then the terms of φ.
    """
    if germ.rank > RANK_GUARD:
        raise DomainError(f"rank {germ.rank} exceeds the desk-scale guard "
                          f"({RANK_GUARD})")
    top = FIRST_WATERMARK
    while True:
        try:
            blocks = _decompose(germ, top)
            break
        except NeedOrder:
            top *= 2
    ram = lcm(*(phi.ram for phi, _ in blocks))
    blocks = [(phi.lift_ram(ram), regs) for phi, regs in blocks]
    blocks.sort(key=lambda b: (b[0].valuation() or 0,
                               tuple((n, c.re, c.im) for n, c in b[0].terms.items())))
    return ElementaryModel(ram, tuple(blocks))


def _decompose(cur: ConnectionGerm, top: int
               ) -> list[tuple[PuiseuxSeries, tuple[RegularBlockData, ...]]]:
    """The (φ, regs) blocks of a germ, each φ in its own ramification.

    The φ's are pairwise distinct: the parts of a split have distinct
    leading eigenvalues, so their φ's differ at t^{−v}.  The α's of a block
    are distinct too, all from one ``residue_normal_form``.
    """
    d, q = cur.rank, cur.ram
    phi_acc = PuiseuxSeries(q, {}, max(smat_min_trunc(cur.matrix), 0))
    shear_budget = 4 * d + 8

    for _ in range(64):
        poly = newton_polygon(cur)
        s_t = poly.top_slope * q  # top slope in the ramified variable
        v = -(smat_min_val(cur.matrix) or 0)

        if s_t.denominator != 1:
            r = s_t.denominator
            if q * r > RAM_GUARD:
                raise RamificationGuardExceeded(
                    f"needed ramification {q * r} exceeds the guard {RAM_GUARD}")
            if q > 1:  # the pullback's ramification reads every order
                _need(cur, max(s.trunc for row in cur.matrix for s in row))
            pulled = ramified_pullback(cur, r)
            if cur.exact is not None:
                pulled = ConnectionGerm(d, pulled.ram, pulled.matrix,
                                        (cur.exact + 1) * r - 1)
            # re-read the sub-model series relative to the base variable
            return [(ps_add(PuiseuxSeries(phi.ram * r, dict(phi.terms), phi.trunc),
                            phi_acc),
                     tuple(RegularBlockData(reg.alpha.scale(Fraction(1, r)),
                                            reg.partition, reg.lattice_shift)
                           for reg in regs))
                    for phi, regs in _decompose(pulled, (top + 1) * r - 1)]

        # a nilpotent leading coefficient zeroes every e_k at t^{−kv}, so
        # its top slope is below v and it is sheared here
        if v > s_t:
            if shear_budget == 0:
                raise NilpotentLeading("shearing budget exhausted")
            shear_budget -= 1
            cur = shear_step(cur)
            continue

        if s_t == 0:
            return [(phi_acc, residue_normal_form(cur))]

        groups = exactla.spectrum(smat_coeff(cur.matrix, -v))
        if len(groups) >= 2:
            return [(ps_add(phi, phi_acc), regs)
                    for part in split_by_spectrum(cur, groups, top)
                    for phi, regs in _decompose(part, top)]
        phi_part = PuiseuxSeries(q, {-v: groups[0][0].scale(Fraction(-q, v))},
                                 phi_acc.trunc)
        phi_acc = ps_add(phi_acc, phi_part)
        cur = ConnectionGerm(d, q, twist_by_exponential(cur, ps_neg(phi_part)).matrix,
                             cur.exact)
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
