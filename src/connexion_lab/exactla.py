"""Exact linear algebra over the Gaussian rationals.

Everything works directly over the field CQ. The decomposition layers
use d × d matrices with d ≤ 4 (the rank guard), where the dense
Gauss–Jordan `rref` is the clearest tool. `index.local_full_dims` ranks
Laurent windows of up to about 80 × 80 whose entries are mostly zero, so
`rank` eliminates over sparse rows instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import IrrationalSpectrum
from .series import CQ, CQ_ONE, CQ_ZERO

Matrix = list[list[CQ]]


def eye(d: int) -> Matrix:
    return [[CQ_ONE if i == j else CQ_ZERO for j in range(d)] for i in range(d)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[CQ_ZERO] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik.is_zero:
                continue
            for j, bkj in enumerate(b[k]):
                if not bkj.is_zero:
                    out[i][j] = out[i][j] + aik * bkj
    return out


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not a[i][c].is_zero), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = CQ_ONE / a[r][c]
        a[r] = [inv * x for x in a[r]]
        for i in range(rows):
            if i != r and not a[i][c].is_zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    """Rank of m by exact forward elimination over sparse rows.

    Each row is held as {column: entry} with its nonzero entries only.
    Each step pivots on the lowest column still present, takes the
    shortest row holding it as the pivot row, eliminates that column
    from the other rows and drops rows that become empty. There is no
    back-substitution and no normalisation; m is left untouched.
    """
    rows = [r for r in ({j: x for j, x in enumerate(row) if not x.is_zero}
                        for row in m) if r]
    found = 0
    while rows:
        col = min(min(r) for r in rows)
        holders = [r for r in rows if col in r]
        pivot = min(holders, key=len)
        rows = [r for r in rows if col not in r]
        inv = CQ_ONE / pivot.pop(col)
        for r in holders:
            if r is pivot:
                continue
            f = r.pop(col) * inv
            for j, x in pivot.items():
                y = r.get(j)
                v = -(f * x) if y is None else y - f * x
                if v.is_zero:
                    del r[j]
                else:
                    r[j] = v
            if r:
                rows.append(r)
        found += 1
    return found


def kernel(m: Matrix) -> list[list[CQ]]:
    """Basis of the right null space."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [CQ_ZERO] * cols
        v[fc] = CQ_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def inverse(m: Matrix) -> Matrix:
    d = len(m)
    aug = [m[i][:] + eye(d)[i] for i in range(d)]
    red, pivots = rref(aug)
    if pivots != list(range(d)):
        raise ZeroDivisionError("matrix is singular")
    return [row[d:] for row in red]


def charpoly(m: Matrix) -> list[CQ]:
    """Characteristic polynomial det(T·I − m), coefficients [c_0..c_d]."""
    d = len(m)
    # Faddeev–LeVerrier: exact over a field of characteristic 0
    coeffs = [CQ_ZERO] * (d + 1)
    coeffs[d] = CQ_ONE
    mk = eye(d)
    a = m
    for k in range(1, d + 1):
        mk = mat_mul(a, mk)
        tr = sum((mk[i][i] for i in range(d)), CQ_ZERO)
        c = -(tr.scale(Fraction(1, k)))
        coeffs[d - k] = c
        for i in range(d):
            mk[i][i] = mk[i][i] + c
    return coeffs


def poly_eval(coeffs: list[CQ], x: CQ) -> CQ:
    acc = CQ_ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deflate(coeffs: list[CQ], root: CQ) -> list[CQ]:
    """Divide by (T − root); assumes root is exact."""
    d = len(coeffs) - 1
    out = [CQ_ZERO] * d
    carry = coeffs[d]
    for k in range(d - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * root
    return out


def _trim(p: list[CQ]) -> list[CQ]:
    p = list(p)
    while p and p[-1].is_zero:
        p.pop()
    return p


def gaussian_roots(coeffs: list[CQ]) -> list[tuple[CQ, int]]:
    """All roots in Q(i) with multiplicities; raises if any root is outside.

    A root of multiplicity m of p would scatter numerically by about
    eps^(1/m) and defeat the rationalization, but it is a simple root of
    p^(m−1).  So the numeric candidates come from p first, then from p′,
    p″, … while some root is still unfound.  Each numeric root z gives two
    candidates: z rationalized with denominators up to 10⁶, and D·z rounded
    to Z[i] over D, for D the lcm of the denominators of the monic
    derivative being solved.  D·r ∈ Z[i] for each of its roots r in Q(i),
    since Z[i] is integrally closed; the second candidate is formed only
    while D < 2**53, below which a float can pin D·z.  Acceptance and
    multiplicity are exact (substitution into the full polynomial plus
    exact deflation).
    """
    work = exact = _trim(coeffs)
    found: list[tuple[CQ, int]] = []
    deriv = np.array([c.to_complex() for c in reversed(work)])
    while len(work) > 1 and len(deriv) > 1:
        den = lcm(*((c / exact[-1]).d for c in exact))
        for z in np.roots(deriv):
            cands = [CQ(Fraction(z.real).limit_denominator(10 ** 6),
                        Fraction(z.imag).limit_denominator(10 ** 6))]
            if den < 2 ** 53:
                cands.append(CQ(Fraction(round(den * z.real), den),
                                Fraction(round(den * z.imag), den)))
            for cand in cands:
                if any(cand == r for r, _ in found):
                    continue
                mult = 0
                while len(work) > 1 and poly_eval(work, cand).is_zero:
                    work = poly_deflate(work, cand)
                    mult += 1
                if mult:
                    found.append((cand, mult))
        deriv = np.polyder(deriv)
        exact = [c.scale(k) for k, c in enumerate(exact)][1:]
    if len(work) > 1:
        raise IrrationalSpectrum(
            "spectrum leaves the Gaussian rationals "
            f"(residual factor of degree {len(work) - 1})")
    return found


def spectrum(m: Matrix) -> list[tuple[CQ, list[list[CQ]], list[int]]]:
    """(λ, generalized eigenspace basis, Jordan partition) per eigenvalue.

    The ranks of the powers of m − λ fall until they reach d − mult(λ);
    the number of Jordan blocks of size ≥ k is the drop from power k − 1
    to power k.  The basis is the kernel of the last power.
    """
    d = len(m)
    out = []
    for lam, mult in gaussian_roots(charpoly(m)):
        shifted = [[m[i][j] - (lam if i == j else CQ_ZERO) for j in range(d)]
                   for i in range(d)]
        power, ranks = eye(d), [d]
        while ranks[-1] > d - mult:
            power = mat_mul(shifted, power)
            ranks.append(rank(power))
        drops = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
        partition = [k for k in range(len(drops) - 1, 0, -1)
                     for _ in range(drops[k - 1] - drops[k])]
        out.append((lam, kernel(power), partition))
    return out
