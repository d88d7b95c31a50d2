"""Exact truncated Puiseux/Laurent series over the Gaussian rationals.

A series lives in a variable t with t^q = z (q the ramification index).
Terms map an integer exponent n to a nonzero Gaussian-rational
coefficient; n stands for t^n = z^{n/q}.  Every series carries an honest
truncation bound ``trunc``: exponents > trunc are unspecified, never
assumed zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import ParseError, ZeroLeadingTerm

#: default number of trusted terms past the valuation for literals
DEFAULT_BUDGET = 24


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    try:
        if isinstance(x, (int, str)):
            return Fraction(x)
        if isinstance(x, (list, tuple)) and len(x) == 2:
            return Fraction(int(x[0]), int(x[1]))
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {x!r}") from exc
    raise ParseError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class CQ:
    """Gaussian rational: exact complex number re + im*i."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "CQ":
        return CQ(_as_fraction(re), _as_fraction(im))

    def __add__(self, other: "CQ") -> "CQ":
        return CQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CQ") -> "CQ":
        return CQ(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CQ":
        return CQ(-self.re, -self.im)

    def __mul__(self, other: "CQ") -> "CQ":
        return CQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "CQ") -> "CQ":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return CQ(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def scale(self, r: Fraction) -> "CQ":
        return CQ(self.re * r, self.im * r)

    def conj(self) -> "CQ":
        return CQ(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"CQ({self.re}, {self.im})"


CQ_ZERO = CQ(Fraction(0), Fraction(0))
CQ_ONE = CQ(Fraction(1), Fraction(0))
CQ_I = CQ(Fraction(0), Fraction(1))

#: the fourth roots of unity, indexed by quarter turns
_QUARTER_TURNS = (CQ_ONE, CQ_I, -CQ_ONE, -CQ_I)


def quarter_root(j: int) -> CQ:
    """ζ^j for ζ = i, i.e. e^{2πi·j/4}, exactly."""
    return _QUARTER_TURNS[j % 4]


class PuiseuxSeries:
    """Immutable truncated series sum_n c_n t^n with t^q = z."""

    __slots__ = ("ram", "terms", "trunc")

    def __init__(self, ram: int, terms: Mapping[int, CQ], trunc: int):
        if ram < 1:
            raise ValueError("ramification index must be >= 1")
        kept = {n: c for n, c in terms.items() if not c.is_zero and n <= trunc}
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "terms", dict(sorted(kept.items())))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ram: int = 1, trunc: int = DEFAULT_BUDGET) -> "PuiseuxSeries":
        return PuiseuxSeries(ram, {}, trunc)

    @staticmethod
    def one(ram: int = 1, trunc: int | None = None) -> "PuiseuxSeries":
        return PuiseuxSeries.monomial(0, CQ_ONE, ram, trunc)

    @staticmethod
    def monomial(n: int, coeff: CQ = CQ_ONE, ram: int = 1,
                 trunc: int | None = None) -> "PuiseuxSeries":
        if trunc is None:
            trunc = n + DEFAULT_BUDGET
        return PuiseuxSeries(ram, {n: coeff}, trunc)

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, CQ]], ram: int = 1,
                   trunc: int | None = None) -> "PuiseuxSeries":
        d = {}
        for n, c in terms:
            d[n] = d.get(n, CQ_ZERO) + c
        if trunc is None:
            nz = [n for n, c in d.items() if not c.is_zero]
            trunc = (min(nz) if nz else 0) + DEFAULT_BUDGET
        return PuiseuxSeries(ram, d, trunc)

    @staticmethod
    def constant(c: CQ, ram: int = 1, trunc: int | None = None) -> "PuiseuxSeries":
        return PuiseuxSeries.monomial(0, c, ram, trunc)

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> int | None:
        """Lowest stored exponent, or None for a zero-to-truncation series."""
        return min(self.terms) if self.terms else None

    def val_or_trunc(self) -> int:
        v = self.valuation()
        return v if v is not None else self.trunc

    def val_z(self) -> Fraction | None:
        """Valuation in z-units (n/q)."""
        v = self.valuation()
        return None if v is None else Fraction(v, self.ram)

    def coeff(self, n: int) -> CQ:
        return self.terms.get(n, CQ_ZERO)

    def leading(self) -> tuple[int, CQ]:
        if not self.terms:
            raise ZeroLeadingTerm("series is zero to truncation")
        v = min(self.terms)
        return v, self.terms[v]

    def max_exponent(self) -> int | None:
        return max(self.terms) if self.terms else None

    def __repr__(self):
        if not self.terms:
            return f"PS(0; q={self.ram}, N={self.trunc})"
        body = " + ".join(
            f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)t^{n}"
            for n, c in self.terms.items()
        )
        return f"PS({body}; q={self.ram}, N={self.trunc})"

    def __eq__(self, other):
        """Exact structural equality (same ram, terms, trunc)."""
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self.ram == other.ram and self.trunc == other.trunc
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ram, self.trunc, tuple(self.terms.items())))

    # -- ramification handling ----------------------------------------

    def lift_ram(self, q: int) -> "PuiseuxSeries":
        """Re-express with ramification q (a multiple of self.ram)."""
        if q == self.ram:
            return self
        if q % self.ram:
            raise ValueError("can only lift to a multiple of the ramification")
        f = q // self.ram
        return PuiseuxSeries(q, {n * f: c for n, c in self.terms.items()},
                             self.trunc * f)

    def reduce_ram(self) -> "PuiseuxSeries":
        """Divide out the common factor of ram and all exponents."""
        if not self.terms:
            if self.ram == 1:
                return self
            return PuiseuxSeries(1, {}, math.floor(Fraction(self.trunc, self.ram)))
        g = self.ram
        for n in self.terms:
            g = gcd(g, abs(n))
            if g == 1:
                return self
        return PuiseuxSeries(self.ram // g,
                             {n // g: c for n, c in self.terms.items()},
                             self.trunc // g)


def common_ram(a: PuiseuxSeries, b: PuiseuxSeries):
    q = lcm(a.ram, b.ram)
    return a.lift_ram(q), b.lift_ram(q)


# -- ring operations ---------------------------------------------------

def ps_add(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    a, b = common_ram(a, b)
    trunc = min(a.trunc, b.trunc)
    terms = dict(a.terms)
    for n, c in b.terms.items():
        terms[n] = terms.get(n, CQ_ZERO) + c
    return PuiseuxSeries(a.ram, terms, trunc)


def ps_neg(a: PuiseuxSeries) -> PuiseuxSeries:
    return PuiseuxSeries(a.ram, {n: -c for n, c in a.terms.items()}, a.trunc)


def ps_sub(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    return ps_add(a, ps_neg(b))


def ps_scale(a: PuiseuxSeries, c: CQ) -> PuiseuxSeries:
    if c.is_zero:
        return PuiseuxSeries(a.ram, {}, a.trunc)
    return PuiseuxSeries(a.ram, {n: c * x for n, x in a.terms.items()}, a.trunc)


def ps_mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    a, b = common_ram(a, b)
    # honest truncation: N = min(N_a + val(b), N_b + val(a))
    trunc = min(a.trunc + b.val_or_trunc(), b.trunc + a.val_or_trunc())
    terms: dict[int, CQ] = {}
    for n, cn in a.terms.items():
        for m, cm in b.terms.items():
            k = n + m
            if k > trunc:
                continue
            terms[k] = terms.get(k, CQ_ZERO) + cn * cm
    return PuiseuxSeries(a.ram, terms, trunc)


def ps_derive(a: PuiseuxSeries) -> PuiseuxSeries:
    """Apply z·d/dz: the term t^n picks up the factor n/q."""
    q = a.ram
    return PuiseuxSeries(
        q, {n: c.scale(Fraction(n, q)) for n, c in a.terms.items()}, a.trunc)


def ps_ramify(a: PuiseuxSeries, m: int) -> PuiseuxSeries:
    """Substitute the variable by its m-th power: z^{n/q} becomes t^{nm/q}."""
    if m < 1:
        raise ValueError("ramification power must be positive")
    if m == 1:
        return a
    out = PuiseuxSeries(a.ram, {n * m: c for n, c in a.terms.items()},
                        a.trunc * m)
    return out.reduce_ram()


def ps_inverse(a: PuiseuxSeries) -> PuiseuxSeries:
    """Multiplicative inverse up to the computable truncation."""
    if a.is_zero:
        raise ZeroLeadingTerm("cannot invert a series with no visible leading term")
    v, c0 = a.leading()
    rel = a.trunc - v  # trusted relative precision
    # a = c0 t^v (1 + u) with val(u) >= 1; invert by geometric series
    inv_c0 = CQ_ONE / c0
    u_terms = {n - v: inv_c0 * c for n, c in a.terms.items() if n != v}
    u = PuiseuxSeries(a.ram, u_terms, rel)
    acc = PuiseuxSeries.one(a.ram, rel)
    pw = PuiseuxSeries.one(a.ram, rel)
    k = 0
    while not pw.is_zero and k * (u.val_or_trunc() or 1) <= rel:
        k += 1
        pw = ps_mul(pw, ps_neg(u))
        if pw.is_zero:
            break
        acc = ps_add(acc, pw)
    inv = ps_scale(acc, inv_c0)
    return PuiseuxSeries(a.ram, {n - v: c for n, c in inv.terms.items()},
                         rel - v)


def ps_eq_to_trunc(a: PuiseuxSeries, b: PuiseuxSeries) -> bool:
    """Equality on all exponents up to the shared truncation."""
    a, b = common_ram(a, b)
    n_max = min(a.trunc, b.trunc)
    for n in set(a.terms) | set(b.terms):
        if n > n_max:
            continue
        if not (a.coeff(n) - b.coeff(n)).is_zero:
            return False
    return True


def ps_eval(a: PuiseuxSeries, z: complex, branch: int = 0) -> complex:
    """Evaluate at a complex point; branch fixes t = exp((Log z + 2πi·branch)/q)."""
    if z == 0:
        raise ZeroDivisionError("cannot evaluate a Puiseux series at 0")
    if a.ram == 1:
        t = z
    else:
        t = cmath.exp((cmath.log(z) + 2j * math.pi * branch) / a.ram)
    return sum((c.to_complex() * t ** n for n, c in a.terms.items()), 0j)


# -- literal (wire) format ----------------------------------------------

def ps_to_literal(a: PuiseuxSeries) -> dict:
    """Series literal: term tuples [n, re_num, re_den, im_num, im_den]."""
    return {
        "ram": a.ram,
        "trunc": a.trunc,
        "terms": [
            [n, c.re.numerator, c.re.denominator,
             c.im.numerator, c.im.denominator]
            for n, c in a.terms.items()
        ],
    }


def ps_from_literal(lit) -> PuiseuxSeries:
    try:
        ram = int(lit["ram"])
        trunc = int(lit["trunc"])
        terms = {}
        for entry in lit["terms"]:
            n, rn, rd, imn, imd = entry
            terms[int(n)] = CQ(Fraction(int(rn), int(rd)),
                               Fraction(int(imn), int(imd)))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad series literal: {exc}") from exc
    return PuiseuxSeries(ram, terms, trunc)
