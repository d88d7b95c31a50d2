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
import numbers
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .errors import ParseError, ZeroLeadingTerm


def _as_int(x, name: str) -> int:
    """An int or an integral float, as int; anything else is a ParseError."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Integral) or
                                   isinstance(x, float) and x.is_integer()):
        raise ParseError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    try:
        if isinstance(x, (int, str)) and not isinstance(x, bool):
            return Fraction(x)
        if isinstance(x, (list, tuple)) and len(x) == 2:
            return Fraction(*(_as_int(n, "fraction entry") for n in x))
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {x!r}") from exc
    raise ParseError(f"cannot interpret {x!r} as an exact rational")


class CQ:
    """Gaussian rational (a + b·i)/d, d > 0 and gcd(a, b, d) = 1: equal numbers
    have equal triples.  ``re`` and ``im`` read the parts as Fractions."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, re, im):
        if not all(isinstance(x, (int, Fraction)) for x in (re, im)):
            raise TypeError(f"CQ parts must be ints or Fractions: {re!r}, {im!r}")
        d = lcm(re.denominator, im.denominator)
        return _new(re.numerator * (d // re.denominator),
                    im.numerator * (d // im.denominator), d)

    @staticmethod
    def of(re, im=0) -> "CQ":
        return CQ(_as_fraction(re), _as_fraction(im))

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __setattr__(self, *_):
        raise AttributeError("CQ is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        return CQ, (self.re, self.im)

    def __eq__(self, other):
        if other.__class__ is not CQ:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other: "CQ") -> "CQ":
        d, e = self.d, other.d
        if d == e:
            return _new(self.a + other.a, self.b + other.b, d)
        return _new(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "CQ") -> "CQ":
        return self + -other

    def __neg__(self) -> "CQ":
        return _new(-self.a, -self.b, self.d)

    def __mul__(self, other: "CQ") -> "CQ":
        a, b, x, y = self.a, self.b, other.a, other.b
        return _new(a * x - b * y, a * y + b * x, self.d * other.d)

    def __truediv__(self, other: "CQ") -> "CQ":
        a, b, x, y = self.a, self.b, other.a, other.b
        n = x * x + y * y
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _new((a * x + b * y) * other.d, (b * x - a * y) * other.d,
                    self.d * n)

    def scale(self, r: Fraction) -> "CQ":
        return _new(self.a * r.numerator, self.b * r.numerator,
                    self.d * r.denominator)

    def conj(self) -> "CQ":
        return _new(self.a, -self.b, self.d)

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def to_complex(self) -> complex:
        return complex(self.a / self.d) + 1j * complex(self.b / self.d)

    def __repr__(self):
        return f"CQ({self.re}, {self.im})"


_set_a, _set_b, _set_d = CQ.a.__set__, CQ.b.__set__, CQ.d.__set__


def _new(a: int, b: int, d: int) -> CQ:
    """(a + b·i)/d for d > 0, in lowest terms."""
    g = gcd(a, b, d)
    z = object.__new__(CQ)
    _set_a(z, a // g)
    _set_b(z, b // g)
    _set_d(z, d // g)
    return z


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

    def coeff(self, n: int) -> CQ:
        return self.terms.get(n, CQ_ZERO)

    def leading(self) -> tuple[int, CQ]:
        if not self.terms:
            raise ZeroLeadingTerm("series is zero to truncation")
        v = min(self.terms)
        return v, self.terms[v]

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
    terms = dict(a.terms)
    for n, c in b.terms.items():
        terms[n] = terms.get(n, CQ_ZERO) + c
    return PuiseuxSeries(a.ram, terms, min(a.trunc, b.trunc))


def ps_neg(a: PuiseuxSeries) -> PuiseuxSeries:
    return PuiseuxSeries(a.ram, {n: -c for n, c in a.terms.items()}, a.trunc)


def ps_sub(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    return ps_add(a, ps_neg(b))


def ps_scale(a: PuiseuxSeries, c: CQ) -> PuiseuxSeries:
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


def ps_eval(a: PuiseuxSeries, log_z: complex) -> complex:
    """Σ cₙ·tⁿ at t = e^{log_z/q}, one point in Python complex arithmetic;
    log_z fixes the branch."""
    t = cmath.exp(log_z / a.ram)
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
        ram = _as_int(lit["ram"], "ram")
        trunc = _as_int(lit["trunc"], "trunc")
        terms = {}
        for entry in lit["terms"]:
            n, rn, rd, imn, imd = (_as_int(x, "term entry") for x in entry)
            terms[n] = CQ(Fraction(rn, rd), Fraction(imn, imd))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad series literal: {exc}") from exc
    return PuiseuxSeries(ram, terms, trunc)
