"""Exact arithmetic of truncated Puiseux series over the Gaussian rationals."""

import cmath
import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexion_lab.errors import ParseError, ZeroLeadingTerm
from connexion_lab.series import (CQ, CQ_I, CQ_ONE, CQ_ZERO, PuiseuxSeries,
                                  common_ram, ps_add, ps_derive, ps_eq_to_trunc,
                                  ps_eval, ps_from_literal, ps_mul, ps_neg,
                                  ps_ramify, ps_scale, ps_sub,
                                  ps_to_literal, quarter_root)


def rand_cq(rng):
    return CQ(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
              Fraction(rng.randint(-6, 6), rng.randint(1, 5)))


def rand_series(rng, ram, lo=-4, hi=6, trunc=10):
    terms = {}
    for n in range(lo, hi):
        if rng.random() < 0.4:
            c = rand_cq(rng)
            if not c.is_zero:
                terms[n] = c
    return PuiseuxSeries(ram, terms, trunc)


def test_cq_field_ops():
    a = CQ.of((3, 4), (-1, 2))
    b = CQ.of(2, (1, 3))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert a * a.conj() == CQ.of(Fraction(3, 4) ** 2 + Fraction(1, 2) ** 2)
    assert CQ_I * CQ_I == -CQ_ONE


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


# the Fraction-pair formulas: each CQ operation against (re, im) pairs
REFERENCE_OPS = {
    "add": (operator.add, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "sub": (operator.sub, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "mul": (operator.mul, lambda x, y: (x[0] * y[0] - x[1] * y[1],
                                        x[0] * y[1] + x[1] * y[0])),
    "div": (operator.truediv, _ref_div),
    "neg": (lambda u, v: -u, lambda x, y: (-x[0], -x[1])),
    "conj": (lambda u, v: u.conj(), lambda x, y: (x[0], -x[1])),
    "scale": (lambda u, v: u.scale(v.re), lambda x, y: (x[0] * y[0], x[1] * y[0])),
}

parts = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                  st.fractions(max_denominator=10 ** 12),
                  st.fractions(-3, 3, max_denominator=12))


def _check_cq(z, re, im):
    assert (type(z.re), type(z.im)) == (Fraction, Fraction)
    assert (z.re, z.im) == (re, im)
    assert repr(z) == f"CQ({Fraction(re)}, {Fraction(im)})"
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert z == CQ(re, im) and hash(z) == hash((Fraction(re), Fraction(im)))
    assert z.is_zero == (re == 0 and im == 0)
    assert z.to_complex() == complex(Fraction(re)) + 1j * complex(Fraction(im))
    for twin in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
        assert type(twin) is CQ and (twin.a, twin.b, twin.d) == (z.a, z.b, z.d)


@settings(max_examples=300, deadline=None)
@given(parts, parts, parts, parts, st.sampled_from(sorted(REFERENCE_OPS)))
def test_cq_matches_the_fraction_pair_reference(xr, xi, yr, yi, name):
    op, ref = REFERENCE_OPS[name]
    x, y = CQ(xr, xi), CQ(yr, yi)
    _check_cq(x, xr, xi)
    if name == "div" and y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    _check_cq(op(x, y), *ref((Fraction(xr), Fraction(xi)),
                             (Fraction(yr), Fraction(yi))))


def test_cq_refuses_floats_zero_division_and_assignment():
    with pytest.raises(TypeError):
        CQ(0.5, 0)
    with pytest.raises(TypeError):
        CQ(Fraction(1), 0.0)
    with pytest.raises(ZeroDivisionError):
        CQ_ONE / CQ_ZERO
    z = CQ.of((1, 2), 3)
    for field in ("a", "re", "other"):
        with pytest.raises(AttributeError):
            setattr(z, field, 1)
    with pytest.raises(AttributeError):
        del z.d
    assert (z.a, z.b, z.d) == (1, 6, 2)


def test_quarter_roots_cycle():
    assert quarter_root(0) == CQ_ONE
    assert quarter_root(1) == CQ_I
    assert quarter_root(2) == -CQ_ONE
    assert quarter_root(5) == CQ_I
    prod = CQ_ONE
    for _ in range(4):
        prod = prod * CQ_I
    assert prod == CQ_ONE


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_series(rng, 2)
        b = rand_series(rng, 2)
        c = rand_series(rng, 2)
        assert ps_eq_to_trunc(ps_add(a, b), ps_add(b, a))
        assert ps_eq_to_trunc(ps_mul(a, b), ps_mul(b, a))
        assert ps_eq_to_trunc(ps_mul(a, ps_add(b, c)),
                              ps_add(ps_mul(a, b), ps_mul(a, c)))
        assert ps_eq_to_trunc(ps_sub(a, a), PuiseuxSeries(2, {}, a.trunc))


def test_truncation_is_honest():
    # product truncation: min over cross terms of val + other.trunc
    a = PuiseuxSeries(1, {2: CQ_ONE}, 10)
    b = PuiseuxSeries(1, {3: CQ_ONE}, 10)
    p = ps_mul(a, b)
    assert p.coeff(5) == CQ_ONE
    assert p.trunc <= 13


def test_derivation_leibniz():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_series(rng, 3)
        b = rand_series(rng, 3)
        lhs = ps_derive(ps_mul(a, b))
        rhs = ps_add(ps_mul(ps_derive(a), b), ps_mul(a, ps_derive(b)))
        assert ps_eq_to_trunc(lhs, rhs)


def test_derive_eigenvalue():
    # z∂ acts on t^n (t^q = z) by n/q
    s = PuiseuxSeries(4, {3: CQ.of(2)}, 12)
    d = ps_derive(s)
    assert d.coeff(3) == CQ.of((3, 2))  # 2 * 3/4


def test_ramify_is_ring_morphism():
    rng = random.Random(13)
    for _ in range(25):
        a = rand_series(rng, 1)
        b = rand_series(rng, 1)
        m = rng.choice([2, 3, 4])
        assert ps_eq_to_trunc(ps_ramify(ps_mul(a, b), m),
                              ps_mul(ps_ramify(a, m), ps_ramify(b, m)))
        assert ps_eq_to_trunc(ps_ramify(ps_add(a, b), m),
                              ps_add(ps_ramify(a, m), ps_ramify(b, m)))


def test_ramify_derive_commutation():
    # t∂_t (f ∘ p_m) = m · (z∂f) ∘ p_m for the pullback p_m: t ↦ t^m
    rng = random.Random(17)
    for _ in range(20):
        a = rand_series(rng, 1)
        m = rng.choice([2, 3])
        lhs = ps_derive(ps_ramify(a, m))
        rhs = ps_scale(ps_ramify(ps_derive(a), m), CQ.of(m))
        assert ps_eq_to_trunc(lhs, rhs)


def ps_inverse(a: PuiseuxSeries) -> PuiseuxSeries:
    """Multiplicative inverse up to the computable truncation (a test helper:
    the package divides by no series)."""
    if a.is_zero:
        raise ZeroLeadingTerm("cannot invert a series with no visible leading term")
    v, c0 = a.leading()
    rel = a.trunc - v  # trusted relative precision
    # a = c0 t^v (1 + u) with val(u) >= 1; invert by geometric series
    inv_c0 = CQ_ONE / c0
    u_terms = {n - v: inv_c0 * c for n, c in a.terms.items() if n != v}
    u = PuiseuxSeries(a.ram, u_terms, rel)
    acc = PuiseuxSeries(a.ram, {0: CQ_ONE}, rel)
    pw = acc
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


def test_inverse():
    rng = random.Random(19)
    for _ in range(25):
        a = rand_series(rng, 2, lo=-3, hi=5)
        if a.is_zero:
            continue
        inv = ps_inverse(a)
        prod = ps_mul(a, inv)
        one = PuiseuxSeries(2, {0: CQ_ONE}, prod.trunc)
        assert ps_eq_to_trunc(prod, one)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroLeadingTerm):
        ps_inverse(PuiseuxSeries(1, {}, 8))


def test_common_ram():
    a = PuiseuxSeries(2, {1: CQ_ONE}, 8)
    b = PuiseuxSeries(3, {1: CQ_ONE}, 9)
    a6, b6 = common_ram(a, b)
    assert a6.ram == b6.ram == 6
    assert a6.coeff(3) == CQ_ONE and b6.coeff(2) == CQ_ONE


def test_literal_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        a = rand_series(rng, rng.choice([1, 2, 4]))
        lit = ps_to_literal(a)
        b = ps_from_literal(lit)
        assert a.ram == b.ram and a.trunc == b.trunc and a.terms == b.terms


def test_bad_literal_raises():
    with pytest.raises(ParseError):
        ps_from_literal({"ram": 1, "terms": [[0, 1]]})
    with pytest.raises(ParseError):
        ps_from_literal({"ram": "x", "trunc": 3, "terms": []})


def test_eval_matches_terms():
    s = PuiseuxSeries(1, {-1: CQ.of(2), 1: CQ.of(0, 1)}, 10)
    z = 0.3 + 0.1j
    assert abs(ps_eval(s, cmath.log(z)) - (2 / z + 1j * z)) < 1e-14


def test_eval_branches_of_sqrt():
    s = PuiseuxSeries(2, {1: CQ_ONE}, 10)  # z^{1/2}
    z = 0.2 + 0.05j
    v0 = ps_eval(s, cmath.log(z))
    v1 = ps_eval(s, cmath.log(z) + 2j * math.pi)
    assert abs(v0 + v1) < 1e-14
    assert abs(v0 * v0 - z) < 1e-14
