"""Exact linear algebra: the sparse `rank` against sympy and against `rref`,
and `gaussian_roots` against sympy.

`rank` eliminates over sparse rows on its own, apart from `rref`, so
both must agree with an independent exact rank on every shape the package
can hand them, including empty and degenerate ones.  `gaussian_roots`
must return the exact multiset of roots of a product of linear factors
over Q(i), repeated roots included.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from connexion_lab import exactla
from connexion_lab.series import CQ, CQ_ZERO

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
nonzero = st.builds(CQ, fractions, fractions).filter(lambda x: not x.is_zero)
# mostly zero, as in the index windows; the imaginary parts are free
entries = st.one_of(st.just(CQ_ZERO), st.just(CQ_ZERO), st.just(CQ_ZERO),
                    nonzero)


@st.composite
def matrices(draw):
    """0–12 rows and columns; some rows are CQ combinations of earlier ones."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    m = []
    for _ in range(rows):
        if m and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(m), min_size=1, max_size=3))
            row = [CQ_ZERO] * cols
            for src in picks:
                c = draw(nonzero)
                row = [x + c * y for x, y in zip(row, src)]
        else:
            row = [draw(entries) for _ in range(cols)]
        m.append(row)
    return m


def to_sympy(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    return sympy.Matrix(rows, cols, [
        sympy.Rational(x.re.numerator, x.re.denominator)
        + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)
        for row in m for x in row])


@SETTINGS
@given(matrices())
def test_rank_matches_sympy_and_rref(m):
    rows = list(m)
    copy = [row[:] for row in m]
    r = exactla.rank(m)
    assert m == copy and all(a is b for a, b in zip(m, rows))
    # expand before each zero test: sympy keeps products of complex
    # numbers unexpanded, and a zero it cannot see would raise the rank
    assert r == to_sympy(m).rank(iszerofunc=lambda x: sympy.expand(x) == 0)
    assert r == len(exactla.rref(m)[1])


def c(re, im=0):
    return CQ.of(re, im)


@pytest.mark.parametrize("m,expected", [
    ([], 0),
    ([[], []], 0),
    (exactla.zeros(3, 5), 0),
    ([[CQ_ZERO, c(0, 2), CQ_ZERO, c(1)]], 1),
    ([[CQ_ZERO] * 4], 0),
    ([[CQ_ZERO], [c((1, 3), -1)], [CQ_ZERO]], 1),
    ([[CQ_ZERO], [CQ_ZERO]], 0),
    (exactla.eye(4), 4),
    # second row is (1 + i) times the first
    ([[c(1), c(0, 1)], [c(1, 1), c(-1, 1)]], 1),
])
def test_rank_fixed_cases(m, expected):
    assert exactla.rank(m) == expected
    assert len(exactla.rref(m)[1]) == expected


small_roots = st.builds(
    CQ, st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)))


@st.composite
def root_multisets(draw):
    """Distinct Gaussian-rational roots with multiplicities summing to ≤ 4."""
    roots = draw(st.lists(small_roots, min_size=1, max_size=4, unique=True))
    mults = []
    for r in roots:
        left = 4 - sum(mults)
        if left == 0:
            break
        mults.append(draw(st.integers(1, left)))
    return dict(zip(roots, mults))


def expand(lead, multiset):
    """Coefficients [c_0..c_n] of lead·∏(T − r)^m."""
    coeffs = [lead]
    for r, m in multiset.items():
        for _ in range(m):
            shifted = [CQ_ZERO] + coeffs
            coeffs = [s - r * c for s, c in zip(shifted, coeffs + [CQ_ZERO])]
    return coeffs


def to_sympy_cq(x):
    return to_sympy([[x]])[0, 0]


@SETTINGS
@given(root_multisets(), nonzero)
def test_gaussian_roots_of_products(multiset, lead):
    # a root of multiplicity m scatters numerically by about eps^(1/m), so
    # the numeric candidates must come from the square-free part
    coeffs = expand(lead, multiset)
    found = exactla.gaussian_roots(coeffs)
    assert dict(found) == multiset and len(found) == len(multiset)
    # sympy: each root r of multiplicity m kills p, p′, …, p^(m−1) but not
    # p^(m), and the multiplicities add up to the degree
    poly = sympy.Poly([to_sympy_cq(c) for c in reversed(coeffs)],
                      sympy.Symbol("t"), domain=sympy.QQ_I)
    assert poly.degree() == sum(multiset.values())
    for r, m in found:
        derivs = [poly]
        for _ in range(m):
            derivs.append(derivs[-1].diff())
        at_r = [p.eval(to_sympy_cq(r)) for p in derivs]
        assert at_r[:m] == [0] * m and at_r[m] != 0
