"""Exact linear algebra: `rank` and `rref` against sympy and each other,
and `charpoly`, `gaussian_roots` and `spectrum` against sympy.

`rank` and `rref` share one sparse elimination, so both must agree with
an independent exact rank and reduced row echelon form on every shape
the package can hand them, including empty and degenerate ones.
`gaussian_roots` must return the exact multiset of roots of a product of
linear factors over Q(i), repeated roots included.  `spectrum` must read
back the eigenvalues and Jordan partitions of P·J·P⁻¹ from any Jordan
matrix J.
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


def expanded_zero(x):
    # expand before each zero test: sympy keeps products of complex
    # numbers unexpanded, and a zero it cannot see would raise the rank
    return sympy.expand(x) == 0


@SETTINGS
@given(matrices())
def test_rank_matches_sympy_and_rref(m):
    rows = list(m)
    copy = [row[:] for row in m]
    r = exactla.rank(m)
    pivots = assert_rref_matches_sympy(m)
    assert m == copy and all(a is b for a, b in zip(m, rows))
    assert r == to_sympy(m).rank(iszerofunc=expanded_zero) == len(pivots)


def assert_rref_matches_sympy(m):
    """rref(m) has sympy's pivots, shape (trailing zero rows included) and
    entries; returns the pivots."""
    red, pivots = exactla.rref(m)
    expected, expected_pivots = to_sympy(m).rref(iszerofunc=expanded_zero)
    assert pivots == list(expected_pivots)
    assert len(red) == expected.rows
    assert all(len(row) == expected.cols for row in red)
    assert all(expanded_zero(to_sympy([[x]])[0, 0] - expected[i, j])
               for i, row in enumerate(red) for j, x in enumerate(row))
    return pivots


@st.composite
def square_matrices(draw):
    """1 × 1 to 4 × 4 over Q(i), about half the entries zero."""
    d = draw(st.integers(1, 4))
    return [[draw(st.one_of(st.just(CQ_ZERO), nonzero)) for _ in range(d)]
            for _ in range(d)]


@SETTINGS
@given(square_matrices())
def test_charpoly_matches_sympy(m):
    expected = to_sympy(m).charpoly(sympy.Symbol("t")).all_coeffs()
    coeffs = exactla.charpoly(m)
    assert len(coeffs) == len(expected) == len(m) + 1
    # sympy lists the leading coefficient first, charpoly the constant
    assert all(sympy.expand(to_sympy([[x]])[0, 0] - e) == 0
               for x, e in zip(reversed(coeffs), expected))


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
    assert len(assert_rref_matches_sympy(m)) == expected


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
    # its numeric candidate must come from p^(m−1), where it is simple
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


gaussian_ints = st.builds(CQ, st.integers(-2, 2), st.integers(-1, 1))


def jordan_conjugate(p, blocks):
    """(P·J·P⁻¹, {λ: partition}) for J with Jordan blocks (λ, size)."""
    d = sum(n for _, n in blocks)
    j, pos = exactla.zeros(d, d), 0
    for lam, n in blocks:
        for k in range(pos, pos + n):
            j[k][k] = lam
            if k > pos:
                j[k - 1][k] = CQ.of(1)
        pos += n
    m = exactla.mat_mul(exactla.mat_mul(p, j), exactla.inverse(p))
    expected: dict = {}
    for lam, n in blocks:
        expected.setdefault(lam, []).append(n)
    return m, {lam: sorted(ns, reverse=True) for lam, ns in expected.items()}


@st.composite
def jordan_conjugates(draw):
    """A Jordan matrix of size ≤ 4 conjugated by a Gaussian-integer P."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                 .filter(lambda s: sum(s) <= 4))
    lams = draw(st.lists(small_roots, min_size=1, max_size=len(sizes),
                         unique=True))
    d = sum(sizes)
    p = draw(st.lists(st.lists(gaussian_ints, min_size=d, max_size=d),
                      min_size=d, max_size=d)
             .filter(lambda p: exactla.rank(p) == d))
    return jordan_conjugate(p, [(draw(st.sampled_from(lams)), n) for n in sizes])


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(jordan_conjugates())
def test_spectrum_reads_back_jordan_form(case):
    m, expected = case
    d = len(m)
    spec = exactla.spectrum(m)
    roots = exactla.gaussian_roots(exactla.charpoly(m))
    assert [lam for lam, _, _ in spec] == [lam for lam, _ in roots]
    assert {lam: part for lam, _, part in spec} == expected
    for lam, basis, part in spec:
        assert len(basis) == sum(part) == exactla.rank(basis)
        shifted = [[m[i][k] - (lam if i == k else CQ_ZERO) for k in range(d)]
                   for i in range(d)]
        power = exactla.eye(d)
        for _ in range(d):
            power = exactla.mat_mul(shifted, power)
        cols = [[v[i] for v in basis] for i in range(d)]
        assert all(x.is_zero for row in exactla.mat_mul(power, cols) for x in row)


def sympy_jordan_partitions(m):
    """{λ: partition} read off the Jordan form sympy computes."""
    j = to_sympy(m).jordan_form(calc_transform=False)
    d, out, start = j.shape[0], {}, 0
    for k in range(d):
        if k == d - 1 or j[k, k + 1] == 0:
            out.setdefault(sympy.nsimplify(j[k, k]), []).append(k + 1 - start)
            start = k + 1
    return {lam: sorted(ns, reverse=True) for lam, ns in out.items()}


# sympy's jordan_form takes 0.2–4 s on a 4 × 4 over Q(i), too slow for
# every hypothesis example, so it checks the oracle on two fixed cases
GAUGE = [[c(1), c(1), c(0), c(0)], [c(0), c(1), c(0, 1), c(0)],
         [c(0), c(0), c(1), c(1)], [c(1), c(0), c(0), c(1)]]


@pytest.mark.parametrize("blocks", [
    [(c((1, 3), (-2, 5)), 2), (c((-1, 2), (1, 7)), 1), (c((1, 3), (-2, 5)), 1)],
    [(c(1, 1), 2), (c(1, 1), 2)],
])
def test_spectrum_matches_sympy_jordan_form(blocks):
    m, expected = jordan_conjugate(GAUGE, blocks)
    spec = exactla.spectrum(m)
    assert {lam: part for lam, _, part in spec} == expected
    assert sympy_jordan_partitions(m) == {to_sympy_cq(lam): part
                                          for lam, part in expected.items()}
