"""Exact linear algebra: the sparse `rank` against sympy and against `rref`.

`rank` eliminates over sparse rows on its own, apart from `rref`, so
both must agree with an independent exact rank on every shape the package
can hand them, including empty and degenerate ones.
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
