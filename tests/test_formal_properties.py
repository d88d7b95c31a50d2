"""Property tests: the fast paths of the formal reduction against the
general code they replace.

- ``unipotent_gauge(a, X, m, N)`` equals ``gauge_transform(a, I + X·tᵐ)``
  with every entry of the gauge at truncation N: the same terms and the
  same truncation in every entry.
- ``newton_polygon`` with capped entries equals the polygon of the full
  entries, and raises ``InsufficientTruncation`` on the same inputs.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from connexion_lab import catalog, formal
from connexion_lab.errors import InsufficientTruncation
from connexion_lab.formal import newton_polygon
from connexion_lab.model import (ConnectionGerm, gauge_transform, smat_eye,
                                 unipotent_gauge)
from connexion_lab.series import CQ, PuiseuxSeries, ps_add

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

small = st.integers(-2, 2)
gaussian = st.builds(CQ.of, small, small)


@st.composite
def series(draw, ram: int, lo: int = -3, hi: int = 8):
    """An entry with a pole of order ≤ 3, sometimes empty, any truncation."""
    trunc = draw(st.integers(lo - 1, hi))
    if trunc < lo or draw(st.integers(0, 4)) == 0:
        return PuiseuxSeries(ram, {}, trunc)
    exps = draw(st.lists(st.integers(lo, trunc), max_size=5))
    return PuiseuxSeries(ram, {n: draw(gaussian) for n in exps}, trunc)


@st.composite
def series_matrix(draw, d: int, ram: int):
    return [[draw(series(ram)) for _ in range(d)] for _ in range(d)]


@st.composite
def gauge_matrix(draw, d: int):
    """X with a free (often nonzero) diagonal; or X = u·vᵀ with vᵀu = 0, whose
    square cancels although no entry of X vanishes; or, at rank 4, X with
    Xᵢₖ = 0 and paths i→a→k, i→b→k that cancel in (X²)ᵢₖ."""
    x = [[draw(gaussian) for _ in range(d)] for _ in range(d)]
    kind = draw(st.sampled_from(("free", "square-zero", "diamond")))
    if kind == "square-zero" and d > 1:
        u = [draw(st.sampled_from((-2, -1, 1, 2))) for _ in range(d)]
        v = [draw(st.sampled_from((-1, 1))) * u[i] for i in range(d - 1)]
        v.append(Fraction(-sum(v[i] * u[i] for i in range(d - 1)), u[-1]))
        return [[CQ.of(u[i] * v[j]) for j in range(d)] for i in range(d)]
    if kind == "diamond" and d == 4:
        i, a, b, k = draw(st.permutations(range(4)))
        s1, s2, s3 = (draw(st.sampled_from((-1, 1))) for _ in range(3))
        x = [[x[r][c] if r == c else CQ.of(0) for c in range(d)]
             for r in range(d)]
        x[i][a], x[i][b], x[a][k], x[b][k] = (CQ.of(s1), CQ.of(s2), CQ.of(s3),
                                              CQ.of(-s1 * s2 * s3))
    return x


@st.composite
def gauge_case(draw):
    d = draw(st.integers(1, 4))
    ram = draw(st.integers(1, 2))
    return (draw(series_matrix(d, ram)), draw(gauge_matrix(d)),
            draw(st.integers(1, 6)), draw(st.integers(0, 8)))


def _full_gauge(a, x, m, trunc):
    d, ram = len(a), a[0][0].ram
    g = smat_eye(d, ram, trunc)
    for i in range(d):
        for j in range(d):
            g[i][j] = ps_add(g[i][j], PuiseuxSeries(ram, {m: x[i][j]}, trunc))
    return gauge_transform(a, g)


@SETTINGS
@given(gauge_case())
def test_unipotent_gauge_equals_gauge_transform(case):
    a, x, m, trunc = case
    fast = unipotent_gauge(a, x, m, trunc)
    full = _full_gauge(a, x, m, trunc)
    d = len(a)
    for i in range(d):
        for j in range(d):
            assert fast[i][j] == full[i][j], (i, j, fast[i][j], full[i][j])


def test_unipotent_gauge_reads_exact_powers():
    # (X²)₀₃ = X₀₁X₁₃ + X₀₂X₂₃ = 1 − 1 = 0 and X₀₃ = 0, so G⁻¹₀₃ is empty
    # (v = N = 6), not of valuation 2 as the sparsity pattern of X² says;
    # A′₀₃ keeps trunc 6 although AG₃₃ has trunc 0.
    zero, one = CQ.of(0), CQ.of(1)
    x = [[zero] * 4 for _ in range(4)]
    x[0][1] = x[0][2] = x[1][3] = one
    x[2][3] = -one
    e = PuiseuxSeries(1, {}, 6)
    a = [[e] * 4 for _ in range(4)]
    a[3][3] = PuiseuxSeries(1, {0: one}, 0)
    fast = unipotent_gauge(a, x, 1, 6)
    assert fast == _full_gauge(a, x, 1, 6)
    assert [s.trunc for s in fast[0]] == [6, 6, 6, 6]


def _uncapped(germ):
    with mock.patch.object(formal, "_cap_entries", lambda m, cap: m):
        return newton_polygon(germ)


def _same_polygon(germ):
    try:
        capped = newton_polygon(germ)
    except InsufficientTruncation:
        with pytest.raises(InsufficientTruncation):
            _uncapped(germ)
        return
    assert capped == _uncapped(germ)


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda d: st.integers(1, 2).flatmap(lambda q: series_matrix(d, q))))
def test_capped_polygon_equals_uncapped(matrix):
    _same_polygon(ConnectionGerm(len(matrix), matrix[0][0].ram, matrix))


@pytest.mark.parametrize("trunc", (0, 1, 2, 12))
@pytest.mark.parametrize("name", catalog.names())
def test_capped_polygon_on_catalog(name, trunc):
    _same_polygon(catalog.CATALOG[name].germ(trunc))
