"""Property tests: the fast paths of the formal reduction against the
general code they replace.

- ``unipotent_gauge(a, X, m, N)`` equals ``gauge_transform(a, I + X·tᵐ)``
  with every entry of the gauge at truncation N: the same terms and the
  same truncation in every entry.
- ``newton_polygon``, which sums the Leibniz terms of e_k in Gaussian
  integers and keeps only the orders that can still land below 0 (a
  capped polygon), gives the points of ``_leibniz_polygon``, the
  principal-minor sums of the full (uncapped) entries in CQ series, and
  raises ``InsufficientTruncation`` with the same message on the same
  inputs: on random matrices, on the catalog at low truncations, on
  rank-4 germs gauged by a dense constant matrix (where the leading
  orders of e_k cancel) and on entries with mixed denominators.  The
  exit-3 messages that low truncations give ``analyze`` are pinned.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from connexion_lab import catalog, cli, exactla
from connexion_lab.errors import InsufficientTruncation
from connexion_lab.formal import newton_polygon
from connexion_lab.model import (ConnectionGerm, gauge_transform, smat_eye,
                                 smat_from_const, smat_mul, unipotent_gauge)
from connexion_lab.series import CQ, PuiseuxSeries, ps_add, ps_mul, ps_neg

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


def _sdet(m):
    """Determinant of a small series matrix by Leibniz expansion."""
    d = len(m)
    acc = PuiseuxSeries(m[0][0].ram, {}, min(s.trunc for row in m for s in row))
    for perm in itertools.permutations(range(d)):
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        term = m[0][perm[0]]
        for i in range(1, d):
            term = ps_mul(term, m[i][perm[i]])
        acc = ps_add(acc, ps_neg(term) if odd else term)
    return acc


def _leibniz_polygon(germ):
    """Points of the polygon from e_k of the full entries, in CQ series."""
    m, d, q = germ.matrix, germ.rank, germ.ram
    pts = [(d, Fraction(0))]
    for k in range(1, d + 1):
        e_k = PuiseuxSeries(q, {}, min(s.trunc for row in m for s in row))
        for idx in itertools.combinations(range(d), k):
            e_k = ps_add(e_k, _sdet([[m[i][j] for j in idx] for i in idx]))
        v = e_k.valuation()
        if v is None and e_k.trunc < 0:
            raise InsufficientTruncation(
                f"cannot certify valuation of a degree-{d - k} "
                "characteristic coefficient")
        pts.append((d - k, min(Fraction(v or 0, q), Fraction(0))))
    return tuple(sorted(pts))


def _same_polygon(germ):
    """newton_polygon agrees with the oracle, the raised message included."""
    try:
        expected = _leibniz_polygon(germ)
    except InsufficientTruncation as exc:
        with pytest.raises(InsufficientTruncation) as got:
            newton_polygon(germ)
        assert str(got.value) == str(exc)
        return None
    poly = newton_polygon(germ)
    assert poly.points == expected
    return poly


@settings(SETTINGS, max_examples=300)
@given(st.integers(1, 4).flatmap(
    lambda d: st.integers(1, 2).flatmap(lambda q: series_matrix(d, q))))
def test_capped_polygon_equals_uncapped(matrix):
    _same_polygon(ConnectionGerm(len(matrix), matrix[0][0].ram, matrix))


@pytest.mark.parametrize("trunc", (0, 1, 2, 12))
@pytest.mark.parametrize("name", catalog.names())
def test_capped_polygon_on_catalog(name, trunc):
    _same_polygon(catalog.CATALOG[name].germ(trunc))


# P = L·U with L and U unit triangular, every entry below (above) the
# diagonal 1; P⁻¹ is integral, and P⁻¹·A·P spreads the poles of order 2
# over every column and over at least two rows
_L = [[CQ.of(int(i >= j)) for j in range(4)] for i in range(4)]
_U = [[CQ.of(int(i <= j)) for j in range(4)] for i in range(4)]
_P = exactla.mat_mul(_L, _U)


def _gauged(poles, trunc=6):
    """P⁻¹·A·P for A = diag(cᵢ·z^{−poleᵢ}) plus a tail of order 0 and 1."""
    coeffs = (CQ.of(1, 1), CQ.of(2), CQ.of(-1), CQ.of(0, (1, 2)))
    a = [[PuiseuxSeries(1, {0: CQ.of(i - j), 1: CQ.of(1, i)}, trunc)
          for j in range(4)] for i in range(4)]
    for i, (pole, c) in enumerate(zip(poles, coeffs)):
        a[i][i] = ps_add(a[i][i], PuiseuxSeries(1, {-pole: c}, trunc))
    p_inv = smat_from_const(exactla.inverse(_P), 1, trunc)
    return ConnectionGerm(4, 1, smat_mul(p_inv, smat_mul(
        a, smat_from_const(_P, 1, trunc))))


@pytest.mark.parametrize("poles,slopes", [
    ((2, 2, 1, 1), ((1, 2), (2, 2))),
    ((2, 1, 1, 0), ((0, 1), (1, 2), (2, 1))),
])
def test_polygon_of_gauged_rank4_pole2(poles, slopes):
    # the pole order is 2, but v(e_k) is −Σ of the k largest poles, above
    # −2k once k ≥ 3: the leading orders cancel across the Leibniz terms
    germ = _gauged(poles)
    vals = [[s.valuation() for s in row] for row in germ.matrix]
    assert min(map(min, vals)) == -2
    assert sum(row == [-2] * 4 for row in vals) >= 2
    poly = _same_polygon(germ)
    assert poly.slopes == tuple((Fraction(s), m) for s, m in slopes)
    assert poly.irregularity == sum(poles)


def test_polygon_with_mixed_denominators():
    # the z⁻² part of det cancels only if every denominator is cleared:
    # (1/3)(3/7) − (i/5)(−5i/7) = 0, so v(det) = −1, not −2
    c = lambda terms: PuiseuxSeries(1, {n: CQ.of(*v) for n, v in terms.items()},
                                    4)
    germ = ConnectionGerm(2, 1, [
        [c({-1: ((1, 3),), 0: (1,)}), c({-1: (0, (1, 5)), 2: ((1, 7),)})],
        [c({-1: (0, (-5, 7)), 1: ((1, 3), 1)}), c({-1: ((3, 7),), 0: (2,)})]])
    poly = _same_polygon(germ)
    assert poly.slopes == ((Fraction(0), 1), (Fraction(1), 1))


@pytest.mark.parametrize("name,trunc,message", [
    ("airy", 0, "cannot certify valuation of a degree-1 characteristic "
                "coefficient"),
    ("airy", 1, "cannot certify valuation of a degree-0 characteristic "
                "coefficient"),
    ("mixed-reg-irr", 0, "cannot certify valuation of a degree-0 "
                         "characteristic coefficient"),
    ("mixed-reg-irr", 1, "need at least one positive order"),
    ("rank2-stokes", 0, "cannot certify valuation of a degree-0 "
                        "characteristic coefficient"),
    ("rank2-stokes", 1, "need at least one positive order"),
])
def test_analyze_low_trunc_exit_3_messages(capsys, name, trunc, message):
    assert cli.main(["analyze", name, "--trunc", str(trunc)]) == 3
    err = capsys.readouterr().err
    assert err == f"decomposition error: InsufficientTruncation: {message}\n"
