"""The spectral split against a pairwise oracle.

``eager_split`` is the earlier ``formal.split_by_spectrum``: it reads the
spectrum itself and, at every order, solves one Kronecker Sylvester
system per pair of blocks.  The split in ``formal`` takes the spectrum
from its caller and inverts one Sylvester operator per split; its parts
must equal the oracle's, entries, terms and truncations alike.  With a
watermark its parts must equal the oracle's up to it, every truncation
included, and ``formal_decompose`` must give the model of a run whose
splits are all the oracle's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexion_lab import catalog, exactla, formal
from connexion_lab.errors import ConnexionLabError, InsufficientTruncation
from connexion_lab.formal import _cols, _const_gauge, split_by_spectrum
from connexion_lab.model import (ConnectionGerm, ElementaryModel,
                                 RegularBlockData, assemble_matrix, smat_coeff,
                                 smat_min_trunc, smat_min_val, unipotent_gauge)
from connexion_lab.series import CQ, CQ_ONE, CQ_ZERO, PuiseuxSeries


def solve(m, rhs):
    """One solution of m·x = rhs, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [m[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = exactla.rref(aug)
    if cols in pivots:
        return None
    x = [CQ_ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def _sylvester_solve(left, right, rhs):
    """Solve left·X − X·right = rhs for X (exact, vectorized)."""
    p, n = len(left), len(right)
    big = exactla.zeros(p * n, p * n)
    vec_rhs = []
    for i in range(p):
        for j in range(n):
            r = i * n + j
            vec_rhs.append(rhs[i][j])
            for k in range(p):
                big[r][k * n + j] = big[r][k * n + j] + left[i][k]
            for k in range(n):
                big[r][i * n + k] = big[r][i * n + k] - right[k][j]
    x = solve(big, vec_rhs)
    assert x is not None, "leading Sylvester block is singular"
    return [[x[i * n + j] for j in range(n)] for i in range(p)]


def eager_split(germ):
    """Clear every off-diagonal block pair, order by order, one solve each."""
    d, q = germ.rank, germ.ram
    a = germ.matrix
    v = -(smat_min_val(a) or 0)
    groups = exactla.spectrum(smat_coeff(a, -v))
    ordered, spans, pos = [], [], 0
    for _, basis, _ in groups:
        ordered.extend(basis)
        spans.append((pos, pos + len(basis)))
        pos += len(basis)
    a = _const_gauge(a, _cols(ordered, d))
    trunc = smat_min_trunc(a)
    lead_now = smat_coeff(a, -v)
    lead_blocks = [[[lead_now[i][j] for j in range(lo, hi)]
                    for i in range(lo, hi)] for lo, hi in spans]
    for order in range(-v + 1, trunc + 1):
        coef = smat_coeff(a, order)
        x_full = exactla.zeros(d, d)
        dirty = False
        for bi, (lo_i, hi_i) in enumerate(spans):
            for bj, (lo_j, hi_j) in enumerate(spans):
                if bi == bj:
                    continue
                c = [[coef[i][j] for j in range(lo_j, hi_j)]
                     for i in range(lo_i, hi_i)]
                if all(x.is_zero for row in c for x in row):
                    continue
                x = _sylvester_solve(lead_blocks[bi], lead_blocks[bj],
                                     [[-y for y in row] for row in c])
                for i in range(hi_i - lo_i):
                    for j in range(hi_j - lo_j):
                        x_full[lo_i + i][lo_j + j] = x[i][j]
                dirty = True
        if dirty:
            a = unipotent_gauge(a, x_full, order + v, trunc)
    return [ConnectionGerm(hi - lo, q, [[a[i][j] for j in range(lo, hi)]
                                        for i in range(lo, hi)])
            for lo, hi in spans]


def _germ(q, v, trunc, p, coeffs):
    """P⁻¹·(Σₙ Aₙ·tⁿ)·P with every entry at truncation ``trunc``."""
    p_inv = exactla.inverse(p)
    conj = {n: exactla.mat_mul(p_inv, exactla.mat_mul(c, p))
            for n, c in coeffs.items()}
    d = len(p)
    return ConnectionGerm(d, q, [[PuiseuxSeries(q, {n: c[i][j] for n, c in conj.items()},
                                                trunc) for j in range(d)]
                                 for i in range(d)])


gint = st.builds(CQ.of, st.integers(-1, 1), st.integers(-1, 1))


@st.composite
def split_germs(draw):
    """Block-diagonal lead·t^{−v} plus random lower orders, conjugated by P."""
    q, v = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)
                 .filter(lambda s: sum(s) <= 4))
    d = sum(sizes)
    eigs = draw(st.lists(st.builds(CQ.of, st.integers(-3, 3), st.integers(-2, 2)),
                         min_size=len(sizes), max_size=len(sizes), unique=True))
    lead, pos = exactla.zeros(d, d), 0
    for lam, size in zip(eigs, sizes):
        for i in range(pos, pos + size):
            lead[i][i] = lam
            for j in range(i + 1, pos + size):
                lead[i][j] = draw(gint)
        pos += size
    trunc = draw(st.integers(0, 10))
    mats = st.lists(st.lists(gint, min_size=d, max_size=d), min_size=d, max_size=d)
    coeffs = {-v: lead}
    for n in draw(st.lists(st.integers(-v + 1, trunc), max_size=4, unique=True)):
        coeffs[n] = draw(mats)
    p = draw(mats.filter(lambda m: exactla.rank(m) == d))
    return _germ(q, v, trunc, p, coeffs)


def _check(germ):
    v = -smat_min_val(germ.matrix)
    groups = exactla.spectrum(smat_coeff(germ.matrix, -v))
    try:
        want = eager_split(germ)
    except ValueError:  # the oracle's gauge refuses a truncation below 0
        with pytest.raises(InsufficientTruncation):
            split_by_spectrum(germ, groups)
        return
    got = split_by_spectrum(germ, groups)
    assert [g.rank for g in got] == [w.rank for w in want]
    for g, w in zip(got, want):
        assert g.ram == w.ram and g.matrix == w.matrix


@settings(max_examples=40, deadline=None)
@given(split_germs())
def test_split_matches_pairwise_oracle(germ):
    _check(germ)


@pytest.mark.parametrize("trunc,working", [(0, -2), (1, -1), (4, 2)])
def test_split_matches_oracle_at_low_truncation(trunc, working):
    # v = 2: at working truncation −2 nothing is cleared, at −1 order −1
    # would be cleared below truncation 0, at 2 orders −1 … 2 are cleared
    one, i = CQ.of(1), CQ.of(0, 1)
    lead = [[one, one, CQ_ZERO], [CQ_ZERO, one, CQ_ZERO],
            [CQ_ZERO, CQ_ZERO, -i]]
    low = [[one, CQ_ZERO, i], [CQ_ZERO, CQ_ZERO, one], [one, -one, CQ_ZERO]]
    p = [[one, one, CQ_ZERO], [CQ_ZERO, one, i], [one, CQ_ZERO, one]]
    germ = _germ(1, 2, trunc, p, {-2: lead, -1: low, 0: low})
    basis = [u for _, b, _ in exactla.spectrum(lead) for u in b]
    assert smat_min_trunc(_const_gauge(germ.matrix, _cols(basis, 3))) == working
    _check(germ)


# -- the demand-driven split inside formal_decompose --------------------------

def _outcome(germ):
    try:
        return repr(formal.formal_decompose(germ))
    except ConnexionLabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_as_eager(germ):
    """``formal_decompose`` equals the run with every split the eager one."""
    got = _outcome(germ)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formal, "split_by_spectrum", lambda g, groups, top: eager_split(g))
        try:
            assert got == _outcome(germ)
        except ValueError:  # the oracle's gauge refuses a truncation below 0
            assert got.startswith("InsufficientTruncation: ")


def _v3_germ(trunc):
    # lead diag(1, 1, −1)·t^{−3} with a Jordan block; clearing order −2
    # moves the diagonal blocks from order 2·(−2) + 3 = −1 on
    one, i = CQ.of(1), CQ.of(0, 1)
    lead = [[one, one, CQ_ZERO], [CQ_ZERO, one, CQ_ZERO],
            [CQ_ZERO, CQ_ZERO, -one]]
    low = [[CQ_ZERO, i, one], [one, CQ_ZERO, -one], [one, i, CQ_ZERO]]
    mid = [[i, CQ_ZERO, CQ_ZERO], [CQ_ZERO, one, one], [-one, CQ_ZERO, one]]
    p = [[one, one, CQ_ZERO], [CQ_ZERO, one, i], [one, CQ_ZERO, one]]
    return _germ(1, 3, trunc, p, {-3: lead, -2: low, -1: mid, 0: low, 2: mid})


@pytest.mark.parametrize("trunc", [12, 24, 48, 96])
@pytest.mark.parametrize("name", list(catalog.CATALOG))
def test_decompose_matches_eager_splits_on_catalog(name, trunc):
    _assert_same_as_eager(catalog.CATALOG[name].germ(trunc))


@pytest.mark.parametrize("trunc", [2, 12, 16, 24, 48])
def test_decompose_matches_eager_splits_when_clearing_reaches_the_blocks(trunc):
    _assert_same_as_eager(_v3_germ(trunc))


def test_v3_clearing_reaches_the_diagonal_blocks_below_order_0():
    germ = _v3_germ(16)
    groups = exactla.spectrum(smat_coeff(germ.matrix, -3))
    basis = [u for _, b, _ in groups for u in b]
    before = _const_gauge(germ.matrix, _cols(basis, 3))
    jordan = eager_split(germ)[0]
    assert smat_coeff(jordan.matrix, -1) != [row[:2] for row in smat_coeff(before, -1)[:2]]


def _check_lazy(germ, top):
    """Parts exact up to their watermark, every truncation the eager one."""
    v = -smat_min_val(germ.matrix)
    groups = exactla.spectrum(smat_coeff(germ.matrix, -v))
    try:
        want = eager_split(germ)
    except ValueError:
        with pytest.raises(InsufficientTruncation):
            split_by_spectrum(germ, groups, top)
        return
    try:
        got = split_by_spectrum(germ, groups, top)
    except formal.NeedOrder:
        return
    for g, w in zip(got, want, strict=True):
        assert g.exact is None or g.exact >= min(top, max(
            s.trunc for row in w.matrix for s in row))
        for gs, ws in zip(sum(g.matrix, []), sum(w.matrix, [])):
            cut = gs.trunc if g.exact is None else g.exact
            assert gs.trunc == ws.trunc
            assert ({n: c for n, c in gs.terms.items() if n <= cut}
                    == {n: c for n, c in ws.terms.items() if n <= cut})


@settings(max_examples=40, deadline=None)
@given(split_germs(), st.integers(-1, 6))
def test_lazy_split_matches_oracle_to_its_watermark(germ, top):
    _check_lazy(germ, top)


@pytest.mark.parametrize("top", [-1, 0, 1, 3])
def test_lazy_split_v3_matches_oracle_to_its_watermark(top):
    _check_lazy(_v3_germ(16), top)


def _restart_blocks(v):
    """φ = +t⁻ᵛ with α = 0 in one Jordan block of 3, φ = −t⁻ᵛ with α = 1/2."""
    return ({-v: 1}, [(0, (3,))]), ({-v: -1}, [((1, 2), (1,))])


def _restart_model(blocks, trunc):
    """The unramified model with one (φ terms, ((α, partition), …)) per block."""
    return ElementaryModel(1, tuple(
        (PuiseuxSeries(1, {n: CQ.of(c) for n, c in phi.items()}, trunc),
         tuple(RegularBlockData(CQ.of(alpha), p) for alpha, p in regs))
        for phi, regs in blocks))


def _blocks(model):
    return {tuple(phi.terms.items()): regs for phi, regs in model.blocks}


@pytest.mark.parametrize("blocks,trunc,need", [
    (_restart_blocks(2), 12, 3), (_restart_blocks(2), 24, 3),
    (_restart_blocks(3), 16, 5), (_restart_blocks(3), 48, 5),
    # φ = t⁻² ± t⁻¹ part at the second split, which reads above the watermark
    ((({-2: 1, -1: 1}, [(0, (2,))]), ({-2: 1, -1: -1}, [(0, (1,))]),
      ({-2: -1}, [((1, 2), (1,))])), 24, 3)])
def test_decompose_restarts_above_the_first_watermark(blocks, trunc, need):
    # a rank-3 part reads order `need` while the first watermark is 2, so
    # formal_decompose must double it and start again
    model = _restart_model(blocks, trunc)
    x = exactla.zeros(4, 4)
    x[3][0] = x[3][2] = CQ_ONE  # X² = 0
    a = unipotent_gauge(assemble_matrix(model, trunc=trunc).matrix, x, 1, trunc)
    p = exactla.eye(4)
    for i in range(3):
        p[i][i + 1] = CQ_ONE
    g = ConnectionGerm(4, 1, _const_gauge(a, p))
    with pytest.raises(formal.NeedOrder) as need_order:
        formal._decompose(g, formal.FIRST_WATERMARK)
    assert need_order.value.args == (need,)
    assert _blocks(formal.formal_decompose(g)) == _blocks(model)
    _assert_same_as_eager(g)
