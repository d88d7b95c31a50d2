"""Elementary models survive a gauge and ``formal_decompose``.

A drawn model is assembled, gauged by I + N·tᵏ with N² = 0 and then
conjugated by a dense unimodular constant P, so the germ no longer shows
its blocks.  Decomposing it must give the model back: the same
ramification, the same exponential factors φ and, under each φ, the same
residue exponents and Jordan partitions.  Repeated residue eigenvalues
(partitions such as (4,), (3, 1) and (2, 2)) and repeated leading
eigenvalues are the cases where the exact spectrum needs its numeric
candidates from the derivatives of the characteristic polynomial.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from connexion_lab import exactla
from connexion_lab.formal import formal_decompose
from connexion_lab.model import (ConnectionGerm, ElementaryModel,
                                 RegularBlockData, assemble_matrix,
                                 smat_from_const, smat_mul, unipotent_gauge)
from connexion_lab.series import CQ, CQ_ZERO, PuiseuxSeries

TRUNC = 12
PARTITIONS = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (3,), (2, 1),
              (1, 1, 1), (2,), (1, 1), (1,))

unit = st.sampled_from((-2, -1, 1, 2))
small = st.integers(-1, 1)
re_alpha = st.integers(1, 5).flatmap(
    lambda b: st.integers(0, b - 1).map(lambda a: Fraction(a, b)))
im_alpha = st.sampled_from((0, Fraction(1, 2), Fraction(-1, 2), 1))


@st.composite
def phis(draw, q: int):
    """φ with a pole of order 0–3 in t (0 gives φ = 0)."""
    pole = draw(st.integers(0, 3))
    terms = {-pole: CQ.of(draw(unit), draw(small))} if pole else {}
    for n in range(-pole + 1, 0):
        c = CQ.of(draw(small), draw(small))
        if not c.is_zero:
            terms[n] = c
    return PuiseuxSeries(q, terms, TRUNC)


@st.composite
def models(draw):
    """Rank ≤ 4: distinct φ's, and under each φ residue exponents that are
    not resonant in t (q·α distinct modulo the integers)."""
    q = draw(st.integers(1, 3))
    parts = [draw(st.sampled_from(PARTITIONS))]
    while sum(map(sum, parts)) < 4 and draw(st.booleans()):
        parts.append(draw(st.sampled_from(
            [p for p in PARTITIONS if sum(p) <= 4 - sum(map(sum, parts))])))
    blocks: list[tuple[PuiseuxSeries, list]] = []
    for part in parts:
        k = draw(st.integers(0, len(blocks)))
        if k == len(blocks):
            phi = draw(phis(q).filter(
                lambda f: all(f.terms != g.terms for g, _ in blocks)))
            blocks.append((phi, []))
        taken = {((q * r.alpha.re) % 1, r.alpha.im) for r in blocks[k][1]}
        alpha = draw(st.builds(CQ.of, re_alpha, im_alpha).filter(
            lambda a: ((q * a.re) % 1, a.im) not in taken))
        blocks[k][1].append(RegularBlockData(alpha, part))
    return ElementaryModel(q, tuple((phi, tuple(regs)) for phi, regs in blocks))


@st.composite
def square_zero(draw, d: int):
    """N = u·vᵀ with u supported on S and v off S, so vᵀu = 0 and N² = 0."""
    if d == 1:
        return exactla.zeros(1, 1)
    s = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d - 1))
    u = [draw(unit) if i in s else 0 for i in range(d)]
    v = [0 if j in s else draw(small) for j in range(d)]
    return [[CQ.of(ui * vj) for vj in v] for ui in u]


@st.composite
def unimodular(draw, d: int):
    """Dense P = L·U with L, U unit triangular and small integer entries."""
    low = [[CQ.of(1) if i == j else CQ.of(draw(small)) if i > j else CQ_ZERO
            for j in range(d)] for i in range(d)]
    up = [[CQ.of(1) if i == j else CQ.of(draw(unit)) if i < j else CQ_ZERO
           for j in range(d)] for i in range(d)]
    return exactla.mat_mul(low, up)


@st.composite
def round_trip_cases(draw):
    """(model, the gauged germ of its assembled matrix)."""
    model = draw(models())
    d, q = model.rank, model.ram
    a = unipotent_gauge(assemble_matrix(model, trunc=TRUNC).matrix,
                        draw(square_zero(d)), draw(st.integers(1, 3)), TRUNC)
    p = draw(unimodular(d))
    a = smat_mul(smat_from_const(exactla.inverse(p), q, TRUNC),
                 smat_mul(a, smat_from_const(p, q, TRUNC)))
    return model, ConnectionGerm(d, q, a)


def model_data(m: ElementaryModel):
    """ram and, per φ, the residue data; α as Re α + shift/q, Im α."""
    return m.ram, {
        tuple(sorted((n, c.re, c.im) for n, c in phi.terms.items())):
        Counter((r.alpha.re + Fraction(r.lattice_shift, m.ram), r.alpha.im,
                 r.partition) for r in regs)
        for phi, regs in m.blocks}


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(round_trip_cases())
def test_gauged_model_round_trips(case):
    model, germ = case
    assert model_data(formal_decompose(germ)) == model_data(model)
