"""Germs, elementary models, gauge moves and the spec-file schema."""

import cmath
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexion_lab.catalog import CATALOG
from connexion_lab.errors import IrrationalRootOfUnity, ParseError
from connexion_lab.model import (ConnectionGerm, ElementaryModel,
                                 RegularBlockData, _rotation_matches,
                                 assemble_matrix,
                                 descends_to_base, gauge_transform,
                                 germ_or_model_from_dict, model_to_dict,
                                 ramified_pullback, sigma_pullback,
                                 smat_eye, smat_mul, smat_neumann_inverse,
                                 twist_by_exponential)
from connexion_lab.series import (CQ, CQ_ONE, PuiseuxSeries, common_ram,
                                  ps_eq_to_trunc, ps_sub, quarter_root)

TR = 16


def mono(ram, n, re, im=0, trunc=TR):
    c = CQ.of(re, im)
    return PuiseuxSeries(ram, {n: c} if not c.is_zero else {}, trunc)


def zero(ram=1, trunc=TR):
    return PuiseuxSeries(ram, {}, trunc)


def reg(alpha, partition):
    a = alpha if isinstance(alpha, CQ) else CQ.of(alpha)
    return RegularBlockData(a, tuple(partition))


def smat_eq(a, b):
    return all(ps_eq_to_trunc(x, y) for ra, rb in zip(a, b)
               for x, y in zip(ra, rb))


def test_regular_block_validation():
    with pytest.raises(ValueError):
        RegularBlockData(CQ.of(2), (1,))  # Re(alpha) outside [0,1)
    with pytest.raises(ValueError):
        RegularBlockData(CQ.of(0), ())


def test_model_requires_distinct_phis():
    phi = mono(1, -1, 1)
    with pytest.raises(ValueError):
        ElementaryModel(1, ((phi, (reg(0, (1,)),)),
                            (phi, (reg((1, 2), (1,)),))))


def test_model_requires_negative_phi_support():
    with pytest.raises(ValueError):
        ElementaryModel(1, ((mono(1, 1, 1), (reg(0, (1,)),)),))


def test_assemble_shapes_and_entries():
    m = ElementaryModel(1, (
        (mono(1, -1, 1), (reg((1, 2), (2,)),)),
        (zero(), (reg(0, (1,)),)),
    ))
    g = assemble_matrix(m, trunc=TR)
    assert g.rank == 3 and g.ram == 1
    # diagonal: zφ' − α = −z^{-1} − 1/2 on the first block
    assert g.matrix[0][0].coeff(-1) == CQ.of(-1)
    assert g.matrix[0][0].coeff(0) == CQ.of((-1, 2))
    # Jordan sub-diagonal entry
    assert g.matrix[1][0].coeff(0) == CQ_ONE
    assert g.matrix[2][2].is_zero


def test_neumann_inverse():
    rng = random.Random(3)
    d = 3
    g = smat_eye(d, 1, TR)
    for i in range(d):
        for j in range(d):
            for n in range(1, 4):
                if rng.random() < 0.5:
                    extra = mono(1, n, rng.randint(-3, 3))
                    g[i][j] = PuiseuxSeries(
                        1, {**g[i][j].terms,
                            **{k: c for k, c in extra.terms.items()}}, TR)
    ginv = smat_neumann_inverse(g)
    prod = smat_mul(g, ginv)
    assert smat_eq(prod, smat_eye(d, 1, min(s.trunc for r in prod for s in r)))


def test_gauge_transform_composes():
    # a gauge by G then by H equals the gauge by G·H
    a = [[mono(1, -1, 2), mono(1, 0, 1)],
         [zero(), mono(1, -1, -1)]]
    g = smat_eye(2, 1, TR)
    g[0][1] = mono(1, 1, 3)
    h = smat_eye(2, 1, TR)
    h[1][0] = mono(1, 2, -1)
    once = gauge_transform(gauge_transform(a, g), h)
    both = gauge_transform(a, smat_mul(g, h))
    trunc = min(s.trunc for r in once for s in r)
    for ra, rb in zip(once, both):
        for x, y in zip(ra, rb):
            diff = ps_sub(x, y)
            assert all(abs(n) > trunc or c.is_zero
                       for n, c in diff.terms.items())


def test_ramified_pullback_scales_derivation():
    # A(z) dz/z pulled back along z = t^m is m·A(t^m) dt/t
    g = ConnectionGerm.from_matrix([[mono(1, -1, 1)]])
    p = ramified_pullback(g, 3)
    assert p.matrix[0][0].coeff(-3) == CQ.of(3)


def test_twist_by_exponential_shifts_diagonal():
    g = ConnectionGerm.from_matrix([[zero(), mono(1, 0, 1)],
                                    [zero(), zero()]])
    phi = mono(1, -2, 1)  # z∂φ = −2z^{-2}
    t = twist_by_exponential(g, phi)
    assert t.matrix[0][0].coeff(-2) == CQ.of(-2)
    assert t.matrix[1][1].coeff(-2) == CQ.of(-2)
    assert t.matrix[0][1].coeff(0) == CQ_ONE


def test_sigma_pullback_quarter_turns():
    # ram 4: t ↦ i·t sends t^{-2} to −t^{-2}
    m = ElementaryModel(4, ((mono(4, -2, 1), (reg(0, (1,)),)),))
    r = sigma_pullback(m, 1)
    assert r.blocks[0][0].coeff(-2) == CQ.of(-1)


def test_sigma_pullback_irrational_rotation():
    m = ElementaryModel(3, ((mono(3, -1, 1), (reg(0, (1,)),)),))
    with pytest.raises(IrrationalRootOfUnity):
        sigma_pullback(m, 1)


def test_descends_symmetric_pair():
    m = ElementaryModel(2, (
        (mono(2, -1, 2), (reg(0, (1,)),)),
        (mono(2, -1, -2), (reg(0, (1,)),)),
    ))
    cert = descends_to_base(m)
    assert cert.descends
    assert cert.permutations[1] == (1, 0)


def test_descends_refuses_orphan():
    m = ElementaryModel(2, ((mono(2, -1, 2), (reg(0, (1,)),)),))
    cert = descends_to_base(m)
    assert not cert.descends
    assert cert.orphans == (0,)


def test_monodromy_eigenvalue():
    import cmath
    r = RegularBlockData(CQ.of((1, 2)), (1,))
    t = r.monodromy()
    assert abs(t[0, 0] - cmath.exp(-1j * cmath.pi)) < 1e-14
    assert r.unit_monodromy_kernel_dim() == 0
    assert RegularBlockData(CQ.of(0), (2, 1)).unit_monodromy_kernel_dim() == 2


def test_spec_dict_round_trip():
    m = ElementaryModel(2, (
        (mono(2, -3, (1, 2), (0, 1)), (reg((1, 4), (2, 1)),)),
        (zero(2), (reg(0, (1,)),)),
    ))
    doc = model_to_dict(m)
    back = germ_or_model_from_dict(doc)
    assert isinstance(back, ElementaryModel)
    assert back.ram == m.ram
    assert len(back.blocks) == len(m.blocks)
    for (p1, r1), (p2, r2) in zip(m.blocks, back.blocks):
        assert ps_eq_to_trunc(p1, p2) and r1 == r2


def test_matrix_spec_parses():
    doc = {"form": "matrix", "rank": 1,
           "matrix": [[{"ram": 1, "trunc": 8, "terms": [[-1, 1, 1, 0, 1]]}]]}
    g = germ_or_model_from_dict(doc)
    assert isinstance(g, ConnectionGerm)
    assert g.matrix[0][0].coeff(-1) == CQ_ONE


@pytest.mark.parametrize("doc", [
    {},
    {"form": "nope"},
    {"form": "matrix", "rank": 2, "matrix": [[]]},
    {"form": "elementary", "blocks": [{"phi": {"ram": 1, "trunc": 4,
                                               "terms": [[1, 1, 1, 0, 1]]},
                                       "regs": [{"alpha": 0,
                                                 "partition": [1]}]}]},
])
def test_bad_specs_raise_parse_error(doc):
    with pytest.raises(ParseError):
        germ_or_model_from_dict(doc)


# -- the code before the merges, kept as oracles ------------------------------


def old_monodromy(r):
    """RegularBlockData.monodromy with its own nilpotent exponential."""
    d = r.rank
    n = np.zeros((d, d))
    pos = 0
    for p in r.partition:
        for j in range(p - 1):
            n[pos + j + 1, pos + j] = 1.0
        pos += p
    tu = np.eye(d)
    pw = np.eye(d)
    for k in range(1, d):
        pw = pw @ (2j * np.pi * n) / k
        tu = tu + pw
    lam = cmath.exp(-2j * cmath.pi * r.alpha.to_complex())
    return lam * tu


@pytest.mark.parametrize("partition", [(1,), (2,), (3,), (2, 1), (4,), (2, 2),
                                       (3, 2, 1), (5, 1), (6,)])
def test_monodromy_matches_own_exponential(partition):
    for alpha in (CQ.of(0), CQ.of((1, 2)), CQ.of((1, 3), (1, 5)),
                  CQ.of(0, -2), CQ.of((7, 9), 3)):
        r = RegularBlockData(alpha, partition)
        new, old = r.monodromy(), old_monodromy(r)
        assert np.array_equal(new, old) and new.tobytes() == old.tobytes()


def old_rotation_matches(phi_a, phi_b, k):
    """_rotation_matches as a term-by-term scan over the roots of unity."""
    a, b = common_ram(phi_a, phi_b)
    q = a.ram
    n_max = min(a.trunc, b.trunc)
    for n in set(a.terms) | set(b.terms):
        if n > n_max:
            continue
        ca, cb = a.coeff(n), b.coeff(n)
        j = (k * n) % q
        if j == 0:
            if not (ca - cb).is_zero:
                return False
        elif (4 * j) % q == 0:
            if not (ca * quarter_root(4 * j // q) - cb).is_zero:
                return False
        else:
            if not (ca.is_zero and cb.is_zero):
                return False
    return True


coeff = st.builds(CQ.of, st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda c: not c.is_zero)


@st.composite
def rotation_case(draw):
    """φ_a, φ_b and k: rams dividing q ∈ {2, 3, 4, 6, 8}, unequal
    truncations, and φ_b often the exact rotation of φ_a where ζ^j is a
    fourth root of unity (kept, and so mismatched, where it is not), cut
    near one of φ_a's terms."""
    q = draw(st.sampled_from([2, 3, 4, 6, 8]))
    rams = [r for r in range(1, q + 1) if q % r == 0]

    def series(ram, size):
        trunc = draw(st.integers(-3 * ram, 8))
        exps = draw(st.lists(st.integers(-3 * ram, trunc), min_size=size, max_size=5))
        return PuiseuxSeries(ram, {n: draw(coeff) for n in exps}, trunc)

    a = series(draw(st.one_of(st.just(q), st.sampled_from(rams))), 1)
    k = draw(st.integers(0, 7))
    if draw(st.booleans()):
        b = series(draw(st.sampled_from(rams)), 0)
    else:
        la = a.lift_ram(q)
        turn = {n: (k * n) % q for n in la.terms}
        terms = {n: c * quarter_root(4 * turn[n] // q) if (4 * turn[n]) % q == 0
                 else c for n, c in la.terms.items()}
        if terms and draw(st.booleans()):
            terms.pop(draw(st.sampled_from(sorted(terms))))
        near = draw(st.sampled_from(sorted(la.terms) + [la.trunc]))
        b = PuiseuxSeries(q, terms, near + draw(st.integers(-2, 2)))
    return a, b, k


@settings(max_examples=400, deadline=None)
@given(rotation_case())
def test_rotation_matches_equals_term_scan(case):
    a, b, k = case
    assert _rotation_matches(a, b, k) == old_rotation_matches(a, b, k)


def test_rotation_ignores_irrational_terms_above_the_shared_trunc():
    # ζ^1 = e^{2πi/3}: the t² term of φ_a sits above φ_b's truncation
    a = PuiseuxSeries(3, {-1: CQ.of(1), 2: CQ.of(1)}, 6)
    b = PuiseuxSeries(3, {}, 1)
    assert not _rotation_matches(a, b, 0)
    assert _rotation_matches(a, PuiseuxSeries(3, {-1: CQ.of(1)}, 1), 0)
    assert _rotation_matches(a, PuiseuxSeries(3, {-1: CQ.of(1)}, 0), 3)
    for k in (1, 2):  # ζ^{-k} is irrational at the t⁻¹ term
        assert not _rotation_matches(a, PuiseuxSeries(3, {-1: CQ.of(1)}, 1), k)
    c = PuiseuxSeries(3, {2: CQ.of(1)}, 6)
    assert _rotation_matches(c, PuiseuxSeries(3, {}, 1), 1)
    assert old_rotation_matches(c, PuiseuxSeries(3, {}, 1), 1)


def test_germs_compare_by_identity():
    # equal rank and ramification do not make two germs equal
    airy = CATALOG["airy"].germ(8)
    jordan = CATALOG["jordan2-regular"].germ(8)
    assert (airy.rank, airy.ram) == (jordan.rank, jordan.ram)
    assert airy != jordan and airy == airy
    assert len({airy, jordan}) == 2
