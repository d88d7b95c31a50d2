"""Degrees, local dimensions and their brute-force window oracle."""

import numpy as np
import pytest

from connexion_lab import catalog, exactla, index
from connexion_lab.errors import DomainError, InconsistentResidues
from connexion_lab.formal import formal_decompose
from connexion_lab.index import (MonodromyRep, SurfaceSpec, degree_check,
                                 global_euler, index_report, lefschetz_dims,
                                 local_full_dims, local_min_dims,
                                 model_irregularity)
from connexion_lab.model import (ConnectionGerm, ElementaryModel,
                                 RegularBlockData)
from connexion_lab.series import CQ, PuiseuxSeries

TR = 24


def mono(ram, n, re, im=0):
    c = CQ.of(re, im)
    return PuiseuxSeries(ram, {n: c} if not c.is_zero else {}, TR)


def zero(ram=1):
    return PuiseuxSeries(ram, {}, TR)


def line(alpha, phi=None):
    return ElementaryModel(1, (((phi if phi is not None else zero()),
                                (RegularBlockData(CQ.of(alpha), (1,)),)),))


def extra_germs():
    """Rank ≤ 2 germs beyond the catalog, with their elementary models."""
    out = []
    # resonant regular pair
    c = lambda v: mono(1, 0, v)
    out.append(ConnectionGerm.from_matrix([[c(0), c(1)], [c(0), c(-1)]]))
    # rational split residues
    out.append(ConnectionGerm.from_matrix([[c((-1, 3)), c(0)],
                                           [c(0), c((1, 4))]]))
    # irregular with nontrivial residue
    out.append(ConnectionGerm.from_matrix([[mono(1, -1, 2), c(0)],
                                           [c(1), c((1, 2))]]))
    # second-order pole line plus trivial line
    out.append(ConnectionGerm.from_matrix([[mono(1, -2, 1), c(0)],
                                           [c(0), c(0)]]))
    return out


def test_degree_check_integral():
    s = SurfaceSpec(0, (("a", line((1, 2))), ("b", line((1, 2))),
                        ("c", line(0))), 1)
    assert degree_check(s) == (1, 0)


def test_degree_check_rejects_fractional_sum():
    s = SurfaceSpec(0, (("a", line((1, 2))), ("b", line(0))), 1)
    with pytest.raises(InconsistentResidues):
        degree_check(s)


def test_model_irregularity_catalog():
    expected = {"trivial": 0, "kummer-half": 0, "e-inverse-z": 1,
                "jordan2-regular": 0, "airy": 1, "mixed-reg-irr": 1,
                "rank2-stokes": 2}
    for name, e in catalog.CATALOG.items():
        m = formal_decompose(e.germ(TR))
        assert model_irregularity(m) == expected[name], name


def test_local_min_dims_examples():
    assert local_min_dims(line(0)) == (1, 0)
    assert local_min_dims(line((1, 2))) == (0, 0)
    assert local_min_dims(line(0, phi=mono(1, -1, 1))) == (0, 1)


def test_oracle_relations_on_many_germs():
    germs = [e.germ(TR) for e in catalog.CATALOG.values()] + extra_germs()
    assert len(germs) >= 10
    for g in germs:
        m = formal_decompose(g)
        h0f, h1f = local_full_dims(g)
        h0m, h1m = local_min_dims(m)
        irr = model_irregularity(m)
        ker = sum(r.unit_monodromy_kernel_dim()
                  for phi, regs in m.blocks if phi.is_zero for r in regs)
        assert h0f - h1f == -irr
        assert (h0m - h1m) == (h0f - h1f) + ker


def test_window_dims_stable_under_budget():
    g = catalog.CATALOG["airy"].germ(TR)
    assert local_full_dims(g) == local_full_dims(g, budget=15) == (0, 1)


@pytest.mark.parametrize("terms,dims", [
    ({1: 1}, (1, 1)),           # A = z: z∂ + z is gauge equivalent to z∂
    ({-1: 1, 2: 3}, (0, 1)),    # A = 1/z + 3z²: Irr = 1, no kernel
])
def test_window_dims_with_positive_order_entries(terms, dims):
    germ = ConnectionGerm.from_matrix([[PuiseuxSeries(
        1, {n: CQ.of(c) for n, c in terms.items()}, TR)]])
    assert local_full_dims(germ) == dims


def rank1(terms):
    return ConnectionGerm.from_matrix([[PuiseuxSeries(
        1, {n: CQ.of(*c) for n, c in terms.items()}, TR)]])


WINDOW_GERMS = {
    **{name: e.germ(TR) for name, e in catalog.CATALOG.items()},
    **{f"pole{p}": rank1({-p: (1, 1), 0: ((1, 2),)}) for p in (1, 2, 3)},
    "z": rank1({1: (1,)}),
    "1/z+3z^2": rank1({-1: (1,), 2: (3,)}),
}


def dense_rank(m):
    """Rank by dense Gauss–Jordan elimination, apart from `exactla`'s own."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not a[i][c].is_zero), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = CQ.of(1) / a[r][c]
        a[r] = [inv * x for x in a[r]]
        for i in range(rows):
            if i != r and not a[i][c].is_zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


@pytest.mark.parametrize("germ", WINDOW_GERMS.values(), ids=WINDOW_GERMS)
def test_window_ranks_match_rref_oracle(germ, monkeypatch):
    b = index._default_budget(germ)
    fast = [index._window_dims(germ, n) for n in (b, b + 5)]
    monkeypatch.setattr(exactla, "rank", dense_rank)
    assert [index._window_dims(germ, n) for n in (b, b + 5)] == fast


# -8 leaves both windows empty, which would read (0, 0); -3 gives an
# empty first window, which would read as an unstable answer
@pytest.mark.parametrize("budget", [-8, -3])
def test_local_full_dims_rejects_negative_budget(budget):
    with pytest.raises(DomainError, match="nonnegative"):
        local_full_dims(catalog.CATALOG["airy"].germ(TR), budget=budget)


def test_global_euler():
    s = SurfaceSpec(0, (("a", line(0)), ("b", line(0)), ("c", line(0))), 1)
    # (2 − 0 − 3)·1 + 3·(1 − 0) = 2
    assert global_euler(s) == 2
    s2 = SurfaceSpec(1, (("a", line(0, phi=mono(1, -1, 1))),), 1)
    # (2 − 2 − 1)·1 + (0 − 1) = −2
    assert global_euler(s2) == -2


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return q


def test_lefschetz_unitary_reps():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        a, b = random_unitary(rng, d), random_unitary(rng, d)
        t = np.linalg.inv(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b))
        rep = MonodromyRep(1, ((a, b),), (t,))
        h0, h2 = lefschetz_dims(rep)
        assert h0 == h2  # unitary: invariants pair with coinvariants


def test_lefschetz_irreducible_reps():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = 2
        a = random_unitary(rng, d) + 0.1 * rng.standard_normal((d, d))
        b = random_unitary(rng, d) + 0.1 * rng.standard_normal((d, d))
        t = np.linalg.inv(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b))
        rep = MonodromyRep(1, ((a, b),), (t,))
        h0, h2 = lefschetz_dims(rep)
        if h0 == 0 or h2 == 0:
            assert h0 == h2 == 0  # generic pairs have no invariants
        assert h0 == h2


def test_lefschetz_rejects_bad_relation():
    rng = np.random.default_rng(4)
    rep = MonodromyRep(1, ((random_unitary(rng, 2), random_unitary(rng, 2)),),
                       (np.eye(2),))
    with pytest.raises(DomainError):
        lefschetz_dims(rep)


def test_index_report_shape():
    m = line(0)
    s = SurfaceSpec(0, (("p", m), ("q", m), ("r", m)), 1)
    rep = MonodromyRep(0, (), (np.eye(1), np.eye(1), np.eye(1)))
    out = index_report(s, rep)
    assert [p["puncture"] for p in out["punctures"]] == ["p", "q", "r"]
    g = out["global"]
    assert g["chi"] == 2 and g["h0"] == 1 and g["h2"] == 1
    assert g["h1"] == g["h0"] + g["h2"] - g["chi"] == 0
    assert g["lefschetz_ok"]
