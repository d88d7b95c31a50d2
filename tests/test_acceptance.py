"""Acceptance criteria: one printed pass/fail line per criterion."""

import contextlib
import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from connexion_lab import catalog, cli, index, l2lab, metric
from connexion_lab.formal import formal_decompose, newton_polygon
from connexion_lab.l2lab import SectorGrid, WeightedLineData
from connexion_lab.model import ElementaryModel, assemble_matrix
from connexion_lab.series import CQ, PuiseuxSeries, ps_add
from connexion_lab.sl2 import adapted_metric_frame, triple_for_partition

TR = 24


_CAP = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    """Let the per-criterion verdict lines bypass output capture."""
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def announce(line: str) -> None:
    with _CAP.disabled():
        print(line, flush=True)


def checked(label):
    """Decorator printing one PASS/FAIL line for the criterion."""
    def wrap(fn):
        def inner(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                announce(f"FAIL: {label}")
                raise
            announce(f"PASS: {label}")
        inner.__name__ = fn.__name__
        return inner
    return wrap


def partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def catalog_frames():
    out = []
    for name, e in catalog.CATALOG.items():
        model = formal_decompose(e.germ(TR))
        out.append((name, model, adapted_metric_frame(model)))
    return out


def sample_points(n, seed):
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(1e-3), np.log(0.6), n))
    return r * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def nexp(n, s):
    out = np.eye(len(n))
    pw = np.eye(len(n))
    for k in range(1, len(n)):
        pw = pw @ (s * n) / k
        out = out + pw
    return out


@checked("criterion 1: sl2 triples and conjugation identities (1e-12)")
def test_criterion_1_sl2_identities():
    t0 = time.monotonic()
    for n in range(1, 9):
        for part in partitions(n):
            t = triple_for_partition(part)
            assert t.commutator_diag_exact() == tuple(
                Fraction(w) for w in t.weights)
            x, y, h = t.x, t.y, t.h
            assert np.max(np.abs(x @ y - y @ x - h)) < 1e-12
            for a in (0.5, 1.0, 3.0, 17.0):
                ah = np.diag(a ** (np.array(t.weights) / 2.0))
                ahm = np.diag(a ** (-np.array(t.weights) / 2.0))
                assert np.max(np.abs(ah @ y @ ahm - y / a)) < 1e-12
                assert np.max(np.abs(ah @ x @ ahm - a * x)) < 1e-12
            assert np.max(np.abs(nexp(x, -1) @ y @ nexp(x, 1)
                                 - (y - h - x))) < 1e-12
            assert np.max(np.abs(nexp(x, 1) @ y @ nexp(x, -1)
                                 - (y + h - x))) < 1e-12
            assert np.max(np.abs(nexp(x, -1) @ h @ nexp(x, 1)
                                 - (h + 2 * x))) < 1e-12
            assert np.max(np.abs(nexp(y, 1) @ h @ nexp(y, -1)
                                 - (h + 2 * y))) < 1e-12
    assert time.monotonic() - t0 < 5.0


@checked("criterion 2: curvature ratio 2·max|w| at 1e4 points per model")
def test_criterion_2_curvature_ratio():
    t0 = time.monotonic()
    zs = sample_points(10_000, seed=2)
    for name, model, mm in catalog_frames():
        ratios = np.atleast_1d(metric.curvature_knorm_ratio(mm, zs))
        target = 2.0 * np.max(np.abs(mm.vector_weights()))
        assert np.max(np.abs(ratios - target)) <= 1e-8 * (1.0 + target), name
        for z in zs[:3]:
            assert metric.fd_curvature_check(mm, complex(z)) < 1e-6, name
    assert time.monotonic() - t0 < 20.0


def twisted(model: ElementaryModel) -> ElementaryModel:
    delta = PuiseuxSeries(model.ram, {-2 * model.ram: CQ.of(1, (1, 2))},
                          TR * model.ram)
    blocks = tuple((ps_add(phi.lift_ram(model.ram), delta), regs)
                   for phi, regs in model.blocks)
    return ElementaryModel(model.ram, blocks)


@checked("criterion 3: pseudo-curvature <= 1e-10 with and without twists")
def test_criterion_3_pseudo_curvature():
    zs = sample_points(1000, seed=3)
    for name, model, mm in catalog_frames():
        for frame in (mm, adapted_metric_frame(twisted(model))):
            g = metric.pseudo_curvature(frame, zs)
            assert np.max(np.abs(g)) <= 1e-10, name


@checked("criterion 4: det K, glued det = 1, decay exponent within 10%")
def test_criterion_4_det_and_gluing():
    zs = sample_points(2000, seed=4)
    for name, model, mm in catalog_frames():
        k, _ = metric.eval_metric(mm, zs)
        alpha = np.real(mm.vector_alpha())
        det_t = np.array([np.prod(np.abs(z) ** (-2 * alpha)) for z in zs])
        assert np.max(np.abs(np.linalg.det(k).real / det_t - 1)) < 1e-10, name
    e = catalog.CATALOG["rank2-stokes"]
    mm = adapted_metric_frame(e.model(TR))
    gd = e.gluing()
    for theta in (3.0, 3.3, 3.65, 5.75):
        for r in (0.3, 0.03):
            z = r * np.exp(1j * theta)
            assert metric.glued_transition_det(mm, gd, z) == 1.0
    theta = 3.3
    rs = np.array([0.05, 0.04, 0.03, 0.025, 0.02])
    deltas = [np.linalg.norm(metric.glued_metric(mm, gd, r * np.exp(1j * theta))
                             - metric.eval_metric(mm, r * np.exp(1j * theta))[0], 2)
              for r in rs]
    design = np.column_stack([np.ones_like(rs), 1.0 / rs])
    coef, *_ = np.linalg.lstsq(design, np.log(deltas), rcond=None)
    assert abs(-coef[1] / (2.0 * abs(math.cos(theta))) - 1.0) < 0.10


@checked("criterion 5: formal reduction round trip on the catalog")
def test_criterion_5_formal_round_trip():
    from test_formal import models_equal
    t0 = time.monotonic()
    for name, e in catalog.CATALOG.items():
        m1 = formal_decompose(e.germ(TR))
        if e.model is not None:
            assert models_equal(m1, e.model(TR)), name
        m2 = formal_decompose(assemble_matrix(m1))
        assert models_equal(m1, m2), name
        for phi, regs in m1.blocks:
            residual = ElementaryModel(
                m1.ram, ((PuiseuxSeries(m1.ram, {}, phi.trunc), regs),))
            assert newton_polygon(assemble_matrix(residual)).top_slope == 0
    airy = formal_decompose(catalog.CATALOG["airy"].germ(TR))
    assert airy.ram == 2
    assert index.model_irregularity(airy) == 1
    assert time.monotonic() - t0 < 10.0


@checked("criterion 6: local index oracle and Lefschetz equivalences")
def test_criterion_6_index_oracles():
    from test_index import extra_germs, random_unitary
    germs = [e.germ(TR) for e in catalog.CATALOG.values()] + extra_germs()
    assert len(germs) >= 10 and all(g.rank <= 2 for g in germs)
    for g in germs:
        m = formal_decompose(g)
        h0f, h1f = index.local_full_dims(g)
        h0m, h1m = index.local_min_dims(m)
        ker = sum(r.unit_monodromy_kernel_dim()
                  for phi, regs in m.blocks if phi.is_zero for r in regs)
        assert h0f - h1f == -index.model_irregularity(m)
        assert (h0m - h1m) == (h0f - h1f) + ker
    rng = np.random.default_rng(6)
    for trial in range(40):
        d = int(rng.integers(1, 4))
        a, b = random_unitary(rng, d), random_unitary(rng, d)
        if trial >= 20:  # perturbed, generically irreducible pairs
            a = a + 0.1 * rng.standard_normal((d, d))
            b = b + 0.1 * rng.standard_normal((d, d))
        t = np.linalg.inv(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b))
        rep = index.MonodromyRep(1, ((a, b),), (t,))
        h0, h2 = index.lefschetz_dims(rep)
        assert h0 == h2


@checked("criterion 7: quadrature calibrations to 0.1%")
def test_criterion_7_calibrations():
    g = SectorGrid.make(r1=0.5, preset="default")
    d1 = WeightedLineData.create(beta=0.0, kappa=0, a_ell=0.0, r1=0.5)
    v1 = l2lab.weighted_norm(0, lambda r, t: np.ones_like(r), d1, g)
    assert abs(v1 / (2 * math.pi / math.log(2)) - 1) < 1e-3
    d2 = WeightedLineData.create(beta=1.0, kappa=2, a_ell=0.0, r1=0.5)
    v2 = l2lab.weighted_norm(0, lambda r, t: np.ones_like(r), d2, g)
    assert abs(v2 / (math.pi / 4) - 1) < 1e-3


@checked("criterion 8: Hardy battery, radial bound, psi verdict stability")
def test_criterion_8_hardy_and_psi():
    cases = [dict(a_ell=1.0, ell=1, sector=(0.3, 1.2)),
             dict(a_ell=-1.0, ell=1, sector=(0.3, 1.2)),
             dict(a_ell=1j, ell=1, sector=(2.0, 2.9)),
             dict(a_ell=0.0, beta=0.5, sector=(0.2, 2.1)),
             dict(a_ell=2.0, ell=2, sector=(1.7, 2.2))]
    for params in cases:
        params = dict(params)
        sec = params.pop("sector")
        d = WeightedLineData.create(r1=0.5, sector=sec, **params)
        g = SectorGrid.make(sector=sec, r1=0.5, preset="default")
        w = sec[1] - sec[0]
        inner = (sec[0] + 0.25 * w, sec[1] - 0.25 * w)
        c = l2lab.hardy_angular(d, inner, sec, g)
        assert c <= w * w + 1e-9, params
        coarse = l2lab.psi_profile(d, range(-5, 6),
                                   SectorGrid.make(sector=sec, r1=0.5,
                                                   preset="coarse"))
        fine = l2lab.psi_profile(d, range(-5, 6), g)
        for n in range(-5, 6):
            assert coarse["verdicts"][n]["monotone"] == \
                fine["verdicts"][n]["monotone"], (params, n)
    sec = (0.3, 1.2)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    g = SectorGrid.make(sector=sec, r1=0.5, preset="default")
    out = l2lab.build_primitive_radial(lambda r: r ** 2, d, g)
    assert out["ratio_sq"] <= out["bound"] and out["cauchy_schwarz_ok"]


@checked("criterion 9: manufactured primitives to 1e-6 over 20 trials")
def test_criterion_9_manufactured_primitives():
    sec = (0.3, 1.2)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    g = SectorGrid.make(sector=sec, r1=0.5, preset="default")
    rows = l2lab.vanishing_report(d, 20, g, seed=9)
    assert all(r["verdict"] == "ok" and r["residual"] <= 1e-6 for r in rows)
    sec2 = (0.2, 2.1)
    d2 = WeightedLineData.create(beta=0.5, a_ell=0.0, sector=sec2, r1=0.5)
    g2 = SectorGrid.make(sector=sec2, r1=0.5, preset="default")
    rows2 = l2lab.vanishing_report(d2, 20, g2, seed=10)
    assert all(r["verdict"] == "ok" and r["residual"] <= 1e-6 for r in rows2)


def run_cli(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


@checked("criterion 10: end-to-end catalog run, byte-stable, under 60 s")
def test_criterion_10_end_to_end():
    t0 = time.monotonic()
    reports = [{}, {}]
    for round_ in range(2):
        for name in catalog.names():
            reports[round_][("analyze", name)] = run_cli(
                "analyze", name, "--seed", "7")
            if catalog.CATALOG[name].l2:
                reports[round_][("l2verify", name)] = run_cli(
                    "l2verify", name, "--seed", "7")
    assert reports[0] == reports[1]
    assert time.monotonic() - t0 < 60.0
