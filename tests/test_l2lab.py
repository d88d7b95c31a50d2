"""Weighted-L² laboratory: quadrature, phases, Hardy constants, primitives."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexion_lab import catalog, cli, l2lab
from connexion_lab.errors import (DomainError, NonconvergentQuadrature,
                                  NotMonotone, SectorContainsCosZero,
                                  UnboundedRatio)
from connexion_lab.l2lab import (_GL_NODES, _GL_WEIGHTS, PRESETS,
                                 SectorGrid, WeightedLineData,
                                 _cumgauss_theta, _eval_samples, _first_false,
                                 _grid_weight, _log_cumtrapz, _manufactured,
                                 _norm_on_grid, _np_trapz,
                                 _tail_weight_integral,
                                 build_primitive_angular,
                                 build_primitive_radial, default_bump,
                                 hardy_angular, log_psi, psi_profile,
                                 vanishing_report, weighted_norm)

FULL = (0.0, 2.0 * math.pi)


def grid(sector=FULL, preset="default", r1=0.5):
    return SectorGrid.make(sector=sector, r1=r1, preset=preset)


def flat(beta=0.0, kappa=0):
    return WeightedLineData.create(beta=beta, kappa=kappa, a_ell=0.0, r1=0.5)


ONE = staticmethod(lambda r, t: np.ones_like(r))


# -- quadrature ---------------------------------------------------------------

def test_calibration_log_weight():
    # ∫_0^{1/2}∫_0^{2π} |log r|^{-2} dθ dr/r = 2π / log 2
    v = weighted_norm(0, lambda r, t: np.ones_like(r), flat(0.0, 0), grid())
    assert abs(v / (2 * math.pi / math.log(2)) - 1) < 1e-3


def test_calibration_power_weight():
    # ∫ r^2 dθ dr/r = 2π r1²/2 = π/4
    v = weighted_norm(0, lambda r, t: np.ones_like(r), flat(1.0, 2), grid())
    assert abs(v / (math.pi / 4) - 1) < 1e-3


def test_norm_accepts_arrays_and_validates_shape():
    g = grid(preset="coarse")
    arr = np.ones((len(g.radii), len(g.thetas)))
    v = weighted_norm(0, arr, flat(1.0, 2), g)
    assert abs(v / (math.pi / 4) - 1) < 1e-2
    with pytest.raises(DomainError):
        weighted_norm(0, np.ones((3, 3)), flat(1.0, 2), g)


def test_one_form_norm_sums_components():
    g = grid(preset="coarse")
    d = flat(1.0, 0)
    f = lambda r, t: np.ones_like(r)
    v1 = weighted_norm(1, (f, f), d, g)
    v0 = weighted_norm(0, f, WeightedLineData.create(beta=1.0, kappa=2,
                                                     a_ell=0.0, r1=0.5), g)
    assert abs(v1 / (2 * v0) - 1) < 1e-12


def test_divergent_norm_is_infinite():
    # β = 0, κ = 0 gives the measure u^{-2}... for p = 0 it converges, but
    # p = 2 carries u^{κ+2} which diverges against dr/r
    d = flat(0.0, 0)
    v = weighted_norm(2, lambda r, t: np.ones_like(r), d, grid())
    assert v == math.inf


# -- phase structure ----------------------------------------------------------

def arg_of_minus(a):
    """arg(−a) = atan2(−Im a, −Re a), with −0.0 read as 0.0."""
    a = complex(a)
    tau = math.atan2(-a.imag, -a.real)
    return 0.0 if tau == 0 else tau


def test_tau_is_the_argument_of_minus_a_ell():
    # repr tells −0.0 from 0.0, which a report would print as -0.0
    for a in (1.0, -1.0, -2.0, 1j, -1j, -3 + 4j, 1.74):
        for ell in (1, 2, 3):
            tau = WeightedLineData.create(a_ell=a, ell=ell).tau
            assert repr(tau) == repr(arg_of_minus(a))
    assert repr(WeightedLineData.create(a_ell=-1.0).tau) == "0.0"
    assert flat().tau == 0.0


@pytest.mark.parametrize("ell", [32, 64])
def test_ell_where_a_fitted_phase_aliased_is_accepted(ell):
    # sin(ℓθ) vanishes on a 64-point θ grid for these ℓ; τ needs no grid
    assert WeightedLineData.create(a_ell=1j, ell=ell).tau == -math.pi / 2


increasing_sectors = st.tuples(
    st.floats(-20.0, 20.0), st.floats(1e-3, 2.0 * math.pi)).map(
        lambda lo_width: (lo_width[0], lo_width[0] + lo_width[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 90), st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi),
       increasing_sectors)
def test_tau_is_exact_for_moderate_ell(ell, log_size, angle, sector):
    a = 10.0 ** log_size * complex(math.cos(angle), math.sin(angle))
    d = WeightedLineData.create(a_ell=a, ell=ell, sector=sector)
    assert repr(d.tau) == repr(arg_of_minus(a))


def test_tau_identity_enforced_on_creation():
    d = WeightedLineData.create(a_ell=2j, ell=2, sector=(0.1, 0.8), r1=0.5)
    r, th = 1e-3, 0.4
    lead = abs(d.a_ell) / r ** d.ell
    val = -np.real(d.a_ell * (r * np.exp(1j * th)) ** (-d.ell))
    assert abs(val - lead * math.cos(d.ell * th - d.tau)) < 1e-9 * lead


# -- psi profile --------------------------------------------------------------

def test_log_psi_flat_weight():
    g = grid()
    lp = log_psi(flat(), g)
    assert np.allclose(lp, math.log(2 * math.pi), atol=1e-12)


def test_psi_profile_verdicts_decaying_weight():
    sec = (0.3, 1.2)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    out = psi_profile(d, range(-5, 6), grid(sec))
    assert out["cos_sign"] == -1
    for n in range(-2, 6):
        assert out["verdicts"][n]["monotone"], n
    assert all(v["sign"] == 1 for v in out["verdicts"].values())


def test_psi_profile_verdicts_stable_across_grids():
    for params in [dict(a_ell=1.0, ell=1, sector=(0.3, 1.2)),
                   dict(a_ell=-1.0, ell=1, sector=(2.0, 2.9)),
                   dict(a_ell=1j, ell=1, sector=(2.0, 2.9)),
                   dict(a_ell=0.0, beta=0.5, sector=(0.2, 2.1)),
                   dict(a_ell=2.0, ell=2, sector=(1.7, 2.2))]:
        sec = params.pop("sector")
        d = WeightedLineData.create(r1=0.5, sector=sec, **params)
        coarse = psi_profile(d, range(-5, 6), grid(sec, "coarse"))
        fine = psi_profile(d, range(-5, 6), grid(sec, "default"))
        for n in range(-5, 6):
            assert coarse["verdicts"][n]["monotone"] == \
                fine["verdicts"][n]["monotone"], (params, n)


def test_psi_profile_rejects_cos_zero_sector():
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=(1.0, 2.0), r1=0.5)
    with pytest.raises(SectorContainsCosZero):
        psi_profile(d, range(-1, 2), grid((1.0, 2.0)))
    # a good sub-sector rescues the profile
    out = psi_profile(d, range(-1, 2), grid((1.0, 2.0)),
                      sub_sector=(1.7, 2.0))
    assert out["cos_sign"] == 1
    assert out["kappa_ratio"] >= 1.0


# -- Hardy --------------------------------------------------------------------

HARDY_CASES = [
    dict(a_ell=1.0, ell=1, sector=(0.3, 1.2)),
    dict(a_ell=-1.0, ell=1, sector=(0.3, 1.2)),
    dict(a_ell=1j, ell=1, sector=(2.0, 2.9)),
    dict(a_ell=0.0, beta=0.5, sector=(0.2, 2.1)),
    dict(a_ell=2.0, ell=2, sector=(1.7, 2.2)),
]


def test_hardy_battery_within_width_squared():
    for params in HARDY_CASES:
        params = dict(params)
        sec = params.pop("sector")
        d = WeightedLineData.create(r1=0.5, sector=sec, **params)
        g = grid(sec)
        w = sec[1] - sec[0]
        inner = (sec[0] + 0.25 * w, sec[1] - 0.25 * w)
        c = hardy_angular(d, inner, sec, g)
        assert c <= w * w + 1e-9, params


def test_hardy_rejects_nonmonotone_weight():
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=(2.5, 4.0), r1=0.5)
    with pytest.raises(NotMonotone):
        hardy_angular(d, (2.8, 3.6), (2.5, 4.0), grid((2.5, 4.0)))


def test_hardy_radial_bound():
    sec = (0.3, 1.2)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    g = grid(sec)
    out = build_primitive_radial(lambda r: r ** 2, d, g)
    assert out["ratio_sq"] <= out["bound"]
    assert out["cauchy_schwarz_ok"]
    # the proof's closed-form bound: 4·sup ρ(r1−ρ)/log²ρ
    rho = np.linspace(1e-9, 0.5, 100001)[1:]
    ref = 4.0 * np.max(rho * (0.5 - rho) / np.log(rho) ** 2)
    assert out["bound"] == pytest.approx(ref, rel=1e-3)


# β = 1, ℓ = 2, |a_ℓ| = 1.74 on a sector where cos(2θ − τ) < 0 and sin has
# one sign; ratio_sq is the same for every arg a_ℓ and either quadrant
ELL2_SECTOR = (0.025 * math.pi, 0.225 * math.pi)


def ell2_radial(preset):
    d = WeightedLineData.create(beta=1.0, kappa=0, ell=2, a_ell=1.74,
                                sector=ELL2_SECTOR, r1=0.5)
    return build_primitive_radial(lambda r: r ** 2, d, grid(ELL2_SECTOR, preset))


@pytest.mark.xfail(strict=True, reason="4·max ρ(r₁−ρ)/log²ρ = 0.1949 does not "
                   "cover ℓ = 2: ratio_sq converges to about 0.1972")
def test_hardy_radial_bound_ell2():
    out = ell2_radial("default")
    assert out["ratio_sq"] <= out["bound"]


def test_hardy_radial_ratio_ell2_is_converged():
    # the excess over the bound is not a quadrature error
    coarse, fine = (ell2_radial(p)["ratio_sq"] for p in ("default", "fine"))
    assert abs(fine - coarse) < 0.005 * fine


def test_radial_primitive_growing_weight_branch():
    # cos(ℓθ−τ) > 0: integration from the outer edge inward
    sec = (2.0, 2.9)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    out = build_primitive_radial(lambda r: np.ones_like(r), d, grid(sec))
    assert out["branch"] == 1
    assert out["u"][-1] == pytest.approx(0.0)


def test_radial_primitive_rejects_straddling_sector():
    sec = (1.0, 2.0)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    with pytest.raises(NotMonotone):
        build_primitive_radial(lambda r: r, d, grid(sec))


# -- primitives and vanishing ------------------------------------------------

def test_default_bump_plateau():
    chi = default_bump((0.6, 1.7), (0.2, 2.1))
    th = np.linspace(0.2, 2.1, 101)
    v = chi(th)
    assert np.all(v[(th >= 0.6) & (th <= 1.7)] == 1.0)
    assert v[0] == 0.0 and v[-1] == 0.0


def test_angular_primitive_reconstructs_gradient():
    sec = (0.3, 1.2)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    g = grid(sec)
    f = lambda r, t: np.zeros_like(r)
    gt = lambda r, t: np.cos(t)
    out = build_primitive_angular((f, gt), d, g, inner=(0.5, 1.0))
    assert out["ratio"] <= out["bound"]
    # the primitive itself is Gauss-accurate: compare against sin on the
    # plateau modulo a function of r
    rr, tt = np.meshgrid(g.radii, g.thetas, indexing="ij")
    mask = out["chi"] >= 1.0 - 1e-12
    diff = (out["u"] - np.sin(tt))[:, mask]
    diff = diff - diff.mean(axis=1, keepdims=True)
    assert np.max(np.abs(diff)) < 1e-9


def test_angular_primitive_unbounded_on_growing_side():
    # the sector where the weight explodes makes the ratio infinite
    sec = (2.0, 2.9)
    d = WeightedLineData.create(a_ell=-1.0, ell=1, sector=(0.3, 1.2), r1=0.5)
    # reuse the data on its growing sector by building a grid there
    d_bad = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    g = grid(sec)
    gt = lambda r, t: np.cos(t)
    with pytest.raises(UnboundedRatio):
        build_primitive_angular((lambda r, t: np.zeros_like(r), gt),
                                d_bad, g, inner=(2.25, 2.65))


def test_vanishing_report_leading_term_case():
    sec = (0.3, 1.2)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    rows = vanishing_report(d, 8, grid(sec), seed=0)
    assert all(r["verdict"] == "ok" for r in rows)
    assert all(r["residual"] <= 1e-6 for r in rows)


def test_vanishing_report_beta_case():
    d = WeightedLineData.create(beta=0.5, a_ell=0.0, sector=(0.2, 2.1),
                                r1=0.5)
    rows = vanishing_report(d, 8, grid((0.2, 2.1)), seed=1)
    assert all(r["verdict"] == "ok" for r in rows)


def test_vanishing_report_excluded_case():
    d = flat()
    assert vanishing_report(d, 3, grid((0.2, 2.1)), seed=0) == []


def test_weighted_line_data_validation():
    for r1 in (1.5, 1.0, 0.0):
        with pytest.raises(DomainError):
            WeightedLineData.create(r1=r1)


@pytest.mark.parametrize("params,message", [
    ({"a_ell": 1.0, "ell": 0}, "need ℓ >= 1"),
    ({"a_ell": 1.0, "ell": -2}, "need ℓ >= 1"),
    ({"a_ell": 1.0, "ell": 103}, "makes −Re φ overflow a float at r = 0.001"),
    ({"a_ell": 1.0, "ell": 120}, "makes −Re φ overflow a float at r = 0.001"),
    ({"beta": math.inf}, "must be finite"),
    ({"a_ell": 1.0, "beta": math.nan}, "must be finite"),
    ({"a_ell": complex(1.0, math.inf)}, "must be finite"),
    ({"a_ell": math.nan}, "must be finite"),
    ({"r1": math.nan}, "must be finite"),
])
def test_weighted_line_data_rejects_meaningless_weights(params, message):
    with pytest.raises(DomainError, match=message):
        WeightedLineData.create(**params)


def test_weighted_line_data_accepts_large_finite_ell():
    d = WeightedLineData.create(a_ell=1.0, ell=100)
    assert d.ell == 100 and not d.excluded


def test_excluded_is_the_flat_weight_only():
    assert flat().excluded
    assert not flat(beta=0.5).excluded
    assert not flat(kappa=1).excluded
    assert not WeightedLineData.create(a_ell=1j, ell=1).excluded


# -- whole-grid kernels against per-radius reference loops --------------------
# The references are the row-by-row versions the kernels replaced; the
# kernels must reproduce them bit for bit.

def ref_log_cumtrapz(logf, x, reverse=False):
    logf = np.asarray(logf, dtype=float)
    x = np.asarray(x, dtype=float)
    if reverse:
        logf = logf[::-1]
        x = x[::-1]
    dx = np.abs(np.diff(x))
    with np.errstate(divide="ignore"):
        log_inc = np.logaddexp(logf[1:], logf[:-1]) + np.log(dx / 2.0)
        out = np.full(len(x), -np.inf)
        for i in range(1, len(x)):
            out[i] = np.logaddexp(out[i - 1], log_inc[i - 1])
    if reverse:
        out = out[::-1]
    return out


def ref_cumgauss_theta(func, radii, thetas, reverse=False):
    th = np.asarray(thetas, dtype=float)
    order = th if not reverse else th[::-1]
    acc = np.zeros(len(radii))
    cols = [0.0 * acc]
    for a, b in zip(order[:-1], order[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        seg = np.zeros(len(radii))
        for node, wt in zip(_GL_NODES, _GL_WEIGHTS):
            t = mid + half * node
            seg = seg + wt * np.asarray(func(radii, np.full_like(radii, t)))
        acc = acc + half * seg
        cols.append(acc.copy())
    res = np.stack(cols, axis=1)
    if reverse:
        res = res[:, ::-1]
    return res


def ref_log_psi(d, g, sector=None):
    if sector is None:
        sector = (g.thetas[0], g.thetas[-1])
    th = np.linspace(sector[0], sector[1], len(g.thetas))
    rr, tt = np.meshgrid(g.radii, th, indexing="ij")
    le = 2.0 * d.neg_re_phi(rr, tt)
    out = np.empty(len(g.radii))
    dth = np.diff(th)
    for i in range(len(g.radii)):
        inc = np.logaddexp(le[i, 1:], le[i, :-1]) + np.log(dth / 2.0)
        out[i] = np.logaddexp.reduce(inc)
    return out


def ref_hardy_angular(d, inner, outer, g):
    th0, th1 = outer
    th = np.linspace(th0, th1, len(g.thetas))
    increasing = False
    if d.a_ell != 0:
        s = np.sin(d.tau - d.ell * th)
        increasing = bool(np.mean(s) > 0)
    best = 0.0
    for r in g.radii:
        lw = 2.0 * d.neg_re_phi(np.full_like(th, r), th)
        if increasing:
            upper = ref_log_cumtrapz(lw, th, reverse=False)
            lower = ref_log_cumtrapz(-lw, th, reverse=True)
        else:
            upper = ref_log_cumtrapz(lw, th, reverse=True)
            lower = ref_log_cumtrapz(-lw, th, reverse=False)
        with np.errstate(invalid="ignore"):
            c_r = 4.0 * float(np.exp(np.max(upper + lower)))
        if math.isnan(c_r):
            c_r = 0.0
        best = max(best, c_r)
    return best


def ref_first_false(mask):
    idx = len(mask)
    for i in range(len(mask)):
        if not mask[i]:
            idx = i
            break
    return idx


def catalog_weights():
    out = []
    for name, entry in catalog.CATALOG.items():
        if not entry.l2:
            continue
        p = entry.l2
        d = WeightedLineData.create(beta=p["beta"], kappa=p["kappa"],
                                    ell=p["ell"], a_ell=p["a_ell"],
                                    sector=p["sector"], r1=0.5)
        out.append((name, d, p["sector"], p["inner"]))
    return out


def _rows_equal(new, ref_rows):
    ref = np.stack(ref_rows)
    assert new.shape == ref.shape
    assert np.array_equal(new, ref, equal_nan=True)


@pytest.mark.parametrize("reverse", [False, True])
def test_log_cumtrapz_matches_row_loop(reverse):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.2, 2.1, 40))
    logf = rng.normal(scale=30.0, size=(7, 40))
    logf[2, :] = -np.inf                  # a weight that underflows everywhere
    logf[4, 10:25] = -np.inf              # ... and on a stretch
    logf[5, 0] = -np.inf
    new = _log_cumtrapz(logf, x, reverse=reverse)
    _rows_equal(new, [ref_log_cumtrapz(row, x, reverse) for row in logf])
    # a 1-D input is one row
    assert np.array_equal(_log_cumtrapz(logf[0], x, reverse),
                          ref_log_cumtrapz(logf[0], x, reverse))


@pytest.mark.parametrize("reverse", [False, True])
def test_cumgauss_theta_matches_interval_loop(reverse):
    g = grid((0.3, 1.2), "coarse")

    def func(r, t):  # depends on both r and θ
        return np.cos(3.0 * t) / (1.0 - np.log(r)) + np.sin(t) * r ** 2

    new = _cumgauss_theta(func, g.radii, g.thetas, reverse=reverse)
    ref = ref_cumgauss_theta(func, g.radii, g.thetas, reverse=reverse)
    assert np.array_equal(new, ref)
    if reverse:
        assert np.all(new[:, -1] == 0.0)
    else:
        assert np.all(new[:, 0] == 0.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_cumgauss_theta_bump_weighted_integrand(reverse):
    # the integrand build_primitive_angular hands over
    g = grid((0.2, 2.1), "coarse")
    chi = default_bump((0.6, 1.7), (0.2, 2.1))

    def weighted(r, t):
        return chi(t) * (np.cos(2.0 * (t - 0.2)) - np.sin(t - 0.2) * r ** 2)

    assert np.array_equal(
        _cumgauss_theta(weighted, g.radii, g.thetas, reverse=reverse),
        ref_cumgauss_theta(weighted, g.radii, g.thetas, reverse=reverse))


HARDY_ORIENTATIONS = [
    # sin(τ − ℓθ) > 0 on (0.3, 1.2): w increasing in θ
    (dict(a_ell=1.0, ell=1), (0.3, 1.2), (0.5, 1.0), True),
    # sin(τ − ℓθ) < 0 on (0.3, 1.2): w decreasing in θ
    (dict(a_ell=-1.0, ell=1), (0.3, 1.2), (0.5, 1.0), False),
    (dict(a_ell=2.0, ell=2), (1.7, 2.2), (1.8, 2.1), None),
    (dict(a_ell=0.0, beta=0.5), (0.2, 2.1), (0.6, 1.7), None),]


@pytest.mark.parametrize("params,sec,inner,increasing", HARDY_ORIENTATIONS)
def test_hardy_angular_matches_radius_loop(params, sec, inner, increasing):
    d = WeightedLineData.create(r1=0.5, sector=sec, **params)
    if increasing is not None:
        th = np.linspace(sec[0], sec[1], 17)
        assert (np.mean(np.sin(d.tau - d.ell * th)) > 0) == increasing
    for preset in ("coarse", "default"):
        g = grid(sec, preset)
        c = hardy_angular(d, inner, sec, g)
        assert type(c) is float
        assert c == ref_hardy_angular(d, inner, sec, g)


def test_hardy_angular_overflowing_rows():
    # with |a_ℓ| = 1e300 the log-weight is ±∞ on the innermost radii, so
    # those rows of the cumulative integrals hold ±∞ and their C_n(r) is
    # NaN (counted as 0); on the rest w or 1/w underflows to 0
    sec = (0.3, 1.2)
    for a_ell in (1e300, -1e300):
        d = WeightedLineData.create(a_ell=a_ell, ell=1, sector=sec, r1=0.5)
        g = SectorGrid(np.geomspace(1e-12, 0.5, 60), np.linspace(*sec, 32))
        with np.errstate(over="ignore", invalid="ignore"):
            rr, tt = np.meshgrid(g.radii, g.thetas, indexing="ij")
            lw = 2.0 * d.neg_re_phi(rr, tt)
            assert np.any(np.isinf(lw[0])) and np.all(np.isfinite(lw[-1]))
            assert np.all(np.exp(-np.abs(lw)) == 0.0)
            c = hardy_angular(d, (0.5, 1.0), sec, g)
            assert c == ref_hardy_angular(d, (0.5, 1.0), sec, g)


def test_log_psi_matches_radius_loop():
    sec = (1.0, 2.0)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    g = grid(sec, "coarse")
    assert np.array_equal(log_psi(d, g), ref_log_psi(d, g))
    assert np.array_equal(log_psi(d, g, (1.7, 2.0)),
                          ref_log_psi(d, g, (1.7, 2.0)))
    assert np.array_equal(log_psi(flat(0.5), g), ref_log_psi(flat(0.5), g))


@pytest.mark.parametrize("name,d,sec,inner", catalog_weights(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_kernels_match_loops_on_catalog_weights(name, d, sec, inner):
    g = grid(sec, "coarse")
    assert np.array_equal(log_psi(d, g), ref_log_psi(d, g))
    assert hardy_angular(d, inner, sec, g) == \
        ref_hardy_angular(d, inner, sec, g)
    rr, tt = np.meshgrid(g.radii, g.thetas, indexing="ij")
    lw = 2.0 * d.neg_re_phi(rr, tt)
    for reverse in (False, True):
        _rows_equal(_log_cumtrapz(lw, g.thetas, reverse),
                    [ref_log_cumtrapz(row, g.thetas, reverse) for row in lw])

    def integrand(r, t):
        return np.exp(d.neg_re_phi(r, t)) * np.cos(t)

    for reverse in (False, True):
        assert np.array_equal(
            _cumgauss_theta(integrand, g.radii, g.thetas, reverse),
            ref_cumgauss_theta(integrand, g.radii, g.thetas, reverse))


# -- one grid evaluator against the meshgrid and contiguous-copy versions ------
# The oracles are the code before _on_grid: every callable saw full
# (radii × θ) arrays.  A radius column against a θ row must give the same
# bits.

def old_cumgauss_theta(func, radii, thetas, reverse=False):
    th = np.asarray(thetas, dtype=float)
    order = th if not reverse else th[::-1]
    a, b = order[:-1], order[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    shape = (len(radii), len(a))
    rr = np.broadcast_to(np.asarray(radii, dtype=float)[:, None], shape).copy()
    seg = np.zeros(shape)
    for node, wt in zip(_GL_NODES, _GL_WEIGHTS):
        # contiguous copies: numpy may round a transcendental ufunc
        # differently on a broadcast (strided) input than on a row
        tt = np.broadcast_to(mid + half * node, shape).copy()
        seg = seg + wt * np.asarray(func(rr, tt))
    res = np.concatenate([np.zeros((shape[0], 1)),
                          np.cumsum(half * seg, axis=1)], axis=1)
    if reverse:
        res = res[:, ::-1]
    return res


def old_eval_samples(samples, g):
    if callable(samples):
        rr, tt = np.meshgrid(g.radii, g.thetas, indexing="ij")
        return np.asarray(samples(rr, tt), dtype=float)
    arr = np.asarray(samples, dtype=float)
    if arr.shape != (len(g.radii), len(g.thetas)):
        raise DomainError(f"sample array shape {arr.shape} does not match grid")
    return arr


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("preset", ["coarse", "default"])
@pytest.mark.parametrize("name,d,sec,inner", catalog_weights(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_cumgauss_theta_matches_contiguous_copies(name, d, sec, inner, preset,
                                                  reverse):
    g = grid(sec, preset)
    chi = default_bump(inner, sec)
    _, _, gt = _manufactured(np.random.default_rng(5), g)

    def weighted_phase(r, t):
        return np.exp(d.neg_re_phi(r, t)) * np.cos(t)

    # the integrand build_primitive_angular hands over in vanishing_report
    def bumped(r, t):
        return chi(t) * gt(r, t)

    for func in (weighted_phase, bumped):
        new = _cumgauss_theta(func, g.radii, g.thetas, reverse)
        assert np.array_equal(new, old_cumgauss_theta(func, g.radii, g.thetas,
                                                       reverse))


@pytest.mark.parametrize("preset", ["coarse", "default"])
@pytest.mark.parametrize("func,shape", [
    (lambda r, t: np.ones_like(r), "R1"),
    (lambda r, t: np.cos(3.0 * t) - np.sin(t - 0.3), "1T"),
    (lambda r, t: np.cos(3.0 * t) / (1.0 - np.log(r)) + np.sin(t) * r ** 2, "RT"),
], ids=["R1", "1T", "RT"])
def test_eval_samples_matches_meshgrid(func, shape, preset):
    g = grid((0.3, 1.2), preset)
    size = {"R": len(g.radii), "T": len(g.thetas), "1": 1}
    assert np.shape(func(g.radii[:, None], g.thetas[None, :])) == \
        tuple(size[c] for c in shape)
    new = _eval_samples(func, g)
    assert new.shape == (len(g.radii), len(g.thetas))
    assert np.array_equal(new, old_eval_samples(func, g))


@pytest.mark.parametrize("params,sec,inner,increasing", HARDY_ORIENTATIONS)
def test_angular_orientation_follows_the_weight(params, sec, inner, increasing):
    # u starts (is exactly 0) on the θ end where e^{−2Re φ} is larger, and
    # hardy_angular pairs its cumulative integrals by the same rule.  The
    # radii start at 0.1, where no weight here overflows, so that the norm
    # ratio of build_primitive_angular stays finite on every case.
    d = WeightedLineData.create(r1=0.5, sector=sec, **params)
    coarse = grid(sec, "coarse")
    assert hardy_angular(d, inner, sec, coarse) == \
        ref_hardy_angular(d, inner, sec, coarse)
    g = SectorGrid(np.geomspace(0.1, 0.5, 200), coarse.thetas)
    lw = d.neg_re_phi(g.radii[0], g.thetas[[0, -1]])
    grows = bool(lw[1] > lw[0])
    if increasing is not None:
        assert grows == increasing
    out = build_primitive_angular((lambda r, t: np.zeros_like(r),
                                   lambda r, t: np.cos(t)), d, g, inner)
    start, end = (-1, 0) if grows else (0, -1)
    assert np.all(out["u"][:, start] == 0.0)
    assert np.all(out["u"][:, end] != 0.0)
    assert hardy_angular(d, inner, sec, g) == ref_hardy_angular(d, inner, sec, g)


def test_neg_re_phi_flat_is_exact_zero_with_broadcast_shape():
    d = flat(0.5, 1)
    r = np.geomspace(1e-6, 0.5, 5)[:, None]
    th = np.linspace(0.0, 1.0, 3)
    out = d.neg_re_phi(r, th)
    assert out.shape == (5, 3)
    assert np.all(out == 0.0) and not np.any(np.signbit(out))
    assert d.neg_re_phi(0.1, 0.2).shape == ()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 90), st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi))
def test_phase_matches_its_closed_form(ell, log_size, angle):
    """−Re φ = (|a_ℓ|/r^ℓ)·cos(ℓθ − τ) with τ = arg(−a_ℓ).

    Both sides round ℓθ and the powers of r, so they agree to a few ulp of
    ℓ·(1 + |θ|) times the size |a_ℓ|/r^ℓ of the phase; 2 ulp were the most
    seen on 3000 random draws.
    """
    a = 10.0 ** log_size * complex(math.cos(angle), math.sin(angle))
    d = WeightedLineData.create(a_ell=a, ell=ell, sector=(0.0, 6.0))
    r = np.geomspace(1e-3, 0.99, 40)[:, None]
    th = np.linspace(-7.0, 7.0, 64)[None, :]
    size = abs(a) / r ** ell
    angle = ell * th - d.tau
    tol = 16 * np.finfo(float).eps * ell * (1.0 + np.abs(th)) * size
    assert np.all(np.abs(d.neg_re_phi(r, th) - size * np.cos(angle)) <= tol)


def phase_draws(seed):
    """The rank-1 data of the former tail checks, with the tail left off.

    Odd trials carry a random a_ℓ, even ones none; ℓ cycles through 1, 2, 3.
    The radii reach 10⁻⁶, below the closed-form check's 10⁻³.
    """
    rng = np.random.default_rng(seed)
    for trial in range(60):
        a_ell = complex(*rng.uniform(-2, 2, 2)) if trial % 2 else 0.0
        yield WeightedLineData.create(a_ell=a_ell, ell=1 + trial % 3,
                                      sector=(0.0, 6.0))


def test_neg_re_phi_tail_matches_term_loop():
    """Without a tail, −Re φ is its one term (|a_ℓ|/r^ℓ)·cos(ℓθ − τ).

    Each draw is summed in polar form and compared to a few ulp of
    ℓ·(1 + |θ|) times |a_ℓ|/r^ℓ; no a_ℓ gives exact zeros.
    """
    r = np.geomspace(1e-6, 0.99, 80)[:, None]
    th = np.linspace(-7.0, 7.0, 64)[None, :]
    for d in phase_draws(8):
        out = d.neg_re_phi(r, th)
        assert out.shape == (80, 64)
        if d.a_ell == 0:
            assert np.all(out == 0.0)
            continue
        size = abs(d.a_ell) / r ** d.ell
        tol = 16 * np.finfo(float).eps * d.ell * (1.0 + np.abs(th)) * size
        assert np.all(np.abs(out - size * np.cos(d.ell * th - d.tau)) <= tol)


@pytest.mark.parametrize("mask", [
    [True, True, True], [False, True, True], [True, False, True],
    [True, True, False], [False, False], [], [True]])
def test_first_false_matches_scan(mask):
    assert _first_false(np.array(mask, dtype=bool)) == ref_first_false(mask)


# with −c·r added to log ψ, r^N ψ (N ≥ −2, increasing up to r1 = 0.5 as it
# stands) stops increasing nowhere (c = 0), partway, or on every radius
# (c = 1e15 outweighs d log ψ/dr ≈ 0.7/r² at r_min = 1e-6)
@pytest.mark.parametrize("c,where", [(0, "none"), (50, "partway"),
                                     (10 ** 15, "first")])
def test_first_failing_radius_scans_match_loops(c, where, monkeypatch):
    sec = (0.3, 1.2)
    d = WeightedLineData.create(a_ell=1.0, ell=1, sector=sec, r1=0.5)
    g = grid(sec, "coarse")
    monkeypatch.setattr(l2lab, "log_psi",
                        lambda *args: log_psi(*args) - c * g.radii)
    out = psi_profile(d, range(-5, 6), g)
    lp = log_psi(d, g) - c * g.radii
    expected_r_n = {"none": g.radii[-1], "first": g.radii[0]}
    for n, v in out["verdicts"].items():
        assert v["sign"] == 1
        good = v["sign"] * np.diff(n * np.log(g.radii) + lp) > 0
        idx = ref_first_false(good)
        assert v["monotone"] is (idx == len(good))
        assert v["r_N"] == float(g.radii[idx] if idx > 0 else g.radii[0])
        if n < -2:
            continue
        assert v["monotone"] is (where == "none")
        if where in expected_r_n:
            assert v["r_N"] == expected_r_n[where]
        else:
            assert g.radii[0] < v["r_N"] < g.radii[-1]


@pytest.mark.parametrize("preset", list(PRESETS))
def test_catalog_phases_keep_their_sign_identities_up_to_r1(preset, capsys):
    for name, entry in catalog.CATALOG.items():
        if entry.l2 and entry.l2["a_ell"] != 0:
            code = cli.main(["l2verify", name, "--grid", preset,
                             "--trials", "1"])
            r_phi = json.loads(capsys.readouterr().out)["phase"]["r_phi"]
            assert code == 0 and r_phi == cli._l2_data(name)[0].r1, name


# -- weights cached on the grid -----------------------------------------------

def ref_norm_on_grid(p, samples, d, g):
    """_norm_on_grid as it was, building the weight on every call."""
    m = d.kappa + 2 * (p - 1)
    rr, tt = np.meshgrid(g.radii, g.thetas, indexing="ij")
    u = -np.log(rr)
    with np.errstate(over="ignore"):
        logw = -2.0 * d.beta * u + m * np.log(u) + 2.0 * d.neg_re_phi(rr, tt)
        w = np.exp(logw)
    if p == 1:
        f, gt = samples
        sq = _eval_samples(f, g) ** 2 + _eval_samples(gt, g) ** 2
    else:
        sq = _eval_samples(samples, g) ** 2
    with np.errstate(invalid="ignore", over="ignore"):
        vals = np.where(sq > 0, sq * w, 0.0)
    if np.any(np.isinf(vals)):
        return math.inf
    inner = _np_trapz(vals, g.thetas, axis=1)
    total = float(_np_trapz(inner[::-1], g.u[::-1], axis=0))
    with np.errstate(invalid="ignore", over="ignore"):
        phase_edge = np.exp(2.0 * d.neg_re_phi(g.radii[0], g.thetas))
        edge = np.where(sq[0, :] > 0, sq[0, :] * phase_edge, 0.0)
    tail_w = _tail_weight_integral(d, m, float(g.u[0]))
    if np.any(edge > 0):
        if not (math.isfinite(tail_w) and np.all(np.isfinite(edge))):
            return math.inf
        total += float(_np_trapz(edge, g.thetas)) * tail_w
    return total


def ref_weighted_norm(p, samples, d, g, check):
    """weighted_norm's convergence check around the reference norm."""
    val = ref_norm_on_grid(p, samples, d, g)
    refinable = callable(samples) or (p == 1 and all(callable(s) for s in samples))
    if check and refinable and math.isfinite(val) and val != 0:
        val2 = ref_norm_on_grid(p, samples, d, g.refined())
        if abs(val2 - val) > 0.01 * abs(val):
            raise NonconvergentQuadrature
    return val


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonconvergentQuadrature:
        return NonconvergentQuadrature


SEC1, SEC2 = (0.3, 1.2), ELL2_SECTOR
WEIGHT_CASES = [
    (dict(beta=b, kappa=k, a_ell=0.0), FULL) for b in (0.0, 1.0) for k in (0, 2)
] + [
    (dict(beta=0.5, kappa=1, ell=1, a_ell=1.0), SEC1),
    (dict(beta=1.0, kappa=0, ell=2, a_ell=1.74), SEC2),
    (dict(beta=0.25, kappa=2, ell=1, a_ell=1.0), SEC1),
    (dict(beta=1.0, kappa=0, a_ell=0.0), SEC1),
]


def _samples(p, g):
    """A callable and an array version of p-form samples on g."""
    fn = lambda r, t: np.cos(t) / (1.0 - np.log(r)) + r
    arr = _eval_samples(fn, g)
    if p == 1:
        gt = lambda r, t: np.sin(2.0 * t) * r
        return (fn, gt), (arr, _eval_samples(gt, g))
    return fn, arr


@pytest.mark.parametrize("params,sec", WEIGHT_CASES)
def test_cached_weight_matches_rebuilt_weight(params, sec):
    d = WeightedLineData.create(sector=sec, r1=0.5, **params)
    g = grid(sec, "coarse")
    for _ in range(2):
        for p in (0, 1, 2):
            for samples in _samples(p, g):
                assert _norm_on_grid(p, samples, d, g) == \
                    ref_norm_on_grid(p, samples, d, g)
                assert _outcome(weighted_norm, p, samples, d, g) == \
                    _outcome(ref_weighted_norm, p, samples, d, g, True)
    # one entry per log power, kept across calls
    assert len(g._weights) == 3
    assert _grid_weight(d, g, d.kappa)[0] is _grid_weight(d, g, d.kappa)[0]


def test_interleaved_data_keep_their_own_weights():
    # each datum differs from the first in one field only
    base = dict(beta=0.5, kappa=0, ell=1, a_ell=1.0)
    data = [WeightedLineData.create(sector=SEC1, r1=0.5, **dict(base, **change))
            for change in ({}, {"kappa": 1}, {"beta": 0.25}, {"a_ell": 2.0})]
    assert len({d.tau for d in data}) == 1
    g = grid(SEC1, "coarse")
    fn, arr = _samples(0, g)
    values = []
    for _ in range(3):
        for d in data + data[::-1]:
            for p, samples in ((0, fn), (1, (arr, arr))):
                v = _norm_on_grid(p, samples, d, g)
                assert v == ref_norm_on_grid(p, samples, d, g)
                values.append(v)
    assert len(set(values)) == 2 * len(data)
    assert len(g._weights) == 2 * len(data)


def test_zero_samples_mask_an_overflowing_weight():
    # e^{−2Re φ} overflows below r ≈ 3e-3 here; samples that vanish there
    # add 0 to the norm, not 0·inf = nan
    d = WeightedLineData.create(beta=0.0, kappa=0, ell=1, a_ell=-1.0,
                                sector=SEC1, r1=0.5)
    g = grid(SEC1, "coarse")
    assert np.isinf(_grid_weight(d, g, d.kappa)[0]).any()
    fn = lambda r, t: np.where(r > 0.01, np.cos(t), 0.0)
    for p, samples in ((0, fn), (1, (fn, fn))):
        v = _norm_on_grid(p, samples, d, g)
        assert math.isfinite(v) and v > 0
        assert v == ref_norm_on_grid(p, samples, d, g)


def test_grid_arrays_are_read_only():
    radii, thetas = np.geomspace(1e-6, 0.5, 20), np.linspace(0.3, 1.2, 8)
    g = SectorGrid(radii, thetas)
    radii[0] = thetas[0] = 7.0
    assert g.radii[0] == 1e-6 and g.thetas[0] == 0.3
    for arr in (g.radii, g.thetas, g.u):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    d = flat(1.0, 2)
    for w in _grid_weight(d, g, 0):
        with pytest.raises(ValueError):
            w[0] = 1.0
