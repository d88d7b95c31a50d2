"""Weighted-L² laboratory on a punctured-disc sector.

Measures the quantities behind the Hardy-inequality machinery: the phase
profile of e^{−Re φ}, the angular profile ψ(r), Hardy constants, and the
constructive primitives for closed forms.  All radial work is done in
u = −log r; anything that can overflow (e^{c/r} weights) is handled in
log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DomainError, NonconvergentQuadrature, NotMonotone,
                     ParseError, SectorContainsCosZero, UnboundedRatio)
from .series import _as_int
from .sl2 import _read_only

R_MIN = 1e-6

PRESETS = {
    "coarse": (200, 48),
    "default": (800, 128),
    "fine": (2000, 256),
}


def smoothstep(t):
    """Quintic smoothstep: 0 for t ≤ 0, 1 for t ≥ 1, C² in between; vectorized."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


# -- data ---------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedLineData:
    """Rank-1 weight data: r^{2β}|log r|^κ e^{−2Re φ} on a sector.

    φ(z) = a_ℓ z^{−ℓ}, so −Re φ = (|a_ℓ|/r^ℓ) cos(ℓθ − τ) with
    τ = arg(−a_ℓ).  create refuses an ℓ so large that −Re φ is not finite
    at r = 10⁻³ on the sector.
    """

    beta: float
    kappa: int
    ell: int
    a_ell: complex
    tau: float
    sector: tuple[float, float]
    r1: float

    @classmethod
    def create(cls, beta=0.0, kappa=0, ell=1, a_ell=0.0,
               sector=(0.0, 2.0 * math.pi), r1=0.5) -> "WeightedLineData":
        beta, a_ell = float(beta), complex(a_ell)
        if not all(map(math.isfinite, (beta, a_ell.real, a_ell.imag, r1))):
            raise DomainError("β, a_ℓ and r1 must be finite")
        if not 0 < r1 < 1:
            raise DomainError("need 0 < r1 < 1")
        try:
            kappa, ell = _as_int(kappa, "κ"), _as_int(ell, "ℓ")
        except ParseError as exc:
            raise DomainError(str(exc)) from None
        if a_ell == 0:
            ell, tau = 0, 0.0
        elif ell < 1:
            raise DomainError(f"need ℓ >= 1 when a_ℓ ≠ 0, got ℓ = {ell}")
        else:
            # + 0.0 reads an argument of −0.0 as 0.0
            tau = math.atan2(-a_ell.imag, -a_ell.real) + 0.0
        d = cls(beta, kappa, ell, a_ell, tau,
                (float(sector[0]), float(sector[1])), float(r1))
        d._verify_range()
        return d

    @property
    def excluded(self) -> bool:
        """The flat weight (a_ℓ = 0, β = 0, κ = 0), outside the vanishing theorem."""
        return self.a_ell == 0 and self.beta == 0 and self.kappa == 0

    def _verify_range(self):
        """Refuse ℓ when −Re φ or its size |a_ℓ|/r^ℓ overflows at r = 10⁻³ on the sector."""
        if self.a_ell == 0:
            return
        r = 1e-3
        th = np.linspace(self.sector[0], self.sector[1], 17)
        scale = r ** self.ell
        with np.errstate(over="ignore", invalid="ignore"):
            actual = self.neg_re_phi(r, th)
        if scale == 0 or not (math.isfinite(abs(self.a_ell) / scale)
                              and np.all(np.isfinite(actual))):
            raise DomainError(f"ℓ = {self.ell} makes −Re φ overflow a float "
                              f"at r = {r}")

    def neg_re_phi(self, r, theta):
        """−Re φ(r e^{iθ}), vectorized."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self.a_ell == 0:
            return np.zeros(np.broadcast(r, theta).shape)
        return -np.real(self.a_ell * (r * np.exp(1j * theta)) ** (-self.ell))


@dataclass(frozen=True, eq=False)
class SectorGrid:
    """Geometric radii, uniform angles, trapezoid weights in (u, θ).

    A grid holds, built once and read-only so that none goes stale: copies
    of its radii and angles, and u, all 1-D; its refined grid; in _phases,
    2·(−Re φ) per datum and θ span, (R, T); in _weights, per datum and log
    power, w as (R, T), or (R, 1) with no phase, and phase_edge, (T,).
    Grids compare and hash by identity.
    """

    radii: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        for name in ("radii", "thetas"):
            arr = _read_only(np.array(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
        for name in ("_weights", "_phases"):  # see _grid_weight, _log_phase
            object.__setattr__(self, name, {})

    @classmethod
    def make(cls, sector=(0.0, 2.0 * math.pi), r1=0.5,
             preset="default") -> "SectorGrid":
        nr, nth = PRESETS[preset]
        return cls(np.geomspace(R_MIN, r1, nr),
                   np.linspace(sector[0], sector[1], nth))

    @cached_property
    def u(self) -> np.ndarray:
        return _read_only(-np.log(self.radii))

    @cached_property
    def _refined(self) -> "SectorGrid":
        return SectorGrid(
            np.geomspace(self.radii[0], self.radii[-1], 2 * len(self.radii)),
            np.linspace(self.thetas[0], self.thetas[-1], 2 * len(self.thetas)))

    def refined(self) -> "SectorGrid":
        return self._refined


_np_trapz = getattr(np, "trapezoid", None) or np.trapz


_GL_NODES = np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.9061798459386640])
_GL_WEIGHTS = np.array([0.2369268850561891, 0.4786286704993665,
                        0.5688888888888889, 0.4786286704993665,
                        0.2369268850561891])


def _on_grid(func, radii, thetas):
    """func(radii[:, None], thetas[None, :]) as a read-only (R, T) view.

    func must broadcast; np.ones_like(r), say, is spread over the grid.
    """
    vals = np.asarray(func(radii[:, None], thetas[None, :]), dtype=float)
    return np.broadcast_to(vals, (len(radii), len(thetas)))


def _cumgauss_theta(func, radii, thetas, reverse=False):
    """Cumulative ∫ func(r, t) dt over θ nodes, 5-point Gauss per interval.

    Essentially exact for smooth integrands, unlike the trapezoid rule.
    func is called through _on_grid once per Gauss node; its ufuncs see
    contiguous 1-D rows, so the bits are those of contiguous (radii ×
    intervals) copies, as tests/test_l2lab.py checks.  The interval
    integrals are summed along θ, from the last node when reverse is set.
    """
    th = np.asarray(thetas, dtype=float)
    order = th if not reverse else th[::-1]
    a, b = order[:-1], order[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    seg = np.zeros((len(radii), len(a)))
    for node, wt in zip(_GL_NODES, _GL_WEIGHTS):
        seg = seg + wt * _on_grid(func, radii, mid + half * node)
    res = np.concatenate([np.zeros((len(radii), 1)),
                          np.cumsum(half * seg, axis=1)], axis=1)
    if reverse:
        res = res[:, ::-1]
    return res


def _cumtrapz(vals, x):
    """Cumulative trapezoid ∫_{x[0]} vals dx of 1-D float arrays."""
    inc = 0.5 * (vals[1:] + vals[:-1]) * np.diff(x)
    return np.concatenate([np.zeros(1), np.cumsum(inc)])


def _log_cumtrapz(logf, x, reverse=False):
    """log of the cumulative trapezoid integral of e^{logf} along x.

    Works along the last axis of logf, so one call covers every row of a
    (radii × θ) array.
    """
    logf = np.asarray(logf, dtype=float)
    x = np.asarray(x, dtype=float)
    if reverse:
        logf = logf[..., ::-1]
        x = x[::-1]
    start = np.full(logf.shape[:-1] + (1,), -np.inf)
    out = np.logaddexp.accumulate(
        np.concatenate([start, _log_trapz_terms(logf, x)], axis=-1), axis=-1)
    if reverse:
        out = out[..., ::-1]
    return out


def _log_trapz_terms(logf, x):
    """log of each trapezoid term of ∫ e^{logf} dx along the last axis."""
    with np.errstate(divide="ignore"):
        return (np.logaddexp(logf[..., 1:], logf[..., :-1])
                + np.log(np.abs(np.diff(x)) / 2.0))


# -- weighted norms -----------------------------------------------------------

def _eval_samples(samples, g: SectorGrid):
    """Sample values: a callable's at the shape it returns, spread over g."""
    if callable(samples):
        vals = np.asarray(samples(g.radii[:, None], g.thetas[None, :]), dtype=float)
        np.broadcast_to(vals, (len(g.radii), len(g.thetas)))  # refuses an off-grid shape
        return vals
    arr = np.asarray(samples, dtype=float)
    if arr.shape != (len(g.radii), len(g.thetas)):
        raise DomainError(f"sample array shape {arr.shape} does not match grid")
    return arr


def _tail_weight_integral(d: WeightedLineData, m: int, u0: float) -> float:
    """∫_{u0}^∞ e^{−2βu} u^m du (the r < r_min remainder of the measure)."""
    if d.beta > 0:
        span = max(50.0 / (2.0 * d.beta), 10.0)
        uu = np.linspace(u0, u0 + span, 4000)
        return float(_np_trapz(np.exp(-2.0 * d.beta * uu) * uu ** m, uu))
    if d.beta == 0 and m <= -2:
        return u0 ** (m + 1) / (-m - 1)
    return math.inf


def _log_phase(d: WeightedLineData, g: SectorGrid, sector) -> np.ndarray:
    """2·(−Re φ) on g's radii and len(g.thetas) angles across sector, held
    on g; on g's own span those angles are g.thetas, as linspace made them.
    A broadcast zero, held nowhere, when a_ℓ = 0."""
    if d.a_ell == 0:
        return np.broadcast_to(0.0, (len(g.radii), len(g.thetas)))
    key = (d, float(sector[0]), float(sector[1]))
    if key not in g._phases:
        th = np.linspace(sector[0], sector[1], len(g.thetas))
        g._phases[key] = _read_only(2.0 * _on_grid(d.neg_re_phi, g.radii, th))
    return g._phases[key]


def _grid_weight(d: WeightedLineData, g: SectorGrid, m: int):
    """(w, phase_edge) of d on g for the log power m, built once per grid.

    w = r^{2β}|log r|^m e^{−2Re φ} on the grid; phase_edge is e^{−2Re φ}
    on the innermost radius.  The r-only part of log w is taken on the
    1-D u; with no phase, w is its exp as an (R, 1) column.
    """
    key = (d, m)
    if key not in g._weights:
        with np.errstate(over="ignore"):
            phase = _log_phase(d, g, (g.thetas[0], g.thetas[-1])) if d.a_ell else 0.0
            w = np.exp((-2.0 * d.beta * g.u + m * np.log(g.u))[:, None] + phase)
        with np.errstate(invalid="ignore", over="ignore"):
            phase_edge = np.exp(2.0 * d.neg_re_phi(g.radii[0], g.thetas))
        g._weights[key] = (_read_only(w), _read_only(phase_edge))
    return g._weights[key]


def _norm_on_grid(p, samples, d: WeightedLineData, g: SectorGrid) -> float:
    m = d.kappa + 2 * (p - 1)
    w, phase_edge = _grid_weight(d, g, m)
    if p == 1:
        f, gt = samples
        sq = _eval_samples(f, g) ** 2 + _eval_samples(gt, g) ** 2
    else:
        sq = _eval_samples(samples, g) ** 2
    with np.errstate(invalid="ignore", over="ignore"):
        vals = np.where(sq > 0, sq * w, 0.0)
    if np.any(np.isinf(vals)):
        return math.inf
    shape = (len(g.radii), len(g.thetas))
    inner = _np_trapz(np.broadcast_to(vals, shape), g.thetas, axis=1)
    total = float(_np_trapz(inner[::-1], g.u[::-1], axis=0))
    # analytic remainder below r_min: freeze the sample and the phase factor
    sq0 = np.broadcast_to(sq, shape)[0]
    with np.errstate(invalid="ignore", over="ignore"):
        edge = np.where(sq0 > 0, sq0 * phase_edge, 0.0)
    tail_w = _tail_weight_integral(d, m, float(g.u[0]))
    if np.any(edge > 0):
        if not (math.isfinite(tail_w) and np.all(np.isfinite(edge))):
            return math.inf
        total += float(_np_trapz(edge, g.thetas)) * tail_w
    return total


def weighted_norm(p: int, samples, d: WeightedLineData, g: SectorGrid) -> float:
    """Squared norm ∫|·|² r^{2β}|log r|^{κ+2(p−1)} e^{−2Re φ} dθ dr/r.

    Callable samples are called on a radius column and an angle row, so
    they must broadcast; a finite nonzero value from them is checked
    against g.refined(), which g holds.  Sample arrays are taken as given.
    The weight is computed once per (data, log power) and kept on the grid
    for the grid's lifetime, which is why grid arrays are read-only.
    """
    if p not in (0, 1, 2):
        raise DomainError("form degree must be 0, 1 or 2")
    val = _norm_on_grid(p, samples, d, g)
    refinable = callable(samples) or (p == 1 and all(callable(s) for s in samples))
    if refinable and math.isfinite(val) and val != 0:
        val2 = _norm_on_grid(p, samples, d, g.refined())
        if abs(val2 - val) > 0.01 * abs(val):
            raise NonconvergentQuadrature(
                f"refinement moved the value by {abs(val2 - val) / abs(val):.2%}")
    return val


# -- phase structure ----------------------------------------------------------

def _first_false(mask) -> int:
    """Index of the first False entry of a 1-D boolean array, len if none."""
    return len(mask) if np.all(mask) else int(np.argmin(mask))


def _cos_sign_on_sector(d: WeightedLineData, sector) -> int:
    """Sign of cos(ℓθ−τ) if constant on the closed sector, else 0 (a_ℓ = 0: 0)."""
    if d.a_ell == 0:
        return 0
    th = np.linspace(sector[0], sector[1], 513)
    c = np.cos(d.ell * th - d.tau)
    if np.all(c > 1e-12):
        return 1
    if np.all(c < -1e-12):
        return -1
    return 0


def log_psi(d: WeightedLineData, g: SectorGrid, sector=None) -> np.ndarray:
    """log ψ(r) = log ∫ e^{−2Re φ} dθ on each grid radius."""
    if sector is None:
        sector = (g.thetas[0], g.thetas[-1])
    th = np.linspace(sector[0], sector[1], len(g.thetas))
    return np.logaddexp.reduce(_log_trapz_terms(_log_phase(d, g, sector), th),
                               axis=-1, initial=-np.inf)


def psi_profile(d: WeightedLineData, n_range, g: SectorGrid, sub_sector=None):
    """ψ(r) table plus monotonicity verdicts of r^N ψ for each N.

    Needs cos(ℓθ−τ) of constant sign on the sector, or an explicit
    sub-sector playing the role of ψ₊; raises UnboundedRatio when the
    sub-sector's κ ratio overflows a float.
    """
    sector = (g.thetas[0], g.thetas[-1])
    sign = _cos_sign_on_sector(d, sector)
    if sign == 0 and d.a_ell != 0:
        if sub_sector is None:
            raise SectorContainsCosZero(
                "cos(ℓθ−τ) changes sign; supply a sub-sector")
        sign = _cos_sign_on_sector(d, sub_sector)
        if sign == 0:
            raise SectorContainsCosZero("sub-sector also straddles a zero")
    work_sector = sub_sector if sub_sector is not None else sector
    lp = log_psi(d, g, work_sector)
    kappa_ratio = None
    if sub_sector is not None:
        lp_full = log_psi(d, g, sector)
        with np.errstate(over="ignore"):
            kappa_ratio = float(np.exp(np.max(lp_full - lp)))
        if not math.isfinite(kappa_ratio):
            raise UnboundedRatio("ψ over the sector / ψ over the sub-sector "
                                 "is not finite")
    rows = [{"r": float(r), "log_psi": float(v)} for r, v in zip(g.radii, lp)]
    verdicts = {}
    lnr = np.log(g.radii)
    # expected sign of d(r^N ψ)/dr at small r is sign(−cos(ℓθ−τ))
    for n in n_range:
        prof = n * lnr + lp
        diffs = np.diff(prof)
        if sign != 0:
            expected = -sign
        else:
            expected = 1 if n > 0 else (-1 if n < 0 else 0)
        if expected == 0:
            verdicts[n] = {"monotone": bool(np.max(np.abs(diffs)) < 1e-9),
                           "r_N": float(g.radii[-1]), "sign": 0}
            continue
        idx = _first_false(expected * diffs > 0)
        verdicts[n] = {"monotone": idx == len(diffs),
                       "r_N": float(g.radii[idx]), "sign": expected}
    return {"table": rows, "verdicts": verdicts, "kappa_ratio": kappa_ratio,
            "cos_sign": sign}


# -- Hardy measurements -------------------------------------------------------

def _grows_in_theta(d: WeightedLineData, th) -> bool:
    """Whether e^{−2Re φ} grows along th: a_ℓ ≠ 0, mean sin(τ − ℓθ) > 0."""
    return d.a_ell != 0 and bool(np.mean(np.sin(d.tau - d.ell * th)) > 0)


def hardy_angular(d: WeightedLineData, inner, outer, g: SectorGrid) -> float:
    """sup_r of C_n(r) = 4·sup_θ ∫_θ^{θ₁'} w · ∫_{θ₀'}^θ w⁻¹ (log-safe).

    Requires e^{−Re φ} monotone in θ on the outer sector; bounded by
    (θ₁'−θ₀')² when it is.  Both cumulative integrals are taken on the
    whole (radii × θ) grid at once; a radius whose C_n(r) is NaN counts
    as 0. `inner` is read nowhere; it stays only because
    `perfbench/run.py` passes it positionally.
    """
    th0, th1 = outer
    th = np.linspace(th0, th1, len(g.thetas))
    if d.a_ell != 0:
        s = np.sin(d.tau - d.ell * th)
        if not (np.all(s >= -1e-12) or np.all(s <= 1e-12)):
            raise NotMonotone("weight is not θ-monotone on the outer sector")
    lw = _log_phase(d, g, outer)
    # pair the cumulative of w on its small side (from θ0 when w grows) with
    # that of 1/w on its own small side, so the product stays ≤ width²/4
    grows = _grows_in_theta(d, th)
    upper = _log_cumtrapz(lw, th, reverse=not grows)
    lower = _log_cumtrapz(-lw, th, reverse=grows)
    with np.errstate(invalid="ignore"):
        c_r = 4.0 * np.exp(np.max(upper + lower, axis=1))
    return max(0.0, float(np.max(np.where(np.isnan(c_r), 0.0, c_r))))


def default_bump(inner, outer):
    """C² plateau bump: 1 on the inner sector, 0 outside the outer one."""
    (i0, i1), (o0, o1) = inner, outer

    def chi(t):
        t = np.asarray(t, dtype=float)
        up = smoothstep((t - o0) / (i0 - o0)) if i0 > o0 else np.ones_like(t)
        down = smoothstep((o1 - t) / (o1 - i1)) if o1 > i1 else np.ones_like(t)
        return up * down

    return chi


def build_primitive_angular(omega, d: WeightedLineData, g: SectorGrid, inner):
    """u(r,θ) = ∫ χ g_θ dθ from the monotone end: samples, norm ratio, bound.

    ω = (f, g_θ) is a pair of callables, evaluated as in _on_grid.  Only
    g_θ is read: u is its θ-primitive, and for a closed ω the f half follows
    from g_θ (vanishing_report checks u against the exact u₀).  The pair
    stays only because `perfbench/run.py` passes it positionally.  χ is the
    default bump, 1 on the inner sector and 0 outside the grid's.
    """
    outer = (float(g.thetas[0]), float(g.thetas[-1]))
    chi = default_bump(inner, outer)
    th = g.thetas
    chi_v = np.asarray(chi(th), dtype=float)
    integrand = _on_grid(omega[1], g.radii, th) * chi_v[None, :]
    # integrate from the end where the weight is larger (θ₀' when it
    # decreases); with no phase the orientation is immaterial
    u = _cumgauss_theta(lambda rv, tv: chi(tv) * omega[1](rv, tv),
                        g.radii, th, reverse=_grows_in_theta(d, th))
    nu = weighted_norm(0, u, d, g)
    nden = weighted_norm(1, (np.zeros_like(u), integrand), d, g)
    ratio = math.sqrt(nu / nden) if nden > 0 else 0.0
    if not math.isfinite(ratio):
        raise UnboundedRatio("angular primitive has infinite norm ratio")
    return {"u": u, "ratio": ratio, "bound": 2.0 * (outer[1] - outer[0]),
            "chi": chi_v}


def build_primitive_radial(f_r, d: WeightedLineData, g: SectorGrid):
    """u(r) = ∫₀^r f dρ or −∫_r^{r₁} f dρ for a callable f_r(r), by the ψ trend."""
    sign = _cos_sign_on_sector(d, (float(g.thetas[0]), float(g.thetas[-1])))
    if sign == 0 and d.a_ell != 0:
        raise NotMonotone("ψ has no one-sided trend on this sector")
    f = np.asarray(f_r(g.radii), dtype=float)
    r = g.radii
    if sign <= 0:
        u = _cumtrapz(f, r) + f[0] * r[0]  # ∫₀^{r_min} by flat extrapolation
    else:
        u = -_cumtrapz(f[::-1], r[::-1])[::-1]
    u2 = np.broadcast_to(u[:, None], (len(r), len(g.thetas)))
    f2 = np.broadcast_to((f * r)[:, None], (len(r), len(g.thetas)))
    nu = weighted_norm(0, u2, d, g)
    nf = weighted_norm(1, (f2, np.zeros_like(f2)), d, g)
    ratio_sq = nu / nf if nf > 0 else 0.0
    rho = np.linspace(1e-9, d.r1, 20001)[1:]
    bound = 4.0 * float(np.max(rho * (d.r1 - rho) / np.log(rho) ** 2))
    # the two one-sided Cauchy–Schwarz estimates from the proof
    cum_f2 = _cumtrapz(f ** 2, r)
    cs_ok = bool(np.all(u[1:] ** 2 <= r[1:] * (cum_f2[1:] + f[0] ** 2 * r[0]) + 1e-9))
    return {"u": u, "ratio_sq": float(ratio_sq),
            "bound": bound, "cauchy_schwarz_ok": cs_ok, "branch": int(sign)}


# -- constructive vanishing ---------------------------------------------------

def _manufactured(rng, g: SectorGrid):
    """Random smooth u₀(r, θ) with mild growth, plus exact du₀ components."""
    c = rng.standard_normal(4)
    k = int(rng.integers(1, 4))
    th0 = float(g.thetas[0])

    def u0(r, t):
        lr = np.log(r)
        return (c[0] + c[1] * np.sin(k * (t - th0)) + c[2] / (1.0 - lr)
                + c[3] * np.cos(t - th0) * (r ** 2))

    def f(r, t):  # r ∂r u0  (component of dr/r)
        lr = np.log(r)
        return c[2] / (1.0 - lr) ** 2 + 2.0 * c[3] * np.cos(t - th0) * r ** 2

    def gt(r, t):  # ∂θ u0
        return c[1] * k * np.cos(k * (t - th0)) - c[3] * np.sin(t - th0) * r ** 2

    return u0, f, gt


def vanishing_report(d: WeightedLineData, trials: int, g: SectorGrid,
                     seed: int = 0):
    """Monte Carlo over manufactured closed forms; constants tabulated.  The
    excluded flat weight, outside the vanishing theorem, gets no rows."""
    if d.excluded:
        return []
    rows = []
    rng = np.random.default_rng(seed)
    inner_w = (g.thetas[-1] - g.thetas[0])
    inner = (float(g.thetas[0] + 0.2 * inner_w), float(g.thetas[-1] - 0.2 * inner_w))
    for trial in range(trials):
        u0, f, gt = _manufactured(rng, g)
        out = build_primitive_angular((f, gt), d, g, inner)
        u_true = _on_grid(u0, g.radii, g.thetas)
        # compare on the plateau, modulo the function-of-r gauge freedom
        mask = out["chi"] >= 1.0 - 1e-12
        diff = (out["u"] - u_true)[:, mask]
        diff = diff - diff.mean(axis=1, keepdims=True)
        scale = 1.0 + np.max(np.abs(u_true))
        residual = float(np.max(np.abs(diff)) / scale)
        rows.append({"trial": trial, "ratio": out["ratio"],
                     "residual": residual,
                     "verdict": "ok" if residual <= 1e-6 else "fail"})
    return rows
