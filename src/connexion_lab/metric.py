"""Model Hermitian metrics k and k1: evaluation, curvature, gluing.

All formulas are closed-form in a(z) = |log z z̄| and the sl2 data of the
adapted frame; matrix exponentials of the nilpotent pieces are finite
sums, so the only numerical error is float rounding.  The weights and
the exponentials e^{±X}, e^{−Y} of a block are cached on its
``MetricBlock``, so they are built once per block, not once per point;
``_orthonormal`` is the one change to the orthonormal frame.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDominanceOrder, DomainError
from .l2lab import smoothstep
from .series import ps_eval
from .sl2 import MetricBlock, ModelMetric, _nilpotent_exp


def poincare_a(z) -> float:
    """a(z) = |log z z̄| = 2|log |z||."""
    return abs(2.0 * np.log(np.abs(z)))


def _check_domain(z) -> None:
    az = np.abs(np.atleast_1d(np.asarray(z, dtype=complex)))
    if np.any(az == 0) or np.any(az >= 1):
        raise DomainError("metric evaluation needs 0 < |z| < 1")


def eval_metric(mm: ModelMetric, z):
    """(K, K1) at z; z may be a scalar or an array (batched on axis 0)."""
    _check_domain(z)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    n, d = zs.shape[0], mm.rank
    k = np.zeros((n, d, d), dtype=complex)
    k1 = np.zeros((n, d, d), dtype=complex)
    a = poincare_a(zs)
    for b in mm.blocks:
        w = b.weights
        scal = np.abs(zs) ** (-2.0 * float(b.alpha.re))
        half = 0.5 * (w[:, None] + w[None, :])
        e = b.exp_neg_y @ b.exp_neg_x
        sl = slice(b.offset, b.offset + b.size)
        k[:, sl, sl] = (scal[:, None, None] * (a[:, None, None] ** half[None, :, :])
                        * e[None, :, :])
        diag = np.arange(b.offset, b.offset + b.size)
        k1[:, diag, diag] = scal[:, None] * a[:, None] ** w[None, :]
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return k[0], k1[0]
    return k, k1


def _block_diag(mats: list[np.ndarray], d: int) -> np.ndarray:
    out = np.zeros((d, d), dtype=complex)
    pos = 0
    for m in mats:
        s = m.shape[0]
        out[pos:pos + s, pos:pos + s] = m
        pos += s
    return out


def connection_and_curvature(mm: ModelMetric, z):
    """(M_k, R, R_orth, ratio) at z, coefficients of dz/z and dz/z∧dz̄/z̄.

    M_k = −α′·Id − Y − 2H/a + 2X/a²,  R = 2H/a² − 4X/a³, and the
    orthonormal-frame coefficient R_orth = 2H/a²; ratio = ‖R_orth‖·a².
    """
    _check_domain(z)
    a = poincare_a(complex(z))
    m_blocks, r_blocks, ro_blocks = [], [], []
    for b in mm.blocks:
        h = np.diag(b.weights)
        x, y = b.triple.x, b.triple.y
        ap = float(b.alpha.re)
        m_blocks.append(-ap * np.eye(b.size) - y - 2 * h / a + 2 * x / a ** 2)
        r_blocks.append(2 * h / a ** 2 - 4 * x / a ** 3)
        ro_blocks.append(2 * h / a ** 2)
    d = mm.rank
    m_k = _block_diag(m_blocks, d)
    r = _block_diag(r_blocks, d)
    r_orth = _block_diag(ro_blocks, d)
    ratio = np.linalg.norm(r_orth, 2) * a ** 2
    return m_k, r, r_orth, ratio


def curvature_knorm_ratio(mm: ModelMetric, z) -> np.ndarray:
    """‖R_k‖_k·|z|²·a² at each z, via the frame change P = δa^{−H/2}e^X.

    Equals 2·max|w_j| identically; computed the long way as an honest
    numerical check (batched).
    """
    _check_domain(z)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    a = poincare_a(zs)
    d = mm.rank
    out = np.zeros(len(zs))
    for i, ai in enumerate(a):
        blocks = []
        for b in mm.blocks:
            h = np.diag(b.weights)
            x = b.triple.x
            r = 2 * h / ai ** 2 - 4 * x / ai ** 3
            blocks.append(_orthonormal(b, ai, r)[0])
        out[i] = np.linalg.norm(_block_diag(blocks, d), 2) * ai ** 2
    return out if len(out) > 1 else out[0]


def _orthonormal(block: MetricBlock, a: float, *mats) -> list[np.ndarray]:
    """Each matrix in the orthonormal frame e·P: e^{−X}·a^{H/2}·M·a^{−H/2}·e^{X}."""
    ah = np.diag(a ** (block.weights / 2.0))
    ahm = np.diag(a ** (-block.weights / 2.0))
    return [block.exp_neg_x @ ah @ m @ ahm @ block.exp_x for m in mats]


def _zphi_prime(block: MetricBlock, z: complex) -> complex:
    """z·φ′(z) evaluated from the stored series."""
    phi = block.phi
    if phi.is_zero:
        return 0.0 + 0.0j
    t = cmath.exp(cmath.log(z) / phi.ram)
    acc = 0.0 + 0.0j
    for n, c in phi.terms.items():
        acc += c.to_complex() * (n / phi.ram) * t ** n
    return acc


def _theta_block(block: MetricBlock, a: float, zphi: complex):
    """(Θ, N^{0,1}) of one block at a given value of a."""
    al = block.alpha.to_complex()
    ap = al.real
    y, h = _orthonormal(block, a, block.triple.y, np.diag(block.weights))
    eye = np.eye(block.size)
    m10 = y + (-al + zphi + ap / 2.0) * eye + h / (2 * a)
    m01 = (ap / 2.0) * eye + h / (2 * a)
    theta = 0.5 * (m10 + m01.conj().T)
    n01 = m01 - theta.conj().T
    return theta, n01


def pseudo_curvature(mm: ModelMetric, z) -> np.ndarray:
    """Matrix of ∂̄_E(θ) in the orthonormal frame; vanishes for the model.

    Θ is affine in 1/a with z-independent matrix coefficients, so the
    z̄-derivative is extracted exactly from two evaluations instead of a
    finite-difference stencil.
    """
    _check_domain(z)
    zc = complex(z)
    a = poincare_a(zc)
    g_blocks = []
    for b in mm.blocks:
        zphi = _zphi_prime(b, zc)
        theta, n01 = _theta_block(b, a, zphi)
        theta2, _ = _theta_block(b, 2 * a, zphi)
        s1 = 2 * a * (theta - theta2)
        dbar_theta = s1 / a ** 2
        # scalar parts of Θ and N^{0,1} (dominated by zφ' for wild twists)
        # commute exactly; strip them so the commutator does not lose
        # precision to cancellation of the large φ'-terms
        eye = np.eye(b.size)
        theta0 = theta - (np.trace(theta) / b.size) * eye
        n0 = n01 - (np.trace(n01) / b.size) * eye
        g_blocks.append(dbar_theta + n0 @ theta0 - theta0 @ n0)
    return _block_diag(g_blocks, mm.rank)


def higgs_field(mm: ModelMetric) -> np.ndarray:
    """Constant coefficient of dz/z: per block (−i α″/2)·Id + Y."""
    blocks = []
    for b in mm.blocks:
        app = float(b.alpha.im)
        blocks.append((-0.5j * app) * np.eye(b.size) + b.triple.y)
    return _block_diag(blocks, mm.rank)


def horizontal_norm_check(mm: ModelMetric, j: int, sector, grid=(40, 40)):
    """Extrema of k₁(ẽ_j, ẽ_j)/(e^{−2Re φ} a^{w_j}) over a sector grid.

    ẽ_j = e^{−φ(z)} z^α exp(−Y log z)·e_j with the branch fixed on the
    sector; returns (C1, C2) = (min, max) of the ratio.
    """
    theta0, theta1 = sector
    nr, nth = grid
    block = None
    for b in mm.blocks:
        if b.offset <= j < b.offset + b.size:
            block = b
            break
    if block is None:
        raise DomainError(f"basis index {j} out of range")
    jj = j - block.offset
    radii = np.geomspace(1e-3, 0.3, nr)
    thetas = np.linspace(theta0, theta1, nth)
    al = block.alpha.to_complex()
    y = block.triple.y
    w = block.weights
    lo = hi = None
    for r in radii:
        for th in thetas:
            z = r * cmath.exp(1j * th)
            logz = math.log(r) + 1j * th
            vec = _nilpotent_exp(-logz * y, 1.0)[:, jj].astype(complex)
            vec = vec * cmath.exp(al * logz)
            # the e^{−φ} factor of ẽ_j cancels against the e^{−2Re φ} of
            # the reference norm exactly, so it is dropped on both sides
            a = -2.0 * math.log(r)
            k1_diag = (r ** (-2 * al.real)) * a ** w
            val = float(np.sum(k1_diag * np.abs(vec) ** 2))
            norm = a ** w[jj]
            ratio = val / norm
            lo = ratio if lo is None else min(lo, ratio)
            hi = ratio if hi is None else max(hi, ratio)
    return lo, hi


# -- Stokes gluing ------------------------------------------------------------


def _norm_angle(t: float) -> float:
    return t % (2.0 * math.pi)


def _in_arc(theta: float, lo: float, hi: float) -> bool:
    theta = _norm_angle(theta - lo)
    return 0.0 < theta < _norm_angle(hi - lo) if hi != lo else False


@dataclass(frozen=True)
class StokesGluingData:
    """Angular cover, bump positions and gluing constants.

    intervals: open arcs (lo, hi) in radians, cyclically ordered, only
    consecutive arcs overlapping.  constants[ℓ] holds the c_{ij} of the
    overlap I_ℓ ∩ I_{ℓ+1}, keyed by basis-vector pairs (i, j) that must
    satisfy Re(φ_i − φ_j) < 0 throughout the overlap.
    """

    intervals: tuple[tuple[float, float], ...]
    constants: tuple[dict, ...]

    def __post_init__(self):
        n = len(self.intervals)
        if len(self.constants) != n:
            raise ValueError("one constants table per consecutive overlap")
        if n < 2:
            return
        for k in range(n):
            for m in range(k + 1, n):
                if (m - k) % n in (1, n - 1):
                    continue
                lo1, hi1 = self.intervals[k]
                lo2, hi2 = self.intervals[m]
                # triple intersections empty <= non-consecutive arcs disjoint
                for probe in (lo2, hi2):
                    if _in_arc(probe, lo1, hi1):
                        raise ValueError("non-consecutive arcs intersect")

    def overlap(self, ell: int) -> tuple[float, float]:
        """The arc I_ℓ ∩ I_{ℓ+1} as (lo, hi)."""
        n = len(self.intervals)
        lo1, hi1 = self.intervals[ell]
        lo2, hi2 = self.intervals[(ell + 1) % n]
        return lo2, hi1

    def locate(self, theta: float) -> int | None:
        """Index of the overlap containing the angle, or None."""
        for ell in range(len(self.intervals)):
            lo, hi = self.overlap(ell)
            if _in_arc(theta, lo, hi):
                return ell
        return None


def _mu_matrix(mm: ModelMetric, consts: dict, z: complex, theta: float) -> np.ndarray:
    phis = mm.vector_phis()
    d = mm.rank
    mu = np.zeros((d, d), dtype=complex)
    lz = math.log(abs(z)) + 1j * theta  # the branch of log z pinned to θ
    for (i, j), c in consts.items():
        diff = ps_eval(phis[i], lz) - ps_eval(phis[j], lz)
        if diff.real >= 0.0:
            raise BadDominanceOrder(
                f"Re(φ_{i} − φ_{j}) = {diff.real:.3g} ≥ 0 at arg z = {theta:.3f}")
        mu[i, j] = c * cmath.exp(diff)
    return mu


def glued_transition(mm: ModelMetric, gd: StokesGluingData, z) -> np.ndarray:
    """Id + χ(θ)·μ(z) on the overlap containing arg z, else Id."""
    zc = complex(z)
    theta = _norm_angle(cmath.phase(zc))
    ell = gd.locate(theta)
    d = mm.rank
    if ell is None:
        return np.eye(d, dtype=complex)
    lo, hi = gd.overlap(ell)
    span = _norm_angle(hi - lo)
    chi = smoothstep(_norm_angle(theta - lo) / span)
    mu = _mu_matrix(mm, gd.constants[ell], zc, theta)
    return np.eye(d, dtype=complex) + chi * mu


def glued_transition_det(mm: ModelMetric, gd: StokesGluingData, z) -> float:
    """Certify det = 1: μ is strictly triangular in the dominance order."""
    zc = complex(z)
    theta = _norm_angle(cmath.phase(zc))
    ell = gd.locate(theta)
    if ell is None:
        return 1.0
    mu = _mu_matrix(mm, gd.constants[ell], zc, theta)
    phis = mm.vector_phis()
    lz = math.log(abs(zc)) + 1j * theta
    re = [ps_eval(p, lz).real for p in phis]
    order = sorted(range(len(re)), key=lambda i: re[i])
    perm = mu[np.ix_(order, order)]
    # nonzero entries need Re φ_row < Re φ_col: strictly upper triangular
    if np.any(np.abs(np.tril(perm)) > 0):
        raise BadDominanceOrder("gluing constants are not strictly dominant")
    return 1.0


def glued_metric(mm: ModelMetric, gd: StokesGluingData, z) -> np.ndarray:
    """K pushed through the sectorial frame change (Id + χμ)."""
    _check_domain(z)
    k, _ = eval_metric(mm, complex(z))
    g = glued_transition(mm, gd, complex(z))
    g_inv = np.linalg.inv(g)
    return g_inv.conj().T @ k @ g_inv


def metric_report(mm: ModelMetric, zs, gd: StokesGluingData | None = None):
    """Diagnostic rows for a batch of sample points."""
    rows = []
    for z in np.atleast_1d(np.asarray(zs, dtype=complex)):
        k, _ = eval_metric(mm, complex(z))
        a = poincare_a(z)
        det_k = float(np.linalg.det(k).real)
        _, _, _, ratio = connection_and_curvature(mm, complex(z))
        pseudo = float(np.linalg.norm(pseudo_curvature(mm, complex(z)), 2))
        if gd is not None:
            kg = glued_metric(mm, gd, complex(z))
            delta = float(np.linalg.norm(kg - k, 2))
        else:
            delta = 0.0
        rows.append({
            "z_re": float(z.real), "z_im": float(z.imag), "a": a,
            "det_K": det_k, "ratio": float(ratio),
            "pseudo_norm": pseudo, "glued_delta": delta,
        })
    return rows


def fd_curvature_check(mm: ModelMetric, z) -> float:
    """Max |FD z̄∂_{z̄}M_k + R| — the finite-difference oracle for R."""
    zc = complex(z)
    h = 1e-5

    def m_of(p):
        return connection_and_curvature(mm, p)[0]

    dx = (m_of(zc + h) - m_of(zc - h)) / (2 * h)
    dy = (m_of(zc + 1j * h) - m_of(zc - 1j * h)) / (2 * h)
    dbar = 0.5 * (dx + 1j * dy)
    r = connection_and_curvature(mm, zc)[1]
    return float(np.max(np.abs(zc.conjugate() * dbar + r)))
