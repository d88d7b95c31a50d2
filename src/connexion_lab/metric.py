"""Model Hermitian metrics k and k1: evaluation, curvature, gluing.

All formulas are closed-form in a(z) = |log z z̄| and the sl2 data of the
adapted frame; matrix exponentials of the nilpotent pieces are finite
sums, so the only numerical error is float rounding.  Every function of
a point takes one point or an array of points and works on (n, d, d)
stacks, one block at a time.  The a-independent data of a block are
cached on its ``MetricBlock``; ``_orthonormal`` is the one change to the
orthonormal frame, and ``pseudo_curvature`` takes Θ(a) and Θ(2a) from
one ``_theta_block`` call per block, on the stacked radii (a, 2a).
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


def _points(z):
    """(zs, a(zs)) for a point or an array of points, all in 0 < |z| < 1."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    r = np.abs(zs)
    if ((r == 0) | (r >= 1)).any():
        raise DomainError("metric evaluation needs 0 < |z| < 1")
    return zs, poincare_a(zs)


def _shaped(z, out):
    """One result for one point, the whole stack for an array of points."""
    return out if np.ndim(z) else out[0]


def _pow(a: np.ndarray, p: int) -> np.ndarray:
    """a**p per point as an (n, 1, 1) stack, rounded as scalar code rounds it.

    numpy's array power (and its square, for p = 2) differs from the C
    library's pow by an ulp on some inputs; the curvature formulas keep the
    rounding of the per-point code they replace.
    """
    return (a.astype(object) ** p).astype(float)[:, None, None]


def _diag(v: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices with the rows of v on their diagonals."""
    s = v.shape[-1]
    out = np.zeros(v.shape + (s,), dtype=v.dtype)
    out.reshape(v.shape[:-1] + (s * s,))[..., ::s + 1] = v
    return out


def _block_stack(mm: ModelMetric, n: int, block_fn) -> np.ndarray:
    """(n, d, d) block-diagonal stack; block_fn(b) fills block b's slice."""
    out = np.zeros((n, mm.rank, mm.rank), dtype=complex)
    for b in mm.blocks:
        sl = slice(b.offset, b.offset + b.size)
        out[:, sl, sl] = block_fn(b)
    return out


def eval_metric(mm: ModelMetric, z):
    """(K, K1) at z; z may be a scalar or an array (batched on axis 0)."""
    zs, a = _points(z)

    def scal(b):
        return np.abs(zs) ** (-2.0 * float(b.alpha.re))

    def k_block(b):
        w = b.weights
        half = 0.5 * (w[:, None] + w[None, :])
        e = b.exp_neg_y @ b.exp_neg_x
        return (scal(b)[:, None, None] * (a[:, None, None] ** half[None, :, :])
                * e[None, :, :])

    def k1_block(b):
        return _diag(scal(b)[:, None] * a[:, None] ** b.weights[None, :])

    n = len(zs)
    return (_shaped(z, _block_stack(mm, n, k_block)),
            _shaped(z, _block_stack(mm, n, k1_block)))


def _curvature_block(b: MetricBlock, a2, a3) -> np.ndarray:
    """R = 2H/a² − 4X/a³ of one block; a2, a3 are (n, 1, 1) stacks."""
    return 2 * b.triple.h / a2 - 4 * b.triple.x / a3


def connection_and_curvature(mm: ModelMetric, z):
    """(M_k, R) at z, coefficients of dz/z and dz/z∧dz̄/z̄.

    M_k = −α′·Id − Y − 2H/a + 2X/a²,  R = 2H/a² − 4X/a³.
    """
    zs, a = _points(z)
    a2, a3 = _pow(a, 2), _pow(a, 3)
    n = len(zs)
    m_k = _block_stack(mm, n, lambda b: (
        -float(b.alpha.re) * b.eye - b.triple.y
        - 2 * b.triple.h / a[:, None, None] + 2 * b.triple.x / a2))
    r = _block_stack(mm, n, lambda b: _curvature_block(b, a2, a3))
    return _shaped(z, m_k), _shaped(z, r)


def curvature_knorm_ratio(mm: ModelMetric, z) -> np.ndarray:
    """‖R_k‖_k·|z|²·a² at each z, via the frame change P = δa^{−H/2}e^X.

    Equals 2·max|w_j| identically; computed the long way as an honest
    numerical check.
    """
    zs, a = _points(z)
    a2, a3 = _pow(a, 2), _pow(a, 3)
    r = _block_stack(mm, len(zs), lambda b: _orthonormal(
        b, a, _curvature_block(b, a2, a3)[:, None])[:, 0])
    return _shaped(z, np.linalg.norm(r, 2, axis=(1, 2)) * a2[:, 0, 0])


def _orthonormal(block: MetricBlock, a, mats) -> np.ndarray:
    """Matrices in the orthonormal frame e·P: e^{−X}·a^{H/2}·M·a^{−H/2}·e^{X}.

    a holds n points; mats is a (k, s, s) stack shared by the points or an
    (n, k, s, s) stack per point, and gives an (n, k, s, s) result.
    """
    ah, ahm = _diag(a[:, None, None] ** block.half_weights).swapaxes(0, 1)
    return (block.exp_neg_x @ ah)[:, None] @ mats @ ahm[:, None] @ block.exp_x


def _theta_block(block: MetricBlock, a):
    """(Θ, N^{0,1}) of one block at each value of a.

    zφ′·Id is left out of Θ: it is a multiple of the identity whose
    ∂̄ is 0 and which commutes with N^{0,1}, so the pseudo-curvature is
    the same without it, and carrying it would cost |zφ′|·eps.
    """
    al, yh = block.alpha_complex, _orthonormal(block, a, block.y_h)
    y, h = yh[:, 0], yh[:, 1] / (2 * a)[:, None, None]
    m10 = y + (-al + al.real / 2.0) * block.eye + h
    m01 = (al.real / 2.0) * block.eye + h
    theta = 0.5 * (m10 + m01.swapaxes(1, 2))  # m01 is real
    n01 = m01 - theta.conj().swapaxes(1, 2)
    return theta, n01


def pseudo_curvature(mm: ModelMetric, z) -> np.ndarray:
    """Matrix of ∂̄_E(θ) in the orthonormal frame; vanishes for the model.

    Θ is affine in 1/a with z-independent matrix coefficients, so the
    z̄-derivative is extracted exactly from Θ(a) and Θ(2a) instead of a
    finite-difference stencil.  Both come from one ``_theta_block`` call
    per block on the stacked radii (a, 2a), from the block's cached data.
    """
    zs, a = _points(z)
    n, a2, a_2a = len(zs), _pow(a, 2), np.concatenate([a, 2 * a])
    two_a = a_2a[n:, None, None]

    def g_block(b):
        theta_2, n01 = _theta_block(b, a_2a)
        theta, theta2, n01 = theta_2[:n], theta_2[n:], n01[:n]
        dbar_theta = two_a * (theta - theta2) / a2
        return dbar_theta + n01 @ theta - theta @ n01

    return _shaped(z, _block_stack(mm, n, g_block))


def higgs_field(mm: ModelMetric) -> np.ndarray:
    """Constant coefficient of dz/z: per block (−i α″/2)·Id + Y."""
    return _block_stack(mm, 1, lambda b: (
        (-0.5j * float(b.alpha.im)) * b.eye + b.triple.y))[0]


def horizontal_norm_check(mm: ModelMetric, j: int, sector, grid=(40, 40)):
    """Extrema of k₁(ẽ_j, ẽ_j)/(e^{−2Re φ} a^{w_j}) over a sector grid.

    ẽ_j = e^{−φ(z)} z^α exp(−Y log z)·e_j with the branch fixed on the
    sector; returns (C1, C2) = (min, max) of the ratio.
    """
    theta0, theta1 = sector
    nr, nth = grid
    block = next((b for b in mm.blocks if b.offset <= j < b.offset + b.size), None)
    if block is None:
        raise DomainError(f"basis index {j} out of range")
    jj = j - block.offset
    logz = (np.log(np.geomspace(1e-3, 0.3, nr))[:, None]
            + 1j * np.linspace(theta0, theta1, nth)[None, :]).ravel()
    zs = np.exp(logz)
    # column jj of exp(−log z·Y) per point; a size-1 block gives one
    # unstacked (1, 1) identity, which broadcasts
    vec = (_nilpotent_exp(block.triple.y, -logz[:, None, None])[..., jj]
           * np.exp(block.alpha_complex * logz)[:, None])
    # the e^{−φ} factor of ẽ_j cancels against the e^{−2Re φ} of the
    # reference norm exactly, so it is dropped on both sides
    sl = slice(block.offset, block.offset + block.size)
    k1_diag = np.diagonal(eval_metric(mm, zs)[1], axis1=1, axis2=2)[:, sl].real
    ratio = np.sum(k1_diag * np.abs(vec) ** 2, axis=1) / poincare_a(zs) ** block.weights[jj]
    return ratio.min(), ratio.max()


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
        return self.intervals[(ell + 1) % len(self.intervals)][0], self.intervals[ell][1]

    def locate(self, theta: float) -> int | None:
        """Index of the overlap containing the angle, or None."""
        for ell in range(len(self.intervals)):
            lo, hi = self.overlap(ell)
            if _in_arc(theta, lo, hi):
                return ell
        return None


def glued_transition(mm: ModelMetric, gd: StokesGluingData, z) -> np.ndarray:
    """Id + χ(θ)·μ(z) on the overlap containing arg z, else Id, at each z.

    μ_ij = c_ij·e^{φ_i − φ_j}; BadDominanceOrder where Re(φ_i − φ_j) ≥ 0.
    """
    zs, _ = _points(z)
    d = mm.rank
    phis = mm.vector_phis()
    out = np.tile(np.eye(d, dtype=complex), (len(zs), 1, 1))
    for n, zc in enumerate(zs):
        theta = _norm_angle(cmath.phase(zc))
        ell = gd.locate(theta)
        if ell is None:
            continue
        lo, hi = gd.overlap(ell)
        chi = smoothstep(_norm_angle(theta - lo) / _norm_angle(hi - lo))
        lz = math.log(abs(zc)) + 1j * theta  # the branch of log z pinned to θ
        for (i, j), c in gd.constants[ell].items():
            diff = ps_eval(phis[i], lz) - ps_eval(phis[j], lz)
            if diff.real >= 0.0:
                raise BadDominanceOrder(
                    f"Re(φ_{i} − φ_{j}) = {diff.real:.3g} ≥ 0 at arg z = {theta:.3f}")
            out[n, i, j] += chi * (c * cmath.exp(diff))
    return _shaped(z, out)


def glued_transition_det(mm: ModelMetric, gd: StokesGluingData, z):
    """Certify det = 1 at each z: 1.0 for one point, ones for an array.

    glued_transition raises unless Re φ_i < Re φ_j for every c_ij, so μ is
    strictly upper triangular in the Re φ order and det(Id + χμ) = 1.
    """
    glued_transition(mm, gd, z)
    return _shaped(z, np.ones(np.size(z)))


def glued_metric(mm: ModelMetric, gd: StokesGluingData, z) -> np.ndarray:
    """K pushed through the sectorial frame change (Id + χμ), at each z."""
    k, _ = eval_metric(mm, z)
    g_inv = np.linalg.inv(glued_transition(mm, gd, z))
    return g_inv.conj().swapaxes(-1, -2) @ k @ g_inv


def metric_report(mm: ModelMetric, zs, gd: StokesGluingData | None = None):
    """Diagnostic rows for a batch of sample points."""
    zs, a = _points(zs)
    k, _ = eval_metric(mm, zs)
    det_k = np.linalg.det(k).real
    ratio = curvature_knorm_ratio(mm, zs)
    pseudo = np.linalg.norm(pseudo_curvature(mm, zs), 2, axis=(1, 2))
    delta = (np.linalg.norm(glued_metric(mm, gd, zs) - k, 2, axis=(1, 2))
             if gd is not None else np.zeros(len(zs)))
    return [{"z_re": float(z.real), "z_im": float(z.imag), "a": float(a[i]),
             "det_K": float(det_k[i]), "ratio": float(ratio[i]),
             "pseudo_norm": float(pseudo[i]), "glued_delta": float(delta[i])}
            for i, z in enumerate(zs)]


def fd_curvature_check(mm: ModelMetric, z) -> float:
    """Max |FD z̄∂_{z̄}M_k + R| — the finite-difference oracle for R."""
    zc = complex(z)
    h = 1e-5
    m = connection_and_curvature(mm, zc + np.array([h, -h, 1j * h, -1j * h]))[0]
    dx = (m[0] - m[1]) / (2 * h)
    dy = (m[2] - m[3]) / (2 * h)
    dbar = 0.5 * (dx + 1j * dy)
    r = connection_and_curvature(mm, zc)[1]
    return float(np.max(np.abs(zc.conjugate() * dbar + r)))
