"""sl2-triples attached to Jordan blocks and adapted metric frames.

Each Jordan block of size m carries the irreducible sl2-triple (X, H, Y)
with H = diag(m-1, m-3, ..., -(m-1)) and lowering coefficients
c_j = sqrt(j(m-j)).  The squares j(m-j) are kept as exact fractions so
that the commutation relations can be checked without floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .model import ElementaryModel
from .series import CQ, PuiseuxSeries


@dataclass(frozen=True)
class Sl2Triple:
    """Direct sum of irreducible triples, one per partition entry.

    h, y and x are built once per triple and cached read-only.
    """

    partition: tuple[int, ...]
    weights: tuple[int, ...]          # diagonal of H
    c_sq: tuple[tuple[Fraction, ...], ...]  # squared lowering coeffs per part

    @property
    def size(self) -> int:
        return sum(self.partition)

    @cached_property
    def h(self) -> np.ndarray:
        return _read_only(np.diag(np.array(self.weights, dtype=float)))

    @cached_property
    def y(self) -> np.ndarray:
        d = self.size
        m = np.zeros((d, d))
        pos = 0
        for part, sq in zip(self.partition, self.c_sq):
            for j, s in enumerate(sq):
                m[pos + j + 1, pos + j] = float(s) ** 0.5
            pos += part
        return _read_only(m)

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(self.y.T)

    def commutator_diag_exact(self) -> tuple[Fraction, ...]:
        """Diagonal of [X, Y] from the exact squared coefficients.

        X·Y and Y·X are diagonal here, so this is the whole commutator;
        it must reproduce the weights.
        """
        out: list[Fraction] = []
        for part, sq in zip(self.partition, self.c_sq):
            for j in range(part):
                below = sq[j] if j < part - 1 else Fraction(0)
                above = sq[j - 1] if j > 0 else Fraction(0)
                out.append(below - above)
        return tuple(out)


def jm_triple(m: int) -> Sl2Triple:
    """Irreducible sl2-triple of dimension m."""
    if m < 1:
        raise ValueError("block size must be positive")
    weights = tuple(m - 1 - 2 * j for j in range(m))
    c_sq = tuple(Fraction(j * (m - j)) for j in range(1, m))
    return Sl2Triple((m,), weights, (c_sq,))


def triple_for_partition(partition) -> Sl2Triple:
    parts = tuple(int(p) for p in partition)
    weights: list[int] = []
    c_sq = []
    for p in parts:
        t = jm_triple(p)
        weights.extend(t.weights)
        c_sq.append(t.c_sq[0])
    return Sl2Triple(parts, tuple(weights), tuple(c_sq))


def _nilpotent_exp(n: np.ndarray, sign: complex) -> np.ndarray:
    """exp(sign·N) for a nilpotent N, as the finite sum over its powers."""
    d = n.shape[0]
    out = np.eye(d)
    pw = np.eye(d)
    for k in range(1, d):
        pw = pw @ (sign * n) / k
        out = out + pw
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MetricBlock:
    """One (φ, α, partition) summand with its frame data.

    offset is the position of the block inside the full frame.  The
    weights, the exponentials e^{±X}, e^{−Y}, the exponents ±H/2, the
    complex α, the identity and the stack (Y, H) are built once per block
    and cached read-only; they enter the closed-form metric evaluation,
    the change to the orthonormal frame and the Higgs field Θ.
    """

    phi: PuiseuxSeries
    alpha: CQ
    triple: Sl2Triple
    offset: int

    @property
    def size(self) -> int:
        return self.triple.size

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(np.array(self.triple.weights, dtype=float))

    @cached_property
    def exp_x(self) -> np.ndarray:
        return _read_only(_nilpotent_exp(self.triple.x, 1.0))

    @cached_property
    def exp_neg_x(self) -> np.ndarray:
        return _read_only(_nilpotent_exp(self.triple.x, -1.0))

    @cached_property
    def exp_neg_y(self) -> np.ndarray:
        return _read_only(_nilpotent_exp(self.triple.y, -1.0))

    @cached_property
    def half_weights(self) -> np.ndarray:
        """The diagonals of H/2 and −H/2 as one (2, s) stack."""
        return _read_only(np.stack([self.weights / 2.0, -self.weights / 2.0]))

    @cached_property
    def alpha_complex(self) -> complex:
        return self.alpha.to_complex()

    @cached_property
    def eye(self) -> np.ndarray:
        return _read_only(np.eye(self.size))

    @cached_property
    def y_h(self) -> np.ndarray:
        """(Y, H) as one (2, s, s) stack."""
        return _read_only(np.stack([self.triple.y, self.triple.h]))


@dataclass(frozen=True)
class ModelMetric:
    """Adapted frame of an elementary model: per-block sl2 data."""

    ram: int
    blocks: tuple[MetricBlock, ...]

    @property
    def rank(self) -> int:
        return sum(b.size for b in self.blocks)

    def vector_phis(self) -> list[PuiseuxSeries]:
        out = []
        for b in self.blocks:
            out.extend([b.phi] * b.size)
        return out

    def vector_weights(self) -> np.ndarray:
        return np.concatenate([b.weights for b in self.blocks])

    def vector_alpha(self) -> np.ndarray:
        out = []
        for b in self.blocks:
            out.extend([b.alpha_complex] * b.size)
        return np.array(out, dtype=complex)


def adapted_metric_frame(model: ElementaryModel) -> ModelMetric:
    """Split every regular factor into Jordan blocks and attach triples."""
    blocks: list[MetricBlock] = []
    pos = 0
    for phi, regs in model.blocks:
        for reg in regs:
            t = triple_for_partition(reg.partition)
            blocks.append(MetricBlock(phi, reg.alpha, t, pos))
            pos += t.size
    return ModelMetric(model.ram, tuple(blocks))
