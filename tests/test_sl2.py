"""Exact sl2-triples and adapted frames."""

from fractions import Fraction

import numpy as np
import pytest

from connexion_lab.model import ElementaryModel, RegularBlockData
from connexion_lab.series import CQ, PuiseuxSeries
from connexion_lab.sl2 import (adapted_metric_frame, jm_triple,
                               triple_for_partition)


def partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_jm_weights_and_coefficients():
    t = jm_triple(4)
    assert t.weights == (3, 1, -1, -3)
    assert t.c_sq[0] == (Fraction(3), Fraction(4), Fraction(3))


def test_jm_rejects_nonpositive():
    with pytest.raises(ValueError):
        jm_triple(0)


def test_exact_commutator_all_partitions_up_to_8():
    count = 0
    for n in range(1, 9):
        for part in partitions(n):
            t = triple_for_partition(part)
            assert t.commutator_diag_exact() == tuple(
                Fraction(w) for w in t.weights), part
            count += 1
    assert count == sum(1 for n in range(1, 9) for _ in partitions(n))


def test_float_commutators():
    for part in [(2,), (4,), (3, 2), (5, 2, 1)]:
        t = triple_for_partition(part)
        x, y, h = t.x, t.y, t.h
        assert np.max(np.abs(x @ y - y @ x - h)) < 1e-12
        assert np.max(np.abs(h @ x - x @ h - 2 * x)) < 1e-12
        assert np.max(np.abs(h @ y - y @ h + 2 * y)) < 1e-12


def test_triple_matrices_are_built_once_read_only():
    t = triple_for_partition((3, 2))
    for name in ("x", "y", "h"):
        m = getattr(t, name)
        assert getattr(t, name) is m
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    assert np.array_equal(t.x, t.y.T)


def test_block_constants_are_built_once_read_only():
    m = ElementaryModel(1, ((PuiseuxSeries(1, {}, 12),
                             (RegularBlockData(CQ.of((1, 3), (1, 2)), (3, 2)),)),))
    b = adapted_metric_frame(m).blocks[0]
    w = np.array(b.triple.weights, dtype=float)
    expected = {"half_weights": np.stack([w / 2.0, -w / 2.0]), "eye": np.eye(5),
                "y_h": np.stack([b.triple.y, np.diag(w)])}
    for name, value in expected.items():
        arr = getattr(b, name)
        assert getattr(b, name) is arr and np.array_equal(arr, value)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    assert b.alpha_complex == complex(1 / 3, 1 / 2) == b.alpha.to_complex()


def test_adapted_frame_layout():
    m = ElementaryModel(1, (
        (PuiseuxSeries(1, {-1: CQ.of(1)}, 12),
         (RegularBlockData(CQ.of((1, 3)), (2,)),)),
        (PuiseuxSeries(1, {}, 12),
         (RegularBlockData(CQ.of(0), (1, 1)),)),
    ))
    mm = adapted_metric_frame(m)
    assert mm.rank == 4
    assert [b.offset for b in mm.blocks] == [0, 2]
    assert list(mm.vector_weights()) == [1.0, -1.0, 0.0, 0.0]
    assert mm.vector_alpha()[0] == pytest.approx(1 / 3)
    phis = mm.vector_phis()
    assert phis[0] is phis[1]
