"""Tests of the benchmark itself: seeded inputs repeat, checks reject bad output.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the package's own test run does not
collect it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from connexion_lab.model import ElementaryModel, RegularBlockData  # noqa: E402
from connexion_lab.series import CQ  # noqa: E402


def fingerprint(ops) -> str:
    """Everything an operation receives, as text."""
    rows = []
    for op in ops:
        args = {}
        for key, val in sorted(op.args.items()):
            if key == "germ":
                val = [[sorted(s.terms.items(), key=lambda t: t[0]) for s in row]
                       for row in val.matrix]
            elif key == "spec":
                val = run.spec_document(*val)
            args[key] = repr(val)
        rows.append((op.name, op.kind, args, repr(sorted(op.expect.items()))))
    return repr(rows)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = gen.WORKLOADS[workload]
    assert fingerprint(make(5)) == fingerprint(make(5))
    assert fingerprint(make(5)) != fingerprint(make(6))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_known_faults_do_not_depend_on_the_seed(workload):
    make = gen.WORKLOADS[workload]
    for a, b in zip(make(1), make(2)):
        assert (a.known_fault is None) == (b.known_fault is None)
        if a.known_fault:
            assert fingerprint([a]) == fingerprint([b])


def op_of(workload, kind, seed=3, index=0):
    return [op for op in gen.WORKLOADS[workload](seed) if op.kind == kind][index]


def shift_alpha(model: ElementaryModel) -> ElementaryModel:
    """The same model with the first α moved by 1/2 (mod 1)."""
    (phi, regs), *rest = model.blocks
    r = regs[0]
    re = (r.alpha.re + Fraction(1, 2)) % 1
    moved = RegularBlockData(CQ(re, r.alpha.im), r.partition)
    return ElementaryModel(model.ram, ((phi, (moved,) + regs[1:]), *rest))


def test_decompose_check_rejects_shifted_alpha():
    op = op_of("reduce-germs", "decompose")
    res = run.run_decompose(op, {})
    checks.check_decompose(op, res)
    with pytest.raises(checks.CheckFailed):
        checks.check_decompose(op, dict(res, model=shift_alpha(res["model"])))
    with pytest.raises(checks.CheckFailed):
        checks.check_decompose(op, dict(res, polygon_irr=res["polygon_irr"] + 1))


def test_airy_check_rejects_wrong_leading_coefficient():
    op = op_of("reduce-germs", "airy")
    res = run.run_decompose(op, {})
    checks.check_airy(op, res)
    bad = replace(op, expect=dict(op.expect, c=op.expect["c"] * CQ.of(2)))
    with pytest.raises(checks.CheckFailed):
        checks.check_airy(bad, res)


def test_index_check_rejects_off_by_one():
    op = op_of("reduce-germs", "index")
    res = run.run_index(op, {})
    checks.check_index(op, res)
    h0, h1 = res["full"]
    with pytest.raises(checks.CheckFailed):
        checks.check_index(op, dict(res, full=(h0, h1 + 1)))


def test_metric_check_rejects_ratio_off_by_1e6():
    op = op_of("float-lab", "metric", index=4)
    res = run.run_metric(op, {})
    checks.check_metric(op, res)
    with pytest.raises(checks.CheckFailed):
        checks.check_metric(op, dict(res, ratios=np.asarray(res["ratios"]) + 1e-6))
    pseudo = [g.copy() for g in res["pseudo"]]
    pseudo[0][0, 0] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_metric(op, dict(res, pseudo=pseudo))


def test_strict_json_rejects_nan_in_a_report():
    op = op_of("cli-sweep", "l2verify", index=1)
    doc = {"hardy": {"ok": True, "constant": 0.1},
           "vanishing": {"ok": True, "rows": [{"residual": float("nan")}]}}
    text = json.dumps(doc).encode()
    assert b"NaN" in text
    with pytest.raises(checks.CheckFailed):
        checks.check_l2verify(op, {"rc": 0, "stdout": text}, None)


def test_cli_check_rejects_changed_bytes_and_exit_code(tmp_path):
    op = op_of("cli-sweep", "analyze", index=1)  # kummer-half
    out = tmp_path / "r.json"
    res = run.run_analyze(op, {"files": {op.name + ".report.json": out}})
    checks.check_analyze(op, res, None)
    first = res["report"] + res["csv"]
    checks.check_analyze(op, res, first)
    with pytest.raises(checks.CheckFailed):
        checks.check_analyze(op, res, first + b" ")
    with pytest.raises(checks.CheckFailed):
        checks.check_analyze(op, dict(res, rc=3), None)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
