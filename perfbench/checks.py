"""Checks of every operation's output against closed forms.

The expected values come from the generating data (gen.py) or from a
property the method must have; none is a stored copy of an earlier
output.  A check raises CheckFailed with the reason.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from connexion_lab.series import CQ

CURV_TOL = 1e-8
PSEUDO_TOL = 1e-10
DET_TOL = 1e-10
HARDY_SLACK = 1e-9
PRIMITIVE_TOL = 1e-6
CALIBRATION_TOL = 1e-3


class CheckFailed(Exception):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- models -----------------------------------------------------------------

def canon_model(model) -> tuple:
    """(ram, sorted blocks) of an ElementaryModel; truncations ignored."""
    blocks = []
    for phi, regs in model.blocks:
        terms = tuple(sorted((n, c.re, c.im) for n, c in phi.terms.items()))
        rs = tuple(sorted((r.alpha.re, r.alpha.im, tuple(r.partition))
                          for r in regs))
        blocks.append((terms, rs))
    return model.ram, tuple(sorted(blocks))


def canon_model_doc(doc: dict) -> tuple:
    """The same canonical form, read from a report's ``model`` section."""
    blocks = []
    for blk in doc["blocks"]:
        terms = tuple(sorted((int(n), Fraction(rn, rd), Fraction(im, idn))
                             for n, rn, rd, im, idn in blk["phi"]["terms"]))
        rs = tuple(sorted((Fraction(*r["alpha"][0]), Fraction(*r["alpha"][1]),
                           tuple(r["partition"])) for r in blk["regs"]))
        blocks.append((terms, rs))
    return int(doc["ram"]), tuple(sorted(blocks))


def max_weight(model) -> int:
    """max |w| of the sl2 weights: the largest Jordan block size minus 1."""
    return max(p for _, regs in model.blocks for r in regs
               for p in r.partition) - 1


def check_decompose(op, res) -> None:
    require(canon_model(res["model"]) == canon_model(op.expect["model"]),
            "decomposition differs from the generating model")
    require(res["polygon_irr"] == op.expect["irr"],
            f"Newton-polygon irregularity {res['polygon_irr']} != "
            f"{op.expect['irr']}")
    require(res["model_irr"] == op.expect["irr"],
            f"model_irregularity {res['model_irr']} != {op.expect['irr']}")


def _airy_shape(ram, phis, irr, c, m) -> None:
    """ram 2, two blocks, Irr = m, (leading φ coefficient)² = 4c/m²."""
    require(ram == 2, f"ramification {ram} != 2")
    require(len(phis) == 2, f"{len(phis)} blocks instead of 2")
    require(irr == m, f"irregularity {irr} != {m}")
    target = (c.re * 4 / m ** 2, c.im * 4 / m ** 2)
    for lead_exp, (re, im) in phis:
        require(lead_exp == -m, f"leading exponent {lead_exp} != {-m}")
        sq = (re * re - im * im, 2 * re * im)
        require(sq == target, f"leading coefficient squared {sq} != 4c/m²")


def check_airy(op, res) -> None:
    model = res["model"]
    phis = []
    for phi, _ in model.blocks:
        n, c = phi.leading()
        phis.append((n, (c.re, c.im)))
    require(res["polygon_irr"] == op.expect["m"], "polygon irregularity != m")
    _airy_shape(model.ram, phis, res["model_irr"], op.expect["c"],
                op.expect["m"])


def check_index(op, res) -> None:
    h0, h1 = res["full"]
    m0, m1 = res["min"]
    irr, ker = op.expect["irr"], op.expect["ker"]
    require(h0 - h1 == -irr, f"h0 - h1 = {h0 - h1} but Irr = {irr}")
    require(m0 - m1 == (h0 - h1) + ker,
            f"chi_min {m0 - m1} != chi_full {h0 - h1} + ker {ker}")
    require((m0, m1) == (ker, irr), f"min dims {(m0, m1)} != {(ker, irr)}")


# -- metric ---------------------------------------------------------------------

def det_target(model, zs) -> np.ndarray:
    """det K = Π_j |z|^{-2 Re α_j} over the basis vectors."""
    alphas = [float(r.alpha.re) for _, regs in model.blocks for r in regs
              for _ in range(sum(r.partition))]
    return np.array([np.prod(np.abs(z) ** (-2.0 * np.array(alphas)))
                     for z in zs])


def check_metric(op, res) -> None:
    model = op.args["model"]
    zs = op.args["points"]
    target = 2.0 * max_weight(model)
    ratios = np.atleast_1d(res["ratios"])
    require(len(ratios) == len(zs), "one curvature ratio per point")
    require(np.max(np.abs(ratios - target)) <= CURV_TOL * (1.0 + target),
            f"curvature ratio off 2·max|w| = {target} by "
            f"{np.max(np.abs(ratios - target)):.3g}")
    for name in ("pseudo", "pseudo_twisted"):
        worst = max(float(np.linalg.norm(g, 2)) for g in res[name])
        require(worst <= PSEUDO_TOL, f"{name} norm {worst:.3g} > {PSEUDO_TOL}")
    dets = np.linalg.det(res["K"]).real
    dev = np.max(np.abs(dets / det_target(model, zs) - 1.0))
    require(dev <= DET_TOL, f"det K relative deviation {dev:.3g}")
    if op.args["gluing"] is not None:
        require(all(d == 1.0 for d in res["glued_det"]), "glued det != 1")
        k_dets = np.linalg.det(res["K"]).real
        g_dets = np.array([np.linalg.det(k).real for k in res["glued"]])
        dev = np.max(np.abs(g_dets / k_dets - 1.0))
        require(dev <= DET_TOL, f"glued metric det deviation {dev:.3g}")


# -- L² lab ---------------------------------------------------------------------

def check_l2(op, res) -> None:
    sector = op.args["params"]["sector"]
    width = sector[1] - sector[0]
    require(res["psi"]["cos_sign"] == -1, "cos(ℓθ−τ) is not negative")
    require(res["hardy"] <= width ** 2 + HARDY_SLACK,
            f"Hardy constant {res['hardy']:.6g} > width² {width ** 2:.6g}")
    for row in res["vanishing"]:
        require(row["verdict"] == "ok" and row["residual"] <= PRIMITIVE_TOL,
                f"vanishing trial {row['trial']}: {row}")
    require(res["manufactured_residual"] <= PRIMITIVE_TOL,
            f"manufactured primitive off by {res['manufactured_residual']:.3g}")
    if op.args["params"]["ell"] == 1:
        radial = res["radial"]
        require(radial["ratio_sq"] <= radial["bound"],
                f"radial ratio² {radial['ratio_sq']:.6g} > {radial['bound']:.6g}")
        require(radial["cauchy_schwarz_ok"], "Cauchy–Schwarz estimate fails")
    for got, want in ((res["calibration_log"], 2 * math.pi / math.log(2)),
                      (res["calibration_power"], math.pi / 4)):
        require(abs(got / want - 1) < CALIBRATION_TOL,
                f"calibration {got:.8g} not within 0.1 % of {want:.8g}")


# -- CLI ------------------------------------------------------------------------

def _reject_constant(name):
    raise CheckFailed(f"report is not strict JSON: bare {name}")


def strict_json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from exc


def check_analyze(op, res, first_bytes: bytes | None) -> None:
    require(res["rc"] == 0, f"exit code {res['rc']}")
    doc = strict_json(res["report"].decode())
    if first_bytes is not None:
        require(res["report"] + res["csv"] == first_bytes,
                "report bytes differ from the first pass")
    if "model" in op.expect:
        model = op.expect["model"]
        require(canon_model_doc(doc["model"]) == canon_model(model),
                "report model differs from the generating model")
        irr, ker = op.expect["irr"], op.expect["ker"]
        target = 2.0 * max_weight(model)
    else:  # the Airy entry: c = 1, m = 1
        phis = []
        for blk in doc["model"]["blocks"]:
            n, rn, rd, im, idn = min(blk["phi"]["terms"])
            phis.append((n, (Fraction(rn, rd), Fraction(im, idn))))
        _airy_shape(doc["model"]["ram"], phis,
                    Fraction(*doc["polygon"]["irregularity"]), CQ.of(1), 1)
        irr, ker, target = 1, 0, 0.0
    ix = doc["index"]
    require(ix["irr"] == irr and ix["h1_min"] == irr, f"index irr != {irr}")
    require(ix["h0_min"] == ker, f"h0_min {ix['h0_min']} != {ker}")
    met = doc["metric"]
    require(met["ratio_target"] == target, "ratio target != 2·max|w|")
    require(met["ratio_max_dev"] <= CURV_TOL * (1.0 + target),
            f"ratio deviation {met['ratio_max_dev']:.3g}")
    require(met["det_rel_dev"] <= DET_TOL, f"det deviation {met['det_rel_dev']:.3g}")
    require(met["pseudo_max"] <= PSEUDO_TOL, f"pseudo {met['pseudo_max']:.3g}")


def check_l2verify(op, res, first_bytes: bytes | None) -> None:
    require(res["rc"] == 0, f"exit code {res['rc']}")
    doc = strict_json(res["stdout"].decode())
    if first_bytes is not None:
        require(res["stdout"] == first_bytes, "stdout differs from the first pass")
    width = op.expect["width"]
    hardy = doc["hardy"]
    require(hardy["ok"] and hardy["constant"] <= width ** 2 + HARDY_SLACK,
            f"Hardy constant {hardy['constant']} > width²")
    van = doc["vanishing"]
    require(van["ok"], "vanishing report not ok")
    for row in van["rows"]:
        require(row["residual"] <= PRIMITIVE_TOL, f"residual {row['residual']}")
