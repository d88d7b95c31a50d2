"""Seeded inputs of the three workloads.

Every workload is a fixed list of slots.  A slot fixes the kind of
operation and everything its cost depends on: rank, φ pole orders,
Jordan partitions, truncation, gauge order, number of points, grid.  The
seed draws the values, from sets of equal size: signs of φ coefficients
(±1 ± i), Re α ∈ {1/5, …, 4/5} and Im α = ±1/2, the signs and orders
that place fixed entry sizes in the gauge matrices, points, weights and
sectors.  A pass is a few copies of
the slot list, each with its own draws.  So the make-up and the cost of a
pass hardly change with the seed, and the operations kept for known
faults are fixed inputs that do not depend on the seed at all.

The scrambling gauges are computed here in closed form, on plain dicts
of exponents, so that the inputs do not depend on
``connexion_lab.model.gauge_transform``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from connexion_lab.catalog import CATALOG
from connexion_lab.metric import StokesGluingData
from connexion_lab.model import (ConnectionGerm, ElementaryModel,
                                 RegularBlockData, assemble_matrix)
from connexion_lab.series import CQ, PuiseuxSeries

# A block template is (pole order of φ, partitions); each partition gets
# its own α, and pole 0 means φ = 0.  In the decomposition slots every
# eigenvalue of a residue or leading coefficient has multiplicity <= 2:
# triple eigenvalues fail today on some draws and not on others (see
# the README), and such a failure cannot be kept in a seeded workload.

#: reduce-germs decomposition slots: (blocks, trunc, gauge order k)
DECOMPOSE_SLOTS = (
    (((1, ((1,),)), (1, ((1,),))), 12, 1),
    (((2, ((1,),)), (1, ((1,),))), 24, 1),
    (((2, ((1,),)), (0, ((1,),))), 12, 2),
    (((1, ((2,),)),), 24, 1),
    (((2, ((1,),)), (1, ((1,),)), (0, ((1,),))), 12, 1),
    (((1, ((1, 1),)), (0, ((1,),))), 24, 2),
    (((2, ((1,), (1,))), (1, ((1,),))), 12, 2),
    (((1, ((2,),)), (2, ((1,), (1,)))), 12, 2),
    (((2, ((1,),)), (1, ((1,),)), (0, ((2,),))), 12, 1),
    (((2, ((1, 1),)), (0, ((1,), (1,)))), 24, 2),
)

#: Airy-type companion slots: (m, trunc); m odd takes the ramify path
AIRY_SLOTS = ((1, 8), (1, 12), (1, 16), (1, 24), (3, 12), (3, 24))

#: rank-1 germs a·z^{-p} + … + r for the index oracle: their pole orders
RANK1_POLES = (1, 2, 3, 2)
INDEX_TRUNC = 24

#: float-lab metric slots: blocks as above, φ with poles of order <= 1
#: (see the README on pole-2 φ); the pseudo-curvature is also taken after
#: the z^{-2} twist TWIST.  The cost of a metric operation grows with its
#: number of regular blocks; most slots have two, so that the median
#: latency falls inside one group of similar operations.
METRIC_SLOTS = (
    ((0, ((1,),)), (1, ((1,),))),
    ((1, ((1,),)), (1, ((1,),))),
    ((1, ((2,),)), (0, ((1,),))),
    ((1, ((1,),)), (0, ((2,),))),
    ((1, ((2,), (1,))),),
    ((0, ((3,),)),),
    ((1, ((1,),)), (1, ((2,),))),
    ((1, ((2,),)), (0, ((1, 1),))),
    ((1, ((4,),)),),
    ((1, ((3,),)), (0, ((1,),))),
    ((0, ((2,), (2,))),),
)
METRIC_GLUED_SLOTS = 2
METRIC_POINTS = 16
TWIST = CQ.of(1, Fraction(1, 2))
#: smallest |z| of the seeded points: the pseudo-curvature error grows like
#: |zφ′|·eps, and at |z| = 1e-3 the twisted models come within 1.3x of the
#: 1e-10 bound (the fixed fault-pseudo-curvature operation shows it)
R_MIN = 2e-3

#: float-lab L² slots (ℓ, quadrant): cos(ℓθ − τ) < 0 on the sector, with
#: sin(ℓθ − τ) > 0 (quadrant 0) or < 0 (quadrant 1).  The radial primitive
#: is built for ℓ = 1 only (see the README).
L2_SLOTS = ((1, 0), (2, 1), (1, 1))
L2_TRIALS = 2

CQ_ZERO = CQ(Fraction(0), Fraction(0))


@dataclass
class Op:
    """One operation: ``kind`` selects the runner, ``args`` its inputs and
    ``expect`` the closed-form values its check compares against."""

    name: str
    kind: str
    args: dict
    expect: dict = field(default_factory=dict)
    known_fault: str | None = None


# -- exact values -------------------------------------------------------------

def _unit(rng: random.Random) -> CQ:
    """±1 ± i."""
    return CQ.of(rng.choice((-1, 1)), rng.choice((-1, 1)))


def _alpha(rng: random.Random, taken: set) -> CQ:
    """α with Re α ∈ {1/5, …, 4/5}, Im α = ±1/2, not already in ``taken``."""
    while True:
        a = CQ(Fraction(rng.randint(1, 4), 5), Fraction(rng.choice((-1, 1)), 2))
        if a not in taken:
            taken.add(a)
            return a


def _phi(rng: random.Random, pole: int, trunc: int, leads: set) -> PuiseuxSeries:
    """φ = Σ_{n=-pole}^{-1} c_n z^n, c_n = ±1 ± i, leading term not in leads."""
    if pole == 0:
        return PuiseuxSeries(1, {}, trunc)
    while True:
        terms = {n: _unit(rng) for n in range(-pole, 0)}
        if (pole, terms[-pole]) not in leads:
            leads.add((pole, terms[-pole]))
            return PuiseuxSeries(1, terms, trunc)


def elementary_model(rng: random.Random, blocks, trunc: int) -> ElementaryModel:
    leads: set = set()
    out = []
    for pole, partitions in blocks:
        taken: set = set()
        regs = tuple(RegularBlockData(_alpha(rng, taken), tuple(p))
                     for p in partitions)
        out.append((_phi(rng, pole, trunc, leads), regs))
    return ElementaryModel(1, tuple(out))


def model_irr(model: ElementaryModel) -> int:
    """Σ rank(block)·pole order of φ, from the generating data."""
    total = Fraction(0)
    for phi, regs in model.blocks:
        v = phi.valuation()
        pole = Fraction(0) if v is None else Fraction(-v, phi.ram)
        total += sum(sum(r.partition) for r in regs) * pole
    return int(total)


def unit_kernel_dim(model: ElementaryModel) -> int:
    """dim ker(T − Id) on the φ = 0 part: one per Jordan block with α = 0."""
    return sum(len(r.partition) for phi, regs in model.blocks if phi.is_zero
               for r in regs if r.alpha.re == 0 and r.alpha.im == 0)


# -- closed-form gauges ---------------------------------------------------------

def _imat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _unit_tri_inverse(t, upper: bool):
    """Inverse of a unit triangular integer matrix by substitution."""
    d = len(t)
    inv = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for i in (range(d - 1, -1, -1) if upper else range(d)):
        others = range(i + 1, d) if upper else range(i)
        for j in range(d):
            inv[i][j] -= sum(t[i][k] * inv[k][j] for k in others)
    return inv


def _signed_permutation(rng: random.Random, d: int):
    perm = list(range(d))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(d)]
            for i in range(d)]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _dense_unimodular(rng: random.Random, d: int):
    """P = S₁·L·U·S₂ and its inverse: L and U unit triangular with every
    entry off the diagonal 1, S₁ and S₂ signed permutations.  The sizes of
    the entries of P and P⁻¹ are the same on every draw, up to order."""
    low = [[1 if i >= j else 0 for j in range(d)] for i in range(d)]
    up = _transpose(low)
    s1, s2 = _signed_permutation(rng, d), _signed_permutation(rng, d)
    p = _imat_mul(_imat_mul(s1, low), _imat_mul(up, s2))
    p_inv = _imat_mul(_imat_mul(_transpose(s2), _unit_tri_inverse(up, True)),
                      _imat_mul(_unit_tri_inverse(low, False), _transpose(s1)))
    return p, p_inv


def _square_zero(rng: random.Random, d: int):
    """N = u·vᵀ with u ∈ {±1}^d and v_j = σ_j·u_j, σ a shuffle of
    (1, …, 1, −(d − 1)): vᵀu = Σσ = 0, so N² = 0.

    N has no zero entry, so it maps no coordinate axis (an eigenvector of
    the model) into itself and the gauge couples every block; the sizes of
    its entries are the same on every draw, up to order.
    """
    u = [rng.choice((-1, 1)) for _ in range(d)]
    sigma = [1] * (d - 1) + [1 - d]
    rng.shuffle(sigma)
    return [[ui * sj * uj for sj, uj in zip(sigma, u)] for ui in u]


def _smat_mul(x, y, trunc: int):
    """Product of matrices of {exponent: CQ} dicts, terms above trunc dropped."""
    d = len(x)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc: dict[int, CQ] = {}
            for k in range(d):
                for n1, c1 in x[i][k].items():
                    for n2, c2 in y[k][j].items():
                        if n1 + n2 <= trunc:
                            acc[n1 + n2] = acc.get(n1 + n2, CQ_ZERO) + c1 * c2
            row.append(acc)
        out.append(row)
    return out


def _const(m, shift: int = 0):
    return [[{shift: CQ.of(x)} if x else {} for x in row] for row in m]


def unipotent_gauge(a, n, k: int, q: int, trunc: int):
    """G = I + N·t^k with N² = 0 applied in closed form.

    G⁻¹AG − G⁻¹·z∂G = A + t^k(AN − NA) − t^{2k}·NAN − (k/q)·N·t^k.
    """
    nk = _const(n, k)
    an = _smat_mul(a, nk, trunc)
    na = _smat_mul(nk, a, trunc)
    nan = _smat_mul(na, nk, trunc)
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(a)):
            acc = dict(a[i][j])
            for src, sign in ((an, 1), (na, -1), (nan, -1)):
                for e, c in src[i][j].items():
                    acc[e] = acc.get(e, CQ_ZERO) + (c if sign > 0 else -c)
            if n[i][j] and k <= trunc:
                acc[k] = acc.get(k, CQ_ZERO) - CQ.of(Fraction(k * n[i][j], q))
            row.append(acc)
        out.append(row)
    return out


def scrambled_germ(rng: random.Random, model: ElementaryModel, trunc: int,
                   k: int) -> ConnectionGerm:
    """assemble_matrix(model), gauged by I + N·t^k, then conjugated by P."""
    base = assemble_matrix(model, trunc=trunc)
    d = base.rank
    a = [[dict(s.terms) for s in row] for row in base.matrix]
    a = unipotent_gauge(a, _square_zero(rng, d), k, base.ram, trunc)
    p, p_inv = _dense_unimodular(rng, d)
    a = _smat_mul(_const(p_inv), _smat_mul(a, _const(p), trunc), trunc)
    return ConnectionGerm.from_matrix(
        [[PuiseuxSeries(base.ram, s, trunc) for s in row] for row in a])


# -- reduce-germs -------------------------------------------------------------------

def gauged_models(rng: random.Random):
    out = []
    for i, (blocks, trunc, k) in enumerate(DECOMPOSE_SLOTS):
        model = elementary_model(rng, blocks, trunc)
        germ = scrambled_germ(rng, model, trunc, k)
        out.append((f"gauged{i}-r{model.rank}-t{trunc}-k{k}", model, germ))
    return out


def airy_germ(c: CQ, m: int, extra: dict, trunc: int) -> ConnectionGerm:
    """[[0, 1], [c·z^{-m} + extra, 0]]."""
    low = {-m: c}
    low.update(extra)
    zero = PuiseuxSeries(1, {}, trunc)
    one = PuiseuxSeries(1, {0: CQ.of(1)}, trunc)
    return ConnectionGerm.from_matrix([[zero, one],
                                       [PuiseuxSeries(1, low, trunc), zero]])


def _airy_op(rng: random.Random, m: int, trunc: int) -> Op:
    s = CQ.of(rng.choice((1, 2)), rng.choice((-1, 1)))
    c = s * s
    # every lower-order term up to z^0, each ±1
    extra = {n: CQ.of(rng.choice((-1, 1))) for n in range(-m + 1, 1)}
    return Op(f"airy-m{m}-t{trunc}", "airy",
              {"germ": airy_germ(c, m, extra, trunc)}, {"c": c, "m": m})


def _rank1_germ(terms: dict, trunc: int) -> ConnectionGerm:
    return ConnectionGerm.from_matrix([[PuiseuxSeries(1, terms, trunc)]])


def _rank1_index_op(rng: random.Random, i: int, pole: int) -> Op:
    """A = Σ a_n z^n (n < 0) + r: φ = Σ (a_n/n) z^n and α = frac(−r)."""
    terms = {n: _unit(rng) for n in range(-pole, 0)}
    r = Fraction(rng.choice((-2, -1, 1, 2)), 3)
    terms[0] = CQ.of(r)
    phi = PuiseuxSeries(1, {n: c.scale(Fraction(1, n)) for n, c in terms.items()
                            if n < 0}, INDEX_TRUNC)
    alpha = CQ.of(-r - math.floor(-r))
    model = ElementaryModel(1, ((phi, (RegularBlockData(alpha, (1,)),)),))
    return Op(f"index-rank1-{i}-p{pole}", "index",
              {"germ": _rank1_germ(terms, INDEX_TRUNC), "model": model},
              {"irr": pole, "ker": 0})


def _regular_model(alpha: CQ, partition, trunc: int) -> ElementaryModel:
    return ElementaryModel(1, ((PuiseuxSeries(1, {}, trunc),
                                (RegularBlockData(alpha, tuple(partition)),)),))


#: the Airy catalog germ [[0, 1], [1/z, 0]]: φ = ±2 z^{-1/2}, α = 1/4
_AIRY_MODEL = ElementaryModel(2, tuple(
    (PuiseuxSeries(2, {-1: CQ.of(sign * 2)}, 2 * INDEX_TRUNC),
     (RegularBlockData(CQ.of(Fraction(1, 4)), (1,)),)) for sign in (1, -1)))


def _reduce_germs_copy(rng: random.Random) -> list[Op]:
    ops = [Op(name, "decompose", {"germ": germ},
              {"model": model, "irr": model_irr(model)})
           for name, model, germ in gauged_models(rng)]
    ops += [_airy_op(rng, m, trunc) for m, trunc in AIRY_SLOTS]
    for name, entry in CATALOG.items():
        model = entry.model(INDEX_TRUNC) if entry.model else _AIRY_MODEL
        ops.append(Op(f"index-{name}", "index",
                      {"germ": entry.germ(INDEX_TRUNC), "model": model},
                      {"irr": model_irr(model), "ker": unit_kernel_dim(model)}))
    ops += [_rank1_index_op(rng, i, pole) for i, pole in enumerate(RANK1_POLES)]
    # known faults, on fixed inputs
    triple = _regular_model(CQ.of(Fraction(1, 3)), (3,), 12)
    ops.append(Op("fault-triple-eigenvalue", "decompose",
                  {"germ": assemble_matrix(triple, trunc=12)},
                  {"model": triple, "irr": 0},
                  known_fault="exactla.gaussian_roots rationalizes the np.roots "
                              "scatter of a triple eigenvalue: IrrationalSpectrum"))
    ops.append(Op("fault-index-positive-order", "index",
                  {"germ": _rank1_germ({1: CQ.of(1)}, INDEX_TRUNC),
                   "model": _regular_model(CQ.of(0), (1,), INDEX_TRUNC)},
                  {"irr": 0, "ker": 1},
                  known_fault="index._window_dims: A = z gives (0, 1), "
                              "so h0 - h1 != -Irr"))
    return ops


# -- float-lab --------------------------------------------------------------------

def sample_points(rng: random.Random, n: int) -> list[complex]:
    """Points with log|z| uniform on [log R_MIN, log 0.6] and any argument."""
    out = []
    for _ in range(n):
        r = math.exp(rng.uniform(math.log(R_MIN), math.log(0.6)))
        t = rng.uniform(0, 2 * math.pi)
        out.append(complex(r * math.cos(t), r * math.sin(t)))
    return out


def _glued_model(rng: random.Random):
    """φ = ∓a/z (a > 0) with the two-arc cover of the catalog's Stokes entry."""
    a = Fraction(rng.randint(1, 4), 2)
    taken: set = set()
    model = ElementaryModel(1, tuple(
        (PuiseuxSeries(1, {-1: CQ.of(sign * a)}, 24),
         (RegularBlockData(_alpha(rng, taken), (1,)),)) for sign in (-1, 1)))
    gd = StokesGluingData(
        intervals=((-0.6, 3.7), (2.9, 5.9)),
        constants=({(1, 0): rng.uniform(0.2, 2.0)},
                   {(0, 1): rng.uniform(0.2, 2.0)}))
    return model, gd


def _sector(ell: int, a_ell: complex, quadrant: int):
    """A sector on which cos(ℓθ − τ) < 0 and sin(ℓθ − τ) has one sign."""
    tau = math.atan2((-a_ell).imag, (-a_ell).real)
    lo = tau + math.pi / 2 * (1 + quadrant)
    margin = 0.1 * math.pi / 2
    th0 = (lo + margin) / ell
    th1 = (lo + math.pi / 2 - margin) / ell
    shift = 2 * math.pi * math.floor(th0 / (2 * math.pi))
    return (th0 - shift, th1 - shift)


def l2_params(rng: random.Random, ell: int, quadrant: int) -> dict:
    rho = rng.uniform(0.5, 2.0)
    psi = rng.uniform(0, 2 * math.pi)
    a_ell = complex(rho * math.cos(psi), rho * math.sin(psi))
    sector = _sector(ell, a_ell, quadrant)
    w = sector[1] - sector[0]
    return {"beta": rng.choice((0.0, 0.25, 0.5, 1.0)), "kappa": rng.randrange(3),
            "a_ell": [a_ell.real, a_ell.imag], "ell": ell,
            "sector": list(sector),
            "inner": [sector[0] + 0.25 * w, sector[1] - 0.25 * w]}


def _float_lab_copy(rng: random.Random) -> list[Op]:
    ops = []
    for i, blocks in enumerate(METRIC_SLOTS):
        model = elementary_model(rng, blocks, 24)
        ops.append(Op(f"metric{i}-r{model.rank}", "metric",
                      {"model": model, "points": sample_points(rng, METRIC_POINTS),
                       "twist": TWIST, "gluing": None}))
    for i in range(METRIC_GLUED_SLOTS):
        model, gd = _glued_model(rng)
        ops.append(Op(f"metric-glued{i}", "metric",
                      {"model": model, "points": sample_points(rng, METRIC_POINTS),
                       "twist": TWIST, "gluing": gd}))
    # known fault, on fixed inputs: φ = (2 + 2i)·z^{-2} at |z| = 5e-4
    fault = ElementaryModel(1, ((PuiseuxSeries(1, {-2: CQ.of(2, 2)}, 24),
                                 (RegularBlockData(CQ.of(Fraction(1, 5)), (2,)),)),))
    ops.append(Op("fault-pseudo-curvature", "metric",
                  {"model": fault, "twist": TWIST, "gluing": None,
                   "points": [5e-4 * complex(math.cos(t), math.sin(t))
                              for t in (2 * math.pi * j / 16 for j in range(16))]},
                  known_fault="metric.pseudo_curvature loses |zφ′|·eps: its "
                              "norm is 3e-10 > 1e-10 at these points"))
    for i, (ell, quadrant) in enumerate(L2_SLOTS):
        ops.append(Op(f"l2-{i}-ell{ell}", "l2",
                      {"params": l2_params(rng, ell, quadrant),
                       "manufactured": [rng.uniform(-1, 1) for _ in range(3)]
                       + [rng.randint(1, 3), rng.randint(1, 3)],
                       "seed": rng.randrange(1000)}))
    return ops


# -- cli-sweep ----------------------------------------------------------------------

def _model_expect(model: ElementaryModel) -> dict:
    return {"model": model, "irr": model_irr(model), "ker": unit_kernel_dim(model)}


def _cli_sweep_copy(rng: random.Random) -> list[Op]:
    """Ops carry the spec documents; run.py writes them to disk at set-up."""
    ops = []
    for name, entry in CATALOG.items():
        # the Airy entry has no model; its check is the companion closed form
        expect = _model_expect(entry.model(INDEX_TRUNC)) if entry.model else {}
        ops.append(Op(f"analyze-{name}", "analyze", {"target": name}, expect))
    # every decomposition slot in both forms: the generating model and the
    # gauged germ
    for name, model, germ in gauged_models(rng):
        for form, obj in (("elementary", model), ("matrix", germ)):
            ops.append(Op(f"analyze-{name}-{form}", "analyze",
                          {"spec": (form, obj)}, _model_expect(model)))
    # a second draw of every slot, in elementary form only
    for slot, (blocks, trunc, _) in enumerate(DECOMPOSE_SLOTS):
        model = elementary_model(rng, blocks, trunc)
        ops.append(Op(f"analyze-model{slot}-r{model.rank}-t{trunc}-elementary",
                      "analyze", {"spec": ("elementary", model)},
                      _model_expect(model)))
    for name, entry in CATALOG.items():
        if entry.l2:
            fault = None
            if name == "trivial":
                fault = ("cli.cmd_l2verify: the excluded case writes bare NaN, "
                         "which strict JSON rejects")
            ops.append(Op(f"l2verify-{name}", "l2verify", {"target": name},
                          {"width": entry.l2["sector"][1] - entry.l2["sector"][0]},
                          known_fault=fault))
    params = l2_params(rng, 1, 0)
    ops.append(Op("l2verify-file", "l2verify", {"params": params},
                  {"width": params["sector"][1] - params["sector"][0]}))
    return ops


def _copies(make_copy, copies: int):
    """A pass: ``copies`` copies of the slot list, each with its own draws."""
    def make(seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for c in range(copies):
            for op in make_copy(rng):
                op.name = f"{op.name}.{c}"
                ops.append(op)
        return ops
    return make


#: the copy counts make a pass 20-45 s on a 2-vCPU Xeon VM, with at least
#: 100 operations
WORKLOADS = {"reduce-germs": _copies(_reduce_germs_copy, 4),
             "float-lab": _copies(_float_lab_copy, 8),
             "cli-sweep": _copies(_cli_sweep_copy, 3)}
