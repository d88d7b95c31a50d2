"""Fixed-work benchmark of connexion-lab: one workload per run.

    python3 perfbench/run.py --workload reduce-germs --seed 1 --seconds 30 --trace 0

A run makes the workload's operation list from the seed, then runs whole
passes over that list (one caller, closed loop, no threads) until
``--seconds`` have gone by and at least MIN_OPS operations were made.
Every operation's output is checked.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics, the end-to-end ones
with ``--trace 0`` and the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread keeps the closed loop single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100
SETUP_REPEATS = 5

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def _import_package():
    """Import the package from this checkout's src/, or exit 2."""
    if not (SRC / "connexion_lab" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'connexion_lab'}")
    sys.path.insert(0, str(SRC))
    import connexion_lab

    if Path(connexion_lab.__file__).resolve().parent != SRC / "connexion_lab":
        sys.exit(f"error: imported connexion_lab from {connexion_lab.__file__}")


def import_seconds() -> float:
    """Time to import the package (and numpy) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import connexion_lab.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


# -- operations ---------------------------------------------------------------
# Each runner is the timed part of one operation: calls into the package's
# public API only.  Module attributes are looked up at call time so that the
# tracer's wrappers are seen.

def run_decompose(op, ctx):
    from connexion_lab import formal, index

    germ = op.args["germ"]
    model = formal.formal_decompose(germ)
    return {"model": model,
            "polygon_irr": formal.newton_polygon(germ).irregularity,
            "model_irr": index.model_irregularity(model)}


def run_index(op, ctx):
    from connexion_lab import index

    return {"full": index.local_full_dims(op.args["germ"]),
            "min": index.local_min_dims(op.args["model"])}


def _twisted(model, delta):
    from connexion_lab.model import ElementaryModel
    from connexion_lab.series import PuiseuxSeries, ps_add

    d = PuiseuxSeries(model.ram, {-2 * model.ram: delta}, 24 * model.ram)
    return ElementaryModel(model.ram, tuple(
        (ps_add(phi.lift_ram(model.ram), d), regs) for phi, regs in model.blocks))


def run_metric(op, ctx):
    import numpy as np
    from connexion_lab import metric, sl2

    model, gd = op.args["model"], op.args["gluing"]
    zs = np.array(op.args["points"], dtype=complex)
    mm = sl2.adapted_metric_frame(model)
    mm_tw = sl2.adapted_metric_frame(_twisted(model, op.args["twist"]))
    k, _ = metric.eval_metric(mm, zs)
    out = {"K": k, "ratios": metric.curvature_knorm_ratio(mm, zs),
           "pseudo": [metric.pseudo_curvature(mm, z) for z in zs],
           "pseudo_twisted": [metric.pseudo_curvature(mm_tw, z) for z in zs]}
    if gd is not None:
        out["glued"] = [metric.glued_metric(mm, gd, z) for z in zs]
        out["glued_det"] = [metric.glued_transition_det(mm, gd, z) for z in zs]
    return out


def _manufactured(coef, th0):
    """u₀ = c₀ sin(k(θ−θ₀)) + c₁ cos(j(θ−θ₀))·r² + c₂/(1 − log r) and its du₀."""
    import numpy as np

    c0, c1, c2, k, j = coef

    def u0(r, t):
        return (c0 * np.sin(k * (t - th0)) + c1 * np.cos(j * (t - th0)) * r ** 2
                + c2 / (1.0 - np.log(r)))

    def f(r, t):  # r ∂_r u₀
        return 2.0 * c1 * np.cos(j * (t - th0)) * r ** 2 + c2 / (1.0 - np.log(r)) ** 2

    def g(r, t):  # ∂_θ u₀
        return c0 * k * np.cos(k * (t - th0)) - c1 * j * np.sin(j * (t - th0)) * r ** 2

    return u0, f, g


def run_l2(op, ctx):
    import numpy as np
    from connexion_lab import l2lab

    p = op.args["params"]
    sector, inner = tuple(p["sector"]), tuple(p["inner"])
    d = l2lab.WeightedLineData.create(
        beta=p["beta"], kappa=p["kappa"], ell=p["ell"],
        a_ell=complex(*p["a_ell"]), sector=sector, r1=0.5)
    g = l2lab.SectorGrid.make(sector=sector, r1=0.5, preset="default")
    u0, f, gt = _manufactured(op.args["manufactured"], sector[0])
    prim = l2lab.build_primitive_angular((f, gt), d, g, inner)
    ones = ctx["ones"]
    full = ctx["full_grid"]
    out = {
        "psi": l2lab.psi_profile(d, range(-5, 6), g),
        "hardy": l2lab.hardy_angular(d, inner, sector, g),
        "vanishing": l2lab.vanishing_report(d, ctx["trials"], g,
                                            seed=op.args["seed"]),
        "calibration_log": l2lab.weighted_norm(0, ones, ctx["flat_log"], full),
        "calibration_power": l2lab.weighted_norm(0, ones, ctx["flat_power"], full),
    }
    if p["ell"] == 1:
        out["radial"] = l2lab.build_primitive_radial(lambda r: r ** 2, d, g)
    # compare with u₀ on the plateau of the bump, modulo functions of r
    rr, tt = np.meshgrid(g.radii, g.thetas, indexing="ij")
    mask = prim["chi"] >= 1.0 - 1e-12
    diff = (prim["u"] - u0(rr, tt))[:, mask]
    diff -= diff.mean(axis=1, keepdims=True)
    out["manufactured_residual"] = float(np.max(np.abs(diff))
                                         / (1.0 + np.max(np.abs(u0(rr, tt)))))
    return out


def _cli(argv):
    from connexion_lab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue().encode()


def run_analyze(op, ctx):
    out = ctx["files"][op.name + ".report.json"]
    rc, stdout = _cli(["analyze", op.args["target"], "--out", str(out)])
    report = out.read_bytes() if out.exists() else b""
    csv = out.with_suffix(".metric.csv")
    return {"rc": rc, "stdout": stdout, "report": report,
            "csv": csv.read_bytes() if csv.exists() else b""}


def run_l2verify(op, ctx):
    rc, stdout = _cli(["l2verify", op.args["target"]])
    return {"rc": rc, "stdout": stdout}


# -- set-up ---------------------------------------------------------------------

def _literal(s) -> dict:
    return {"ram": s.ram, "trunc": s.trunc,
            "terms": [[n, c.re.numerator, c.re.denominator,
                       c.im.numerator, c.im.denominator]
                      for n, c in sorted(s.terms.items())]}


def spec_document(form, obj) -> dict:
    """The connection spec file of a germ or model.

    Written here rather than with ``model.model_to_dict``, so that a fault
    in the package's serializer cannot change the inputs.
    """
    if form == "matrix":
        return {"form": "matrix", "rank": obj.rank,
                "matrix": [[_literal(s) for s in row] for row in obj.matrix]}
    return {"form": "elementary", "ram": obj.ram, "blocks": [
        {"phi": _literal(phi),
         "regs": [{"alpha": [[r.alpha.re.numerator, r.alpha.re.denominator],
                             [r.alpha.im.numerator, r.alpha.im.denominator]],
                   "partition": list(r.partition)} for r in regs]}
        for phi, regs in obj.blocks]}


def prepare(workload: str, seed: int, workdir: Path):
    """Operation list and context; writes spec and parameter files."""
    import gen

    ops = gen.WORKLOADS[workload](seed)
    ctx = {"files": {}}
    if workload == "float-lab":
        import numpy as np
        from connexion_lab import l2lab

        ctx.update(
            trials=gen.L2_TRIALS,
            ones=lambda r, t: np.ones_like(r),
            full_grid=l2lab.SectorGrid.make(r1=0.5, preset="default"),
            flat_log=l2lab.WeightedLineData.create(beta=0.0, kappa=0, a_ell=0.0,
                                                   r1=0.5),
            flat_power=l2lab.WeightedLineData.create(beta=1.0, kappa=2,
                                                     a_ell=0.0, r1=0.5))
    if workload == "cli-sweep":
        workdir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            if "spec" in op.args:
                path = workdir / f"{op.name}.json"
                path.write_text(json.dumps(spec_document(*op.args["spec"])))
                op.args["target"] = str(path)
            elif "params" in op.args:
                path = workdir / f"{op.name}.json"
                path.write_text(json.dumps(op.args["params"]))
                op.args["target"] = str(path)
            if op.kind == "analyze":
                ctx["files"][op.name + ".report.json"] = workdir / f"{op.name}.out.json"
    return ops, ctx


# -- the loop -------------------------------------------------------------------

RUNNERS = {"decompose": run_decompose, "airy": run_decompose,
           "index": run_index, "metric": run_metric, "l2": run_l2,
           "analyze": run_analyze, "l2verify": run_l2verify}


def check(op, res, first: dict) -> None:
    """Check one output; ``first`` maps an argv (without the --out path) to
    the bytes it gave first, so a repeated argv must give the same bytes,
    within a pass (the catalog entries of every copy) and across passes."""
    import checks

    if op.kind in ("analyze", "l2verify"):
        fn = checks.check_analyze if op.kind == "analyze" else checks.check_l2verify
        key = (op.kind, op.args["target"])
        fn(op, res, first.get(key))
        if key not in first:
            first[key] = (res["report"] + res["csv"] if op.kind == "analyze"
                          else res["stdout"])
        return
    {"decompose": checks.check_decompose, "airy": checks.check_airy,
     "index": checks.check_index, "metric": checks.check_metric,
     "l2": checks.check_l2}[op.kind](op, res)


class Tally:
    def __init__(self):
        self.latencies_ms: list[float] = []
        self.attempted = self.failed = self.passed = 0
        self.unexpected: list[str] = []
        self.report_bytes = 0
        self.passes = 0


def run_pass(ops, ctx, tally: Tally, first: dict, tracer=None) -> None:
    import checks

    clock = time.perf_counter_ns
    for op in ops:
        if tracer is not None:
            tracer.op_id = tally.attempted
        t0 = clock()
        try:
            res = RUNNERS[op.kind](op, ctx)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            res, error = None, f"{type(exc).__name__}: {exc}"
        tally.latencies_ms.append((clock() - t0) / 1e6)
        tally.attempted += 1
        if error is None:
            try:
                check(op, res, first)
            except checks.CheckFailed as exc:
                error = f"check: {exc}"
        if res is not None and op.kind in ("analyze", "l2verify"):
            tally.report_bytes += len(res.get("report", b"")) + \
                len(res.get("csv", b"")) + len(res["stdout"])
        if error is None:
            tally.passed += 1
        else:
            tally.failed += 1
            if op.known_fault is None:
                tally.unexpected.append(f"{op.name}: {error}")
    tally.passes += 1


def run_for(ops, ctx, seconds: float, first: dict, tracer=None) -> tuple[Tally, float]:
    tally = Tally()
    t0 = time.perf_counter()
    while True:
        run_pass(ops, ctx, tally, first, tracer)
        wall = time.perf_counter() - t0
        if wall >= seconds and tally.attempted >= MIN_OPS:
            return tally, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("reduce-germs", "float-lab", "cli-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # imported once here; set-up times the package import in a fresh
    # interpreter instead
    import connexion_lab.cli  # noqa: F401
    import checks  # noqa: F401
    import gen  # noqa: F401

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops, ctx = prepare(args.workload, args.seed, workdir)
        setups.append(import_seconds() + time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    first: dict = {}
    try:
        if args.trace:
            doc = traced_run(args, ops, ctx, first)
        else:
            tally, wall = run_for(ops, ctx, args.seconds, first)
            values = {
                "ops_per_s": tally.passed / wall,
                "op_p50_ms": statistics.median(tally.latencies_ms),
                "op_p90_ms": statistics.quantiles(tally.latencies_ms, n=10,
                                                  method="inclusive")[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "setup_s": setup_s,
            }
            doc = result(tally, {name: {"value": values[name], "unit": unit}
                                 for name, unit in END_TO_END.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


def result(tally: Tally, metrics: dict) -> dict:
    for line in tally.unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(f"{tally.passes} passes, {tally.attempted} operations, "
          f"{tally.failed} failed", file=sys.stderr)
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced_run(args, ops, ctx, first: dict) -> dict:
    """Untraced passes for half the time, then traced passes for the rest."""
    from tracer import Tracer

    plain, _ = run_for(ops, ctx, args.seconds / 2, first)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_for(ops, ctx, args.seconds / 2, first, tracer)
    finally:
        tracer.uninstall()
    # per operation, traced latency over untraced latency, first pass of each
    n = len(ops)
    overhead = 100.0 * (statistics.median(
        t / p for t, p in zip(traced.latencies_ms[:n], plain.latencies_ms[:n])) - 1.0)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    summ = tracer.summary()
    print(f"{'span':40s} {'calls/pass':>12s} {'ms/pass':>12s} {'self ms/pass':>12s}",
          file=sys.stderr)
    for name, row in sorted(summ.items(), key=lambda kv: -kv[1]["ms"]):
        print(f"{name:40s} {row['calls'] / traced.passes:12.1f} "
              f"{row['ms'] / traced.passes:12.2f} "
              f"{row['self_ms'] / traced.passes:12.2f}", file=sys.stderr)
    print(f"tracing overhead: {overhead:.1f} % per operation", file=sys.stderr)
    values = tracer.layer_metrics(traced.passes, traced.report_bytes, overhead)
    merged = Tally()
    for t in (plain, traced):
        merged.attempted += t.attempted
        merged.failed += t.failed
        merged.unexpected += t.unexpected
        merged.passes += t.passes
    return result(merged, values)


if __name__ == "__main__":
    sys.exit(main())
