"""Print a run count and one SHA-256 over what the CLI reports, then an
operation count and one SHA-256 over what the l2lab kernels compute.

Per run of `analyze` or `l2verify`: its argv, exit code, stdout, stderr and
every file its --out wrote. Runs: each command on every catalog entry at
every --grid (`analyze` has none), and on every spec and parameter file of
the cli-sweep operations of seeds 1-5 (perfbench/gen.py), written as the
benchmark writes them; each with and without --out. The runs use relative
paths in a scratch directory, so a report that echoes its target does not
depend on where the directory lies.

Per float-lab `l2` operation of seeds 1-5 (perfbench/gen.py), as the
benchmark runs it: psi_profile, hardy_angular, vanishing_report,
build_primitive_radial (ℓ = 1), both calibration norms, and the angular
primitive's u and ratio, each array by its shape and bytes and each other
value by its repr, or "Class: message" if the operation raises.
A change that keeps the CLI's reports prints the first line of its parent;
one that keeps the kernels' outputs, the second.

    python tools/report_digest.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d)
                for d in ("src", "perfbench")]

import gen  # noqa: E402
from connexion_lab import cli, l2lab  # noqa: E402
from run import _manufactured, prepare, run_l2, spec_document  # noqa: E402


def runs():
    """(argv, whether to add --out) pairs, writing the files they read."""
    for name in gen.CATALOG:
        for out in (False, True):
            yield ["analyze", name], out
            for grid in l2lab.PRESETS:
                yield ["l2verify", name, "--grid", grid], out
    for seed in range(1, 6):
        for op in gen.WORKLOADS["cli-sweep"](seed):
            if "spec" in op.args:
                doc = spec_document(*op.args["spec"])
            elif "params" in op.args:
                doc = op.args["params"]
            else:
                continue
            path = f"s{seed}-{op.name}.json"
            Path(path).write_text(json.dumps(doc))
            for out in (False, True):
                yield [op.kind, path], out


def run(argv, outdir: Path | None, digest) -> None:
    """Run argv, with --out into outdir unless that is None, into digest."""
    if outdir is not None:
        outdir.mkdir()
        argv = argv + ["--out", str(outdir / "report.json")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    digest.update(f"{argv}\n{code}\n{stdout.getvalue()}\n{stderr.getvalue()}\n"
                  .encode())
    for path in sorted(outdir.iterdir()) if outdir is not None else ():
        digest.update(path.name.encode() + b"\n" + path.read_bytes() + b"\n")


def l2_outputs(op, ctx):
    """What run_l2 reports of op, plus its angular primitive's u and ratio."""
    p = op.args["params"]
    sector = tuple(p["sector"])
    d = l2lab.WeightedLineData.create(
        beta=p["beta"], kappa=p["kappa"], ell=p["ell"],
        a_ell=complex(*p["a_ell"]), sector=sector, r1=0.5)
    g = l2lab.SectorGrid.make(sector=sector, r1=0.5, preset="default")
    _, f, gt = _manufactured(op.args["manufactured"], sector[0])
    prim = l2lab.build_primitive_angular((f, gt), d, g, tuple(p["inner"]))
    return run_l2(op, ctx), prim["u"], prim["ratio"]


def feed(obj, digest) -> None:
    """Arrays by shape and bytes, containers item by item, the rest by repr."""
    if isinstance(obj, np.ndarray):
        digest.update(f"{obj.shape}".encode() + np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key, value in obj.items():
            digest.update(f"{key!r}:".encode())
            feed(value, digest)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            feed(item, digest)
    else:
        digest.update(f"{obj!r};".encode())


digest, kernels = hashlib.sha256(), hashlib.sha256()
with tempfile.TemporaryDirectory() as scratch:
    os.chdir(scratch)
    for count, (argv, with_out) in enumerate(runs(), 1):
        run(argv, Path(f"out{count}") if with_out else None, digest)
    # after the CLI runs, so that no warning they print has been shown before
    n_ops = 0
    for seed in range(1, 6):
        ops, ctx = prepare("float-lab", seed, Path(scratch))
        for op in (op for op in ops if op.kind == "l2"):
            n_ops += 1
            kernels.update(f"{op.name}\n".encode())
            try:
                feed(l2_outputs(op, ctx), kernels)
            except Exception as exc:  # an error is an outcome like any other
                kernels.update(f"{type(exc).__name__}: {exc}\n".encode())
print(count, digest.hexdigest())
print(n_ops, kernels.hexdigest())
