"""Command-line front end: analyze, l2verify, catalog."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, catalog, formal, index, l2lab, metric
from .errors import (ConnexionLabError, NonconvergentQuadrature, NotMonotone,
                     ParseError, SectorContainsCosZero, UnboundedRatio,
                     UnstableDimensions)
from .l2lab import SectorGrid, WeightedLineData
from .model import ElementaryModel, assemble_matrix, \
    germ_or_model_from_dict
from .sl2 import adapted_metric_frame

EXIT_PARSE = 2
EXIT_DECOMP = 3
EXIT_NUMERIC = 4
EXIT_BOUND = 5

_NUMERIC_ERRORS = (UnstableDimensions, NonconvergentQuadrature)
_BOUND_ERRORS = (SectorContainsCosZero, NotMonotone, UnboundedRatio)


def _round(x, nd=12):
    if isinstance(x, float):
        if not math.isfinite(x):
            return repr(x)
        return round(x, nd)
    return x


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, default=_round) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _config_echo(args) -> dict:
    return {"trunc": args.trunc, "grid": args.grid, "tol": args.tol,
            "seed": args.seed, "version": __version__}


def _load_target(target: str, trunc: int):
    """(entry_or_None, germ) from a catalog name or a JSON spec file."""
    if target in catalog.CATALOG:
        entry = catalog.CATALOG[target]
        return entry, entry.germ(trunc)
    if os.path.exists(target):
        try:
            with open(target) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read spec file {target}: {exc}") from exc
        obj = germ_or_model_from_dict(doc)
        if isinstance(obj, ElementaryModel):
            return None, assemble_matrix(obj, trunc=trunc)
        return None, obj
    # unknown name: raises ParseError with a suggestion
    catalog.get_entry(target)
    raise AssertionError("unreachable")


def _digest(target: str) -> str:
    if os.path.exists(target):
        with open(target, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    return hashlib.sha256(target.encode()).hexdigest()[:16]


def _sample_points(seed: int, n: int = 32) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(1e-3), np.log(0.5), n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * th)


def cmd_analyze(args) -> int:
    entry, germ = _load_target(args.target, args.trunc)
    model = formal.formal_decompose(germ)
    report = formal.decomposition_summary(germ, model)

    mm = adapted_metric_frame(model)
    zs = _sample_points(args.seed)
    gd = entry.gluing() if entry is not None and entry.gluing else None
    rows = metric.metric_report(mm, zs, gd)
    alpha = np.real(mm.vector_alpha())
    det_target = np.array(
        [np.prod(np.abs(z) ** (-2.0 * alpha)) for z in zs])
    det_dev = float(np.max(np.abs(
        np.array([r["det_K"] for r in rows]) / det_target - 1.0)))
    ratio_target = 2.0 * float(np.max(np.abs(mm.vector_weights()))) \
        if mm.rank else 0.0
    metric_summary = {
        "det_rel_dev": det_dev,
        "ratio_target": ratio_target,
        "ratio_max_dev": float(np.max(np.abs(
            np.array([r["ratio"] for r in rows]) - ratio_target))),
        "pseudo_max": float(np.max([r["pseudo_norm"] for r in rows])),
        "glued": gd is not None,
    }

    h0, h1 = index.local_min_dims(model)
    index_summary = {"h0_min": h0, "h1_min": h1,
                     "irr": index.model_irregularity(model)}

    l2_summary = None
    if entry is not None and entry.l2:
        l2_summary = {"available": True, "params": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in entry.l2.items()}}

    doc = {
        "input": {"target": args.target, "digest": _digest(args.target)},
        "config": _config_echo(args),
        "polygon": {"slopes": report["slopes"],
                    "irregularity": report["irregularity"]},
        "ramification": report["ram_out"],
        "model": report["model"],
        "metric": metric_summary,
        "index": index_summary,
        "l2": l2_summary,
    }
    _emit(doc, args.out)
    if args.out:
        _write_csv(os.path.splitext(args.out)[0] + ".metric.csv", rows)
    return 0


def _l2_data(args):
    """WeightedLineData + sector/inner bookkeeping from a name or a file."""
    if args.target in catalog.CATALOG:
        entry = catalog.CATALOG[args.target]
        if not entry.l2:
            raise ParseError(
                f"catalog entry {args.target!r} has no rank-1 weight data")
        params = dict(entry.l2)
    elif os.path.exists(args.target):
        try:
            with open(args.target) as fh:
                params = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read {args.target}: {exc}") from exc
    else:
        catalog.get_entry(args.target)
        raise AssertionError("unreachable")
    sector = tuple(params.get("sector", (0.0, 2.0 * math.pi)))
    inner = tuple(params.get("inner",
                             (sector[0] + 0.25 * (sector[1] - sector[0]),
                              sector[1] - 0.25 * (sector[1] - sector[0]))))
    sub_sector = params.get("sub_sector")
    a_ell = params.get("a_ell", 0.0)
    if isinstance(a_ell, (list, tuple)):
        a_ell = complex(a_ell[0], a_ell[1])
    d = WeightedLineData.create(
        beta=params.get("beta", 0.0), kappa=params.get("kappa", 0),
        ell=params.get("ell", 1), a_ell=a_ell,
        sector=sector, r1=params.get("r1", 0.5))
    return d, sector, inner, sub_sector


def cmd_l2verify(args) -> int:
    d, sector, inner, sub_sector = _l2_data(args)
    g = SectorGrid.make(sector=sector, r1=d.r1, preset=args.grid)
    width = sector[1] - sector[0]

    excluded = (d.a_ell == 0 and d.beta == 0.0 and d.kappa == 0)
    phase_r = l2lab.phase_sign_check(d, g) if d.a_ell != 0 else None
    psi = l2lab.psi_profile(d, range(-5, 6), g, sub_sector=sub_sector)
    hardy_c = l2lab.hardy_angular(d, inner, sector, g)
    hardy_ok = hardy_c <= width ** 2 + 1e-9
    vanish = l2lab.vanishing_report(d, trials=args.trials, g=g, seed=args.seed)
    vanish_ok = all(r["verdict"] in ("ok", "excluded") for r in vanish)

    doc = {
        "input": {"target": args.target, "digest": _digest(args.target)},
        "config": _config_echo(args),
        "excluded_case": excluded,
        "phase": {"r_phi": phase_r, "tau": d.tau, "ell": d.ell},
        "psi": {"cos_sign": psi["cos_sign"],
                "kappa_ratio": psi["kappa_ratio"],
                "verdicts": {str(n): v for n, v in psi["verdicts"].items()}},
        "hardy": {"constant": hardy_c, "bound": width ** 2, "ok": hardy_ok},
        "vanishing": {"trials": args.trials, "ok": vanish_ok,
                      "rows": vanish},
    }
    _emit(doc, args.out)
    if args.out:
        base = os.path.splitext(args.out)[0]
        _write_csv(base + ".psi.csv", psi["table"])
        _write_csv(base + ".vanishing.csv", vanish)
    if not excluded and (not hardy_ok or not vanish_ok):
        return EXIT_BOUND
    return 0


def cmd_catalog(args) -> int:
    rows = catalog.entries()
    if args.json:
        _emit({"entries": rows}, getattr(args, "out", None))
    else:
        for r in rows:
            print(f"{r['name']:<16} rank {r['rank']}  {r['description']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="connexion-lab",
                                description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--trunc", type=int, default=24,
                        help="series truncation budget")
        sp.add_argument("--grid", choices=("coarse", "default", "fine"),
                        default="default", help="quadrature preset")
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="float tolerance for report verdicts")
        sp.add_argument("--seed", type=int, default=0,
                        help="Monte Carlo seed")
        sp.add_argument("--out", default=None, help="report output path")

    a = sub.add_parser("analyze", help="full pipeline on a spec or name")
    a.add_argument("target")
    common(a)
    a.set_defaults(func=cmd_analyze)

    l = sub.add_parser("l2verify", help="weighted-L² verification")
    l.add_argument("target")
    l.add_argument("--trials", type=int, default=5,
                   help="Monte Carlo trials for the vanishing report")
    common(l)
    l.set_defaults(func=cmd_l2verify)

    c = sub.add_parser("catalog", help="list built-in examples")
    c.add_argument("--json", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_catalog)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _NUMERIC_ERRORS as exc:
        print(f"numerical instability: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except _BOUND_ERRORS as exc:
        print(f"bound violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ConnexionLabError as exc:
        print(f"decomposition error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_DECOMP


if __name__ == "__main__":
    sys.exit(main())
