"""Command-line front end: analyze, l2verify, catalog."""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, catalog, formal, index, l2lab, metric
from .errors import (ConnexionLabError, DomainError, NonconvergentQuadrature,
                     NotMonotone, ParseError, SectorContainsCosZero,
                     UnboundedRatio, UnstableDimensions)
from .l2lab import SectorGrid, WeightedLineData
from .model import ElementaryModel, assemble_matrix, \
    germ_or_model_from_dict, model_to_dict
from .sl2 import adapted_metric_frame

EXIT_PARSE = 2
EXIT_DECOMP = 3
EXIT_NUMERIC = 4
EXIT_BOUND = 5

_NUMERIC_ERRORS = (UnstableDimensions, NonconvergentQuadrature)
_BOUND_ERRORS = (SectorContainsCosZero, NotMonotone, UnboundedRatio)


def _emit(doc: dict, out_path: str | None) -> None:
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", out_path)


def _write(text: str, out_path: str | None) -> None:
    """text to the file out_path, or to stdout without one."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(path: str, rows: list[dict]) -> None:
    """Rows of one report table as CSV, the columns in the first row's order;
    no rows make an empty file."""
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


def _config_echo(args, **flags) -> dict:
    return {**flags, "seed": args.seed, "version": __version__}


def _read_target(target: str):
    """(entry, None, digest) for a catalog name, which comes before a file
    of that name, and (None, JSON object, digest) for a file; the digest
    hashes the name or the bytes that were parsed."""
    if target in catalog.CATALOG or not os.path.exists(target):
        # an unknown name raises ParseError with a suggestion
        entry, doc, raw = catalog.get_entry(target), None, target.encode()
    else:
        try:
            with open(target, "rb") as fh:
                raw = fh.read()
            entry, doc = None, json.loads(raw.decode())  # strict UTF-8
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot read {target}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{target} does not hold a JSON object")
    return entry, doc, hashlib.sha256(raw).hexdigest()[:16]


def _load_target(target: str, trunc: int):
    """(entry_or_None, germ, digest) from a catalog name or a JSON spec file."""
    entry, doc, digest = _read_target(target)
    if entry is not None:
        return entry, entry.germ(trunc), digest
    obj = germ_or_model_from_dict(doc)
    if isinstance(obj, ElementaryModel):
        return None, assemble_matrix(obj, trunc=trunc), digest
    return None, obj, digest


def _sample_points(seed: int, n: int = 32) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(1e-3), np.log(0.5), n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * th)


def cmd_analyze(args) -> int:
    entry, germ, digest = _load_target(args.target, args.trunc)
    model = formal.formal_decompose(germ)
    poly = formal.newton_polygon(germ)
    # the index refuses a non-integral irregularity: before the metric work
    h0, h1 = index.local_min_dims(model)
    index_summary = {"h0_min": h0, "h1_min": h1, "irr": h1}

    mm = adapted_metric_frame(model)
    zs = _sample_points(args.seed)
    gd = entry.gluing() if entry is not None and entry.gluing else None
    rows = metric.metric_report(mm, zs, gd)
    alpha = np.real(mm.vector_alpha())
    det_target = np.array(
        [np.prod(np.abs(z) ** (-2.0 * alpha)) for z in zs])
    det_dev = float(np.max(np.abs(
        np.array([r["det_K"] for r in rows]) / det_target - 1.0)))
    ratio_target = 2.0 * float(np.max(np.abs(mm.vector_weights())))
    metric_summary = {
        "det_rel_dev": det_dev,
        "ratio_target": ratio_target,
        "ratio_max_dev": float(np.max(np.abs(
            np.array([r["ratio"] for r in rows]) - ratio_target))),
        "pseudo_max": float(np.max([r["pseudo_norm"] for r in rows])),
        "glued": gd is not None,
    }

    l2_summary = None
    if entry is not None and entry.l2:
        l2_summary = {"available": True, "params": entry.l2}

    doc = {
        "input": {"target": args.target, "digest": digest},
        "config": _config_echo(args, trunc=args.trunc),
        "polygon": {"slopes": [[*s.as_integer_ratio(), m] for s, m in poly.slopes],
                    "irregularity": [*poly.irregularity.as_integer_ratio()]},
        "ramification": model.ram,
        "model": model_to_dict(model),
        "metric": metric_summary,
        "index": index_summary,
        "l2": l2_summary,
    }
    _emit(doc, args.out)
    if args.out:
        write_csv(os.path.splitext(args.out)[0] + ".metric.csv", rows)
    return 0


def _number(key: str, val):
    """A number (not a bool or a string) from an l2 parameter file, or ParseError."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(f"{key} must be a number, got {val!r}")
    return val


def _pair(key: str, val) -> tuple:
    """Two numbers from an l2 parameter file, or ParseError."""
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        raise ParseError(f"{key} must be a pair of numbers, got {val!r}")
    return tuple(_number(f"{key} entry", x) for x in val)


def _finite_width(sector) -> bool:
    """Whether (hi − lo)² is a finite float, so that lo and hi are too."""
    try:
        lo, hi = map(float, sector)
        return math.isfinite((hi - lo) ** 2)
    except OverflowError:  # an end past a float, or a square past one
        return False


def _l2_data(target: str):
    """WeightedLineData, sector/inner bookkeeping and digest of a name or file."""
    entry, params, digest = _read_target(target)
    if entry is not None:
        if not entry.l2:
            raise ParseError(f"catalog entry {target!r} has no rank-1 weight data")
        params = entry.l2
    sector = _pair("sector", params.get("sector", (0.0, 2.0 * math.pi)))
    if not sector[0] < sector[1]:
        raise ParseError(f"sector {list(sector)} must have increasing ends")
    if not _finite_width(sector):
        raise ParseError(f"sector {list(sector)} must have finite ends and a "
                         f"width whose square is a finite float")
    inner = _pair("inner", params.get(
        "inner", (sector[0] + 0.25 * (sector[1] - sector[0]),
                  sector[1] - 0.25 * (sector[1] - sector[0]))))
    sub_sector = params.get("sub_sector")
    if sub_sector is not None:
        sub_sector = _pair("sub_sector", sub_sector)
    for key, sub in (("inner", inner), ("sub_sector", sub_sector)):
        if sub is not None and not sector[0] <= sub[0] < sub[1] <= sector[1]:
            raise ParseError(f"{key} {list(sub)} must have increasing ends "
                             f"inside sector {list(sector)}")
    a_ell = params.get("a_ell", 0.0)
    a_ell = (complex(*_pair("a_ell", a_ell)) if isinstance(a_ell, (list, tuple))
             else _number("a_ell", a_ell))
    try:
        d = WeightedLineData.create(
            beta=_number("beta", params.get("beta", 0.0)),
            kappa=params.get("kappa", 0), ell=params.get("ell", 1),
            a_ell=a_ell, sector=sector,
            r1=_number("r1", params.get("r1", 0.5)))
    except (TypeError, ValueError, OverflowError, DomainError) as exc:
        raise ParseError(f"bad l2 parameters: {exc}") from exc
    return d, sector, inner, sub_sector, digest


def cmd_l2verify(args) -> int:
    d, sector, inner, sub_sector, digest = _l2_data(args.target)
    g = SectorGrid.make(sector=sector, r1=d.r1, preset=args.grid)
    width = sector[1] - sector[0]

    psi = l2lab.psi_profile(d, range(-5, 6), g, sub_sector=sub_sector)
    hardy_c = l2lab.hardy_angular(d, inner, sector, g)
    hardy_ok = hardy_c <= width ** 2 + 1e-9
    vanish = l2lab.vanishing_report(d, trials=args.trials, g=g, seed=args.seed)
    vanish_ok = all(r["verdict"] == "ok" for r in vanish)

    doc = {
        "input": {"target": args.target, "digest": digest},
        "config": _config_echo(args, grid=args.grid),
        "excluded_case": d.excluded,
        # φ = a_ℓ z^{−ℓ}, so the proof's sign identities hold up to r1
        "phase": {"r_phi": d.r1 if d.a_ell != 0 else None, "tau": d.tau,
                  "ell": d.ell},
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
        write_csv(base + ".psi.csv", psi["table"])
        write_csv(base + ".vanishing.csv", vanish)
    if not d.excluded and (not hardy_ok or not vanish_ok):
        return EXIT_BOUND
    return 0


def cmd_catalog(args) -> int:
    rows = catalog.entries()
    if args.json:
        _emit({"entries": rows}, args.out)
    else:
        _write("".join(f"{r['name']:<16} rank {r['rank']}  {r['description']}\n"
                       for r in rows), args.out)
    return 0


def _at_least(least: int):
    """argparse type: an integer no smaller than least (else exit 2)."""
    def integer(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="connexion-lab",
                                description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0,
                        help="Monte Carlo seed")
        sp.add_argument("--out", default=None, help="report output path")

    a = sub.add_parser("analyze", help="full pipeline on a spec or name")
    a.add_argument("target")
    a.add_argument("--trunc", type=_at_least(0), default=24,
                   help="series truncation budget")
    common(a)

    l = sub.add_parser("l2verify", help="weighted-L² verification")
    l.add_argument("target")
    l.add_argument("--trials", type=_at_least(1), default=5,
                   help="Monte Carlo trials for the vanishing report")
    l.add_argument("--grid", choices=tuple(l2lab.PRESETS),
                   default="default", help="quadrature preset")
    common(l)

    c = sub.add_parser("catalog", help="list built-in examples")
    c.add_argument("--json", action="store_true")
    c.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a wrapper put on cli.cmd_analyze after import runs
    command = {"analyze": cmd_analyze, "l2verify": cmd_l2verify,
               "catalog": cmd_catalog}[args.command]
    try:
        return command(args)
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
