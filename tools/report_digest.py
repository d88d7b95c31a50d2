"""Print a run count and one SHA-256 over what the CLI reports.

Per run of `analyze` or `l2verify`: its argv, exit code, stdout, stderr and
every file its --out wrote. Runs: each command on every catalog entry at
every --grid (`analyze` has none), and on every spec and parameter file of
the cli-sweep operations of seeds 1-5 (perfbench/gen.py), written as the
benchmark writes them; each with and without --out. The runs use relative
paths in a scratch directory, so a report that echoes its target does not
depend on where the directory lies.
A change that keeps the CLI's reports prints the line of its parent.

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

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d)
                for d in ("src", "perfbench")]

import gen  # noqa: E402
from connexion_lab import cli, l2lab  # noqa: E402
from run import spec_document  # noqa: E402


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


digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as scratch:
    os.chdir(scratch)
    for count, (argv, with_out) in enumerate(runs(), 1):
        run(argv, Path(f"out{count}") if with_out else None, digest)
print(count, digest.hexdigest())
