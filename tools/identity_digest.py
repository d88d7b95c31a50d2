"""Print a germ count and one SHA-256 over what the exact core computes.

Per germ: repr(germ), repr(formal_decompose(germ)) and local_full_dims(germ),
each "Class: message" if it raises. Germs: the catalog at truncs 0-3, 12, 24,
48, 96 and 192; every germ, matrix spec parsed back from JSON and model (at
truncs 12 and 24) of the reduce-germs and cli-sweep operations of seeds 1-5
(perfbench/gen.py); 400 seeded random germs of rank 1-3 in ram 1, 2 and 13.
A change that keeps the exact core's outputs prints the line of its parent.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d)
                for d in ("src", "perfbench")]

import gen  # noqa: E402
from connexion_lab import (CQ, ConnectionGerm, ElementaryModel, PuiseuxSeries,  # noqa: E402
                           assemble_matrix, formal_decompose, germ_or_model_from_dict,
                           ps_to_literal)
from connexion_lab.index import local_full_dims  # noqa: E402


def germs():
    for trunc in (0, 1, 2, 3, 12, 24, 48, 96, 192):
        yield from (entry.germ(trunc) for entry in gen.CATALOG.values())
    for op in (op for w in ("reduce-germs", "cli-sweep") for s in range(1, 6)
               for op in gen.WORKLOADS[w](s)):
        form, spec = op.args.get("spec", (None, None))
        for obj in (op.args.get("germ"), op.args.get("model"), op.expect.get("model"), spec):
            if isinstance(obj, ElementaryModel):
                yield from (assemble_matrix(obj, trunc=t) for t in (12, 24))
            elif obj is not None:
                yield obj
        if form == "matrix":
            yield germ_or_model_from_dict({"form": "matrix", "rank": spec.rank, "matrix": [
                [ps_to_literal(s) for s in row] for row in spec.matrix]})
    rng = random.Random(20261020)
    num = lambda: (rng.randint(-2, 2), rng.randint(1, 3))  # noqa: E731
    for _ in range(400):
        d, q, trunc = rng.randint(1, 3), rng.choice((1, 2, 13)), rng.randint(0, 6)
        yield ConnectionGerm.from_matrix([[PuiseuxSeries(q, {
            n: CQ.of(num(), num()) for n in range(-3, trunc + 1) if rng.random() < 0.4},
            trunc) for _ in range(d)] for _ in range(d)])


def outcome(fn, germ) -> str:
    try:
        return repr(fn(germ))
    except Exception as exc:  # an error is an outcome like any other
        return f"{type(exc).__name__}: {exc}"


digest = hashlib.sha256()
for count, g in enumerate(germs(), 1):
    digest.update(f"{g!r}\n{outcome(formal_decompose, g)}\n"
                  f"{outcome(local_full_dims, g)}\n".encode())
print(count, digest.hexdigest())
