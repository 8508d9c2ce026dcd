#!/usr/bin/env python3
"""One hash per CLI output corpus, to show that a change keeps every output
byte-identical.

Run it on both trees, the parent and the change, each with its own
``src`` on the path, and compare the printed lines:

    PYTHONPATH=src python3 scripts/output_digest.py

Each line is ``name count sha256``: the hash is taken over the corpus's
outputs, one per line, each exactly as the CLI writes it (compact JSON,
diagrams renumbered).  The corpora are fixed, and the script takes no
options:

- ``to-sqmdd``: 600 ``random_term``\\ s (rng 2026, at most 12 generators,
  boundary at most 8);
- ``to-zh+to-sqmdd``: 300 ``canonical(random_dag(rng, 1 + k % 5))``
  (rng 9), each emitted by ``to-zh`` and read back by ``to-sqmdd``; both
  outputs are hashed, the term's first;
- ``reduce``: 200 scrambled naive trees of ``random_vector``\\ s of height
  ``1 + k % 7`` (rng 11), result and trace.

It needs nothing beyond zhdd and numpy, zhdd's own dependency, whose
seeded generators make the corpora.
"""
import hashlib
import json

import numpy as np

from zhdd.algebra import canonical
from zhdd.generate import random_dag, random_term, random_vector, scramble, tree_from_vector
from zhdd.reduction import reduce_diagram
from zhdd.sqmdd import renumber, sqmdd_to_json
from zhdd.terms import term_to_json
from zhdd.translate import sqmdd_to_zh, zh_to_sqmdd


def to_sqmdd(t) -> str:
    return json.dumps(sqmdd_to_json(renumber(zh_to_sqmdd(t))))


def corpora():
    """``(name, outputs)`` of each corpus, outputs as the CLI writes them."""
    rng = np.random.default_rng(2026)
    yield "to-sqmdd", [to_sqmdd(random_term(rng, 12, 8)) for _ in range(600)]

    rng = np.random.default_rng(9)
    out = []
    for k in range(300):
        t = sqmdd_to_zh(canonical(random_dag(rng, 1 + k % 5)))
        out.append(json.dumps(term_to_json(t)) + "\n" + to_sqmdd(t))
    yield "to-zh+to-sqmdd", out

    rng = np.random.default_rng(11)
    out = []
    for k in range(200):
        d, steps = reduce_diagram(scramble(tree_from_vector(random_vector(rng, 1 + k % 7)), rng))
        out.append(json.dumps({"result": sqmdd_to_json(renumber(d)),
                               "trace": [s.to_json() for s in steps]}))
    yield "reduce", out


def main() -> None:
    for name, outputs in corpora():
        digest = hashlib.sha256("".join(o + "\n" for o in outputs).encode()).hexdigest()
        print(name, len(outputs), digest)


if __name__ == "__main__":
    main()
