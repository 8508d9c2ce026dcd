"""The four workloads: input corpora made from a seed, and their referees.

A workload is a list of rounds of items; an item is a short chain of CLI
jobs run in order (a later job may read an earlier job's output).  A
round holds one item per stratum of input size, and runs measure whole
rounds, so every run sees the same mix of sizes whatever the seed.

Every job declares the exit code it expects and carries a referee: a check
of its output by code other than the command under test (the dense
oracle, the read-back parser, a ``Builder`` re-import), run outside the
timed region.  A referee raises :class:`Rejected` or returns the output's
sizes.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from zhdd.algebra import canonical_from_vector
from zhdd.errors import ResourceLimitError
from zhdd.generate import (
    EXACT_FACTORS,
    random_dag,
    random_vector,
    scramble,
    shared_cofactor_vector,
    tree_from_vector,
)
from zhdd.oracle import interpret_sqmdd, interpret_zh, vector_from_json
from zhdd.sqmdd import Builder, Sqmdd, iso_equal, sqmdd_from_json, sqmdd_to_json
from zhdd.terms import Swap, iter_generators, term_from_json
from zhdd.translate import generator_state_sqmdd, sqmdd_read_back

WHY = {
    "roundtrip": "Small random diagrams through to-zh, to-sqmdd, check-equiv, interpret "
                 "and canonical: network contraction and the algebra ops dominate",
    "emit": "to-zh on Z/H chains and random diagrams of height 4 to 32: output size and "
            "JSON encoding dominate, and the deepest chains crash",
    "reduce": "reduce on scrambled naive trees of 63 to 511 nodes: the rewriter's "
              "per-step candidate scans dominate",
    "dense": "canonical, interpret and check-equiv on vectors of 2^12 to 2^16 entries: "
             "fresh unique-table builds, read-only checks, MB-scale JSON",
}

# Referee tolerance on dense entries, relative to the largest magnitude.
TOL = 1e-8
# The referee evaluates an emitted term densely only below these sizes;
# larger terms are checked by read-back alone.
DENSE_TERM_MAX_WIRES = 12
DENSE_TERM_MAX_GENERATORS = 4000


class Rejected(Exception):
    """The referee found the output wrong."""


@dataclass
class Job:
    cmd: str
    argv: list[str]
    expect: int  # exit code the job must return
    check: Callable[[str, Optional[str]], dict]  # (stdout, output path) -> sizes
    out: Optional[str]
    in_height: int
    in_nodes: int


@dataclass
class Item:
    label: str
    jobs: list[Job] = field(default_factory=list)


# ---------------------------------------------------------------------------
# helpers


def canonical(d: Sqmdd) -> Sqmdd:
    """The reduced form of a diagram, built by hash-consing re-import."""
    bld = Builder()
    return bld.finish(bld.import_edge(d, (d.scalar, d.root)), d.height)


def sample_dag(rng: np.random.Generator, height: int, nodes: int,
               zeros: Optional[int] = None) -> Sqmdd:
    """A reduced random diagram with exactly ``nodes`` nodes (and, if
    given, exactly ``zeros`` exact-zero edges)."""
    for _ in range(5000):
        d = canonical(random_dag(rng, height))
        if len(d.nodes) == nodes and (zeros is None or zeros == sum(
                (n.w0 == 0) + (n.w1 == 0) for n in d.nodes.values())):
            return d
    raise RuntimeError(f"no {nodes}-node diagram of height {height} found")


def write_json(path: str, obj) -> None:
    # json.dumps takes the C encoder; json.dump to a file would not
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))


def write_vector(path: str, v: np.ndarray) -> None:
    write_json(path, np.stack([v.real, v.imag], axis=1).tolist())


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def same_vector(got: np.ndarray, want: np.ndarray, what: str) -> None:
    got = np.asarray(got, dtype=complex).reshape(-1)
    if got.shape != want.shape:
        raise Rejected(f"{what}: {got.size} entries, expected {want.size}")
    dev = float(np.max(np.abs(got - want), initial=0.0))
    if dev > TOL * max(1.0, float(np.max(np.abs(want), initial=0.0))):
        raise Rejected(f"{what}: deviates from the input by {dev:.3e}")


# ---------------------------------------------------------------------------
# referees


def diagram_check(vec: np.ndarray, expect: Optional[Sqmdd] = None, key: Optional[str] = None):
    """Output is a diagram denoting ``vec`` (and equal to ``expect``)."""
    def check(_stdout: str, out: Optional[str]) -> dict:
        obj = load(out)
        sizes = {}
        if key is not None:
            sizes["out_steps"] = len(obj["trace"])
            obj = obj[key]
        d = sqmdd_from_json(obj)
        same_vector(interpret_sqmdd(d), vec, "dense oracle")
        if expect is not None and not iso_equal(d, expect):
            raise Rejected("not the Builder's reduced form of the input")
        sizes["out_nodes"] = len(d.nodes)
        return sizes
    return check


def vector_check(vec: np.ndarray):
    def check(_stdout: str, out: Optional[str]) -> dict:
        same_vector(vector_from_json(load(out)), vec, "interpreted vector")
        return {}
    return check


def term_check(d: Sqmdd, vec: Optional[np.ndarray]):
    """Output is a term that reads back to ``d`` and, where small enough to
    evaluate densely, denotes ``vec``."""
    def check(_stdout: str, out: Optional[str]) -> dict:
        term = term_from_json(load(out))
        gens = swaps = 0
        for kind in iter_generators(term):
            gens += 1
            swaps += isinstance(kind, Swap)
        back = sqmdd_read_back(term)
        if not iso_equal(back, d):
            raise Rejected("term reads back to a different diagram")
        if vec is not None and term.n_out <= DENSE_TERM_MAX_WIRES \
                and gens <= DENSE_TERM_MAX_GENERATORS:
            try:
                same_vector(interpret_zh(term), vec, "dense term")
            except ResourceLimitError:
                pass  # an intermediate width is over the dense cap
        return {"out_generators": gens, "out_swaps": swaps}
    return check


def verdict_check(word: str):
    def check(stdout: str, _out: Optional[str]) -> dict:
        if not stdout.startswith(word):
            raise Rejected(f"printed {stdout.strip()!r}, expected {word!r}")
        return {}
    return check


# ---------------------------------------------------------------------------
# workloads


def roundtrip(rng: np.random.Generator, work: str, rounds: int) -> list[list[Item]]:
    """Reduced random diagrams through to-zh, to-sqmdd, check-equiv,
    interpret and canonical.

    Strata are (height, nodes, exact-zero edges).  Height and node count fix
    the emitted network's size; zero edges make contraction cheaper.
    """
    strata = [(2, 1, 0), (4, 4, 1), (3, 2, 1), (5, 5, 1), (2, 2, 1), (4, 3, 0),
              (3, 3, 1), (5, 4, 1)]
    return [[roundtrip_item(sample_dag(rng, h, n, z), os.path.join(work, f"rt{r}.{k}_{h}_{n}"))
             for k, (h, n, z) in enumerate(strata)] for r in range(rounds)]


def roundtrip_item(d: Sqmdd, stem: str) -> Item:
    """to-zh, to-sqmdd on the emitted term, and check-equiv of the result
    against the input's dense vector; plus interpret and canonical on the
    input, so the dense oracle's CLI paths are measured too."""
    vec = interpret_sqmdd(d)
    src, zh, back = stem + ".json", stem + ".zh.json", stem + ".back.json"
    src_vec, out_i, out_c = stem + ".vec.json", stem + ".interp.json", stem + ".canon.json"
    write_json(src, sqmdd_to_json(d))
    write_vector(src_vec, vec)
    size = (d.height, len(d.nodes))
    return Item(os.path.basename(stem), [
        Job("to-zh", ["to-zh", src, "-o", zh], 0, term_check(d, vec), zh, *size),
        Job("to-sqmdd", ["to-sqmdd", zh, "-o", back], 0, diagram_check(vec), back, *size),
        Job("check-equiv", ["check-equiv", back, src_vec], 0, verdict_check("EQUIVALENT"),
            None, *size),
        Job("interpret", ["interpret", src, "-o", out_i], 0, vector_check(vec), out_i, *size),
        Job("canonical", ["canonical", src_vec, "-o", out_c], 0, diagram_check(vec), out_c,
            *size),
    ])


def emit(rng: np.random.Generator, work: str, rounds: int) -> list[list[Item]]:
    """to-zh on heights 4 to 32: Z-spider and H-box state chains (fixed by
    height) and reduced random diagrams of fixed node count.

    The random diagrams are kept small so that the median and the 75th
    percentile fall on chains, whose cost does not depend on the seed.
    """
    strata = [("dag", 4, 3), ("z", 16), ("h", 8), ("z", 6), ("dag", 8, 4), ("h", 12),
              ("h", 4), ("z", 8), ("dag", 16, 3), ("h", 32), ("h", 10), ("h", 6),
              ("z", 7), ("dag", 32, 2), ("h", 14), ("z", 32), ("z", 4), ("h", 16)]
    out = []
    for r in range(rounds):
        items = []
        for k, s in enumerate(strata):
            if s[0] == "dag":
                d = sample_dag(rng, s[1], s[2])
            else:
                d = generator_state_sqmdd(s[0], s[1])
            stem = f"em{r}.{k}_{'_'.join(map(str, s))}"
            items.append(emit_item(d, os.path.join(work, stem)))
        out.append(items)
    return out


def emit_item(d: Sqmdd, stem: str) -> Item:
    vec = interpret_sqmdd(d) if d.height <= 16 else None
    src, zh = stem + ".json", stem + ".zh.json"
    write_json(src, sqmdd_to_json(d))
    return Item(os.path.basename(stem), [
        Job("to-zh", ["to-zh", src, "-o", zh], 0, term_check(d, vec), zh,
            d.height, len(d.nodes)),
    ])


def reduce(rng: np.random.Generator, work: str, rounds: int) -> list[list[Item]]:
    """reduce on scrambled naive trees, heights 6 to 9 (63 to 511 nodes).

    Strata are (height, kind): ``random_vector`` makes both mostly-zero and
    mostly-non-zero vectors, and zeros let the rewriter finish sooner.
    """
    strata = [(6, "full"), (7, "sparse"), (8, "full"), (9, "sparse"), (6, "sparse"),
              (7, "full"), (8, "sparse"), (6, "full"), (7, "sparse"), (8, "full"),
              (9, "full"), (6, "sparse"), (7, "full"), (8, "sparse")]
    return [[reduce_item(sample_vector(rng, h, kind), rng,
                         os.path.join(work, f"rd{r}.{k}_{h}_{kind}"))
             for k, (h, kind) in enumerate(strata)] for r in range(rounds)]


def sample_vector(rng: np.random.Generator, height: int, kind: str) -> np.ndarray:
    """A ``random_vector`` with under half ("full") or half to all but one
    ("sparse") of its entries exactly zero."""
    while True:
        v = random_vector(rng, height)
        zeros = int(np.count_nonzero(v == 0))
        if (zeros < v.size // 2) == (kind == "full") and zeros < v.size - 1:
            return v


def reduce_item(vec: np.ndarray, rng: np.random.Generator, stem: str) -> Item:
    d = scramble(tree_from_vector(vec), rng)
    src, out = stem + ".json", stem + ".out.json"
    write_json(src, sqmdd_to_json(d))
    return Item(os.path.basename(stem), [
        Job("reduce", ["reduce", src, "-o", out], 0,
            diagram_check(vec, canonical(d), key="result"), out, d.height, len(d.nodes)),
    ])


def dense(rng: np.random.Generator, work: str, rounds: int) -> list[list[Item]]:
    """Vectors of 2^12, 2^14 and 2^16 entries, with little sharing
    (``random_vector``, mostly non-zero) or heavy sharing
    (``shared_cofactor_vector``).  A little-sharing vector of 2^16 entries
    would take a third of a run by itself, so those stop at 2^14.  The
    sizes are spaced so that the median job falls within one stratum."""
    strata = [(12, "rand", 0), (14, "shared", 1), (16, "shared", 0), (12, "shared", 1),
              (14, "rand", 1)]
    return [[dense_item(sample_vector(rng, h, "full") if kind == "rand"
                        else sample_shared(rng, h), rng,
                        os.path.join(work, f"dn{r}.{k}_{h}_{kind}"), differ)
             for k, (h, kind, differ) in enumerate(strata)] for r in range(rounds)]


def sample_shared(rng: np.random.Generator, height: int) -> np.ndarray:
    """A ``shared_cofactor_vector`` whose blocks hold 2^(H-11) to 2^(H-8)
    entries, seen as 2^(H-8) to 2^(H-5) distinct values (2 patterns times
    4 scalars); the block size sets how large the reduced diagram is."""
    while True:
        v = shared_cofactor_vector(rng, height)
        if 2 ** (height - 8) <= np.unique(v).size <= 2 ** (height - 5):
            return v


def dense_item(vec: np.ndarray, rng: np.random.Generator, stem: str, differ: int) -> Item:
    """canonical, interpret, and one check-equiv pair: an exactly scaled
    copy (EQUIVALENT, exit 0) or, with ``differ``, a copy with two entries
    moved (NOT EQUIVALENT, exit 1)."""
    d = canonical_from_vector(vec)
    if differ:
        other = vec.copy()
        other[rng.choice(vec.size, size=2, replace=False)] += np.array([1.0 + 0.5j, -2.0j])
    else:
        other = vec * EXACT_FACTORS[int(rng.integers(len(EXACT_FACTORS)))]
    src, dd, oth = stem + ".vec.json", stem + ".dd.json", stem + ".other.json"
    out_c, out_i = stem + ".canon.json", stem + ".interp.json"
    write_vector(src, vec)
    write_vector(oth, other)
    write_json(dd, sqmdd_to_json(d))
    size = (d.height, len(d.nodes))
    return Item(os.path.basename(stem), [
        Job("canonical", ["canonical", src, "-o", out_c], 0, diagram_check(vec), out_c, *size),
        Job("interpret", ["interpret", dd, "-o", out_i], 0, vector_check(vec), out_i, *size),
        Job("check-equiv", ["check-equiv", "--up-to-scalar", src, oth], differ,
            verdict_check("NOT EQUIVALENT" if differ else "EQUIVALENT"), None, *size),
    ])


def warmup(name: str, rng: np.random.Generator, work: str) -> list[Item]:
    """One small item per job kind, run untimed so lazy imports finish."""
    stem = os.path.join(work, "warm")
    if name == "roundtrip":
        return [roundtrip_item(sample_dag(rng, 2, 1), stem)]
    if name == "emit":
        return [emit_item(generator_state_sqmdd("h", 3), stem)]
    if name == "reduce":
        return [reduce_item(random_vector(rng, 3), rng, stem)]
    return [dense_item(random_vector(rng, 4), rng, stem, differ)
            for differ, stem in ((0, stem), (1, stem + "1"))]


# name -> (corpus builder, rounds in the corpus, tail percentile).  A run
# cycles the rounds.  The tail percentile is fixed per workload, so that runs
# with more or fewer jobs report the same percentile: one of 50/75/90/95/99
# that leaves at least 10 completed jobs beyond it in a 45-second run at the
# seed.  "emit" and "dense" are not in BENCHMARK.json: their medians and
# tails moved by up to 40% between sets of seeds, but they still run by
# hand, and emit shows the deep-chain crash.
WORKLOADS = {
    "roundtrip": (roundtrip, 8, 90),
    "emit": (emit, 4, 75),
    "reduce": (reduce, 6, 75),
    "dense": (dense, 2, 75),
}
