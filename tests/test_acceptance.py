"""The seven acceptance gates, one test each.

Every gate prints a single PASS line (with its wall time) on success; a
failure reads as the usual pytest report.  Tolerance is 1e-9 throughout
and each gate carries a pinned runtime budget.  Everything is seeded, so
the gates are deterministic.
"""
import time

import numpy as np
import pytest

from zhdd.algebra import canonical_from_vector, plug_bra_plus, z_merge_outputs
from zhdd.claims import builtin_suite, run_suite
from zhdd.config import Settings
from zhdd.duality import to_state_form
from zhdd.generate import (
    random_dag,
    random_term,
    random_vector,
    scramble,
    shared_cofactor_vector,
    tree_from_vector,
)
from zhdd.oracle import (
    dense_merge_outputs,
    dense_plug_plus,
    interpret_sqmdd,
    interpret_zh,
    interpret_zh_state,
    max_deviation,
)
from zhdd.reduction import (
    apply_step,
    find_candidates,
    is_irreducible,
    reduce_diagram,
)
from zhdd.sqmdd import TERMINAL, Node, Sqmdd, iso_equal, measure
from zhdd.translate import sqmdd_to_zh, zh_to_sqmdd

TOL = 1e-9
S = Settings(max_qubits=24)


def report(cap, name: str, t0: float, budget: float) -> None:
    dt = time.time() - t0
    with cap.disabled():  # bypass capture: the PASS line should always show
        print(f"criterion {name}: PASS in {dt:.1f}s (budget {budget:.0f}s)")
    assert dt < budget, f"criterion {name} exceeded its {budget:.0f}s budget ({dt:.1f}s)"


def test_criterion_1_translation_soundness(capsys):
    """200 random diagrams, H <= 6: the emitted term interprets to
    exactly the diagram's vector."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    for k in range(200):
        h = 1 + k % 6
        d = random_dag(rng, h)
        t = sqmdd_to_zh(d)
        got = interpret_zh(t, S).reshape(-1)
        want = interpret_sqmdd(d, S)
        dev = max_deviation(got, want)
        assert dev <= TOL, f"instance {k} (H={h}): deviation {dev:.2e}"
    report(capsys, "1 (translation soundness)", t0, 60)


def test_criterion_2_canonicity(capsys):
    """200 vectors, H <= 6, with >= 20 heavy-sharing cases and the
    all-zero vector: three scrambled diagrams per vector all reduce to
    the same canonical form."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    vectors = []
    for k in range(160):
        vectors.append(random_vector(rng, 1 + k % 6))
    for k in range(39):
        vectors.append(shared_cofactor_vector(rng, 2 + k % 5))
    vectors.append(np.zeros(2**5, dtype=complex))  # all-zero, explicitly
    assert len(vectors) == 200

    for k, v in enumerate(vectors):
        tree = tree_from_vector(v)
        variants = [tree, scramble(tree, rng), scramble(tree, rng)]
        reduced = [reduce_diagram(d, S)[0] for d in variants]
        want = canonical_from_vector(v, S)
        for i, r in enumerate(reduced):
            assert iso_equal(r, want, S), f"vector {k}, variant {i}"
        assert iso_equal(reduced[0], reduced[1], S)
        assert iso_equal(reduced[1], reduced[2], S)
        assert iso_equal(reduced[0], reduced[2], S)
    report(capsys, "2 (canonicity)", t0, 60)


def test_criterion_3_normal_form_pipeline(capsys):
    """100 random terms (<= 12 non-wiring generators, boundary <= 8):
    contraction is irreducible and matches the bent term exactly —
    same scalar, not merely colinear."""
    t0 = time.time()
    rng = np.random.default_rng(303)
    for k in range(100):
        t = random_term(rng, max_generators=12, max_boundary=8)
        d = zh_to_sqmdd(t, S)
        assert is_irreducible(d, S), f"term {k}: output not irreducible"
        s = to_state_form(t) if t.n_in else t
        want = interpret_zh_state(s, S)
        dev = max_deviation(interpret_sqmdd(d, S), want)
        assert dev <= TOL, f"term {k}: deviation {dev:.2e}"
    report(capsys, "3 (normal-form pipeline)", t0, 120)


def _rand_w(rng):
    while True:
        w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(w) > 1e-2 and abs(w - 1) > 1e-2:
            return w


def _rule_instance(rule: str, rng) -> Sqmdd:
    """A diagram guaranteed to contain a redex of the given rule."""
    w, v, u = _rand_w(rng), _rand_w(rng), _rand_w(rng)
    if rule == "zero":
        roll = rng.random()
        if roll < 0.4:
            # an exactly-zero scalar over arbitrary live structure
            d = random_dag(rng, 1 + int(rng.integers(3)))
            return Sqmdd(0j, d.height, d.root, dict(d.nodes))
        if roll < 0.7:
            # grid-zero (but nonzero) scalar; keep the structure weights
            # bounded so the collapse stays inside the 1e-9 tolerance
            return Sqmdd(1e-12 + 0j, 2, 2, {
                1: Node(1, 1 + 0j, TERMINAL, 1j, TERMINAL),
                2: Node(2, 1 + 0j, 1, -0.5 + 0j, 1),
            })
        return Sqmdd(u, 2, 2, {
            1: Node(1, 1 + 0j, TERMINAL, w, TERMINAL),
            2: Node(2, 0j, 1, 3e-10 + 0j, 1),  # both grid-zero at the root
        })
    if rule == "r1":
        return Sqmdd(u, 2, 2, {
            1: Node(1, w * 2, TERMINAL, v, TERMINAL),
            2: Node(2, 1 + 0j, 1, v, TERMINAL),
        })
    if rule == "r2":
        return Sqmdd(u, 2, 2, {
            1: Node(1, 0j, TERMINAL, w + 2, TERMINAL),
            2: Node(2, 1 + 0j, 1, v, 1),
        })
    if rule == "r3":
        return Sqmdd(u, 2, 2, {
            1: Node(1, 1 + 0j, TERMINAL, w, TERMINAL),
            2: Node(2, 0j, 1, v, 1),  # zero-weight edge into a live node
        })
    if rule == "r4":
        d = random_dag(rng, 1 + int(rng.integers(3)))
        orphan_id = max(d.nodes, default=0) + 1
        nodes = dict(d.nodes)
        nodes[orphan_id] = Node(1, 1 + 0j, TERMINAL, w, TERMINAL)
        return Sqmdd(d.scalar, d.height, d.root, nodes)
    if rule == "r5":
        return Sqmdd(u, 2, 2, {
            1: Node(1, 1 + 0j, TERMINAL, 1 + 0j, TERMINAL),  # skippable
            2: Node(2, w, 1, v, TERMINAL),
        })
    if rule == "r6":
        return Sqmdd(u, 2, 3, {
            1: Node(1, 1 + 0j, TERMINAL, w, TERMINAL),
            2: Node(1, 1 + 0j, TERMINAL, w, TERMINAL),  # duplicate key
            3: Node(2, 1 + 0j, 1, v, 2),
        })
    raise AssertionError(rule)


def test_criterion_4_reduction_system(capsys):
    """Per rule, 50 targeted instances: the redex is present, every
    applied step preserves the interpretation and strictly decreases the
    measure, and the fixpoint is irreducible."""
    t0 = time.time()
    rng = np.random.default_rng(404)
    rules = ("zero", "r1", "r2", "r3", "r4", "r5", "r6")
    for rule in rules:
        for k in range(50):
            d = _rule_instance(rule, rng)
            assert any(c[0] == rule for c in find_candidates(d, S)), (
                f"{rule} instance {k} has no {rule} redex"
            )
            reference = interpret_sqmdd(d, S)
            cur, m = d, measure(d, S)
            while True:
                cands = find_candidates(cur, S)
                if not cands:
                    break
                cur, _ = apply_step(cur, cands[0], S)
                m2 = measure(cur, S)
                assert m2 < m, f"{rule} instance {k}: measure {m} -> {m2}"
                m = m2
                dev = max_deviation(interpret_sqmdd(cur, S), reference)
                assert dev <= TOL, f"{rule} instance {k}: deviation {dev:.2e}"
            assert is_irreducible(cur, S)
    report(capsys, "4 (reduction system)", t0, 30)


def test_criterion_5_worked_example(capsys):
    """The 16-entry vector with prefactor 3/sqrt(2): canonical form,
    interpretation, and emitted term all agree entrywise."""
    t0 = time.time()
    s = 1 / np.sqrt(2)
    vec = (3 / np.sqrt(2)) * np.array(
        [1, 0, 0, 0, s, s, s, s, -s, 0, 0, 0, -1j, 0, -1j, 0],
        dtype=complex,
    )
    d = canonical_from_vector(vec, S)
    assert d.height == 4
    assert is_irreducible(d, S)
    assert np.max(np.abs(interpret_sqmdd(d, S) - vec)) <= TOL
    t = sqmdd_to_zh(d)
    emitted = interpret_zh(t, S).reshape(-1)
    assert np.max(np.abs(emitted - vec)) <= TOL
    report(capsys, "5 (worked example)", t0, 1)


def test_criterion_6_equational_suite(capsys):
    """Every built-in claim passes at 20 samples; skipped figure-only
    statements carry reasons; the corrupted controls deviate."""
    t0 = time.time()
    results = run_suite(S, samples=None)  # claims carry their own counts
    assert len(results) == len(builtin_suite())
    failures = [r for r in results if not r.ok]
    assert not failures, [(r.name, r.note) for r in failures]
    skipped = [r for r in results if r.status == "skipped"]
    assert skipped and all(r.note for r in skipped)
    controls = [r for r in results if r.origin == "negative control"]
    assert controls
    for r in controls:
        assert r.max_deviation > 1e-6, f"{r.name}: corrupted claim did not deviate"
    labelled = {r.name: r for r in results}
    assert "snake" in labelled and "scalar-product" in labelled
    report(capsys, "6 (equational suite)", t0, 60)


def test_criterion_7_contraction_primitives(capsys):
    """z_merge_outputs and plug_bra_plus against independent dense
    implementations, 200 random diagrams, H <= 6."""
    t0 = time.time()
    rng = np.random.default_rng(707)
    for k in range(200):
        h = 2 + k % 5
        d = random_dag(rng, h)
        vec = interpret_sqmdd(d, S)
        i = int(rng.integers(h - 1))
        j = int(rng.integers(i + 1, h))
        merged = z_merge_outputs(d, i, j, S)
        dev = max_deviation(interpret_sqmdd(merged, S), dense_merge_outputs(vec, h, i, j))
        assert dev <= TOL, f"merge instance {k}: deviation {dev:.2e}"
        p = int(rng.integers(h))
        plugged = plug_bra_plus(d, p, S)
        dev = max_deviation(interpret_sqmdd(plugged, S), dense_plug_plus(vec, h, p))
        assert dev <= TOL, f"plug instance {k}: deviation {dev:.2e}"
    report(capsys, "7 (contraction primitives)", t0, 30)
