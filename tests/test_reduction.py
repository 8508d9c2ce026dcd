"""The six simplification rules plus the zero collapse: soundness,
termination measure, confluence to the unique irreducible form."""
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from zhdd.algebra import canonical, canonical_from_vector
from zhdd.generate import random_dag, random_vector, scramble, tree_from_vector
from zhdd.oracle import interpret_sqmdd, max_deviation
from zhdd.reduction import (
    RULE_ORDER,
    apply_step,
    find_candidates,
    is_irreducible,
    reduce_diagram,
)
from zhdd.sqmdd import (
    TERMINAL,
    Builder,
    Node,
    Sqmdd,
    iso_equal,
    measure,
    structurally_same,
    terminal_only,
    zero_form,
)

from conftest import SCRAMBLE_MOVES, small_vectors


def rules_of(d):
    return {c[0] for c in find_candidates(d)}


# --- targeted redexes, one per rule ------------------------------------------


def test_rule_order_is_fixed():
    assert RULE_ORDER == ("zero", "r3", "r4", "r2", "r1", "r5", "r6")


def test_r1_fires_on_non_unit_first_weight():
    d = Sqmdd(1 + 0j, 1, 1, {1: Node(1, 2 + 0j, TERMINAL, 6 + 0j, TERMINAL)})
    assert "r1" in rules_of(d)
    out, step = apply_step(d, [c for c in find_candidates(d) if c[0] == "r1"][0])
    assert step.rule == "r1"
    assert out.scalar == 2 + 0j
    assert out.nodes[out.root].w0 == 1 + 0j
    assert out.nodes[out.root].w1 == 3 + 0j


def test_r2_fires_on_zero_then_non_unit():
    d = Sqmdd(1 + 0j, 1, 1, {1: Node(1, 0j, TERMINAL, 4 + 0j, TERMINAL)})
    assert "r2" in rules_of(d)
    out, _ = apply_step(d, [c for c in find_candidates(d) if c[0] == "r2"][0])
    assert out.scalar == 4 + 0j
    assert out.nodes[out.root].edge(1) == (1 + 0j, TERMINAL)


def test_r3_redirects_zero_edge_to_terminal():
    d = Sqmdd(1 + 0j, 2, 2, {
        1: Node(1, 1 + 0j, TERMINAL, 2 + 0j, TERMINAL),
        2: Node(2, 0j, 1, 1 + 0j, 1),
    })
    assert "r3" in rules_of(d)
    out, _ = apply_step(d, [c for c in find_candidates(d) if c[0] == "r3"][0])
    assert out.nodes[out.root].c0 == TERMINAL


def test_r4_deletes_orphan():
    d = Sqmdd(1 + 0j, 1, 1, {
        1: Node(1, 1 + 0j, TERMINAL, 2 + 0j, TERMINAL),
        9: Node(1, 1 + 0j, TERMINAL, 3 + 0j, TERMINAL),  # unreachable
    })
    assert "r4" in rules_of(d)
    out, _ = apply_step(d, [c for c in find_candidates(d) if c[0] == "r4"][0])
    assert set(out.nodes) == {1}


def test_r5_skips_redundant_node():
    d = Sqmdd(1 + 0j, 2, 2, {
        1: Node(1, 1 + 0j, TERMINAL, 1 + 0j, TERMINAL),  # (1,1) same child
        2: Node(2, 3 + 0j, 1, 1 + 0j, TERMINAL),
    })
    assert "r5" in rules_of(d)
    out, _ = apply_step(d, [c for c in find_candidates(d) if c[0] == "r5"][0])
    assert 1 not in set(out.nodes) or out.nodes[out.root].c0 == TERMINAL


def test_r6_merges_duplicate_nodes():
    twin = dict(height=1, w0=1 + 0j, c0=TERMINAL, w1=5 + 0j, c1=TERMINAL)
    d = Sqmdd(1 + 0j, 2, 3, {
        1: Node(**twin),
        2: Node(**twin),
        3: Node(2, 1 + 0j, 1, 1j, 2),
    })
    assert "r6" in rules_of(d)
    out, _ = apply_step(d, [c for c in find_candidates(d) if c[0] == "r6"][0])
    n = out.nodes[out.root]
    assert n.c0 == n.c1


def test_zero_rule_collapses_grid_zero_scalar():
    d = Sqmdd(1e-12 + 0j, 1, 1, {1: Node(1, 1 + 0j, TERMINAL, 2 + 0j, TERMINAL)})
    assert "zero" in rules_of(d)
    out, _ = reduce_diagram(d)
    assert iso_equal(out, zero_form(1))


def test_zero_rule_collapses_all_zero_root():
    d = Sqmdd(3 + 0j, 1, 1, {1: Node(1, 0j, TERMINAL, 0j, TERMINAL)})
    out, _ = reduce_diagram(d)
    assert iso_equal(out, zero_form(1))


# --- global properties --------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
def test_reduction_preserves_interpretation(seed):
    rng = np.random.default_rng(seed)
    d = random_dag(rng, 1 + seed % 5)
    before = interpret_sqmdd(d)
    out, steps = reduce_diagram(d)
    assert max_deviation(interpret_sqmdd(out), before) <= 1e-9
    assert is_irreducible(out)


@given(seed=st.integers(0, 2**32 - 1))
def test_measure_strictly_decreases_stepwise(seed):
    rng = np.random.default_rng(seed)
    cur = scramble(tree_from_vector(random_vector(rng, 3)), rng)
    m = measure(cur)
    while True:
        cands = find_candidates(cur)
        if not cands:
            break
        cur, _ = apply_step(cur, cands[0])
        m2 = measure(cur)
        assert m2 < m, f"measure did not drop: {m} -> {m2}"
        m = m2


@given(seed=st.integers(0, 2**32 - 1))
def test_rule_choice_does_not_matter(seed):
    """Deterministic and uniformly-random candidate picking land on the
    same irreducible diagram (confluence, observed)."""
    rng = np.random.default_rng(seed)
    d = scramble(tree_from_vector(random_vector(rng, 3)), rng)
    a, _ = reduce_diagram(d)
    b, _ = reduce_diagram(d, rng=np.random.default_rng(seed ^ 0xFFFF))
    assert iso_equal(a, b)


@given(seed=st.integers(0, 2**32 - 1))
def test_reduce_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    d = random_dag(rng, 1 + seed % 4)
    once, _ = reduce_diagram(d)
    twice, steps = reduce_diagram(once)
    assert steps == []
    assert iso_equal(once, twice)


@given(vec=small_vectors(max_height=4))
@example(vec=np.array([0.25j, 3.04e-10j]))  # r1 must snap the zero-cell weight
def test_reduction_reaches_the_canonical_form(vec):
    got, _ = reduce_diagram(tree_from_vector(vec))
    want = canonical_from_vector(vec)
    assert iso_equal(got, want)


def test_all_ones_tree_collapses_to_terminal():
    d = tree_from_vector(np.ones(16, dtype=complex))
    out, steps = reduce_diagram(d)
    assert not out.nodes
    assert out.scalar == 1 + 0j
    assert steps  # the cascade actually did something


def test_trace_records_are_serializable():
    d = tree_from_vector(np.array([1, 1, 2, 2], dtype=complex))
    _, steps = reduce_diagram(d)
    for s in steps:
        obj = s.to_json()
        assert obj["rule"] in RULE_ORDER


# --- the incremental engine against the full scan ----------------------------


def scan_reduce(d, rng=None):
    """The reference loop: a full candidate scan before every step."""
    cur, steps = d, []
    while True:
        cands = find_candidates(cur)
        if not cands:
            return cur, steps
        pick = cands[0] if rng is None else cands[int(rng.integers(len(cands)))]
        cur, step = apply_step(cur, pick)
        steps.append(step)


def exact(d):
    """Everything a reduction result carries, node order included."""
    return d.scalar, d.height, d.root, list(d.nodes.items())


def assert_same_run(d, seed):
    for make_rng in (lambda: None, lambda: np.random.default_rng(seed)):
        got, got_steps = reduce_diagram(d, rng=make_rng())
        want, want_steps = scan_reduce(d, rng=make_rng())
        assert got_steps == want_steps
        assert exact(got) == exact(want)


@given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 5),
       kind=st.sampled_from(["scrambled", "dag"]))
def test_engine_matches_the_full_scan(seed, height, kind):
    """Deterministic and seeded random runs pick the same candidate, step
    for step, as a loop that rescans the whole diagram before each step."""
    rng = np.random.default_rng(seed)
    if kind == "dag":
        d = random_dag(rng, height)
    else:
        d = scramble(tree_from_vector(random_vector(rng, height)), rng)
    assert_same_run(d, seed)


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_the_full_scan_at_height_7(seed):
    rng = np.random.default_rng(700 + seed)
    d = scramble(tree_from_vector(random_vector(rng, 7)), rng)
    assert_same_run(d, seed)


def test_one_normal_form_two_engines():
    """The rewriter and the hash-consing Builder agree on a 1023-node
    scrambled tree; the rewriter stays well inside a budget that the
    rescanning loop (about 7.5 s here) missed."""
    rng = np.random.default_rng(1010)
    v = random_vector(rng, 10)
    d = scramble(tree_from_vector(v), rng)
    assert len(d.nodes) == 1023
    t0 = time.perf_counter()
    got, _ = reduce_diagram(d)
    dt = time.perf_counter() - t0
    bld = Builder()
    want = bld.finish(bld.import_edge(d, (d.scalar, d.root)), d.height)
    assert iso_equal(got, want)
    assert dt < 3.0, f"reduce_diagram took {dt:.1f}s on 1023 nodes"


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["dag", "tree"]))
def test_canonical_agrees_with_the_rewriter(seed, kind):
    """One Builder re-import reaches the rewriter's normal form."""
    rng = np.random.default_rng(seed)
    if kind == "dag":
        d = random_dag(rng, 1 + seed % 6)
    else:
        d = scramble(tree_from_vector(random_vector(rng, 1 + seed % 7)), rng)
    got = canonical(d)
    assert is_irreducible(got)
    assert iso_equal(got, reduce_diagram(d)[0])


# --- scrambled DAG bases: every scramble move, every rule ---------------------


def dag_base(rng, k):
    """The ``k``-th base to scramble: a reduced random diagram of height
    ``1 + k % 6`` with up to 3 nodes a level, whose shared nodes, skipped
    levels and zero edges the merge, skip and zero-edge moves need; every
    tenth is the zero form instead, which scramble dresses up and only
    the ``zero`` rule collapses."""
    height = 1 + k % 6
    return zero_form(height) if k % 10 == 0 else canonical(random_dag(rng, height, 3))


@given(seed=st.integers(0, 2**32 - 1))
def test_scrambled_dag_bases_reduce_to_their_base(seed):
    rng = np.random.default_rng(seed)
    base = dag_base(rng, seed)
    got, _ = reduce_diagram(scramble(base, rng))
    assert iso_equal(got, base)


def test_every_move_and_rule_fires_on_dag_bases(scramble_moves):
    """Over 200 seeded DAG bases, each inverse move of ``scramble`` finds
    its pattern and each rule of the rewriter fires, ``zero`` included,
    and every scramble reduces back to its base.  Tree bases reach only
    the factor move."""
    rng = np.random.default_rng(2026)
    rules, mismatches = Counter(), 0
    for k in range(200):
        base = dag_base(rng, k)
        got, steps = reduce_diagram(scramble(base, rng))
        rules.update(step.rule for step in steps)
        mismatches += not iso_equal(got, base)
    assert mismatches == 0
    assert all(scramble_moves[name] for name in SCRAMBLE_MOVES), scramble_moves
    assert all(rules[rule] for rule in RULE_ORDER), rules
