import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zhdd.config import Settings
from zhdd.errors import ResourceLimitError
from zhdd.generate import random_dag, scramble, tree_from_vector
from zhdd.oracle import interpret_sqmdd, max_deviation
from zhdd.sqmdd import (
    TERMINAL,
    Builder,
    Node,
    Sqmdd,
    bottom_up,
    is_zero_weight,
    iso_equal,
    measure,
    node_key,
    one_cell,
    preorder,
    renumber,
    require_valid,
    split_edge,
    sqmdd_from_json,
    sqmdd_to_dot,
    sqmdd_to_json,
    structurally_same,
    terminal_only,
    validate,
    weight_key,
    zero_form,
)

from conftest import rngs, small_vectors


# --- invariants and the weight grid ----------------------------------------


def test_terminal_only_denotes_scalar():
    d = terminal_only(2 - 1j, 0)
    assert validate(d) == []
    assert np.allclose(interpret_sqmdd(d), [2 - 1j])


def test_zero_form():
    d = zero_form(3)
    assert validate(d) == []
    assert not d.nodes
    assert np.count_nonzero(interpret_sqmdd(d)) == 0


def test_weight_grid_snapping():
    eps = 1e-9
    assert weight_key(1 + 0j) == weight_key(1 + 0.4e-9 + 0j)
    assert weight_key(1 + 0j) != weight_key(1 + 2e-9 + 0j)
    assert is_zero_weight(0.4e-9 + 0.4e-9j)
    assert not is_zero_weight(2e-9 + 0j)
    assert weight_key(1 + 0.3e-9j) == one_cell()


def test_validate_catches_problems():
    bad = Sqmdd(1 + 0j, 2, 1, {1: Node(1, 1 + 0j, 7, 0j, TERMINAL)})
    assert any("dangling" in p for p in validate(bad))

    bad = Sqmdd(1 + 0j, 1, 1, {
        1: Node(1, 1 + 0j, 2, 0j, TERMINAL),
        2: Node(1, 1 + 0j, TERMINAL, 1 + 0j, TERMINAL),
    })
    assert any("decrease" in p for p in validate(bad))

    bad = Sqmdd(1 + 0j, 1, 5, {})
    assert any("root" in p for p in validate(bad))

    orphan = Sqmdd(1 + 0j, 1, 1, {
        1: Node(1, 1 + 0j, TERMINAL, 1j, TERMINAL),
        2: Node(1, 1 + 0j, TERMINAL, 0j, TERMINAL),
    })
    assert any("parent" in p for p in validate(orphan))

    with pytest.raises(ValueError):
        require_valid(bad)


@given(seed=st.integers(0, 2**32 - 1))
def test_random_dags_are_valid(seed):
    d = random_dag(np.random.default_rng(seed), 1 + seed % 5)
    assert validate(d) == []


# --- semantics --------------------------------------------------------------


def test_interpretation_of_hand_built_diagram():
    # root -1-> n1 on level2 / -2i-> n2; n1 = (1,T | 3,T), n2 = (0,T | 1,T)
    d = Sqmdd(0.5 + 0j, 2, 3, {
        1: Node(1, 1 + 0j, TERMINAL, 3 + 0j, TERMINAL),
        2: Node(1, 0j, TERMINAL, 1 + 0j, TERMINAL),
        3: Node(2, 1 + 0j, 1, -2j, 2),
    })
    require_valid(d)
    v = interpret_sqmdd(d)
    assert np.allclose(v, 0.5 * np.array([1, 3, 0, -2j]))


@given(vec=small_vectors(max_height=4))
def test_tree_from_vector_is_exact(vec):
    d = tree_from_vector(vec)
    assert validate(d) == []
    assert max_deviation(interpret_sqmdd(d), vec) == 0.0


def test_split_edge_spans_skipped_levels():
    bld = Builder()
    bld.nodes[1] = Node(1, 1 + 0j, TERMINAL, 5 + 0j, TERMINAL)
    # root edge spans level 2 entirely: both cofactors are the edge itself
    e = (1 + 0j, 1)
    assert split_edge(bld, e, 2, 0) == e
    assert split_edge(bld, e, 2, 1) == e
    assert split_edge(bld, e, 1, 1) == (5 + 0j, TERMINAL)


# --- measure ----------------------------------------------------------------


def test_measure_terminal_only():
    assert measure(terminal_only(1 + 0j, 0)) == (1, 2)
    assert measure(zero_form(2)) == (1, 2, 0, 0)


def test_measure_counts_non_normalized_nodes():
    d = Sqmdd(1 + 0j, 2, 2, {
        1: Node(1, 2 + 0j, TERMINAL, 1 + 0j, TERMINAL),  # not (1,w): counts
        2: Node(2, 1 + 0j, 1, 0j, TERMINAL),             # normalized
    })
    # |V| = 3, terminal degree = 3, per-height = [1, 0]
    assert measure(d) == (3, 3, 1, 0)


def test_measure_is_lexicographic_tuple():
    small = measure(terminal_only(1 + 0j, 1))
    big = measure(tree_from_vector(np.arange(1, 5, dtype=complex)))
    assert small < big


# --- structural comparison and serialization --------------------------------


@given(seed=st.integers(0, 2**32 - 1))
def test_renumber_preserves_everything(seed):
    d = random_dag(np.random.default_rng(seed), 1 + seed % 5)
    r = renumber(d)
    assert validate(r) == []
    assert structurally_same(d, r)
    assert max_deviation(interpret_sqmdd(d), interpret_sqmdd(r)) == 0.0
    # renumbering is stable: a second pass changes nothing
    assert sqmdd_to_json(renumber(r)) == sqmdd_to_json(r)


@st.composite
def walked_diagrams(draw):
    """A random DAG, or a scrambled naive tree: shared nodes, skipped
    levels and ids in no particular order."""
    rng = draw(rngs())
    if draw(st.booleans()):
        return random_dag(rng, 1 + int(rng.integers(6)))
    return scramble(tree_from_vector(draw(small_vectors(max_height=4))), rng)


def recursive_preorder(nodes, root):
    """Depth-first preorder, 0-side first, spelled as plain recursion."""
    out = []

    def visit(u):
        if u != TERMINAL and u not in out:
            out.append(u)
            visit(nodes[u].c0)
            visit(nodes[u].c1)

    visit(root)
    return out


@given(d=walked_diagrams())
def test_walks_list_each_reachable_node_once(d):
    order = preorder(d.nodes, d.root)
    assert order == recursive_preorder(d.nodes, d.root)
    assert order[:1] == ([d.root] if d.root != TERMINAL else [])
    # renumber numbers the nodes 1..n in exactly this order
    rank = {u: k for k, u in enumerate(order, 1)} | {TERMINAL: TERMINAL}
    assert renumber(d).nodes == {
        rank[u]: d.nodes[u]._replace(c0=rank[d.nodes[u].c0], c1=rank[d.nodes[u].c1])
        for u in order
    }
    # bottom_up: the same ids, each after both of its children
    up = bottom_up(d.nodes, d.root)
    assert sorted(up) == sorted(order)
    pos = {u: k for k, u in enumerate(up)} | {TERMINAL: -1}
    for u in up:
        assert pos[d.nodes[u].c0] < pos[u] and pos[d.nodes[u].c1] < pos[u]
    # finish prunes the builder's table to the live ids, in its own order
    bld, other = Builder(), random_dag(np.random.default_rng(len(order)), d.height)
    bld.import_edge(other, (other.scalar, other.root))
    lam, root = bld.import_edge(d, (d.scalar, d.root))
    out = bld.finish((lam, root), d.height)
    if out.root != TERMINAL:
        live = set(preorder(bld.nodes, root))
        assert list(out.nodes) == [i for i in bld.nodes if i in live] == sorted(live)


def test_finish_folds_a_deep_chain():
    """A chain far deeper than the interpreter's recursion limit: a grid-zero
    top weight makes it the zero form unless a weight below lifts a path
    out of the zero cell."""
    for big in (0j, 1e6 + 0j):
        bld = Builder()
        e = bld.edge(1, (1 + 0j, TERMINAL), (big, TERMINAL))
        for h in range(2, 3001):
            e = bld.edge(h, e, (0j, TERMINAL))
        assert e[0] == 1 and len(bld.nodes) == 3000
        d = bld.finish((1e-12 + 0j, e[1]), 3000)
        assert (d == zero_form(3000)) == (big == 0)
    assert len(d.nodes) == 3000 and validate(d) == []


def test_iso_equal_ignores_ids_only():
    a = Sqmdd(1 + 0j, 1, 4, {4: Node(1, 1 + 0j, TERMINAL, 2 + 0j, TERMINAL)})
    b = Sqmdd(1 + 0j, 1, 9, {9: Node(1, 1 + 0j, TERMINAL, 2 + 0j, TERMINAL)})
    c = Sqmdd(1 + 0j, 1, 9, {9: Node(1, 1 + 0j, TERMINAL, 3 + 0j, TERMINAL)})
    assert iso_equal(a, b)
    assert not iso_equal(a, c)
    assert not iso_equal(a, terminal_only(1 + 0j, 1))


def test_structurally_same_respects_grid():
    a = Sqmdd(1 + 0j, 1, 1, {1: Node(1, 1 + 0j, TERMINAL, 2 + 0j, TERMINAL)})
    b = Sqmdd(1 + 0j, 1, 1, {1: Node(1, 1 + 0j, TERMINAL, 2 + 0.4e-9, TERMINAL)})
    assert structurally_same(a, b)


@given(seed=st.integers(0, 2**32 - 1))
def test_json_round_trip(seed):
    d = random_dag(np.random.default_rng(seed), 1 + seed % 6)
    obj = sqmdd_to_json(d)
    back = sqmdd_from_json(obj)
    assert structurally_same(d, back)
    assert sqmdd_to_json(back) == obj


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        sqmdd_from_json({"scalar": [1, 0], "height": 1, "root": 1, "nodes": []})
    with pytest.raises(ValueError):
        sqmdd_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        sqmdd_from_json({"scalar": [1, 0], "height": -2, "root": "t", "nodes": []})


_ROOT = {"id": 1, "h": 2, "c0": 2, "w0": [1.0, 0.0], "c1": 2, "w1": [-1.0, 0.0]}
_NODE = {"id": 2, "h": 1, "c0": "t", "w0": [1.0, 0.0], "c1": "t", "w1": [0.5, 0.0]}


def _diagram_json(*entries, root=1, height=2):
    return {"scalar": [1.0, 0.0], "height": height, "root": root, "nodes": list(entries)}


def _bad_node(**fields):
    return _diagram_json(_ROOT, {**_NODE, **fields})


@pytest.mark.parametrize("obj, message", [
    (_bad_node(id=True), "node id must be a positive integer, got True"),
    (_bad_node(h=True), "node 2: height must be an integer"),
    (_bad_node(c1=True), 'c1 must be a positive node id or "t", got True'),
    (_bad_node(h=1.0), "node 2: height must be an integer"),
    (_bad_node(w0=[math.nan, 0.0]), "w0 must be finite, got [nan, 0.0]"),
    (_bad_node(w1=[0.0, -math.inf]), "w1 must be finite, got [0.0, -inf]"),
    (_bad_node(w0=[1.0, 0.0, 0.0]), "w0 must be a [re, im] pair, got [1.0, 0.0, 0.0]"),
    (_bad_node(c0=0), 'c0 must be a positive node id or "t", got 0'),
    (_bad_node(c1=-1), 'c1 must be a positive node id or "t", got -1'),
    (_diagram_json(_ROOT, _NODE, _NODE), "duplicate node id 2"),
    (_diagram_json(_ROOT, {k: v for k, v in _NODE.items() if k != "w1"}),
     "node entry is missing field 'w1'"),
    (_bad_node(c0=3), "invalid diagram: node 2: dangling child reference 3"),
    (_bad_node(h=2), "invalid diagram: node 1: edge must decrease height (2 -> 2); "
                     "node 1: edge must decrease height (2 -> 2)"),
    (_diagram_json(_ROOT, _NODE, {**_NODE, "id": 3}),
     "invalid diagram: node 3: all vertices need at least one parent (unreachable)"),
    (_diagram_json(_ROOT, _NODE, {**_NODE, "id": 3, "h": 2, "c0": 4, "c1": 4},
                   {**_NODE, "id": 4}),
     "invalid diagram: node 3: all vertices need at least one parent (unreachable); "
     "node 4: all vertices need at least one parent (unreachable)"),
    (_diagram_json(_NODE), "invalid diagram: root 1 is not in the node table"),
    (_diagram_json(_ROOT, _NODE, height=1),
     "invalid diagram: root height 2 exceeds diagram height 1"),
    (_diagram_json(_NODE, root="t"),
     "invalid diagram: terminal root with a non-empty node table"),
], ids=["bool-id", "bool-height", "bool-child", "float-height", "nan-weight",
        "infinite-weight", "three-element-weight", "child-0", "child-minus-1",
        "duplicate-id", "missing-key", "dangling-child", "child-not-lower", "orphan",
        "orphan-with-a-child",
        "root-missing", "root-above-height", "terminal-root-with-nodes"])
def test_json_load_names_each_fault(obj, message):
    """Well-formed entries load in one pass; anything else takes the checked
    path, which raises the message that names the fault."""
    with pytest.raises(ValueError) as info:
        sqmdd_from_json(obj)
    assert str(info.value) == message


@pytest.mark.parametrize("extra", [{"note": "x"}, {"w0": [1, 0]}],
                         ids=["extra-key", "integer-weight"])
def test_json_load_takes_entries_the_checked_path_takes(extra):
    d = sqmdd_from_json(_bad_node(**extra))
    assert d.nodes[2] == Node(1, 1 + 0j, TERMINAL, 0.5 + 0j, TERMINAL)
    assert type(d.nodes[2].w0) is complex


def test_dot_output_mentions_every_node():
    d = tree_from_vector(np.array([1, 2, 3, 4], dtype=complex))
    dot = sqmdd_to_dot(d)
    assert dot.startswith("digraph")
    for i in d.nodes:
        assert f"n{i}" in dot
    assert "t [" in dot or '"t"' in dot.lower() or "terminal" in dot.lower()


# --- the canonicalizing builder ----------------------------------------------


def test_builder_normalizes_weight_pairs():
    b = Builder()
    w, c = b.edge(1, (3 + 0j, TERMINAL), (6 + 0j, TERMINAL))
    assert w == 3 + 0j
    n = b.nodes[c]
    assert (n.w0, n.w1) == (1 + 0j, 2 + 0j)


def test_builder_zero_first_weight_normalizes_second():
    b = Builder()
    w, c = b.edge(1, (0j, TERMINAL), (5 + 0j, TERMINAL))
    assert w == 5 + 0j
    assert b.nodes[c].edge(1) == (1 + 0j, TERMINAL)
    assert b.nodes[c].edge(0) == (0j, TERMINAL)


def test_builder_skips_equal_cofactors():
    b = Builder()
    e = b.edge(1, (2 + 0j, TERMINAL), (2 + 0j, TERMINAL))
    assert e == (2 + 0j, TERMINAL)  # no node created
    assert not b.nodes


def test_builder_hash_conses():
    b = Builder()
    e1 = b.edge(1, (1 + 0j, TERMINAL), (2 + 0j, TERMINAL))
    e2 = b.edge(1, (2 + 0j, TERMINAL), (4 + 0j, TERMINAL))
    assert e1[1] == e2[1]  # same node, different lambda
    assert len(b.nodes) == 1


def test_builder_snaps_grid_zero_weights():
    b = Builder()
    w, c = b.edge(1, (0.3e-9 + 0j, TERMINAL), (1 + 0j, TERMINAL))
    n = b.nodes[c]
    assert n.edge(0) == (0j, TERMINAL)


def test_builder_finish_collapses_grid_zero_scalar():
    b = Builder()
    e = b.edge(1, (1 + 0j, TERMINAL), (2 + 0j, TERMINAL))
    d = b.finish((1e-12 + 0j, e[1]), 1)
    assert iso_equal(d, zero_form(1))


def test_builder_finish_prunes_garbage():
    b = Builder()
    dead = b.edge(1, (1 + 0j, TERMINAL), (7 + 0j, TERMINAL))
    live = b.edge(1, (1 + 0j, TERMINAL), (2 + 0j, TERMINAL))
    d = b.finish(live, 1)
    assert set(d.nodes) == {live[1]}


def test_node_key_folds_grid():
    a = Node(1, 1 + 0j, TERMINAL, 2 + 0j, TERMINAL)
    b = Node(1, 1 + 0.2e-9j, TERMINAL, 2 + 0j, TERMINAL)
    assert node_key(a) == node_key(b)


# --- Builder.edge under a non-default grid: every branch reads the builder's
# own settings, never DEFAULT


def test_builder_coarse_grid_snaps_zero_cell_weights():
    b = Builder(Settings(eps=1e-3))
    w, c = b.edge(1, (4e-4 + 0j, TERMINAL), (1 + 0j, TERMINAL))
    assert b.nodes[c].edge(0) == (0j, TERMINAL)
    assert b.edge(1, (4e-4 + 0j, TERMINAL), (-4e-4j, TERMINAL)) == (0j, TERMINAL)


def test_builder_coarse_grid_hash_conses_within_a_cell():
    b = Builder(Settings(eps=1e-3))
    e1 = b.edge(1, (1 + 0j, TERMINAL), (2 + 0j, TERMINAL))
    e2 = b.edge(1, (1 + 0j, TERMINAL), (2 + 4e-4 + 0j, TERMINAL))
    assert e1[1] == e2[1] and len(b.nodes) == 1


def test_builder_coarse_grid_one_cell_ratio_skips_level():
    b = Builder(Settings(eps=1e-3))
    _, child = b.edge(1, (1 + 0j, TERMINAL), (3 + 0j, TERMINAL))
    # 10 and 10.004 lie in different cells, their ratio in the one cell (r5)
    assert b.edge(2, (10 + 0j, child), (10.004 + 0j, child)) == (10 + 0j, child)
    assert len(b.nodes) == 1


def test_builder_coarse_grid_zero_cell_ratio_drops_child():
    b = Builder(Settings(eps=1e-3))
    _, child = b.edge(1, (1 + 0j, TERMINAL), (3 + 0j, TERMINAL))
    # 0.004 is not in the zero cell, but 0.004 / 10 is (r3)
    w, c = b.edge(2, (10 + 0j, TERMINAL), (0.004 + 0j, child))
    assert w == 10 + 0j
    assert b.nodes[c].edge(1) == (0j, TERMINAL)


def test_builder_writes_positive_zero_on_terminal_edge():
    b = Builder(Settings(eps=1e-3))
    w, c = b.edge(1, (-2 + 0j, TERMINAL), (0j, TERMINAL))
    w1 = b.nodes[c].w1  # the exact 0j of pull, not 0j / -2, which is -0-0j
    assert w == -2 + 0j and w1 == 0
    assert math.copysign(1.0, w1.real) == 1.0 and math.copysign(1.0, w1.imag) == 1.0


def test_a_nan_weight_never_matches():
    """``abs(nan) > eps`` is False, so the comparison must ask for
    ``<= eps``: a NaN scalar or node weight makes two diagrams differ."""
    bld = Builder()
    d = bld.finish(bld.edge(2, bld.edge(1, (1, TERMINAL), (2j, TERMINAL)), (3, TERMINAL)), 2)
    nan = complex("nan")
    assert structurally_same(d, d)
    assert not structurally_same(replace(d, scalar=nan), d)
    bad = replace(d, nodes={**d.nodes, d.root: d.nodes[d.root]._replace(w1=nan)})
    assert not structurally_same(bad, d) and not structurally_same(d, bad)


@pytest.mark.parametrize("w", [complex("nan"), complex("inf"), complex(0, float("-inf"))])
def test_finish_refuses_a_top_weight_that_is_not_finite(w):
    """A resource limit (CLI exit 3), not a ``round`` ValueError that the
    CLI would report as malformed input."""
    bld = Builder()
    _, root = bld.edge(1, (1, TERMINAL), (2, TERMINAL))
    with pytest.raises(ResourceLimitError):
        bld.finish((w, root), 1)
