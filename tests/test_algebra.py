"""Vector-level operations on diagrams, each checked against plain numpy."""
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from zhdd.algebra import (
    add,
    canonical,
    canonical_from_vector,
    contract_edge,
    permute_outputs,
    plug_bra_plus,
    restrict,
    scale,
    swap_adjacent_levels,
    tensor,
    z_merge_outputs,
)
from zhdd.config import Settings
from zhdd.errors import ShapeError
from zhdd.generate import random_dag, random_vector, tree_from_vector
from zhdd.oracle import (
    dense_merge_outputs,
    dense_permute,
    dense_plug_plus,
    dense_restrict,
    interpret_sqmdd,
    max_deviation,
)
from zhdd.reduction import is_irreducible, reduce_diagram
from zhdd.sqmdd import (
    TERMINAL, Builder, iso_equal, renumber, sqmdd_to_json, validate, zero_form,
)
from zhdd.translate import generator_state_sqmdd

from conftest import small_vectors, weights


@given(vec=small_vectors(max_height=4))
def test_canonical_from_vector_round_trips(vec):
    d = canonical_from_vector(vec)
    assert validate(d) == []
    assert is_irreducible(d)
    assert max_deviation(interpret_sqmdd(d), vec) <= 1e-9


@pytest.mark.parametrize("vec", [
    [0, 0, 0, 0, 0, 1 + 1j, 1e-9j, 0],  # w1 / w0 = 5e-10+5e-10j: the zero cell
    [1000, 1000 + 4e-7],  # w1 / w0 = 1 + 4e-10: the one cell, same child
])
def test_builder_agrees_with_the_rewriter_at_the_grid_edge(vec):
    v = np.array(vec, dtype=complex)
    d = canonical_from_vector(v)
    assert is_irreducible(d)
    assert iso_equal(d, reduce_diagram(tree_from_vector(v))[0])


@pytest.mark.parametrize("vec", [[-2, 0, 2, 0], [2, 0, -2, 0]])
def test_the_routes_to_the_normal_form_write_the_same_bytes(vec):
    """A zero ratio under a negative factor is an exact +0 on every route."""
    v = np.array(vec, dtype=complex)
    direct = json.dumps(sqmdd_to_json(renumber(canonical_from_vector(v))))
    assert direct == json.dumps(sqmdd_to_json(renumber(canonical(tree_from_vector(v)))))
    assert direct == json.dumps(sqmdd_to_json(renumber(reduce_diagram(tree_from_vector(v))[0])))


def test_canonical_rejects_bad_length():
    with pytest.raises(ShapeError):
        canonical_from_vector(np.ones(3, dtype=complex))


def test_canonical_of_zero_vector_is_zero_form():
    d = canonical_from_vector(np.zeros(8, dtype=complex))
    assert iso_equal(d, zero_form(3))


@given(vec=small_vectors(max_height=3), f=weights())
# the scaled scalar lands in the zero cell, but the entries below it do not
@example(vec=np.array([0, 0, 0, 0, 0, 0, 1e-9j, 1], dtype=complex), f=0.5 + 0j)
@example(vec=np.array([1.19e-7j, 1]), f=0.0039j)
def test_scale(vec, f):
    d = canonical_from_vector(vec)
    assert max_deviation(interpret_sqmdd(scale(d, f)), f * vec) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
def test_add(seed):
    rng = np.random.default_rng(seed)
    h = 1 + seed % 4
    a, b = random_vector(rng, h), random_vector(rng, h)
    out = add(canonical_from_vector(a), canonical_from_vector(b))
    assert max_deviation(interpret_sqmdd(out), a + b) <= 1e-9


def test_add_rejects_height_mismatch():
    a = canonical_from_vector(np.ones(2, dtype=complex))
    b = canonical_from_vector(np.ones(4, dtype=complex))
    with pytest.raises(ShapeError):
        add(a, b)


@given(seed=st.integers(0, 2**32 - 1))
def test_tensor_is_kron(seed):
    rng = np.random.default_rng(seed)
    a = random_vector(rng, 1 + seed % 3)
    b = random_vector(rng, 1 + (seed // 7) % 3)
    out = tensor(canonical_from_vector(a), canonical_from_vector(b))
    assert max_deviation(interpret_sqmdd(out), np.kron(a, b)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
def test_restrict_fixes_one_wire(seed):
    rng = np.random.default_rng(seed)
    h = 2 + seed % 3
    d = random_dag(rng, h)
    v = interpret_sqmdd(d)
    i = seed % h
    bit = (seed // 11) % 2
    got = restrict(d, i, bit)
    assert got.height == h - 1
    assert max_deviation(interpret_sqmdd(got), dense_restrict(v, h, i, bit)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
def test_merge_outputs_matches_dense(seed):
    rng = np.random.default_rng(seed)
    h = 2 + seed % 4
    d = random_dag(rng, h)
    v = interpret_sqmdd(d)
    i = seed % (h - 1)
    j = i + 1 + (seed // 3) % (h - i - 1)
    got = z_merge_outputs(d, i, j)
    assert max_deviation(interpret_sqmdd(got), dense_merge_outputs(v, h, i, j)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
def test_plug_bra_plus_matches_dense(seed):
    rng = np.random.default_rng(seed)
    h = 1 + seed % 5
    d = random_dag(rng, h)
    v = interpret_sqmdd(d)
    i = seed % h
    got = plug_bra_plus(d, i)
    assert max_deviation(interpret_sqmdd(got), dense_plug_plus(v, h, i)) <= 1e-9


def test_wire_index_validation():
    d = canonical_from_vector(np.arange(1, 9, dtype=complex))
    with pytest.raises(ShapeError):
        z_merge_outputs(d, 2, 2)
    with pytest.raises(ShapeError):
        plug_bra_plus(d, 3)
    with pytest.raises(ShapeError):
        restrict(d, -1, 0)


@given(seed=st.integers(0, 2**32 - 1))
def test_swap_adjacent_levels_matches_dense(seed):
    rng = np.random.default_rng(seed)
    h = 2 + seed % 3
    d = random_dag(rng, h)
    v = interpret_sqmdd(d)
    k = 1 + seed % (h - 1)
    got = swap_adjacent_levels(d, k)
    # heights k+1,k correspond to wires h-k-1, h-k
    perm = list(range(h))
    perm[h - k - 1], perm[h - k] = perm[h - k], perm[h - k - 1]
    assert max_deviation(interpret_sqmdd(got), dense_permute(v, h, perm)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
def test_permute_outputs_matches_dense(seed):
    rng = np.random.default_rng(seed)
    h = 2 + seed % 3
    d = random_dag(rng, h)
    v = interpret_sqmdd(d)
    perm = list(np.random.default_rng(seed ^ 0xAB).permutation(h))
    got = permute_outputs(d, perm)
    assert max_deviation(interpret_sqmdd(got), dense_permute(v, h, perm)) <= 1e-9


def test_operations_emit_reduced_diagrams():
    rng = np.random.default_rng(5)
    d = random_dag(rng, 4)
    for out in (
        restrict(d, 1, 0),
        z_merge_outputs(d, 0, 2),
        plug_bra_plus(d, 3),
        swap_adjacent_levels(d, 2),
        tensor(d, d),
        scale(d, 2),
        permute_outputs(d, [0, 1, 2, 3]),
        add(d, d),
    ):
        assert is_irreducible(out), "algebra ops go through the builder"


@given(seed=st.integers(0, 2**32 - 1))
def test_contract_edge_is_merge_then_plug(seed):
    """Closing a wire in one pass equals the merge followed by the plug."""
    rng = np.random.default_rng(seed)
    h = 2 + seed % 5
    d = random_dag(rng, h)
    v = interpret_sqmdd(d)
    for i in range(h):
        for j in range(i + 1, h):
            bld = Builder()
            e = bld.import_edge(d, (d.scalar, d.root))
            got = bld.finish(contract_edge(bld, e, h, i, j), h - 2)
            assert iso_equal(got, plug_bra_plus(z_merge_outputs(d, i, j), i))
            want = dense_plug_plus(dense_merge_outputs(v, h, i, j), h - 1, i)
            assert max_deviation(interpret_sqmdd(got), want) <= 1e-9


DEEP = 3000


@pytest.fixture(scope="module")
def deep_z():
    return generator_state_sqmdd("z", DEEP)


def _all_ones_chain(height):
    bld = Builder()
    e = (1.0 + 0j, TERMINAL)
    for h in range(1, height + 1):
        e = bld.edge(h, (0j, TERMINAL), e)
    return bld.finish(e, height)


@pytest.mark.parametrize(
    "op, expected",
    [
        (lambda z: plug_bra_plus(z, DEEP // 2), lambda: generator_state_sqmdd("z", DEEP - 1)),
        (lambda z: z_merge_outputs(z, 0, DEEP - 1), lambda: generator_state_sqmdd("z", DEEP - 1)),
        (lambda z: swap_adjacent_levels(z, DEEP // 2), lambda: generator_state_sqmdd("z", DEEP)),
        (lambda z: add(z, z), lambda: scale(generator_state_sqmdd("z", DEEP), 2)),
        (lambda z: restrict(z, 7, 1), lambda: _all_ones_chain(DEEP - 1)),
        (
            lambda z: permute_outputs(z, [1, 0, *range(2, DEEP)]),
            lambda: generator_state_sqmdd("z", DEEP),
        ),
    ],
    ids=["plug", "merge", "swap", "add", "restrict", "permute"],
)
def test_ops_far_above_the_recursion_limit(deep_z, op, expected):
    """Every wire operation on a 3000-leg Z state, in closed form."""
    assert iso_equal(op(deep_z), expected())


def _shared_child_chain(height):
    """One node per level, both edges to the level below, a distinct random
    weight on each 1-edge: ``height`` nodes over 2**height path weights."""
    rng = np.random.default_rng(height)
    bld = Builder()
    e = (1.0 + 0j, TERMINAL)
    for h in range(1, height + 1):
        e = bld.edge(h, e, (complex(*rng.normal(size=2)) * e[0], e[1]))
    return bld.finish(e, height)


@pytest.mark.parametrize("height", [4, 12, 40])
@pytest.mark.parametrize(
    "op, dense",
    [
        (lambda a: add(a, scale(a, 3)), lambda v, h: 4 * v),
        (lambda a: plug_bra_plus(a, 0), lambda v, h: dense_plug_plus(v, h, 0)),
    ],
    ids=["add", "plug"],
)
def test_sum_stops_at_a_shared_child(height, op, dense):
    """The sum of two edges into one child is one edge into that child, so
    neither op walks the 2**height paths below a shared child."""
    a = _shared_child_chain(height)
    assert len(a.nodes) == height
    t0 = time.perf_counter()
    got = op(a)
    assert time.perf_counter() - t0 < 0.5
    if height <= 12:
        want = dense(interpret_sqmdd(a), height)
        assert max_deviation(interpret_sqmdd(got), want) <= 1e-9
