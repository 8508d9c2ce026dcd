"""Random-instance generators: the guarantees the rest of the suite
leans on (validity, exactness, budget limits)."""
from collections import Counter

import numpy as np
from hypothesis import given, strategies as st

import zhdd.generate
from zhdd.algebra import canonical
from zhdd.generate import (
    random_dag,
    random_term,
    random_vector,
    scramble,
    shared_cofactor_vector,
    tree_from_vector,
)
from zhdd.oracle import interpret_sqmdd, max_deviation
from zhdd.reduction import is_irreducible, reduce_diagram
from zhdd.sqmdd import iso_equal, validate, zero_form
from zhdd.terms import Gen, Identity, ParNode, SeqNode, Swap


@given(seed=st.integers(0, 2**32 - 1))
def test_random_dag_valid_and_rooted(seed):
    h = 1 + seed % 6
    d = random_dag(np.random.default_rng(seed), h)
    assert d.height == h
    assert validate(d) == []


def _scramble_base(rng, base, height):
    """A diagram to scramble: a naive tree, on which only the factor move
    finds its pattern; a reduced random diagram, whose shared nodes,
    skipped levels and zero edges the merge, skip and zero-edge moves
    need; or the zero form, which scramble dresses up."""
    if base == "tree":
        return tree_from_vector(random_vector(rng, height))
    if base == "dag":
        return canonical(random_dag(rng, height))
    return zero_form(height)


BASES = st.sampled_from(["tree", "dag", "zero"])


@given(seed=st.integers(0, 2**32 - 1), base=BASES)
def test_scramble_is_interpretation_exact(seed, base):
    """Inverse moves use only exactly-representable factors, so the
    deviation is zero, not merely small."""
    rng = np.random.default_rng(seed)
    d = _scramble_base(rng, base, 1 + seed % 4)
    messy = scramble(d, rng)
    assert validate(messy) == []
    assert max_deviation(interpret_sqmdd(messy), interpret_sqmdd(d)) == 0.0


@given(seed=st.integers(0, 2**32 - 1), base=BASES)
def test_scramble_reduces_back(seed, base):
    rng = np.random.default_rng(seed)
    d = _scramble_base(rng, base, 1 + seed % 4)
    got, _ = reduce_diagram(scramble(d, rng))
    want, _ = reduce_diagram(d)
    assert iso_equal(got, want)


def test_every_scramble_move_fires(monkeypatch):
    """Each inverse move finds its pattern on some reduced random diagram,
    and the zero form comes back with nodes under its zero scalar."""
    fired = Counter()

    def counted(move):
        def run(d, rng):
            hit = move(d, rng)
            fired[move.__name__] += hit
            return hit
        return run

    moves = ("_inverse_factor", "_inverse_merge", "_inverse_skip", "_inverse_zero_edge")
    for name in moves:
        monkeypatch.setattr(zhdd.generate, name, counted(getattr(zhdd.generate, name)))
    rng = np.random.default_rng(5)
    for height in range(1, 6):
        for _ in range(20):
            scramble(canonical(random_dag(rng, height)), rng)
    assert all(fired[name] > 0 for name in moves), fired
    dressed = scramble(zero_form(3), rng)
    assert dressed.nodes and dressed.scalar == 0 and validate(dressed) == []


@given(seed=st.integers(0, 2**32 - 1))
def test_scramble_usually_leaves_work(seed):
    rng = np.random.default_rng(seed)
    v = random_vector(rng, 3)
    messy = scramble(tree_from_vector(v), rng)
    # naive trees are already non-canonical unless tiny/degenerate
    if np.count_nonzero(v) > 2:
        assert not is_irreducible(messy)


def _counts(t):
    """(non-wiring generators, boundary) of a term tree."""
    match t:
        case Gen(kind):
            n = 0 if isinstance(kind, (Identity, Swap)) else 1
            return n
        case SeqNode(a, b) | ParNode(a, b):
            return _counts(a) + _counts(b)
    raise TypeError


@given(seed=st.integers(0, 2**32 - 1))
def test_random_term_respects_budgets(seed):
    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=12, max_boundary=8)
    assert _counts(t) <= 12
    assert t.n_in + t.n_out <= 8


@given(seed=st.integers(0, 2**32 - 1))
def test_random_vector_shape_and_palette(seed):
    rng = np.random.default_rng(seed)
    h = 1 + seed % 6
    v = random_vector(rng, h)
    assert v.shape == (2**h,)
    assert v.dtype == complex


def test_random_vector_hits_the_zero_vector():
    rng = np.random.default_rng(0)
    seen_zero = any(
        not np.count_nonzero(random_vector(rng, 2)) for _ in range(200)
    )
    assert seen_zero, "all-zero vectors should occur now and then"


@given(seed=st.integers(0, 2**32 - 1))
def test_shared_cofactor_vector_shape(seed):
    rng = np.random.default_rng(seed)
    h = 3 + seed % 3
    v = shared_cofactor_vector(rng, h)
    assert v.shape == (2**h,)


def test_shared_cofactor_vectors_compress_better():
    """The point of the generator: its canonical diagrams reuse nodes, so
    they are smaller on average than those of unstructured vectors."""
    from zhdd.algebra import canonical_from_vector

    rng = np.random.default_rng(12)
    h = 5

    def mean_nodes(make):
        sizes = [len(canonical_from_vector(make()).nodes) for _ in range(40)]
        return sum(sizes) / len(sizes)

    shared = mean_nodes(lambda: shared_cofactor_vector(rng, h))
    generic = mean_nodes(lambda: random_vector(rng, h))
    assert shared < generic
