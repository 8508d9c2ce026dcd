"""Desugaring: every convenience generator reduces to the Z/H core with
the same matrix."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from zhdd.oracle import generator_matrix, interpret_zh, max_deviation
from zhdd.sugar import core_recipe, expand_sugar
from zhdd.terms import (
    BraPlus,
    Cap,
    Cup,
    Gadget,
    Gen,
    HBox,
    Identity,
    KetOne,
    KetPlus,
    KetZero,
    MonoidN,
    NotXSpider,
    ParNode,
    SeqNode,
    Swap,
    WeightBox,
    XSpider,
    ZSpider,
    par,
    seq,
)

from conftest import weights

CORE = (ZSpider, HBox, Identity, Swap, Cap, Cup)

SUGAR_KINDS = [
    XSpider(0, 1), XSpider(1, 1), XSpider(2, 1), XSpider(1, 2), XSpider(2, 2),
    NotXSpider(0, 1), NotXSpider(1, 0), NotXSpider(1, 1), NotXSpider(2, 1),
    NotXSpider(0, 0),
    MonoidN(1), MonoidN(2), MonoidN(3), MonoidN(4),
    Gadget(),
    WeightBox(0.5 - 2j), WeightBox(0j),
    Cap(), Cup(),
    KetZero(), KetOne(), KetPlus(), BraPlus(),
]


def _all_core(t) -> bool:
    match t:
        case Gen(kind):
            return isinstance(kind, CORE)
        case SeqNode(a, b) | ParNode(a, b):
            return _all_core(a) and _all_core(b)
    return False


@pytest.mark.parametrize("kind", SUGAR_KINDS, ids=lambda k: repr(k))
def test_core_recipe_matches_matrix(kind):
    body = core_recipe(kind)
    assert (body.n_in, body.n_out) == (
        generator_matrix(kind).shape[1].bit_length() - 1,
        generator_matrix(kind).shape[0].bit_length() - 1,
    )
    assert max_deviation(interpret_zh(body), generator_matrix(kind)) <= 1e-12


@pytest.mark.parametrize("kind", SUGAR_KINDS, ids=lambda k: repr(k))
def test_expanded_terms_are_core_only(kind):
    out = expand_sugar(Gen(kind))
    assert _all_core(out), f"sugar survived expansion of {kind!r}"


@given(seed=st.integers(0, 2**32 - 1))
def test_expand_sugar_preserves_meaning(seed):
    from zhdd.generate import random_term

    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=6, max_boundary=5)
    out = expand_sugar(t)
    assert _all_core(out)
    assert max_deviation(interpret_zh(out), interpret_zh(t)) <= 1e-9


def test_expand_sugar_leaves_core_alone():
    t = seq(Gen(ZSpider(1, 2)), par(Gen(HBox(1, 1, -1)), Gen(Identity())))
    assert expand_sugar(t) == t


@given(r=weights())
def test_weight_box_label(r):
    assert np.array_equal(
        generator_matrix(WeightBox(r)), np.array([[1, 0], [0, r]], dtype=complex)
    )


@given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 3))
def test_sugar_kept_whole_contracts_as_its_expansion(seed, height):
    """``zh_to_sqmdd`` keeps gadgets, weight boxes and |1> whole, in
    closed form; on a random term and on an emitted diagram the result is
    the diagram of the fully expanded term."""
    from zhdd.generate import random_dag, random_term
    from zhdd.sqmdd import iso_equal
    from zhdd.translate import sqmdd_to_zh, zh_to_sqmdd

    rng = np.random.default_rng(seed)
    for t in (random_term(rng, max_generators=8, max_boundary=5),
              sqmdd_to_zh(random_dag(rng, height))):
        assert iso_equal(zh_to_sqmdd(t), zh_to_sqmdd(expand_sugar(t)))

