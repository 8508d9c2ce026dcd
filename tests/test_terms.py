import itertools
import json
import typing

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zhdd.errors import ShapeError
from zhdd.generate import random_term
from zhdd.network import flatten_to_network
from zhdd.oracle import interpret_zh, max_deviation
from zhdd.sugar import expand_sugar
from zhdd.terms import (
    BraPlus,
    Cap,
    Cup,
    Gadget,
    Gen,
    GeneratorKind,
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
    describe,
    ZSpider,
    ZhTerm,
    generator_arity,
    par,
    permutation_term,
    placed,
    seq,
    swap_schedule,
    term_from_json,
    term_to_json,
    wires,
)
from zhdd.translate import generator_state_sqmdd, sqmdd_to_zh

from conftest import matrix_reference


def test_arity_bookkeeping():
    t = seq(Gen(ZSpider(0, 2)), par(Gen(HBox(1, 1, -1)), Gen(Identity())))
    assert (t.n_in, t.n_out) == (0, 2)
    assert generator_arity(MonoidN(3)) == (3, 1)
    assert generator_arity(Swap()) == (2, 2)


def test_seq_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        seq(Gen(ZSpider(0, 2)), Gen(ZSpider(1, 1)))


def test_wires_and_variadic_builders():
    assert wires(3).n_in == 3
    with pytest.raises(ShapeError):
        wires(0)
    t = seq(wires(2), Gen(Swap()), wires(2))
    assert isinstance(t, SeqNode)
    assert par(Gen(Identity())) == Gen(Identity())  # single arg passes through


@pytest.mark.parametrize("perm", [[0], [1, 0], [2, 0, 1], [0, 2, 1, 3]])
def test_permutation_term_routes_wires(perm):
    t = permutation_term(perm)
    n = len(perm)
    mat = interpret_zh(t)
    # basis vector |x> must land on the permuted bit pattern
    for x in range(2**n):
        bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
        out = 0
        for i in range(n):
            out = (out << 1) | bits[perm[i]]
        col = mat[:, x]
        assert col[out] == 1 and col.sum() == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_swap_schedule_realizes_every_permutation(n):
    """One swap per inversion, the wires end in ``perm`` order, and
    ``permutation_term`` is exactly the schedule's swap rows, each padded
    by one identity bundle on each side that has wires."""
    for perm in itertools.permutations(range(n)):
        schedule = swap_schedule(perm)
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        assert len(schedule) == inversions
        wires_now = list(range(n))
        for p in schedule:
            wires_now[p], wires_now[p + 1] = wires_now[p + 1], wires_now[p]
        assert wires_now == list(perm)
        t = permutation_term(list(perm))
        assert [at for g, at in placed(t) if isinstance(g.kind, Swap)] == schedule
        rows = sum(1 + (p > 0) + (p < n - 2) for p in schedule)
        assert sum(1 for _ in placed(t)) == (rows or 1)


def test_permutation_rejects_non_permutations():
    with pytest.raises(ShapeError):
        permutation_term([0, 0, 1])


@given(seed=st.integers(0, 2**32 - 1))
def test_json_round_trip(seed):
    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=8, max_boundary=6)
    obj = term_to_json(t)
    back = term_from_json(obj)
    # chains nested to either side read back as left folds: the same
    # generators in the same places, and a fixpoint of the round trip
    assert list(placed(back)) == list(placed(t))
    assert term_to_json(back) == obj and term_from_json(obj) == back


def test_json_folds_wide_seq_and_par():
    obj = {
        "kind": "seq",
        "params": {},
        "children": [
            {"kind": "zspider", "params": {"inputs": 0, "outputs": 1}, "children": []},
            {"kind": "zspider", "params": {"inputs": 1, "outputs": 1}, "children": []},
            {"kind": "zspider", "params": {"inputs": 1, "outputs": 2}, "children": []},
        ],
    }
    t = term_from_json(obj)
    assert t.n_in == 0 and t.n_out == 2


@pytest.mark.parametrize("obj", [
    42,
    {"params": {}, "children": []},
    {"kind": "zz", "params": {}, "children": []},
    {"kind": "zspider", "params": {"inputs": -1, "outputs": 0}, "children": []},
    {"kind": "seq", "params": {}, "children": []},
    {"kind": "hbox", "params": {"inputs": 1, "outputs": 1, "label": "x"}, "children": []},
    {"kind": "identity", "params": {}, "children": [{"kind": "cap", "params": {}, "children": []}]},
    {"kind": "zspider", "params": {"inputs": 0, "outputs": 1, "label": [2, 0]}, "children": []},
    {"kind": "monoid", "params": {"inputs": 2, "outputs": 5}, "children": []},
    {"kind": "zspider", "params": {"inputs": True, "outputs": 1}, "children": []},
    {"kind": "xspider", "params": {"inputs": 1, "outputs": -2}, "children": []},
    {"kind": "weight", "params": {}, "children": []},
    {"kind": "zspider", "params": [0, 1], "children": []},
])
def test_json_rejects_malformed(obj):
    with pytest.raises((ValueError, ShapeError)):
        term_from_json(obj)


GOLDEN = [
    (ZSpider(2, 3), "zspider", {"inputs": 2, "outputs": 3}, "ZSpider(2->3)"),
    (HBox(1, 2, 0.5 - 2j), "hbox", {"inputs": 1, "outputs": 2, "label": [0.5, -2.0]},
     "HBox(1->2, (0.5-2j))"),
    (Identity(), "identity", {}, "Identity"),
    (Swap(), "swap", {}, "Swap"),
    (Cap(), "cap", {}, "Cap"),
    (Cup(), "cup", {}, "Cup"),
    (XSpider(0, 1), "xspider", {"inputs": 0, "outputs": 1}, "XSpider(0->1)"),
    (NotXSpider(1, 0), "notxspider", {"inputs": 1, "outputs": 0}, "NotXSpider(1->0)"),
    (MonoidN(3), "monoid", {"inputs": 3}, "MonoidN(3)"),
    (Gadget(), "gadget", {}, "Gadget"),
    (WeightBox(complex(-0.0, 1.5)), "weight", {"weight": [-0.0, 1.5]}, "WeightBox((-0+1.5j))"),
    (KetZero(), "ket0", {}, "KetZero"),
    (KetOne(), "ket1", {}, "KetOne"),
    (KetPlus(), "ketplus", {}, "KetPlus"),
    (BraPlus(), "braplus", {}, "BraPlus"),
]


@pytest.mark.parametrize("kind,name,params,text", GOLDEN, ids=[g[1] for g in GOLDEN])
def test_json_and_describe_golden(kind, name, params, text):
    """The wire format of each kind: param names in field order, complex
    params as [re, im] floats."""
    obj = term_to_json(Gen(kind))
    want = {"kind": name, "params": params, "children": []}
    assert json.dumps(obj) == json.dumps(want)  # pins key order and float spelling
    assert describe(Gen(kind)) == text
    assert term_from_json(json.loads(json.dumps(obj))) == Gen(kind)


def test_golden_covers_every_kind():
    assert {type(g[0]) for g in GOLDEN} == set(typing.get_args(GeneratorKind))


def test_identity_bundle_json():
    """A bundle's wire count is written only when it is above one."""
    obj = term_to_json(Gen(Identity(3)))
    assert obj == {"kind": "identity", "params": {"n": 3}, "children": []}
    assert describe(Gen(Identity(3))) == "Identity(3)"
    back = term_from_json(json.loads(json.dumps(obj)))
    assert back == Gen(Identity(3)) and (back.n_in, back.n_out) == (3, 3)
    one = term_from_json({"kind": "identity", "params": {}, "children": []})
    assert one == Gen(Identity()) and (one.n_in, one.n_out) == (1, 1)
    assert term_from_json({"kind": "identity", "params": {"n": 1}}) == one
    with pytest.raises(ShapeError):
        term_from_json({"kind": "identity", "params": {"n": 0}})
    assert wires(4) == Gen(Identity(4))


def test_hbox_label_defaults_to_minus_one():
    box = term_from_json({"kind": "hbox", "params": {"inputs": 1, "outputs": 1}}).kind
    assert type(box.label) is complex and repr(box.label) == "(-1+0j)"


@given(seed=st.integers(0, 2**32 - 1))
def test_equality_is_structural(seed):
    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=5, max_boundary=4)
    assert term_from_json(term_to_json(t)) == term_from_json(term_to_json(t))
    assert par(t, Gen(KetZero())) != t


def test_associativity_is_semantic_not_structural():
    a, b, c = Gen(ZSpider(1, 1)), Gen(HBox(1, 1, -1)), Gen(ZSpider(1, 1))
    left = seq(seq(a, b), c)
    right = seq(a, seq(b, c))
    assert left != right  # trees differ
    assert max_deviation(interpret_zh(left), interpret_zh(right)) == 0.0


def test_term_far_above_the_recursion_limit():
    """5000 rows on two wires: every term walker runs without recursion."""
    rows = [Gen(ZSpider(0, 2))]
    for k in range(5000):
        rows.append(Gen(Swap()) if k % 2 == 0 else par(Gen(Identity()), Gen(WeightBox(1j))))
    t = seq(*rows)
    want = np.array([1, 0, 0, 1]).reshape(-1, 1)  # 2500 weights of 1j multiply to 1
    for route in (matrix_reference, interpret_zh):
        assert max_deviation(route(t), want) == 0.0
    core = expand_sugar(t)
    assert (core.n_in, core.n_out) == (0, 2)
    assert describe(t).count("Swap") == 2500
    obj = term_to_json(t)
    assert obj["kind"] == "seq" and len(obj["children"]) == 5001
    assert term_from_json(json.loads(json.dumps(obj))) == t
    net = flatten_to_network(t)
    # the spider, plus a copy spider and an H box per expanded weight box
    assert (len(net.instances), net.n_out) == (5001, 2)


def test_json_writes_left_folded_chains_flat():
    """A chain nested to either side is one node; the reader folds it
    left, so a left-folded term comes back as itself."""
    a, b, c = Gen(ZSpider(1, 1)), Gen(HBox(1, 1, -1)), Gen(Identity())
    left, right = seq(a, b, c), seq(a, seq(b, c))
    for t in (left, right):
        assert [k["kind"] for k in term_to_json(t)["children"]] == ["zspider", "hbox", "identity"]
    flat = term_to_json(par(left, right, a))
    assert flat["kind"] == "par" and len(flat["children"]) == 3
    for t in (left, par(left, left, a)):
        assert term_from_json(term_to_json(t)) == t
    assert term_from_json(term_to_json(right)) == left
    assert term_from_json(term_to_json(par(a, par(b, c)))) == par(a, b, c)


def test_json_writes_a_deep_right_nested_chain():
    """3,000 levels of right-nested ``seq`` write as one node, so the JSON
    encoder does not recurse per level, and read back as the left fold
    with the same generators in the same places."""
    z = Gen(ZSpider(1, 1))
    chain = z
    for _ in range(2999):
        chain = SeqNode(z, chain)
    t = SeqNode(Gen(KetPlus()), chain)
    obj = json.loads(json.dumps(term_to_json(t)))
    assert obj["kind"] == "seq" and len(obj["children"]) == 3001
    assert list(placed(term_from_json(obj))) == list(placed(t))


def test_deep_terms_print_and_fail_briefly():
    t = sqmdd_to_zh(generator_state_sqmdd("z", 16))
    assert repr(t) == describe(t)
    with pytest.raises(ShapeError) as err:
        SeqNode(t, Gen(ZSpider(3, 1)))
    msg = str(err.value)
    assert len(msg) < 200
    assert "0->16" in msg and "ZSpider(3->1)" in msg
    with pytest.raises(ShapeError, match=r"Seq\(ZSpider\(0->1\), Identity\) has 1 outputs"):
        SeqNode(seq(Gen(ZSpider(0, 1)), Gen(Identity())), Gen(Swap()))
