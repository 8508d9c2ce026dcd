"""Map/state duality and the flat wiring-network view of a term."""
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from zhdd.config import Settings
from zhdd.duality import from_state_form, to_state_form
from zhdd.errors import ResourceLimitError, ShapeError
from zhdd.generate import random_dag, random_term
import zhdd.network
from zhdd.network import (
    NetInstance,
    flatten_to_network,
    instance_state,
    ldexp_complex,
    net_interpret,
    simplify_network,
)
from zhdd.oracle import (
    generator_matrix,
    interpret_zh,
    interpret_zh_state,
    max_deviation,
)
from zhdd.terms import (
    BraPlus,
    Cap,
    Cup,
    Gen,
    HBox,
    Identity,
    KetOne,
    KetPlus,
    KetZero,
    MonoidN,
    NotXSpider,
    Swap,
    WeightBox,
    XSpider,
    ZSpider,
    par,
    seq,
    wires,
)
from zhdd.translate import sqmdd_to_zh

from conftest import wired_once


def test_state_form_shape():
    t = Gen(HBox(2, 1, 1j))
    s = to_state_form(t)
    assert (s.n_in, s.n_out) == (0, 3)


def test_state_form_of_state_is_identity():
    t = Gen(ZSpider(0, 2))
    assert to_state_form(t) == t


def test_state_form_vectorizes_columns():
    """psi(f) = sum_x |x> (x| f |.>): outputs first, then bent inputs."""
    t = Gen(WeightBox(3 + 1j))
    v = interpret_zh_state(to_state_form(t)).reshape(-1)
    # diag(1, w) vectorized row-major with output wire above the bent input
    assert np.allclose(v, [1, 0, 0, 3 + 1j])


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=185)  # three bent inputs: the state form of `back` is 17 wires wide
@example(seed=297)  # four bent inputs: a row of `back` itself is 17 wires wide
def test_bending_round_trip(seed):
    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=6, max_boundary=5)
    if t.n_in == 0:
        t = seq(Gen(ZSpider(0, 1)), wires(1)) if t.n_out == 1 else t
    s = to_state_form(t)
    assert s.n_in == 0 and s.n_out == t.n_in + t.n_out
    back = from_state_form(s, t.n_in)
    assert max_deviation(interpret_zh(back), interpret_zh(t)) <= 1e-9


def test_from_state_form_rejects_bad_counts():
    with pytest.raises(ShapeError):
        from_state_form(Gen(ZSpider(1, 1)), 1)  # not a state
    with pytest.raises(ShapeError):
        from_state_form(Gen(ZSpider(0, 2)), 3)  # more inputs than wires


def test_snake_identities():
    left = seq(par(wires(1), Gen(Cap())), par(Gen(Cup()), wires(1)))
    right = seq(par(Gen(Cap()), wires(1)), par(wires(1), Gen(Cup())))
    eye = np.eye(2)
    assert np.allclose(interpret_zh(left), eye)
    assert np.allclose(interpret_zh(right), eye)


# --- network flattening -----------------------------------------------------


def test_flatten_counts_instances():
    t = seq(Gen(ZSpider(0, 2)), par(Gen(HBox(1, 1, -1)), Gen(Identity())))
    net = flatten_to_network(t)
    # identities and swaps dissolve into the wiring
    assert len(net.instances) == 2
    assert net.n_out == 2


def test_flatten_instances_are_z_or_h():
    t = seq(Gen(ZSpider(0, 2)), Gen(Swap()), par(Gen(HBox(1, 1, -1)), wires(1)))
    net = flatten_to_network(t)
    assert {type(i.kind) for i in net.instances} <= {ZSpider, HBox}


@given(seed=st.integers(0, 2**32 - 1))
def test_flatten_wires_every_leg_once(seed):
    rng = np.random.default_rng(seed)
    assert wired_once(flatten_to_network(random_term(rng, max_generators=12, max_boundary=8)))
    t = sqmdd_to_zh(random_dag(rng, 1 + seed % 4))
    assert wired_once(flatten_to_network(t))


def test_caps_and_cups_are_two_legged_z_spiders():
    """A cap and a cup are each the instance ZSpider(0, 2); simplification
    turns them into the spider between two boundary wires, or the scalar 2
    for a loop."""
    z2 = NetInstance(ZSpider(0, 2))
    cap = flatten_to_network(Gen(Cap()))
    assert cap.instances == [z2] and cap.legs == [(0, 1)] and cap.mate == [~0, ~1]
    assert simplify_network(cap) == cap
    cup = flatten_to_network(Gen(Cup()))  # bent: two caps, then the cup
    assert cup.instances == [z2] * 3 and wired_once(cup)
    assert simplify_network(cup).instances == [z2]
    loop = flatten_to_network(seq(Gen(Cap()), Gen(Cup())))
    assert loop.instances == [z2] * 2 and loop.legs == [(0, 1), (2, 3)]
    assert loop.mate == [2, 3, 0, 1]
    small = simplify_network(loop)
    assert small.instances == [] and ldexp_complex(small.scalar, small.exp2) == 2


@pytest.mark.parametrize("t, kinds, scalar", [
    (Gen(MonoidN(1)), [ZSpider(0, 2)], 1),
    (Gen(XSpider(1, 1)), [ZSpider(0, 2)], 1),
    (Gen(XSpider(0, 0)), [], 1),
    (Gen(NotXSpider(0, 0)), [], 0),
    (Gen(KetZero()), [HBox(0, 1, 0)], 1),
    (Gen(KetOne()), [NotXSpider(0, 1)], 1),
    (Gen(KetPlus()), [ZSpider(0, 1)], 1),
    (Gen(BraPlus()), [ZSpider(0, 2), ZSpider(0, 1)], 1),
    (Gen(XSpider(0, 3)), [XSpider(0, 3)], 1),
    (Gen(NotXSpider(1, 0)), [ZSpider(0, 2), NotXSpider(1, 0)], 1),
], ids=["monoid1", "x11", "x00", "notx00", "ket0", "ket1", "ketplus", "braplus", "x03",
        "notx10"])
def test_each_generator_is_one_instance_or_none(t, kinds, scalar):
    """Wires and scalars make no instance, a |0>, |+> or <+| is its core
    generator, a |1> is NotXSpider(0, 1), and other sugar is one instance as written (a map's inputs
    are bent by a ZSpider(0, 2) cap each)."""
    net = flatten_to_network(t)
    assert [i.kind for i in net.instances] == kinds
    assert ldexp_complex(net.scalar, net.exp2) == scalar and wired_once(net)


def test_a_monoid_is_a_left_comb_of_pairs():
    """MonoidN(4) on a state's wires is three MonoidN(2), each taking the
    one before it and the next wire."""
    net = flatten_to_network(seq(Gen(ZSpider(0, 4)), Gen(MonoidN(4))))
    assert [i.kind for i in net.instances] == [ZSpider(0, 4)] + [MonoidN(2)] * 3
    assert net.legs[1:] == [(4, 5, 6), (7, 8, 9), (10, 11, 12)]
    assert [net.mate[x] for x in (4, 5, 7, 8, 10, 11, 12)] == [0, 1, 6, 2, 9, 3, ~0]


@given(seed=st.integers(0, 2**32 - 1))
def test_a_map_is_bent_as_its_state_form(seed):
    """A map's network is the network of its state form: one cap per
    input, first legs to the map, second legs after its outputs."""
    t = random_term(np.random.default_rng(seed), max_generators=8, max_boundary=6)
    net = flatten_to_network(t)
    assert net == flatten_to_network(to_state_form(t))
    assert_leg_limit_is_met_exactly(t, len(net.mate))


def assert_leg_limit_is_met_exactly(t, legs):
    """``t`` flattens to ``legs`` legs under a limit of exactly ``legs``,
    and is refused under one leg less."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zhdd.network, "leg_limit", lambda: legs)
        assert len(flatten_to_network(t).mate) == legs
        mp.setattr(zhdd.network, "leg_limit", lambda: legs - 1)
        with pytest.raises(ResourceLimitError, match="the network would have"):
            flatten_to_network(t)


def test_network_legs_count_combs_and_bent_inputs():
    """Legs are counted as they are made: three per tooth of a monoid's
    comb, two per bent input's cap, and each leg of every other instance;
    a limit of exactly that many lets the term through."""
    assert_leg_limit_is_met_exactly(Gen(MonoidN(5)), 3 * 4 + 2 * 5)
    assert_leg_limit_is_met_exactly(Gen(HBox(3, 1, 2j)), 2 * 3 + 4)
    assert_leg_limit_is_met_exactly(
        seq(Gen(ZSpider(0, 2)), Gen(Swap()), Gen(XSpider(2, 1))), 2 + 3)
    t = sqmdd_to_zh(random_dag(np.random.default_rng(3), 4))
    assert_leg_limit_is_met_exactly(t, len(flatten_to_network(t).mate))


@pytest.mark.parametrize("t", [
    Gen(ZSpider(0, 10**9)), Gen(MonoidN(10**9)), Gen(ZSpider(10**9, 0)),
], ids=["z-spider", "monoid", "bent-map"])
def test_oversized_networks_are_refused_up_front(t):
    with pytest.raises(ResourceLimitError, match="legs"):
        flatten_to_network(t)


def test_the_leg_limit_is_a_bound(monkeypatch):
    t = Gen(ZSpider(0, 40))
    monkeypatch.setattr(zhdd.network, "leg_limit", lambda: 40)
    assert len(flatten_to_network(t).mate) == 40
    monkeypatch.setattr(zhdd.network, "leg_limit", lambda: 39)
    with pytest.raises(ResourceLimitError):
        flatten_to_network(t)


def test_instance_state_is_flat_leg_tensor():
    t = Gen(HBox(1, 2, 5))
    net = flatten_to_network(to_state_form(t))
    inst = [i for i in net.instances if isinstance(i.kind, HBox) and i.arity == 3]
    assert len(inst) == 1 and inst[0].kind == HBox(0, 3, 5)
    v = instance_state(inst[0])
    assert v.shape == (8,)
    assert np.array_equal(v, [1, 1, 1, 1, 1, 1, 1, 5])


@given(seed=st.integers(0, 2**32 - 1))
def test_net_interpret_agrees_with_tree_interpreter(seed):
    from hypothesis import assume

    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=4, max_boundary=4)
    s = to_state_form(t) if t.n_in else t
    net = flatten_to_network(s)
    assume(sum(i.arity for i in net.instances) <= 22)
    want = interpret_zh_state(s)
    got = net_interpret(net, Settings(max_qubits=22))
    assert max_deviation(got, want) <= 1e-9


def test_net_interpret_respects_cap():
    settings = Settings(max_qubits=3)
    from zhdd.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        net_interpret(flatten_to_network(Gen(ZSpider(0, 6))), settings)
