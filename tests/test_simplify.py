"""Network simplification before contraction: same tensor, no redex left."""
import copy

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from zhdd.algebra import scale
from zhdd.config import Settings
from zhdd.errors import ResourceLimitError
from zhdd.generate import random_dag, random_term
from zhdd.network import (
    Network,
    contraction_steps,
    flatten_to_network,
    net_interpret,
    simplify_network,
)
from zhdd.oracle import max_deviation
from zhdd.sqmdd import iso_equal
from zhdd.sugar import expand_sugar
from zhdd.terms import Gen, HBox, XSpider, ZSpider, beside, seq
from zhdd.translate import generator_state_sqmdd, sqmdd_to_zh, zh_to_sqmdd

from conftest import network_from_ports, wired_once, x_fan_in

CAP = Settings(max_qubits=16)
# Simplification can widen the plan (the seed pinned below peaks at 11
# wires raw and 17 simplified), so the simplified side gets more room.
SMALL_CAP = Settings(max_qubits=20)


def redexes(net: Network) -> set[str]:
    """The rules of :func:`simplify_network` whose pattern occurs in ``net``."""
    found = set()
    mate = net.mate
    owner = {x: i for i, mine in enumerate(net.legs) for x in mine}

    def is_z(i):
        return isinstance(net.instances[i].kind, ZSpider)

    for x, a in owner.items():
        y = mate[x]
        if y < x:  # a boundary wire, or a wire seen from its other end
            continue
        b = owner[y]
        za, zb = is_z(a), is_z(b)
        if a == b and za:
            found.add("z-self-loop")
        elif a != b and za and zb:
            found.add("z-fusion")
    for i, inst in enumerate(net.instances):
        if inst.kind == ZSpider(0, 0):
            found.add("closed-copy-scalar")
        if inst.kind == ZSpider(0, 2) and not all(mate[x] < 0 for x in net.legs[i]):
            found.add("z-identity")
    return found


def check(net: Network) -> Network:
    before = copy.deepcopy(net)
    small = simplify_network(net)
    assert net == before
    assert wired_once(small) and not redexes(small)
    assert len(small.instances) <= len(net.instances)
    try:
        want = net_interpret(net, CAP)
    except ResourceLimitError:
        assume(False)
    assert max_deviation(net_interpret(small, SMALL_CAP), want) <= 1e-9
    return small


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=61564691)
def test_simplify_keeps_random_term_networks(seed):
    rng = np.random.default_rng(seed)
    check(flatten_to_network(random_term(rng, max_generators=10, max_boundary=6)))


@pytest.mark.parametrize("fan_in", ["monoid", "x"])
@given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 3))
def test_simplify_keeps_emitted_networks(seed, height, fan_in):
    """The emitted term, and the same term with full-xor fan-ins."""
    t = sqmdd_to_zh(random_dag(np.random.default_rng(seed), height))
    check(flatten_to_network(t if fan_in == "monoid" else x_fan_in(t)))


_Z3, _H2 = ZSpider(0, 3), HBox(0, 2)
REDEX_NETWORKS = {  # one pattern each, as network_from_ports arguments
    "z-fusion": ([_Z3, _Z3], [((0, 0), (1, 0))], [(0, 1), (0, 2), (1, 1), (1, 2)]),
    "z-self-loop": ([_Z3], [((0, 0), (0, 1))], [(0, 2)]),
    "z-identity": ([HBox(0, 1, 2), ZSpider(0, 2)], [((0, 0), (1, 0))], [(1, 1)]),
    "closed-copy-scalar": ([ZSpider(0, 0)], [], []),
}


@pytest.mark.parametrize("rule", list(REDEX_NETWORKS))
def test_redexes_finds_each_rule(rule):
    """The positive control of ``redexes``, which every ``check`` asks to
    find nothing: on a small unsimplified network that holds one pattern,
    it reports that rule alone, and simplification removes it."""
    net = network_from_ports(*REDEX_NETWORKS[rule])
    assert redexes(net) == {rule}
    check(net)


def test_minus_one_h_pairs_stay():
    """No rule rewrites an H-box: two H-boxes labelled -1 on one wire, and
    the ring of two, pass simplification unchanged.  Contracted, the pair
    is the pair-free term's diagram times 2 (H times H is twice the
    identity) and the ring is 4 times the scalar 1 of ``XSpider(0, 0)``."""
    pair = network_from_ports([_H2, _H2, _Z3], [((0, 1), (1, 0)), ((1, 1), (2, 0))],
                              [(0, 0), (2, 1), (2, 2)])
    ring = network_from_ports([_H2, _H2], [((0, 0), (1, 0)), ((0, 1), (1, 1))], [])
    for net in (pair, ring):
        assert check(net) == net
    h = Gen(HBox(1, 1, -1))
    z3 = Gen(ZSpider(0, 3))
    for term, bare, factor in (
        (seq(z3, beside(0, seq(h, h), 2)), z3, 2),
        (seq(Gen(HBox(0, 2, -1)), Gen(HBox(2, 0, -1))), Gen(XSpider(0, 0)), 4),
    ):
        got = zh_to_sqmdd(term, assert_stages=True)
        assert iso_equal(got, scale(zh_to_sqmdd(bare), factor))


def test_a_boundary_wire_stays_a_spider():
    """A network has no boundary-to-boundary wire, so a Z(2) between two
    boundary wires stays."""
    z = network_from_ports([ZSpider(0, 2)], [], [(0, 0), (0, 1)])
    assert check(z) == z


def test_kinds_never_change():
    """A one-legged H-box labelled 1 is a one-legged Z, but it stays an
    H-box: as a Z it would fuse into the spider it is wired to."""
    net = network_from_ports([HBox(0, 1, 1), ZSpider(0, 3)], [((0, 0), (1, 0))],
                             [(1, 1), (1, 2)])
    assert check(net) == net


def test_labels_are_compared_exactly():
    near = 1 + 1e-12 + 0j
    net = network_from_ports([HBox(0, 1, near), ZSpider(0, 2)], [((0, 0), (1, 0))], [(1, 1)])
    small = check(net)
    assert [i.kind for i in small.instances] == [HBox(0, 1, near)]


def test_simplify_shrinks_the_emitted_z_state():
    """Fewer instances, and a contraction plan half as wide (706 to 578
    instances, peak width 53 to 26): the one-legged H-boxes labelled 1 that
    stay keep the level spiders from fusing into one wide spider.  Run on
    the fully expanded term, whose gadgets and weight boxes are core
    generators that the rules can reach."""
    t = expand_sugar(sqmdd_to_zh(generator_state_sqmdd("z", 16)))
    net = flatten_to_network(t)
    small = simplify_network(net)
    assert not redexes(small)
    assert len(small.instances) < 0.85 * len(net.instances)
    assert contraction_steps(small)[2] <= contraction_steps(net)[2] // 2


def test_simplify_leaves_its_input_unchanged():
    """Simplification edits a copy of the wiring: the emitted Z state's
    network, full of fusions and identities, reads the same afterwards."""
    net = flatten_to_network(sqmdd_to_zh(generator_state_sqmdd("z", 6)))
    before = copy.deepcopy(net)
    small = simplify_network(net)
    assert net == before and net.mate is not small.mate
    assert len(small.instances) < len(net.instances)
