"""Both translation directions, checked against the dense oracle."""
import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings as hsettings, strategies as st

from zhdd.algebra import canonical, canonical_from_vector
from zhdd.config import Settings
from zhdd.duality import to_state_form
from zhdd.errors import ResourceLimitError, ShapeError
from zhdd.generate import random_dag, random_term, random_vector
from zhdd.network import (
    contraction_steps,
    flatten_to_network,
    net_interpret,
    simplify_network,
)
from zhdd.oracle import (
    interpret_sqmdd,
    interpret_zh,
    interpret_zh_state,
    max_deviation,
)
from zhdd.reduction import is_irreducible, reduce_diagram
from zhdd.sqmdd import TERMINAL, Builder, Sqmdd, iso_equal, sqmdd_to_json, validate
from zhdd.terms import (
    Cap,
    Cup,
    Gen,
    HBox,
    Identity,
    KetOne,
    KetPlus,
    MonoidN,
    NotXSpider,
    SeqNode,
    Swap,
    XSpider,
    ZSpider,
    beside,
    iter_generators,
    par,
    seq,
    wires,
)
import zhdd.translate
from zhdd.translate import (
    generator_state_sqmdd,
    sqmdd_read_back,
    sqmdd_to_zh,
    zh_to_sqmdd,
)

from conftest import network_from_ports, relabelled, x_fan_in

WIDE = Settings(max_qubits=24)


# --- diagram -> term ----------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
def test_emitted_term_denotes_the_diagram(seed):
    rng = np.random.default_rng(seed)
    d = random_dag(rng, 1 + seed % 6, settings=WIDE)
    t = sqmdd_to_zh(d)
    assert t.n_in == 0 and t.n_out == d.height
    got = interpret_zh(t, WIDE).reshape(-1)
    assert max_deviation(got, interpret_sqmdd(d, WIDE)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
def test_read_back_inverts_emission(seed):
    """to-zh output is structured enough to parse right back."""
    rng = np.random.default_rng(seed)
    d = reduce_diagram(random_dag(rng, 1 + seed % 5, settings=WIDE), WIDE)[0]
    t = sqmdd_to_zh(d)
    back = sqmdd_read_back(t)
    assert iso_equal(back, d)


@pytest.mark.parametrize("mode", ["monoid", "x"])
def test_read_back_inverts_emission_in_both_fan_in_modes(mode):
    """Read-back inverts the emission.  The same term with full-xor fan-ins
    still denotes the diagram, but it is not an emission, so read-back
    refuses it wherever it differs from the emitted term."""
    rng = np.random.default_rng(3)
    refused = 0
    for k in range(30):
        d = canonical(random_dag(rng, 1 + k % 6, settings=WIDE), WIDE)
        t = sqmdd_to_zh(d)
        if mode == "monoid" or x_fan_in(t) == t:
            assert iso_equal(sqmdd_read_back(t), d)
            continue
        t = x_fan_in(t)
        got = interpret_zh(t, WIDE).reshape(-1)
        assert max_deviation(got, interpret_sqmdd(d, WIDE)) <= 1e-9
        with pytest.raises(ShapeError, match="XSpider"):
            sqmdd_read_back(t)
        refused += 1
    assert mode == "monoid" or refused >= 10


@hsettings(max_examples=500)
@given(seed=st.integers(0, 2**32 - 1), relabel=st.integers(0, 2**32 - 1))
def test_emission_does_not_depend_on_node_ids(seed, relabel):
    """Each level is laid out by the nodes' place in the diagram, so a
    relabelled copy emits the very same term."""
    d = canonical(random_dag(np.random.default_rng(seed), 1 + seed % 6, settings=WIDE), WIDE)
    assert sqmdd_to_zh(relabelled(d, np.random.default_rng(relabel))) == sqmdd_to_zh(d)


def _counts(t):
    """(generators, swaps) of a term."""
    kinds = list(iter_generators(t))
    return len(kinds), sum(isinstance(k, Swap) for k in kinds)


_SHAPES = {
    "z": lambda h: generator_state_sqmdd("z", h),
    "h": lambda h: generator_state_sqmdd("h", h),
    "terminal-only": lambda h: Sqmdd(1 + 0j, h, TERMINAL, {}),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_emission_grows_linearly_in_height(shape):
    """Generators and swaps each grow at most 2.2x per doubling of the
    height: every row holds one generator between two identity bundles,
    and no gather crosses a finished level wire or a terminal-bound wire."""
    counts = [_counts(sqmdd_to_zh(_SHAPES[shape](h))) for h in (8, 16, 32, 64)]
    for (gens, swaps), (gens2, swaps2) in zip(counts, counts[1:]):
        assert gens2 <= 2.2 * gens and swaps2 <= 2.2 * swaps


def test_emitted_sizes():
    """147,800 generators (2,079 swaps) for the Z state of 32 legs and
    29,380 for the H-box state when every row was padded wire by wire."""
    gens, swaps = _counts(sqmdd_to_zh(generator_state_sqmdd("z", 32)))
    assert gens <= 1300 and swaps <= 130
    assert _counts(sqmdd_to_zh(generator_state_sqmdd("h", 32)))[0] <= 600
    for h in (0, 1, 8, 100):
        assert _counts(sqmdd_to_zh(_SHAPES["terminal-only"](h))) <= (3 * h + 8, 0)


def _rows(chain):
    """The rows of a left-folded ``seq`` chain, first row first."""
    rows = []
    while isinstance(chain, SeqNode):
        rows.append(chain.then)
        chain = chain.first
    return [chain, *reversed(rows)]


@given(seed=st.integers(0, 2**32 - 1))
def test_read_back_does_not_depend_on_row_grouping(seed):
    """The first level's state and the bootstrap |1> below it, fused into
    one ``par`` row, act on disjoint wires, so they mean what the two rows
    did, and the parse reads them the same way."""
    rng = np.random.default_rng(seed)
    d = canonical(random_dag(rng, 1 + seed % 4, settings=WIDE), WIDE)
    t = sqmdd_to_zh(d)
    boot, first_level, *rest = _rows(t.right)
    fused = par(t.left, seq(par(first_level.left, boot), *rest))
    assert iso_equal(sqmdd_read_back(fused), d)
    got = interpret_zh(fused, WIDE).reshape(-1)
    assert max_deviation(got, interpret_sqmdd(d, WIDE)) <= 1e-9


_SCALAR = Gen(HBox(0, 0, 1))
_BOOT_TO_TERMINAL = seq(Gen(KetOne()), Gen(MonoidN(1)), Gen(NotXSpider(1, 0)))
_LEVEL_CHAIN = sqmdd_to_zh(  # the emitted layer chain of a height-2 diagram
    canonical(random_dag(np.random.default_rng(5), 2, settings=WIDE), WIDE)
).right


@pytest.mark.parametrize(
    "term, message",
    [
        (_BOOT_TO_TERMINAL, "nullary H-box"),
        (par(_SCALAR, par(Gen(Cap()), _BOOT_TO_TERMINAL)), "unexpected generator"),
        (
            par(_SCALAR, seq(_LEVEL_CHAIN, par(Gen(MonoidN(1)), wires(1)))),
            "fan-in .* applied to a non-branch wire",
        ),
        (
            par(_SCALAR, seq(Gen(KetOne()), Gen(ZSpider(1, 1)), Gen(NotXSpider(1, 0)))),
            "a Z-spider would copy",
        ),
        (par(_SCALAR, seq(Gen(KetOne()), Gen(MonoidN(1)))), "no terminal postselection"),
        (par(_SCALAR, Gen(NotXSpider(1, 0))), "inputs"),
        (
            par(_SCALAR, seq(Gen(KetOne()), Gen(XSpider(1, 1)), Gen(NotXSpider(1, 0)))),
            "unexpected generator XSpider",
        ),
    ],
    ids=["no-scalar", "cap", "fan-in-over-level-wire", "z-spider-fan-in",
         "no-postselection", "chain-with-input", "x-spider-fan-in"],
)
def test_read_back_rejects_malformed_chains(term, message):
    # each case breaks a chain that reads back (to a height-0 diagram)
    assert sqmdd_read_back(par(_SCALAR, _BOOT_TO_TERMINAL)).height == 0
    with pytest.raises(ShapeError, match=message):
        sqmdd_read_back(term)


# --- term -> diagram ----------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
def test_contraction_is_exact_and_irreducible(seed):
    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=8, max_boundary=6)
    d = zh_to_sqmdd(t, WIDE)
    assert validate(d) == []
    assert is_irreducible(d, WIDE)
    s = to_state_form(t) if t.n_in else t
    assert d.height == s.n_out
    assert max_deviation(interpret_sqmdd(d, WIDE), interpret_zh_state(s, WIDE)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
def test_stage_asserted_contraction(seed):
    """With assert_stages every intermediate state is mirrored densely;
    only feasible when the desugared network is small."""
    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=4, max_boundary=4)
    net = flatten_to_network(t)
    assume(sum(i.arity for i in net.instances) <= 16)
    d = zh_to_sqmdd(t, WIDE, assert_stages=True)
    s = to_state_form(t) if t.n_in else t
    assert max_deviation(interpret_sqmdd(d, WIDE), interpret_zh_state(s, WIDE)) <= 1e-9


def test_stage_assertions_refuse_oversized_networks():
    t = Gen(ZSpider(0, 8))
    with pytest.raises(ResourceLimitError):
        zh_to_sqmdd(t, Settings(max_qubits=4), assert_stages=True)


def test_stage_assertions_follow_the_plan():
    """The dense mirror is capped by the plan's peak width, not by the
    network's leg count, so an emitted 3-qubit diagram is checkable."""
    settings = Settings(max_qubits=20)
    d = random_dag(np.random.default_rng(2), 3, settings=settings)
    t = sqmdd_to_zh(d)
    net = flatten_to_network(t)
    assert sum(i.arity for i in net.instances) > 200
    back = zh_to_sqmdd(t, settings, assert_stages=True)
    assert iso_equal(back, reduce_diagram(d, settings)[0])


def _patch_steps(monkeypatch, change) -> None:
    """Pass the edge that each contraction step returns through ``change``:
    the closed wire and the instance applied in place."""
    for name in ("contract_edge", "apply_in_place"):
        step = getattr(zhdd.translate, name)
        monkeypatch.setattr(zhdd.translate, name, lambda *args, step=step: change(step(*args)))


def test_stage_assertions_catch_a_drifting_contraction(monkeypatch):
    """The dense mirror can fail: a step's edge scaled by 1 + 1e-6 is
    caught at that stage."""
    t = seq(Gen(ZSpider(0, 3)), par(Gen(HBox(1, 1, -1)), wires(2)))
    zh_to_sqmdd(t, WIDE, assert_stages=True)
    _patch_steps(monkeypatch, lambda e: (e[0] * (1 + 1e-6), e[1]))
    with pytest.raises(AssertionError, match="drifted"):
        zh_to_sqmdd(t, WIDE, assert_stages=True)


def test_stage_assertions_catch_a_nan(monkeypatch):
    """A NaN deviation is a drift too; unchecked, the NaN scalar stops at
    ``Builder.finish`` as a resource limit."""
    t = seq(Gen(ZSpider(0, 3)), par(Gen(HBox(1, 1, -1)), wires(2)))
    _patch_steps(monkeypatch, lambda e: (complex("nan"), e[1]))
    with pytest.raises(AssertionError, match="drifted"):
        zh_to_sqmdd(t, WIDE, assert_stages=True)
    with pytest.raises(ResourceLimitError):
        zh_to_sqmdd(t, WIDE)


def test_scalar_loops_keep_a_unit_scalar():
    """3,000 components that each denote 1: a loop H-box closed by a cup
    (the scalar 2) beside a 1/2.  The 2s meet the contraction's scalar and
    the 1/2s the prefactor; both are kept as powers of two, so neither
    overflows before they meet."""
    one = par(seq(Gen(HBox(0, 2, 1)), Gen(Cup())), Gen(HBox(0, 0, 0.5)))
    d = zh_to_sqmdd(par(*[one] * 3000), assert_stages=True)
    assert (d.height, d.root) == (0, TERMINAL) and abs(d.scalar - 1) <= 1e-12


def test_long_x_spider_chain_keeps_its_prefactor():
    """Each X(1, 1) desugars to a 1/2 and an H pair that simplifies to a
    wire times 2.  The 1,200 halves would underflow a plain float before
    the 2s come back; as a power of two they cancel exactly.  The dense
    contraction of the raw network meets the same 2**-1200 prefactor
    against a vector that has grown by 2 per H pair."""
    t = seq(Gen(KetPlus()), *[Gen(XSpider(1, 1))] * 1200)
    d = zh_to_sqmdd(t, assert_stages=True)
    assert max_deviation(interpret_sqmdd(d), [1, 1]) <= 1e-12
    raw = flatten_to_network(t)
    assert raw.exp2 < -1100
    assert max_deviation(net_interpret(raw), [1, 1]) <= 1e-12


def test_contraction_runs_on_one_builder(monkeypatch):
    """Every tensor and closed wire shares one unique table."""
    t = sqmdd_to_zh(random_dag(np.random.default_rng(4), 4, settings=WIDE))
    made = []
    init = Builder.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Builder, "__init__", counting)
    zh_to_sqmdd(t, WIDE)
    assert len(made) == 1


@pytest.mark.parametrize("t", [
    Gen(Identity()),
    Gen(Cap()),
    Gen(Cup()),
    Gen(Swap()),
    seq(Gen(Cap()), Gen(Cup())),
    Gen(ZSpider(0, 0)),
    Gen(NotXSpider(0, 0)),
], ids=["identity", "cap", "cup", "swap", "loop", "z-scalar", "notx-scalar"])
def test_boundary_wires_and_scalars_contract(t):
    """Terms whose network is a bare wire, a boundary-to-boundary spider or
    a scalar with no instance left after simplification."""
    s = to_state_form(t) if t.n_in else t
    got = interpret_sqmdd(zh_to_sqmdd(t, WIDE, assert_stages=True), WIDE)
    assert max_deviation(got, interpret_zh(s, WIDE).reshape(-1)) <= 1e-9


def _edge_calls(monkeypatch, t) -> int:
    """Builder.edge calls made by zh_to_sqmdd(t)."""
    calls = [0]
    edge = Builder.edge

    def counting(self, *args):
        calls[0] += 1
        return edge(self, *args)

    monkeypatch.setattr(Builder, "edge", counting)
    zh_to_sqmdd(t)
    return calls[0]


def test_contraction_of_the_z_state_stays_small(monkeypatch):
    """Simplification and tensoring on top keep the emitted Z-16 state's
    contraction to about 25,000 Builder.edge calls (87,096 when every
    instance was tensored in below the state)."""
    assert _edge_calls(monkeypatch, sqmdd_to_zh(generator_state_sqmdd("z", 16))) <= 37_000


def test_one_sum_table_serves_the_whole_contraction(monkeypatch):
    """The builder's sum table outlives each closed wire, so the emitted
    Z-32 state's contraction takes about 53,000 Builder.edge calls (85,880
    with a fresh table per closed wire)."""
    assert _edge_calls(monkeypatch, sqmdd_to_zh(generator_state_sqmdd("z", 32))) <= 60_000


@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_from_canonical(seed):
    rng = np.random.default_rng(seed)
    d = canonical_from_vector(random_vector(rng, 1 + seed % 3), WIDE)
    t = sqmdd_to_zh(d)
    back = zh_to_sqmdd(t, WIDE)
    assert iso_equal(back, d)


# --- contraction planning -----------------------------------------------------


def test_plan_picks_the_smallest_frontier_then_the_next_component():
    net = network_from_ports(
        [("z", 0j, 2), ("z", 0j, 3), ("h", -1 + 0j, 1), ("z", 0j, 2)],
        [((0, 0), (1, 0)), ((0, 1), (2, 0)), ((3, 0), (3, 1))],
        [(1, 1), (1, 2)],
    )
    # 2 closes its only leg (-1) and goes before 1 (3 - 2 = +1); 3 is its
    # own component, started once nothing is wired to the placed part.  2
    # is an effect with one wire to a live leg, so it is applied in place,
    # at that leg's live position 1.  Any other placed instance's legs go
    # on top, and its wires close in leg order.
    steps, perm, peak = contraction_steps(net)
    assert steps == [(0, None, []), (2, 1, []), (1, None, [(0, 3)]), (3, None, [(0, 1)])]
    assert (perm, peak) == ([0, 1], 4)


@pytest.mark.parametrize("k", [4, 8, 16])
def test_plan_peak_width_of_emitted_z_states(k):
    """Tensoring everything first would build a state of all legs at once
    (802 of them for k = 8); the steps' live width stays linear in k."""
    net = flatten_to_network(sqmdd_to_zh(generator_state_sqmdd("z", k)))
    steps, perm, peak = contraction_steps(net)
    assert sorted(idx for idx, _, _ in steps) == list(range(len(net.instances)))
    assert sorted(perm) == list(range(k)) and peak <= 4 * k + 8


def _random_h_state(rng):
    """A state on 4 wires with random labels: an H state, then one H(1, 1)
    on each wire.  Its legs stay live in wire order."""
    def label():
        return complex(*rng.normal(size=2))

    return seq(Gen(HBox(0, 4, label())), par(*[Gen(HBox(1, 1, label())) for _ in range(4)]))


LABELS = (-1, 0, 0.5, 2 + 1j)


@pytest.mark.parametrize("at", [0, 2, 3], ids=["top", "middle", "bottom"])
@pytest.mark.parametrize(
    "gate",
    [Gen(ZSpider(1, 0))] + [Gen(HBox(1, m, a)) for m in (0, 1) for a in LABELS],
    ids=["z-effect"] + [f"h-{kind}-{a}" for kind in ("effect", "map") for a in LABELS],
)
def test_one_wire_instance_is_applied_in_place(gate, at):
    """A one-legged Z or H, or a two-legged H, on one wire of a random
    state is applied where the wire is; every stage matches the dense
    mirror, and the result the term."""
    t = seq(_random_h_state(np.random.default_rng(at)), beside(at, gate, 3 - at))
    net = simplify_network(flatten_to_network(t))
    last = len(net.instances) - 1  # the gate, the term's last generator
    assert (last, at, []) in contraction_steps(net)[0]
    got = interpret_sqmdd(zh_to_sqmdd(t, WIDE, assert_stages=True), WIDE)
    assert max_deviation(got, interpret_zh(t, WIDE).reshape(-1)) <= 1e-9


def test_in_place_steps_are_the_one_wire_instances(monkeypatch):
    """On an emitted diagram, exactly the instances of arity at most 2 with
    one wire to a placed instance are applied in place, and every other
    wire to a placed instance is closed by one contract_edge."""
    t = sqmdd_to_zh(random_dag(np.random.default_rng(4), 4, settings=WIDE))
    net = simplify_network(flatten_to_network(t))
    steps, _, _ = contraction_steps(net)
    owner = {x: i for i, mine in enumerate(net.legs) for x in mine}
    placed: set[int] = set()
    in_place = 0
    for idx, at, closes in steps:
        ends = [owner[net.mate[x]] for x in net.legs[idx] if net.mate[x] >= 0]
        wired = sum(m in placed for m in ends)
        placed.add(idx)
        if wired == 1 and net.instances[idx].arity <= 2:
            assert at is not None and closes == []
            in_place += 1
        else:  # a self-loop has both ends in ends
            assert at is None and len(closes) == wired + ends.count(idx) // 2
    calls = [0]
    close = zhdd.translate.contract_edge

    def counting(*args):
        calls[0] += 1
        return close(*args)

    monkeypatch.setattr(zhdd.translate, "contract_edge", counting)
    zh_to_sqmdd(t, WIDE)
    assert in_place > 0 and calls[0] == sum(len(c) for _, _, c in steps) > 0


def test_z16_round_trip_within_budget():
    d = generator_state_sqmdd("z", 16)
    t = sqmdd_to_zh(d)
    start = time.perf_counter()
    back = zh_to_sqmdd(t)
    assert time.perf_counter() - start < 10.0
    assert iso_equal(back, d)


@pytest.mark.parametrize("source", ["term", "dag"])
def test_contraction_is_deterministic(source):
    rng = np.random.default_rng(11)
    if source == "term":
        t = random_term(rng, max_generators=10, max_boundary=6)
    else:
        t = sqmdd_to_zh(random_dag(rng, 4, settings=WIDE))
    net = flatten_to_network(t)
    assert contraction_steps(net) == contraction_steps(flatten_to_network(t))
    first, second = (json.dumps(sqmdd_to_json(zh_to_sqmdd(t, WIDE))) for _ in range(2))
    assert first == second


# --- normal-form building blocks ----------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_z_state_block(k):
    d = generator_state_sqmdd("z", k)
    v = np.zeros(2**k, dtype=complex)
    v[0] = v[-1] = 1
    assert max_deviation(interpret_sqmdd(d), v) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_h_state_block(k):
    d = generator_state_sqmdd("h", k, label=2j)
    v = np.ones(2**k, dtype=complex)
    v[-1] = 2j
    assert max_deviation(interpret_sqmdd(d), v) == 0.0


def test_state_block_rejects_unknown_kind():
    with pytest.raises(ShapeError):
        generator_state_sqmdd("w", 2)


def test_contract_chain_far_above_the_recursion_limit():
    t = seq(Gen(ZSpider(0, 2)), *(Gen(Swap()) for _ in range(5000)))
    assert iso_equal(zh_to_sqmdd(t), generator_state_sqmdd("z", 2))
