"""Frozen dense matrices for every generator.

These arrays were written out by hand from the matrix definitions before
the interpreter existed; everything else in the test suite leans on them.
Shape convention: a generator with n inputs and m outputs is a
(2**m, 2**n) matrix, first wire = most significant bit.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zhdd.config import DEFAULT, Settings
from zhdd.errors import ResourceLimitError
from zhdd.oracle import generator_matrix, interpret_sqmdd, interpret_zh, max_deviation
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
    Swap,
    WeightBox,
    XSpider,
    ZSpider,
    par,
    seq,
    wires,
)
from zhdd.translate import generator_state_sqmdd, sqmdd_to_zh

from conftest import matrix_reference, weights


def M(rows):
    return np.array(rows, dtype=complex)


FROZEN = {
    ZSpider(0, 0): M([[2]]),
    ZSpider(1, 1): M([[1, 0], [0, 1]]),
    ZSpider(0, 1): M([[1], [1]]),
    ZSpider(1, 0): M([[1, 1]]),
    ZSpider(1, 2): M([[1, 0], [0, 0], [0, 0], [0, 1]]),
    ZSpider(2, 1): M([[1, 0, 0, 0], [0, 0, 0, 1]]),
    ZSpider(0, 3): M([[1], [0], [0], [0], [0], [0], [0], [1]]),
    HBox(0, 0, -1): M([[-1]]),
    HBox(1, 1, -1): M([[1, 1], [1, -1]]),
    HBox(1, 0, -1): M([[1, -1]]),
    HBox(0, 1, -1): M([[1], [-1]]),
    HBox(2, 1, -1): M([[1, 1, 1, 1], [1, 1, 1, -1]]),
    HBox(1, 2, -1): M([[1, 1], [1, 1], [1, 1], [1, -1]]),
    HBox(0, 1, 0): M([[1], [0]]),  # |0> as a labelled box
    XSpider(1, 1): M([[1, 0], [0, 1]]),
    XSpider(0, 1): M([[1], [0]]),
    XSpider(1, 0): M([[1, 0]]),
    XSpider(2, 1): M([[1, 0, 0, 1], [0, 1, 1, 0]]),  # parity of the inputs
    NotXSpider(1, 1): M([[0, 1], [1, 0]]),
    NotXSpider(0, 1): M([[0], [1]]),
    NotXSpider(1, 0): M([[0, 1]]),
    NotXSpider(0, 0): M([[0]]),
    MonoidN(1): M([[1, 0], [0, 1]]),
    MonoidN(2): M([[1, 0, 0, 0], [0, 1, 1, 0]]),
    MonoidN(3): M([[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 0, 0, 0]]),
    Gadget(): M([[1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0]]),
    WeightBox(2.5 + 1j): M([[1, 0], [0, 2.5 + 1j]]),
    Identity(): M([[1, 0], [0, 1]]),
    Swap(): M([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    Cap(): M([[1], [0], [0], [1]]),
    Cup(): M([[1, 0, 0, 1]]),
    KetZero(): M([[1], [0]]),
    KetOne(): M([[0], [1]]),
    KetPlus(): M([[1], [1]]),
    BraPlus(): M([[1, 1]]),
}


@pytest.mark.parametrize("kind", list(FROZEN), ids=lambda k: repr(k))
def test_generator_matrix_frozen(kind):
    got = generator_matrix(kind)
    want = FROZEN[kind]
    assert got.shape == want.shape
    assert np.array_equal(got, want), f"{kind!r}:\n{got}\nexpected\n{want}"


def test_x_spider_two_two():
    got = generator_matrix(XSpider(2, 2))
    want = M([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]])
    assert np.allclose(got, want)


@given(n=st.integers(0, 3), m=st.integers(0, 3))
def test_x_spider_matches_hadamard_conjugation(n, m):
    """The closed form equals H-conjugation of the Z spider (one global
    half absorbs the unnormalized Hadamards)."""
    had = M([[1, 1], [1, -1]])

    def kron_pow(k):
        out = np.eye(1, dtype=complex)
        for _ in range(k):
            out = np.kron(out, had)
        return out

    z = generator_matrix(ZSpider(n, m))
    want = kron_pow(m) @ z @ kron_pow(n) * 0.5
    assert np.allclose(generator_matrix(XSpider(n, m)), want, atol=1e-12)


@given(n=st.integers(0, 3), m=st.integers(0, 3))
def test_notx_is_x_with_not_on_one_leg(n, m):
    """NotX differs from X by a NOT on any *single* leg (with no legs at
    all the two are unrelated: X(0,0) = 1 but NotX(0,0) = 0)."""
    x = generator_matrix(XSpider(n, m))
    nx = generator_matrix(NotXSpider(n, m))
    flip = M([[0, 1], [1, 0]])
    if n >= 1:
        want = x @ np.kron(flip, np.eye(2 ** (n - 1)))
    elif m >= 1:
        want = np.kron(flip, np.eye(2 ** (m - 1))) @ x
    else:
        want = M([[0]])
    assert np.allclose(nx, want, atol=1e-12)


@given(n=st.integers(0, 4), m=st.integers(0, 4))
def test_z_spider_two_nonzeros(n, m):
    z = generator_matrix(ZSpider(n, m))
    assert z.shape == (2**m, 2**n)
    flat = z.reshape(-1)
    nz = np.flatnonzero(flat)
    if n == m == 0:
        assert flat[0] == 2  # both corners collapse onto one entry
    else:
        assert list(nz) == [0, flat.size - 1]
        assert flat[0] == 1 and flat[-1] == 1


@given(n=st.integers(0, 3), m=st.integers(0, 3), r=weights())
def test_hbox_all_ones_but_corner(n, m, r):
    h = generator_matrix(HBox(n, m, r))
    assert h.shape == (2**m, 2**n)
    expect = np.ones((2**m, 2**n), dtype=complex)
    expect[-1, -1] = r
    assert np.array_equal(h, expect)


@given(k=st.integers(1, 4))
def test_monoid_counts_single_bits(k):
    mat = generator_matrix(MonoidN(k))
    assert mat.shape == (2, 2**k)
    for x in range(2**k):
        pc = bin(x).count("1")
        col = mat[:, x]
        if pc <= 1:
            assert col[pc] == 1 and col.sum() == 1
        else:
            assert not col.any()


# --- composition plumbing ---------------------------------------------------


def test_par_is_kron_first_wire_msb():
    t = par(Gen(KetZero()), Gen(KetOne()))
    v = interpret_zh(t).reshape(-1)
    assert np.array_equal(v, M([[0], [1], [0], [0]]).reshape(-1))  # |01>


def test_seq_applies_left_first():
    t = seq(Gen(KetZero()), Gen(NotXSpider(1, 1)))
    assert np.array_equal(interpret_zh(t).reshape(-1), np.array([0, 1]))


def test_scalar_times_scalar():
    t = par(Gen(HBox(0, 0, 3j)), Gen(HBox(0, 0, 2)))
    assert np.allclose(interpret_zh(t), M([[6j]]))


@given(seed=st.integers(0, 2**32 - 1), max_qubits=st.sampled_from([6, 8, 16]))
def test_interpreter_methods_agree(seed, max_qubits):
    """The state route, cut in halves wherever a state would pass the cap,
    and the definitional matrix recursion give the same answer; under a
    tight cap the state route may only refuse."""
    from zhdd.generate import random_term

    rng = np.random.default_rng(seed)
    t = random_term(rng, max_generators=6, max_boundary=5)
    try:
        b = interpret_zh(t, Settings(max_qubits=max_qubits))
    except ResourceLimitError:
        assert max_qubits < DEFAULT.max_qubits
        return
    assert max_deviation(matrix_reference(t), b) <= 1e-9


def test_qubit_cap_enforced():
    with pytest.raises(ResourceLimitError):
        interpret_zh(Gen(ZSpider(0, 5)), Settings(max_qubits=4))


def test_qubit_cap_counts_inputs_and_outputs():
    """A 3-wire bundle is an 8 x 8 matrix, as large as a 6-wire state: a
    term and each generator are capped on inputs plus outputs."""
    cap4 = Settings(max_qubits=4)
    with pytest.raises(ResourceLimitError):
        interpret_zh(wires(3), cap4)
    with pytest.raises(ResourceLimitError):
        generator_matrix(Identity(3), cap4)
    with pytest.raises(ResourceLimitError):  # an effect, then a state
        interpret_zh(seq(Gen(ZSpider(3, 0)), Gen(ZSpider(0, 3))), cap4)
    assert interpret_zh(wires(2), cap4).shape == (4, 4)


def test_a_map_is_evaluated_within_the_cap():
    """A map runs on the state route in chunks of input basis states, so no
    intermediate holds more than 2**max_qubits entries.  Ten single wires
    into a Z effect evaluate at a cap of 10 without the 2**10 x 2**10
    identity block (16 MiB) that the matrix route builds."""
    cap = Settings(max_qubits=10)
    want = np.zeros((1, 1024))
    want[0, 0] = want[0, -1] = 1
    tracemalloc.start()
    try:
        got = interpret_zh(seq(par(*[Gen(Identity())] * 10), Gen(ZSpider(10, 0))), cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max_deviation(got, want) == 0.0
    assert peak < 2**20


def _singles(k):
    return par(*[Gen(Identity())] * k)


def test_a_row_wider_than_the_cap_is_cut_in_halves():
    """A bent map whose row needs 11 wires evaluates at a cap of 10: the
    state is cut along a wire that the next generators leave alone, so the
    peak stays within a few 10-wire states (16 KiB each).  The matrix
    recursion this replaces peaked at 1.3 MB here."""
    t = seq(
        par(_singles(5), Gen(ZSpider(0, 5))),
        par(_singles(5), seq(par(Gen(ZSpider(0, 1)), _singles(5)), Gen(ZSpider(6, 0)))),
    )
    cap = Settings(max_qubits=10)
    tracemalloc.start()
    try:
        got = interpret_zh(t, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max_deviation(got, matrix_reference(t)) <= 1e-12
    assert peak < 128 * 1024


def test_cuts_continue_in_a_loop():
    """2,000 rows that each pass the cap and fall back under it: every cut
    is stacked back before the next, so nesting stays one cut deep and no
    recursion limit is reached.  Each bubble denotes 2, and a 1/2 beside
    it keeps the value finite."""
    bubble = par(_singles(5), seq(Gen(ZSpider(0, 6)), Gen(ZSpider(6, 0))), Gen(HBox(0, 0, 0.5)))
    t = seq(Gen(ZSpider(0, 5)), *[bubble] * 2000)
    want = np.zeros((32, 1))
    want[0] = want[-1] = 1
    assert max_deviation(interpret_zh(t, Settings(max_qubits=10)), want) <= 1e-12


def test_a_state_no_cut_keeps_under_the_cap_is_refused():
    """Past the cap after the Z(0, 1), the four older wires are all touched
    by the Z(2)s before the state fits again: cutting one of them would
    need a sum over its values, so the oracle refuses, by name."""
    t = seq(
        Gen(ZSpider(0, 4)),
        par(_singles(4), Gen(ZSpider(0, 1))),
        par(Gen(ZSpider(2, 2)), _singles(3)),
        par(_singles(2), Gen(ZSpider(2, 2)), _singles(1)),
        par(_singles(3), Gen(ZSpider(2, 1))),
    )
    with pytest.raises(ResourceLimitError, match=r"after ZSpider\(0->1\) spans 5 dense wires \(cap is 4\)"):
        interpret_zh(t, Settings(max_qubits=4))
    assert max_deviation(interpret_zh(t, Settings(max_qubits=5)), matrix_reference(t)) == 0.0


@pytest.mark.parametrize("kind, height", [("z", 6), ("z", 7), ("h", 8)])
def test_emitted_states_within_the_default_cap(kind, height):
    """Emitted terms whose rows pass the default cap still evaluate, and
    agree with the diagram they were emitted from."""
    d = generator_state_sqmdd(kind, height)
    got = interpret_zh(sqmdd_to_zh(d)).reshape(-1)
    assert max_deviation(got, interpret_sqmdd(d)) <= 1e-12


def test_a_map_fills_the_cap_with_inputs_alone():
    """A nine-input effect is a 1 x 512 matrix at the default cap: its
    inputs are batched, not bent into nine more wires."""
    want = np.zeros((1, 512))
    want[0, 0] = want[0, -1] = 1
    assert max_deviation(interpret_zh(Gen(ZSpider(9, 0))), want) == 0.0


def test_identity_bundle_passes_its_wires():
    state = seq(Gen(ZSpider(0, 3)), par(Gen(Identity(2)), Gen(WeightBox(2j))))
    want = np.zeros(8, dtype=complex)
    want[0], want[7] = 1, 2j
    assert max_deviation(interpret_zh(state).reshape(-1), want) == 0.0
    assert max_deviation(matrix_reference(state).reshape(-1), want) == 0.0
    assert max_deviation(generator_matrix(Identity(3)), np.eye(8)) == 0.0


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (2, 1), (1, 2), (0, 1), (1, 0)])
@pytest.mark.parametrize("batch", [1, 4])
def test_apply_picks_either_product_and_agrees_with_the_batched_one(n, m, batch):
    """At every axis position of a 10-wire state, with and without a batch
    axis, ``_apply`` equals the batched product ``mat @ state``.  Entries
    are small integers, so both summation orders are exact."""
    from zhdd.oracle import _apply

    rng = np.random.default_rng(n * 10 + m)
    state = rng.integers(-3, 4, size=(2,) * 10 + (batch,)) + 1j * rng.integers(
        -3, 4, size=(2,) * 10 + (batch,))
    mat = rng.integers(-3, 4, size=(2**m, 2**n)) + 0j
    for at in range(11 - n):
        shape = state.shape
        want = (mat @ state.reshape(2**at, 2**n, -1)).reshape(
            shape[:at] + (2,) * m + shape[at + n :])
        got = _apply(state, mat, at, n, m)
        assert got.shape == want.shape and np.array_equal(got, want), at
