import os
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings as hsettings, strategies as st

# Hypothesis's failure report imports libcst, whose import raises a
# DeprecationWarning about mypy_extensions.TypedDict.  Under ``-W error``
# that would turn a falsifying example into an INTERNALERROR, and a
# command-line -W filter outranks any ini filter, so the modules it needs
# are imported here, once, with that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", r"mypy_extensions\.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import libcst.codemod  # noqa: F401
        import libcst.matchers  # noqa: F401
        import libcst.metadata  # noqa: F401
    except ImportError:  # no libcst: the report has nothing to import
        pass

hsettings.register_profile(
    "dev",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hsettings.register_profile(
    "ci",
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hsettings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "dev"))


# ---------------------------------------------------------------------------
# shared strategies

PALETTE = [0j, 1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0j, -0.5 + 0j, 1 + 1j]

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def weights(allow_zero: bool = True) -> st.SearchStrategy[complex]:
    pool = PALETTE if allow_zero else PALETTE[1:]
    return st.one_of(
        st.sampled_from(pool),
        st.builds(complex, finite, finite).filter(
            lambda z: allow_zero or abs(z) > 1e-6
        ),
    )


@st.composite
def small_vectors(draw, max_height: int = 4):
    h = draw(st.integers(1, max_height))
    vals = draw(
        st.lists(weights(), min_size=2**h, max_size=2**h)
    )
    return np.array(vals, dtype=complex)


def rngs() -> st.SearchStrategy[np.random.Generator]:
    return st.integers(0, 2**32 - 1).map(np.random.default_rng)


@pytest.fixture
def rng():
    return np.random.default_rng(0xDD)


SCRAMBLE_MOVES = ("_inverse_factor", "_inverse_merge", "_inverse_skip", "_inverse_zero_edge")


@pytest.fixture
def scramble_moves(monkeypatch):
    """A Counter of how often each inverse move of ``scramble`` (keyed by
    its name in :data:`SCRAMBLE_MOVES`) finds its pattern during the test."""
    import zhdd.generate

    fired = Counter()

    def counted(move):
        def run(d, rng):
            hit = move(d, rng)
            fired[move.__name__] += hit
            return hit
        return run

    for name in SCRAMBLE_MOVES:
        monkeypatch.setattr(zhdd.generate, name, counted(getattr(zhdd.generate, name)))
    return fired


def relabelled(d, rng):
    """``d`` with its node ids replaced by a random injection into 1..3n."""
    from zhdd.sqmdd import TERMINAL, Node, Sqmdd

    ids = rng.choice(np.arange(1, 3 * len(d.nodes) + 1), size=len(d.nodes), replace=False)
    new = dict(zip(d.nodes, map(int, ids)))
    new[TERMINAL] = TERMINAL
    nodes = {new[i]: Node(n.height, n.w0, new[n.c0], n.w1, new[n.c1]) for i, n in d.nodes.items()}
    return Sqmdd(d.scalar, d.height, new[d.root], nodes)


def x_fan_in(t):
    """``t`` with each ``MonoidN(k)`` fan-in replaced by ``XSpider(k, 1)``:
    the same map on one-hot branch indicators, as the ``fan-in-interchange``
    claim states, but not a term the emitter writes."""
    from zhdd.terms import Gen, MonoidN, XSpider, fold, par, seq

    def gen(kind):
        return Gen(XSpider(kind.inputs, 1) if isinstance(kind, MonoidN) else kind)

    return fold(t, gen, seq, par)


# ---------------------------------------------------------------------------
# dense reference


def matrix_reference(t):
    """The definitional matrix of a term, with no cap: each generator's
    closed form, ``seq(a, b)`` as ``B @ A`` and ``par(a, b)`` as
    ``np.kron(A, B)``."""
    from zhdd.config import DENSE_WIRE_LIMIT, Settings
    from zhdd.oracle import generator_matrix
    from zhdd.terms import fold

    uncapped = Settings(max_qubits=DENSE_WIRE_LIMIT)
    return fold(t, lambda kind: generator_matrix(kind, uncapped), lambda a, b: b @ a, np.kron)


# ---------------------------------------------------------------------------
# wiring networks


def network_from_ports(instances, wires, outputs, scalar=1.0 + 0j):
    """A ``Network`` from (instance, leg) specs: ``instances`` as generator
    kinds in state form (``ZSpider(0, k)``, ``HBox(0, k, label)``, whole
    sugar), each wire as a pair of ends, and the end of each boundary wire
    in order.  Leg ids go out in instance order."""
    from zhdd.network import NetInstance, Network

    insts = [NetInstance(kind) for kind in instances]
    first = [0]
    for inst in insts:
        first.append(first[-1] + inst.arity)
    mate = [0] * first[-1]
    for (a, p), (b, q) in wires:
        mate[first[a] + p], mate[first[b] + q] = first[b] + q, first[a] + p
    for k, (a, p) in enumerate(outputs):
        mate[first[a] + p] = ~k
    legs = [tuple(range(first[i], first[i + 1])) for i in range(len(insts))]
    return Network(insts, legs, mate, len(outputs), scalar)


def wired_once(net) -> bool:
    """Each instance owns ``arity`` distinct leg ids, ``mate`` is an
    involution without fixed points on them, and the boundary wires ``~k``
    cover ``range(n_out)`` once."""
    ids = [x for mine in net.legs for x in mine]
    owned = set(ids)
    if len(owned) != len(ids) or [len(m) for m in net.legs] != [i.arity for i in net.instances]:
        return False
    mate = net.mate
    inner = all(mate[x] != x and mate[x] in owned and mate[mate[x]] == x
                for x in ids if mate[x] >= 0)
    return inner and sorted(~mate[x] for x in ids if mate[x] < 0) == list(range(net.n_out))
