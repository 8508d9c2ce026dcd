"""From syntax trees to wiring networks, and their contraction steps.

A term is a composition tree; what the translation to decision diagrams
actually needs is the underlying undirected network: which spider/box legs
are soldered to which.  A :class:`Network` stores it in one form: each
instance leg has a global id, and one array ``mate`` maps every leg to the
leg at its wire's other end, or to ``~k`` for boundary wire ``k``.
:func:`flatten_to_network` writes it in one pass over
:func:`~zhdd.terms.placed`, keeping the leg at the upper end of each live
wire: a generator that consumes a wire mates it with one of its own legs.
A cap and a cup are each a two-legged Z spider instance, as in PyZX
(Kissinger & van de Wetering, arXiv:1904.04735), so every wire runs from
one instance leg to another or to the boundary, and closed loops and
boundary-to-boundary wires need no case of their own.  No sugar is
expanded: each generator is one instance or none.  A routing gadget,
weight box, X or NotX spider is one instance of its own kind,
contracted in closed form, as a QMDD simulator applies a gate whole; a
``MonoidN(k)`` is the left comb of ``k - 1`` ``MonoidN(2)`` instances.  A
map's inputs are bent as :func:`~zhdd.duality.to_state_form` bends them,
a cap each, laid out in place of its swap network.  The prefactor is kept
as a mantissa and a power of two (:func:`scaled`), so the products of
many nullary H-boxes cannot underflow it before simplification
multiplies its 2s back in.  Legs are counted as they are made, and a
term past the limit that memory sets (:func:`leg_limit`) is refused.

:func:`simplify_network` shrinks a network before it is contracted, with
the exact Z rules of the ZH-calculus applied to a fixpoint on a copy of
``mate``: Z spiders joined by a wire fuse (``z-fusion``), a Z self-loop
goes (``z-self-loop``; a Z left with no legs is the scalar 2,
``closed-copy-scalar``), and a two-legged Z is a wire (``z-identity``).
This is the spider-fusion step of PyZX's ``spider_simp``, restricted to
rules of the ZH-calculus (Backens & Kissinger, arXiv:1805.02175); each
rule is a claim of :mod:`zhdd.claims`.  It turns the Z(2)s of caps and
cups into plain wires, the scalar 2 of a loop, or the spider between two
boundary wires.  Every other instance is left as it is, and no rule
changes an instance's kind: a one-legged H-box labelled 1 stays an H-box,
since as a Z it would fuse into its neighbour and widen the contraction.

:func:`contraction_steps` orders a network's instances and turns the
order into steps on a list of live legs, in one pass: greedy minimum
frontier, after Gray & Kourtis, *Hyper-optimized tensor network
contraction* (arXiv:2002.01935).  Each step takes, among the instances
wired to what is already placed, the one that leaves the fewest open legs.
A step has one of two forms.  An instance of arity at most 2 with exactly
one wire to a live leg is applied in place, at that leg's position, as a
QMDD simulator applies a one-qubit gate where its qubit is (Zulehner &
Wille, arXiv:1707.00865).  Any other instance is tensored in on top, and
its wires to live legs close in its leg order.  The output permutation is
read off ``~mate`` of the legs left at the end.
Both contraction engines run these steps:
:func:`zhdd.translate.zh_to_sqmdd` on decision diagrams, and
:func:`dense_stages` on dense vectors, which is the mirror of
``assert_stages`` and, through :func:`net_interpret`, a dense interpreter
whose cap bounds the steps' peak width rather than the network's total leg
count.

A network instance holds the generator it stands for, in state form, as
a PyZX vertex holds its type.  Z spiders, H-boxes, weight boxes, X and
NotX spiders are fully symmetric, so their leg order is bookkeeping;
a gadget's legs are its control and data inputs, then its two outputs,
and a monoid's its inputs, then its output.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from math import frexp, ldexp
from typing import Iterator, Optional

import numpy as np

from .config import DEFAULT, Settings, dense_cap
from .errors import ResourceLimitError
from .oracle import generator_matrix, interpret_zh
from .sugar import core_recipe
from .terms import (
    BraPlus,
    Cap,
    Cup,
    GeneratorKind,
    HBox,
    Identity,
    KetOne,
    KetPlus,
    KetZero,
    MonoidN,
    NotXSpider,
    Swap,
    XSpider,
    ZhTerm,
    ZSpider,
    generator_arity,
    placed,
)

# A bent input's cap, and the tooth of a monoid's comb.
_CAP, _MONOID2 = ZSpider(0, 2), MonoidN(2)


@dataclass(frozen=True)
class NetInstance:
    """The generator an instance stands for, in state form: ``ZSpider(0, k)``,
    ``HBox(0, k, label)``, or whole sugar as written."""

    kind: GeneratorKind

    @property
    def arity(self) -> int:
        return sum(generator_arity(self.kind))


@dataclass
class Network:
    """Instances and the wires between their legs.  Instance ``i`` owns the
    leg ids ``legs[i]``, in leg order; ``mate[x]`` is the leg at the other
    end of leg ``x``'s wire, or ``~k`` when it is boundary wire ``k`` (an
    id that no instance owns any more is never read).  The prefactor is
    ``scalar * 2**exp2``: a term's nullary H-boxes can pile up a factor
    far below the float range (a 1/2 each in an X spider's recipe) that
    only simplification's 2s bring back, so a plain float would underflow
    on long chains."""

    instances: list[NetInstance]
    legs: list[tuple[int, ...]]
    mate: list[int]
    n_out: int
    scalar: complex = 1.0 + 0j
    exp2: int = 0


def ldexp_complex(z: complex, k: int) -> complex:
    """``z * 2**k``, exact wherever the result is a normal float."""
    return complex(ldexp(z.real, k), ldexp(z.imag, k))


def scaled(m: complex, exp2: int, w: complex) -> tuple[complex, int]:
    """``w`` times ``m * 2**exp2``, as a mantissa whose larger part is below
    1 in modulus and at least 1/2 (0 for zero), and a power of two."""
    m *= w
    k = frexp(max(abs(m.real), abs(m.imag)))[1]
    return ldexp_complex(m, -k), exp2 + k


# The memory one network leg takes, at most, from flattening to a finished
# contraction: 0.6 to 1.6 KB per leg in peak resident memory, measured on
# Z, H, X and monoid states of 200,000 legs (CPython, 64-bit Linux).
BYTES_PER_LEG = 2048


def usable_memory() -> int:
    """The bytes this process may take: the host's physical memory, or what
    is left of the address-space limit (``RLIMIT_AS``) when one is set and
    lower; ``sys.maxsize`` on a host without these readings.  The one
    reading behind every up-front size limit."""
    try:
        import resource

        page = os.sysconf("SC_PAGE_SIZE")
        memory = os.sysconf("SC_PHYS_PAGES") * page
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    except (ImportError, AttributeError, ValueError):  # not a POSIX host: no limit
        return sys.maxsize
    if soft != resource.RLIM_INFINITY:
        try:
            with open("/proc/self/statm", encoding="ascii") as fh:
                used = int(fh.read().split()[0]) * page
        except OSError:  # no procfs: the whole limit
            used = 0
        memory = min(memory, soft - used)
    return max(memory, 0)


def leg_limit() -> int:
    """The most legs a network may have: :func:`usable_memory` over
    :data:`BYTES_PER_LEG`.  It bounds the network, not the diagrams its
    contraction builds, whose size depends on what the term denotes;
    running out of memory there still exits 3 from the CLI."""
    return usable_memory() // BYTES_PER_LEG


def flatten_to_network(t: ZhTerm) -> Network:
    """The wiring network of a term.

    Maps are bent into state form, so the network's boundary lists the
    original outputs followed by one wire per original input: a
    ``ZSpider(0, 2)`` cap per input, as :func:`~zhdd.duality.to_state_form`
    bends it, but without its swap network, which grows with the square
    of the inputs.  Each generator is one instance or none, read in one pass over
    :func:`~zhdd.terms.placed`:

    - an identity, a ``MonoidN(1)``, an ``XSpider(1, 1)`` and a swap are
      plain wires;
    - a nullary Z, H, X or NotX is its scalar (2, the label, 1 and 0);
    - a Z spider, cap, cup, |+> or <+| on ``k`` legs is the instance
      ``ZSpider(0, k)`` (a cap and a cup are two-legged Z spiders), so
      every wire runs from one instance leg to another or to the
      boundary; an H-box is ``HBox(0, k, label)``, a |0>
      ``HBox(0, 1, 0)`` and a |1> ``NotXSpider(0, 1)``;
    - a ``MonoidN(k)`` is the left comb of ``k - 1`` ``MonoidN(2)``
      instances, its recipe's own comb: one instance of arity ``k + 1``
      would widen the contraction plan;
    - every other generator (a gadget, weight box, X or NotX spider) is
      one instance of its own kind, as written.

    Each instance's legs are its inputs, then its outputs, and leg ids are
    handed out in instance order.  Before a generator's legs are made (all
    the caps at once, a monoid's whole comb), their count is checked
    against :func:`leg_limit`; past it, :class:`ResourceLimitError` is
    raised.
    """
    limit = leg_limit()
    instances: list[NetInstance] = []
    legs: list[tuple[int, ...]] = []
    mate: list[int] = []
    scalar, exp2 = 1.0 + 0j, 0
    live: list[int] = []  # the leg at the upper end of each wire, left to right

    def room(more: int) -> None:
        if len(mate) + more > limit:
            raise ResourceLimitError(f"the network would have {len(mate) + more} legs "
                                     f"(the memory limit allows {limit})")

    def add(kind: GeneratorKind, at: int, n: int, m: int) -> None:
        """Instance ``kind`` with ``n`` inputs at live position ``at`` and
        ``m`` outputs."""
        room(n + m)
        instances.append(NetInstance(kind))
        x, ins = len(mate), live[at : at + n]
        legs.append(tuple(range(x, x + n + m)))
        mate.extend(ins + [0] * m)  # an output leg is mated once its wire ends
        for p, y in enumerate(ins, x):
            mate[y] = p
        live[at : at + n] = range(x + n, x + n + m)

    room(2 * t.n_in)
    for _ in range(t.n_in):  # the caps of to_state_form, without its swaps
        add(_CAP, len(live), 0, 2)
    bent = live[1::2]  # each cap's second leg, after the outputs
    del live[1::2]
    for g, at in placed(t):
        kind, n, m = g.kind, g.n_in, g.n_out
        match kind:
            case Swap():
                live[at], live[at + 1] = live[at + 1], live[at]
            case Identity() | MonoidN(1) | XSpider(1, 1) | XSpider(0, 0):
                pass
            case NotXSpider(0, 0):
                scalar, exp2 = scaled(scalar, exp2, 0j)
            case MonoidN(k):
                room(3 * (k - 1))
                for _ in range(k - 1):
                    add(_MONOID2, at, 2, 1)
            case ZSpider(0, 0):
                exp2 += 1
            case ZSpider() | Cap() | Cup() | KetPlus() | BraPlus():
                add(ZSpider(0, n + m), at, n, m)
            case HBox(0, 0, label):
                scalar, exp2 = scaled(scalar, exp2, complex(label))
            case HBox(_, _, label):
                add(HBox(0, n + m, label), at, n, m)
            case KetZero():
                add(HBox(0, 1, 0), at, n, m)
            case KetOne():
                add(NotXSpider(0, 1), at, n, m)
            case _:  # whole sugar: a gadget, weight box, X or NotX spider
                add(kind, at, n, m)
    live += bent
    for k, y in enumerate(live):
        mate[y] = ~k
    return Network(instances, legs, mate, len(live), scalar, exp2)


def simplify_network(net: Network) -> Network:
    """An equal network with the patterns of three exact Z rules removed.

    One worklist pass over a copy of ``net.mate`` reaches the fixpoint of:

    - ``z-fusion``: two Z spiders joined by a wire become one;
    - ``z-self-loop``: a wire from a Z back to itself goes, and a Z left
      with no legs multiplies the scalar by 2 (``closed-copy-scalar``);
    - ``z-identity``: a two-legged Z becomes a plain wire, unless both its
      legs are boundary wires (a network has no boundary-to-boundary
      wire).

    Every other instance (H-boxes and sugar: gadgets, weight boxes,
    monoids, X and NotX spiders) takes part in no rule.  Every scalar these
    rules leave is a power of two, added to ``exp2``.  Survivors keep their
    relative order and leg ids; a fused spider takes the place of the first
    one the pass visits.  ``net`` is left as it was.
    """
    inst, n = net.instances, len(net.instances)
    legs: list[list[int] | None] = [list(ls) for ls in net.legs]  # None once gone
    owner = {x: i for i, mine in enumerate(net.legs) for x in mine}
    mate = list(net.mate)
    exp2 = net.exp2

    todo = list(range(n - 1, -1, -1))  # a stack: instance 0 comes first

    def join(x: int, y: int) -> None:
        """Wire the far ends ``x`` and ``y`` (not both boundary) together."""
        for u, v in ((x, y), (y, x)):
            if u >= 0:
                mate[u] = v
                todo.append(owner[u])

    while todo:
        i = todo.pop()
        mine = legs[i]
        if mine is None or not isinstance(inst[i].kind, ZSpider):  # no rule rewrites it
            continue
        k = 0
        while k < len(mine):  # legs appended by a fusion are scanned too
            y = mate[mine[k]]
            j = owner[y] if y >= 0 else -1
            if j == i:  # a self-loop; its far end y comes later in mine
                mine.remove(y)
                del mine[k]
            elif j >= 0 and isinstance(inst[j].kind, ZSpider):
                del mine[k]
                theirs = legs[j]
                theirs.remove(y)
                for x in theirs:
                    owner[x] = i
                mine += theirs
                legs[j] = None
            else:
                k += 1
        if not mine:
            exp2 += 1
            legs[i] = None
        elif len(mine) == 2 and (mate[mine[0]] >= 0 or mate[mine[1]] >= 0):
            join(mate[mine[0]], mate[mine[1]])
            legs[i] = None

    keep = [i for i in range(n) if legs[i] is not None]
    instances = [NetInstance(ZSpider(0, len(legs[i]))) if isinstance(inst[i].kind, ZSpider)
                 else inst[i] for i in keep]  # a fused spider has its new leg count
    return Network(instances, [tuple(legs[i]) for i in keep], mate, net.n_out, net.scalar, exp2)


Step = tuple[int, Optional[int], list[tuple[int, int]]]


def contraction_steps(net: Network) -> tuple[list[Step], list[int], int]:
    """The contraction of ``net`` as steps on a list of live legs.

    The order starts at instance 0.  Each next instance is, among those
    wired to an already placed one, the one that leaves the fewest live
    legs once the wires to placed instances (and its self-loops) are
    closed: ``arity - 2 * closed``, ties to the lowest index.  With nothing
    wired to the placed part, the lowest unplaced index starts the next
    component.

    A step ``(idx, at, closes)`` comes in one of two forms:

    - in place (``at`` a live position, ``closes`` empty): an instance of
      arity at most 2 with exactly one wire to a live leg is applied at
      that leg's position ``at``.  An effect removes the leg; a two-legged
      instance's free leg takes its place.
    - on top (``at`` is None): the instance is tensored in on top (its legs
      go first, in leg order), then each wire from one of its legs to a
      live leg is closed, in its leg order.  A closing wire is given by the
      live positions ``(i, j)``, ``i < j``, of its ends just before it
      closes, and both leave the list.

    Also returns the output permutation (boundary wire ``k`` is the live
    leg ``perm[k]``) and the peak live width: the live legs before an
    instance plus its arity, at the widest step.
    """
    mate, n = net.mate, len(net.instances)
    owner = {x: i for i, mine in enumerate(net.legs) for x in mine}
    score = [  # an instance's live legs once placed; a self-loop closes two
        len(mine) - sum(mate[x] >= 0 and owner[mate[x]] == i for x in mine)
        for i, mine in enumerate(net.legs)
    ]
    placed = [False] * n
    heap: list[tuple[int, int]] = []  # (score, index), lazily pruned
    live: list[int] = []
    steps: list[Step] = []
    peak = lowest = 0
    while len(steps) < n:
        while heap and (placed[heap[0][1]] or heap[0][0] != score[heap[0][1]]):
            heappop(heap)
        if heap:
            k = heappop(heap)[1]
        else:
            while placed[lowest]:
                lowest += 1
            k = lowest
        placed[k] = True
        mine = net.legs[k]
        peak = max(peak, len(live) + len(mine))
        wires = []  # (own leg, far end) of each wire to a placed instance
        for x in mine:
            y = mate[x]
            if y < 0:
                continue
            m = owner[y]
            if not placed[m]:
                score[m] -= 2
                heappush(heap, (score[m], m))
            elif m != k or x < y:  # a self-loop closes once, at its lower leg id
                wires.append((x, y))
        if len(mine) <= 2 and len(wires) == 1 and owner[wires[0][1]] != k:  # not a self-loop
            x, y = wires[0]
            at = live.index(y)
            live[at : at + 1] = [z for z in mine if z != x]
            steps.append((k, at, []))
            continue
        live[:0] = mine
        closes = []
        for x, y in wires:
            i, j = sorted((live.index(x), live.index(y)))
            closes.append((i, j))
            del live[j], live[i]
        steps.append((k, None, closes))
    perm = sorted(range(len(live)), key=lambda p: ~mate[live[p]])  # by boundary wire
    return steps, perm, peak


def instance_state(inst: NetInstance, settings: Settings = DEFAULT) -> np.ndarray:
    """Dense leg tensor of one instance, flattened (first leg = MSB).

    A Z or H state is :func:`~zhdd.oracle.generator_matrix` of its kind,
    built afresh each time (a 16-legged H state is 1 MB).  A sugar
    instance's tensor is its :func:`~zhdd.sugar.core_recipe` under the
    dense interpreter, with the recipe's inputs as its first legs.  The
    builder's closed forms are read by neither, so the dense stages check
    both the contraction and each closed form."""
    if isinstance(inst.kind, (ZSpider, HBox)):
        return generator_matrix(inst.kind, settings).reshape(-1)
    return _sugar_state(inst.kind)


@lru_cache(maxsize=1024)
def _sugar_state(kind: GeneratorKind) -> np.ndarray:
    """The recipe's ``(2**m, 2**n)`` matrix, read in leg order: inputs
    first.  Read-only, as it is shared."""
    v = interpret_zh(core_recipe(kind)).T.reshape(-1)
    v.flags.writeable = False
    return v


def dense_stages(
    net: Network,
    plan: tuple[list[Step], list[int], int],
    settings: Settings = DEFAULT,
) -> Iterator[tuple[str, np.ndarray, int]]:
    """Each state of ``plan``, the :func:`contraction_steps` of ``net``,
    densely, with a name: after each instance applied in place, after each
    tensor, after each closed wire, and the result (output order and
    prefactor applied), a vector over the live legs, first leg = MSB.  A
    state is ``ldexp_vector(ten, shift)`` of the yielded ``(name, ten,
    shift)``: it is carried as a mantissa times a power of two, like the
    prefactor, which it meets only at the end.

    Raises :class:`ResourceLimitError`, before the first state, when the
    plan's peak live width is above the dense wire cap.
    """
    steps, perm, peak = plan
    if peak > dense_cap(settings):
        raise ResourceLimitError(
            f"network contraction needs {peak} dense wires (cap is {dense_cap(settings)})"
        )
    ten, shift = np.ones(1, dtype=complex), 0
    for idx, at, closes in steps:
        inst = net.instances[idx]
        state = instance_state(inst, settings)
        if at is not None:  # the instance's legs are symmetric: contract its first
            ten = ten.reshape((2,) * (ten.size.bit_length() - 1))
            ten = np.tensordot(state.reshape((2,) * inst.arity), ten, (0, at))
            if inst.arity == 2:
                ten = np.moveaxis(ten, 0, at)
            ten, shift = _rescaled(ten.reshape(-1), shift)
            yield f"apply {idx} at {at}", ten, shift
            continue
        ten = np.kron(state, ten)
        yield f"tensor {idx}", ten, shift
        for i, j in closes:
            ten = np.diagonal(ten.reshape((2,) * (ten.size.bit_length() - 1)), 0, i, j)
            ten, shift = _rescaled(ten.sum(-1).reshape(-1), shift)
            yield f"close {i}~{j}", ten, shift
    ten = np.transpose(ten.reshape((2,) * len(perm)), perm).reshape(-1)
    yield "output permutation", net.scalar * ten, shift + net.exp2


def _rescaled(ten: np.ndarray, shift: int) -> tuple[np.ndarray, int]:
    """``(ten, shift)`` with the largest part of ``ten`` brought into
    [1/2, 1) and the power of two moved into ``shift``."""
    k = frexp(np.abs(ten.view(float)).max())[1]
    return ldexp_vector(ten, -k), shift + k


def ldexp_vector(v: np.ndarray, k: int) -> np.ndarray:
    """``v * 2**k``, exact wherever the result is a normal float."""
    out = np.empty_like(v)
    out.real, out.imag = np.ldexp(v.real, k), np.ldexp(v.imag, k)
    return out


def net_interpret(net: Network, settings: Settings = DEFAULT) -> np.ndarray:
    """Dense contraction of a network, shape ``(2**n_out,)``: the last of
    :func:`dense_stages`.  The dense cap applies to the plan's peak live
    width."""
    for _, ten, shift in dense_stages(net, contraction_steps(net), settings):
        pass
    return ldexp_vector(ten, shift)
