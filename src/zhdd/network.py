"""From syntax trees to wiring networks, and their contraction steps.

A term is a composition tree; what the translation to decision diagrams
actually needs is the underlying undirected network: which spider/box legs
are soldered to which.  A :class:`Network` stores it in one form: each
instance leg has a global id, and one array ``mate`` maps every leg to the
leg at its wire's other end, or to ``~k`` for boundary wire ``k``.
:func:`flatten_to_network` writes it in one pass over
:func:`~zhdd.terms.placed`, keeping the leg at the upper end of each live
wire: a generator that consumes a wire mates it with one of its own legs.
A cap is a Z(0, 2) instance and a cup a Z(2, 0) instance, as in PyZX
(Kissinger & van de Wetering, arXiv:1904.04735), so every wire runs from
one instance leg to another or to the boundary, and closed loops and
boundary-to-boundary wires need no case of their own.  Sugar generators
are expanded on the fly, one :func:`~zhdd.sugar.core_recipe` at a time.
The prefactor is kept as a mantissa and a power of two (:func:`scaled`),
so the many 1/2s of desugaring cannot underflow it.

:func:`simplify_network` shrinks a network before it is contracted, with
exact ZH rules applied to a fixpoint on a copy of ``mate``: Z spiders
joined by a wire fuse (``z-fusion``), a Z self-loop goes (``z-self-loop``;
a Z left with no legs is the scalar 2, ``closed-copy-scalar``), a
two-legged Z is a wire (``z-identity``), and two two-legged H-boxes
labelled -1 on one wire are a wire times 2 (``h-involution``).  This is
the spider-fusion step of PyZX's ``spider_simp``, restricted to rules of
the ZH-calculus (Backens & Kissinger, arXiv:1805.02175); each rule is a
claim of :mod:`zhdd.claims`.  It turns the Z(2)s of caps and cups into
plain wires, the scalar 2 of a loop, or the spider between two boundary
wires.  No rule changes an instance's kind: a one-legged H-box labelled 1
stays an H-box, since as a Z it would fuse into its neighbour and widen
the contraction.

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

Both Z-spiders and H-boxes are fully symmetric tensors, so a network
instance needs only a kind, a label, and an arity; leg order is
bookkeeping, not semantics.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from heapq import heappop, heappush
from math import frexp, ldexp
from typing import Iterator, Optional

import numpy as np

from .config import DEFAULT, Settings, dense_cap
from .duality import to_state_form
from .errors import ResourceLimitError, ShapeError
from .sugar import CORE_KINDS, core_recipe
from .terms import Gen, GeneratorKind, HBox, Identity, Swap, ZhTerm, placed


@dataclass(frozen=True)
class NetInstance:
    kind: str  # "z" or "h"
    label: complex
    arity: int


@dataclass
class Network:
    """Instances and the wires between their legs.  Instance ``i`` owns the
    leg ids ``legs[i]``, in leg order; ``mate[x]`` is the leg at the other
    end of leg ``x``'s wire, or ``~k`` when it is boundary wire ``k`` (an
    id that no instance owns any more is never read).  The prefactor is
    ``scalar * 2**exp2``: desugaring piles up a 1/2 per X spider or AND,
    and only simplification multiplies the matching 2s back in, so a plain
    float would underflow on long chains."""

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


def _core_placed(t: ZhTerm) -> Iterator[tuple[Gen, int]]:
    """:func:`~zhdd.terms.placed` of ``t`` with its sugar expanded: each
    sugar generator's core recipe is walked in its place, shifted by its
    offset.  The same sequence as ``placed(expand_sugar(t))``, without
    rebuilding the tree."""
    for g, at in placed(t):
        if isinstance(g.kind, CORE_KINDS):
            yield g, at
        else:
            for h, off in _recipe_placed(g.kind):
                yield h, at + off


@lru_cache(maxsize=1024)
def _recipe_placed(kind: GeneratorKind) -> tuple[tuple[Gen, int], ...]:
    """``placed(core_recipe(kind))``, built once per kind: an emitted term
    holds many equal gadgets and monoids."""
    return tuple(placed(core_recipe(kind)))


def flatten_to_network(t: ZhTerm) -> Network:
    """The wiring network of a term.

    Maps are bent into state form, so the network's boundary lists the
    original outputs followed by one wire per original input.  Each sugar
    generator is expanded in place, by walking its core recipe at its
    offset.  A cap is a Z(0, 2) instance and a cup a Z(2, 0) instance, so
    every wire runs from one instance leg to another or to the boundary; a
    nullary Z or H contributes its scalar directly.  Leg ids are handed
    out in instance order, each instance's in leg order.
    """
    instances: list[NetInstance] = []
    legs: list[tuple[int, ...]] = []
    mate: list[int] = []
    scalar, exp2 = 1.0 + 0j, 0
    live: list[int] = []  # the leg at the upper end of each wire, left to right
    for g, at in _core_placed(to_state_form(t)):
        kind, n, m = g.kind, g.n_in, g.n_out
        if isinstance(kind, Identity):
            continue
        if isinstance(kind, Swap):
            live[at], live[at + 1] = live[at + 1], live[at]
        elif n + m == 0 and isinstance(kind, HBox):
            scalar, exp2 = scaled(scalar, exp2, complex(kind.label))
        elif n + m == 0:  # the Z scalar 2
            exp2 += 1
        else:  # a Z spider, H-box, cap or cup
            if isinstance(kind, HBox):
                instances.append(NetInstance("h", complex(kind.label), n + m))
            else:
                instances.append(NetInstance("z", 0j, n + m))
            x, ins = len(mate), live[at : at + n]
            legs.append(tuple(range(x, x + n + m)))
            mate += ins + [0] * m  # an output leg is mated once its wire ends
            for p, y in enumerate(ins, x):
                mate[y] = p
            live[at : at + n] = range(x + n, x + n + m)
    for k, y in enumerate(live):
        mate[y] = ~k
    return Network(instances, legs, mate, len(live), scalar, exp2)


def simplify_network(net: Network) -> Network:
    """An equal network with the patterns of four exact rules removed.

    One worklist pass over a copy of ``net.mate`` reaches the fixpoint of:

    - ``z-fusion``: two Z spiders joined by a wire become one;
    - ``z-self-loop``: a wire from a Z back to itself goes, and a Z left
      with no legs multiplies the scalar by 2 (``closed-copy-scalar``);
    - ``z-identity``: a two-legged Z becomes a plain wire, unless both its
      legs are boundary wires (a network has no boundary-to-boundary
      wire);
    - ``h-involution``: two two-legged H-boxes labelled exactly -1 and
      joined by a wire become one wire times 2, and the scalar 4 when they
      close a ring.  A pair between two boundary wires stays.

    Labels are compared exactly, not on the weight grid.  Every scalar
    these rules leave is a power of two, added to ``exp2``.  Survivors keep
    their relative order and leg ids; a fused spider takes the place of the
    first one the pass visits.  ``net`` is left as it was.
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

    def h_pair(i: int) -> int:
        """Apply ``h-involution`` at H-box ``i``; the power of two it
        leaves, 0 when it finds no partner."""
        mine = legs[i]
        for x in mine:
            y = mate[x]
            if y < 0 or owner[y] == i:
                continue
            j = owner[y]
            theirs = legs[j]
            if inst[j].kind != "h" or len(theirs) != 2 or inst[j].label != -1:
                continue
            far_i, far_j = mine[mine[0] == x], theirs[theirs[0] == y]
            a, b = mate[far_i], mate[far_j]
            if a == far_j:  # the pair closes a ring: the scalar 4
                k = 2
            elif a < 0 and b < 0:
                continue
            else:
                k = 1
                join(a, b)
            legs[i] = legs[j] = None
            return k
        return 0

    while todo:
        i = todo.pop()
        mine = legs[i]
        if mine is None:
            continue
        if inst[i].kind == "h":
            if len(mine) == 2 and inst[i].label == -1:
                exp2 += h_pair(i)
            continue
        k = 0
        while k < len(mine):  # legs appended by a fusion are scanned too
            y = mate[mine[k]]
            j = owner[y] if y >= 0 else -1
            if j == i:  # a self-loop; its far end y comes later in mine
                mine.remove(y)
                del mine[k]
            elif j >= 0 and inst[j].kind == "z":
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
    instances = [replace(inst[i], arity=len(legs[i])) for i in keep]
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


def instance_state(inst: NetInstance) -> np.ndarray:
    """Dense leg tensor of one instance, flattened (first leg = MSB)."""
    size = 2**inst.arity
    if inst.kind == "z":
        v = np.zeros(size, dtype=complex)
        v[0] += 1.0
        v[-1] += 1.0
        return v
    if inst.kind == "h":
        v = np.ones(size, dtype=complex)
        v[-1] = inst.label
        return v
    raise ShapeError(f"unknown instance kind {inst.kind!r}")


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
        if at is not None:  # the instance's legs are symmetric: contract its first
            ten = ten.reshape((2,) * (ten.size.bit_length() - 1))
            ten = np.tensordot(instance_state(inst).reshape((2,) * inst.arity), ten, (0, at))
            if inst.arity == 2:
                ten = np.moveaxis(ten, 0, at)
            ten, shift = _rescaled(ten.reshape(-1), shift)
            yield f"apply {idx} at {at}", ten, shift
            continue
        ten = np.kron(instance_state(inst), ten)
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
