"""From syntax trees to wiring networks.

A term is a composition tree; what the translation to decision diagrams
actually needs is the underlying undirected network: which spider/box legs
are soldered to which.  :func:`flatten_to_network` computes it by symbolic
evaluation — one pass over :func:`~zhdd.terms.placed` keeps a token per
live wire, each generator unions the tokens it consumes with its leg tokens
and puts its output tokens in their place, and the resulting token classes
are exactly the wires of the network.  Sugar generators are expanded on
the fly, one :func:`~zhdd.sugar.core_recipe` at a time.

:func:`simplify_network` shrinks a network before it is contracted, with
exact ZH rules applied to a fixpoint: a one-legged H-box labelled 1 is a
one-legged Z (``one-label-state``), Z spiders joined by a wire fuse
(``z-fusion``), a Z self-loop goes (``z-self-loop``; a Z left with no legs
is the scalar 2, ``closed-copy-scalar``), a two-legged Z is a wire
(``z-identity``), and two two-legged H-boxes labelled -1 on one wire are a
wire times 2 (``h-involution``).  This is the spider-fusion step of PyZX's
``spider_simp`` (Kissinger & van de Wetering, arXiv:1904.04735),
restricted to rules of the ZH-calculus (Backens & Kissinger,
arXiv:1805.02175); each rule is a claim of :mod:`zhdd.claims`.

:func:`contraction_plan` orders a network's instances for contraction:
greedy minimum frontier, after Gray & Kourtis, *Hyper-optimized tensor
network contraction* (arXiv:2002.01935).  Each step takes, among the
instances wired to what is already placed, the one that leaves the fewest
open legs.

Both Z-spiders and H-boxes are fully symmetric tensors, so a network
instance needs only a kind, a label, and an arity; leg order is
bookkeeping, not semantics.

:func:`net_interpret` contracts a network densely, in plan order, so its
dense cap bounds the plan's peak width rather than the network's total leg
count.  It shares no code with either term-interpretation route in
:mod:`zhdd.oracle`, which makes it a useful third opinion in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import Iterator

import numpy as np

from .config import DEFAULT, Settings
from .duality import to_state_form
from .errors import ResourceLimitError, ShapeError
from .sugar import CORE_KINDS, core_recipe
from .terms import (
    Cap,
    Cup,
    Gen,
    GeneratorKind,
    HBox,
    Identity,
    Swap,
    ZSpider,
    ZhTerm,
    placed,
)

Port = tuple[int, int]  # (instance index, leg index)


@dataclass(frozen=True)
class NetInstance:
    kind: str  # "z" or "h"
    label: complex
    arity: int


@dataclass
class Network:
    scalar: complex
    instances: list[NetInstance]
    edges: list[tuple[Port, Port]]
    outputs: list[Port]
    n_out: int = field(init=False)

    def __post_init__(self) -> None:
        self.n_out = len(self.outputs)


class _Tokens:
    """Union-find over wire tokens, with per-token attachment lists."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.attached: list[list[tuple]] = []

    def fresh(self, attachment: tuple | None = None) -> int:
        tok = len(self.parent)
        self.parent.append(tok)
        self.attached.append([attachment] if attachment else [])
        return tok

    def find(self, tok: int) -> int:
        while self.parent[tok] != tok:
            self.parent[tok] = self.parent[self.parent[tok]]
            tok = self.parent[tok]
        return tok

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


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
    offset.  Closed loops and nullary generators are absorbed: a loop
    contributes an explicit 2-leg spider wired to itself (which contracts
    to the scalar 2), a nullary Z or H contributes its scalar directly.
    """
    toks = _Tokens()
    instances: list[NetInstance] = []
    scalar = 1.0 + 0j

    live: list[int] = []  # one token per wire, left to right
    for g, at in _core_placed(to_state_form(t)):
        kind = g.kind
        ins = live[at : at + g.n_in]
        if isinstance(kind, Identity):
            outs = ins
        elif isinstance(kind, Swap):
            outs = [ins[1], ins[0]]
        elif isinstance(kind, Cap):
            a, b = toks.fresh(), toks.fresh()
            toks.union(a, b)
            outs = [a, b]
        elif isinstance(kind, Cup):
            toks.union(ins[0], ins[1])
            outs = []
        elif isinstance(kind, (ZSpider, HBox)):
            n = kind.inputs
            m = kind.outputs
            if n + m == 0:
                scalar *= 2.0 if isinstance(kind, ZSpider) else complex(kind.label)
                continue
            idx = len(instances)
            if isinstance(kind, ZSpider):
                instances.append(NetInstance("z", 0j, n + m))
            else:
                instances.append(NetInstance("h", complex(kind.label), n + m))
            legs = [toks.fresh(("port", idx, p)) for p in range(n + m)]
            for wire_tok, leg_tok in zip(ins, legs[:n]):
                toks.union(wire_tok, leg_tok)
            outs = legs[n:]
        else:
            raise ShapeError(f"cannot flatten non-core generator {kind!r}")
        live[at : at + g.n_in] = outs

    boundary = live
    for k, tok in enumerate(boundary):
        toks.attached[tok].append(("out", k))

    # Group attachments by token class, in token-creation order.
    class_order: list[int] = []
    class_members: dict[int, list[tuple]] = {}
    for tok in range(len(toks.parent)):
        root = toks.find(tok)
        if root not in class_members:
            class_members[root] = []
            class_order.append(root)
        class_members[root].extend(toks.attached[tok])

    edges: list[tuple[Port, Port]] = []
    outputs: list[Port | None] = [None] * len(boundary)
    for root in class_order:
        atts = class_members[root]
        if len(atts) == 0:
            # a closed loop: an explicit wire with nothing on it
            idx = len(instances)
            instances.append(NetInstance("z", 0j, 2))
            edges.append(((idx, 0), (idx, 1)))
        elif len(atts) == 2:
            a, b = atts
            if a[0] == "port" and b[0] == "port":
                edges.append(((a[1], a[2]), (b[1], b[2])))
            elif a[0] == "port" and b[0] == "out":
                outputs[b[1]] = (a[1], a[2])
            elif a[0] == "out" and b[0] == "port":
                outputs[a[1]] = (b[1], b[2])
            else:
                # two boundary wires directly connected
                idx = len(instances)
                instances.append(NetInstance("z", 0j, 2))
                outputs[a[1]] = (idx, 0)
                outputs[b[1]] = (idx, 1)
        else:
            raise ShapeError(
                f"wire resolves to {len(atts)} endpoints (internal error)"
            )

    resolved: list[Port] = []
    for k, p in enumerate(outputs):
        if p is None:
            raise ShapeError(f"boundary wire {k} left unresolved (internal error)")
        resolved.append(p)

    # Sanity: every leg is used exactly once.
    used: set[Port] = set()
    for a, b in edges:
        for p in (a, b):
            if p in used:
                raise ShapeError(f"leg {p} wired twice (internal error)")
            used.add(p)
    for p in resolved:
        if p in used:
            raise ShapeError(f"leg {p} wired twice (internal error)")
        used.add(p)
    expected = {(i, p) for i, inst in enumerate(instances) for p in range(inst.arity)}
    if used != expected:
        raise ShapeError("dangling instance legs (internal error)")

    return Network(scalar, instances, edges, resolved)


def simplify_network(net: Network) -> Network:
    """An equal network with the patterns of five exact rules removed.

    One worklist pass reaches the fixpoint of:

    - ``one-label-state``: a one-legged H-box labelled exactly 1 becomes a
      one-legged Z;
    - ``z-fusion``: two Z spiders joined by a wire become one;
    - ``z-self-loop``: a wire from a Z back to itself goes, and a Z left
      with no legs multiplies the scalar by 2 (``closed-copy-scalar``);
    - ``z-identity``: a two-legged Z becomes a plain wire, unless both its
      legs are boundary wires (a network has no boundary-to-boundary
      wire);
    - ``h-involution``: two two-legged H-boxes labelled exactly -1 and
      joined by a wire become one wire times 2, and the scalar 4 when they
      close a ring.  A pair between two boundary wires stays.

    Labels are compared exactly, not on the weight grid.  Survivors keep
    their relative order; a fused spider takes the place of the first one
    the pass visits.
    """
    n = len(net.instances)
    kind = [inst.kind for inst in net.instances]
    label = [inst.label for inst in net.instances]
    # Every leg gets an id; mate[x] is the leg at x's wire's other end, or
    # ~k for boundary wire k.  legs[i] is None once instance i is gone.
    legs: list[list[int] | None] = []
    owner: list[int] = []
    first: list[int] = []
    for i, inst in enumerate(net.instances):
        first.append(len(owner))
        legs.append(list(range(len(owner), len(owner) + inst.arity)))
        owner += [i] * inst.arity
    mate = [0] * len(owner)
    for (a, p), (b, q) in net.edges:
        x, y = first[a] + p, first[b] + q
        mate[x], mate[y] = y, x
    for k, (a, p) in enumerate(net.outputs):
        mate[first[a] + p] = ~k
    scalar = net.scalar

    todo = list(range(n - 1, -1, -1))  # a stack: instance 0 comes first

    def join(x: int, y: int) -> None:
        """Wire the far ends ``x`` and ``y`` (not both boundary) together."""
        for u, v in ((x, y), (y, x)):
            if u >= 0:
                mate[u] = v
                todo.append(owner[u])

    def h_pair(i: int) -> int:
        """Apply ``h-involution`` at H-box ``i``; the scalar factor it
        leaves, 1 when it finds no partner."""
        mine = legs[i]
        for x in mine:
            y = mate[x]
            if y < 0 or owner[y] == i:
                continue
            j = owner[y]
            theirs = legs[j]
            if kind[j] != "h" or len(theirs) != 2 or label[j] != -1:
                continue
            far_i, far_j = mine[mine[0] == x], theirs[theirs[0] == y]
            a, b = mate[far_i], mate[far_j]
            if a == far_j:  # the pair closes a ring
                factor = 4
            elif a < 0 and b < 0:
                continue
            else:
                factor = 2
                join(a, b)
            legs[i] = legs[j] = None
            return factor
        return 1

    while todo:
        i = todo.pop()
        mine = legs[i]
        if mine is None:
            continue
        if kind[i] == "h":
            if len(mine) == 1 and label[i] == 1:
                kind[i], label[i] = "z", 0j
                todo.append(i)
            elif len(mine) == 2 and label[i] == -1:
                scalar *= h_pair(i)
            continue
        k = 0
        while k < len(mine):  # legs appended by a fusion are scanned too
            y = mate[mine[k]]
            j = owner[y] if y >= 0 else -1
            if j == i:  # a self-loop; its far end y comes later in mine
                mine.remove(y)
                del mine[k]
            elif j >= 0 and kind[j] == "z":
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
            scalar *= 2
            legs[i] = None
        elif len(mine) == 2 and (mate[mine[0]] >= 0 or mate[mine[1]] >= 0):
            join(mate[mine[0]], mate[mine[1]])
            legs[i] = None

    instances: list[NetInstance] = []
    port: dict[int, Port] = {}
    for i in range(n):
        if legs[i] is not None:
            for p, x in enumerate(legs[i]):
                port[x] = (len(instances), p)
            instances.append(NetInstance(kind[i], label[i], len(legs[i])))
    edges: list[tuple[Port, Port]] = []
    outputs: list[Port] = [(0, 0)] * len(net.outputs)
    for x, p in port.items():
        y = mate[x]
        if y < 0:
            outputs[~y] = p
        elif x < y:
            edges.append((p, port[y]))
    return Network(scalar, instances, edges, outputs)


def contraction_plan(net: Network) -> tuple[list[int], int]:
    """Instance order for contracting ``net``, and its peak live width.

    Starts at instance 0.  Each next instance is, among those wired to an
    already placed one, the one that leaves the fewest live legs once the
    wires to placed instances (and its self-loops) are closed:
    ``arity - 2 * closed``, ties to the lowest index.  With nothing wired
    to the placed part, the lowest unplaced index starts the next
    component.  The peak is the widest state the order builds: the live
    legs before an instance plus its arity.
    """
    n = len(net.instances)
    score = [inst.arity for inst in net.instances]
    nbrs: list[list[int]] = [[] for _ in range(n)]  # one entry per edge end
    for (a, _), (b, _) in net.edges:
        if a == b:
            score[a] -= 2
        else:
            nbrs[a].append(b)
            nbrs[b].append(a)
    placed = [False] * n
    heap: list[tuple[int, int]] = []  # (score, index), lazily pruned
    order: list[int] = []
    live = peak = lowest = 0
    while len(order) < n:
        while heap and (placed[heap[0][1]] or heap[0][0] != score[heap[0][1]]):
            heappop(heap)
        if heap:
            k = heappop(heap)[1]
        else:
            while placed[lowest]:
                lowest += 1
            k = lowest
        placed[k] = True
        order.append(k)
        peak = max(peak, live + net.instances[k].arity)
        live += score[k]
        for m in nbrs[k]:
            if not placed[m]:
                score[m] -= 2
                heappush(heap, (score[m], m))
    return order, peak


def closing_wires(net: Network, order: list[int]) -> list[list[tuple[Port, Port]]]:
    """The wires that close at each step of ``order``: each one right after
    the later of its two instances is placed, in ``net.edges`` order."""
    step = {idx: k for k, idx in enumerate(order)}
    closes: list[list[tuple[Port, Port]]] = [[] for _ in order]
    for a, b in net.edges:
        closes[max(step[a[0]], step[b[0]])].append((a, b))
    return closes


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


def net_interpret(net: Network, settings: Settings = DEFAULT) -> np.ndarray:
    """Dense contraction of a network, shape ``(2**n_out,)``.

    Tensors the instance states in :func:`contraction_plan` order, sums
    out each wire as soon as both its ends are live (the schedule of
    :func:`closing_wires`), then orders the surviving legs by the boundary
    list.  The dense cap applies to the plan's peak live width.
    """
    order, peak = contraction_plan(net)
    if peak > settings.max_qubits:
        raise ResourceLimitError(
            f"network contraction needs {peak} dense wires (cap is {settings.max_qubits})"
        )
    ten = np.array(net.scalar, dtype=complex)
    axes: list[Port] = []
    for idx, to_close in zip(order, closing_wires(net, order)):
        inst = net.instances[idx]
        ten = np.multiply.outer(ten, instance_state(inst).reshape((2,) * inst.arity))
        axes.extend((idx, p) for p in range(inst.arity))
        for a, b in to_close:
            ia, ib = sorted((axes.index(a), axes.index(b)))
            ten = np.diagonal(ten, axis1=ia, axis2=ib).sum(-1)
            del axes[ib], axes[ia]
    perm = [axes.index(p) for p in net.outputs]
    return np.transpose(ten, perm).reshape(-1)
