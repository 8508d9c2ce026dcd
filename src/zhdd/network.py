"""From syntax trees to wiring networks.

A term is a composition tree; what the translation to decision diagrams
actually needs is the underlying undirected network: which spider/box legs
are soldered to which.  :func:`flatten_to_network` computes it by symbolic
evaluation — one pass over :func:`~zhdd.terms.placed` keeps a token per
live wire, each generator unions the tokens it consumes with its leg tokens
and puts its output tokens in their place, and the resulting token classes
are exactly the wires of the network.

:func:`contraction_plan` orders a network's instances for contraction:
greedy minimum frontier, after Gray & Kourtis, *Hyper-optimized tensor
network contraction* (arXiv:2002.01935).  Each step takes, among the
instances wired to what is already placed, the one that leaves the fewest
open legs.

Both Z-spiders and H-boxes are fully symmetric tensors, so a network
instance needs only a kind, a label, and an arity; leg order is
bookkeeping, not semantics.

:func:`net_interpret` contracts a network densely.  It shares no code with
either term-interpretation route in :mod:`zhdd.oracle`, which makes it a
useful third opinion in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .config import DEFAULT, Settings
from .duality import to_state_form
from .errors import ResourceLimitError, ShapeError
from .sugar import expand_sugar
from .terms import (
    Cap,
    Cup,
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


def flatten_to_network(t: ZhTerm) -> Network:
    """The wiring network of a term.

    Derived generators are expanded first; maps are bent into state form,
    so the network's boundary lists the original outputs followed by one
    wire per original input.  Closed loops and nullary generators are
    absorbed: a loop contributes an explicit 2-leg spider wired to itself
    (which contracts to the scalar 2), a nullary Z or H contributes its
    scalar directly.
    """
    t = expand_sugar(t)
    t = to_state_form(t)
    toks = _Tokens()
    instances: list[NetInstance] = []
    scalar = 1.0 + 0j

    live: list[int] = []  # one token per wire, left to right
    for g, at in placed(t):
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

    Tensors all instance states, sums out each internal edge, then orders
    the surviving legs by the boundary list.
    """
    total = sum(inst.arity for inst in net.instances)
    if total > settings.max_qubits:
        raise ResourceLimitError(
            f"network has {total} legs (cap is {settings.max_qubits})"
        )
    state = np.array([net.scalar], dtype=complex)
    axes: list[Port] = []
    for i, inst in enumerate(net.instances):
        state = np.kron(state, instance_state(inst))
        axes.extend((i, p) for p in range(inst.arity))
    ten = state.reshape((2,) * len(axes))
    for a, b in net.edges:
        ia, ib = axes.index(a), axes.index(b)
        if ia > ib:
            ia, ib = ib, ia
        ten = np.diagonal(ten, axis1=ia, axis2=ib).sum(-1)
        del axes[ib]
        del axes[ia]
    if not net.outputs:
        return ten.reshape(-1)
    perm = [axes.index(p) for p in net.outputs]
    return np.transpose(ten, perm).reshape(-1)
