"""Operations on diagrams: vector import, tensor, sum, wire surgery.

Everything here rebuilds its result through a fresh :class:`Builder`, so
the outputs are reduced by construction (given sanely-scaled weights —
see the grid caveats in :mod:`zhdd.sqmdd`).  Inputs do **not** have to be
reduced; the operations only rely on validity.

The wire operations share one level-walker (:func:`_walker`).  It visits
each node above a target height once, bottom-up in ascending height, and
rebuilds it ``drop`` levels lower: 1 when the target wire disappears, 0
when it stays.  An edge that arrives at or crosses the target is cut there:
the two cofactors of its child at the target height go to the operation's
``act(e0, e1)``, and the walker scales the returned edge by the edge
weight.  The operations are linear in edge weights, so ``act`` runs once
per child and the cost is proportional to the diagram, not to 2**H.

The sum (:func:`_adder`) walks an edge pair with an explicit stack.  Both
engines read a node's height off the node, so levels that an edge skips
are jumped over, never stepped through, and neither recurses: height is
bounded by memory, not by the interpreter's recursion limit.  The sum's
computed table is keyed on the raw edge weights, not on their grid cells:
two sums whose weights differ below eps would share one result, and the
output would depend on which of them ran first.

Wire indexing: output ``i`` counts from the top, so it lives at height
``H - i``; output 0 is the most significant bit of the denoted vector.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT, Settings
from .errors import ShapeError
from .sqmdd import (
    TERMINAL,
    Builder,
    Edge,
    Node,
    Sqmdd,
    split_edge,
    weight_key,
    zero_form,
)

Act = Callable[[Edge, Edge], Edge]  # a cofactor pair -> one edge
Walk = Callable[[Edge], Edge]


def _height(d: Sqmdd, c: int) -> int:
    return 0 if c == TERMINAL else d.nodes[c].height


def _walker(d: Sqmdd, bld: Builder, target: int, drop: int, act: Act) -> Walk:
    """Rebuild the part of ``d`` above height ``target`` under an edge.

    Nodes above the target come back ``drop`` levels lower; every child at
    or below it becomes ``act`` of its two cofactors at the target.  The
    returned function may be called on several edges of ``d``; they share
    one table of rebuilt nodes.
    """
    done: dict[int, Edge | None] = {}

    def walk(top: Edge) -> Edge:
        order, stack = [], [top[1]]
        while stack:
            u = stack.pop()
            if u in done:
                continue
            if _height(d, u) <= target:
                unit = (1.0 + 0j, u)
                done[u] = act(split_edge(d, unit, target, 0), split_edge(d, unit, target, 1))
            else:
                done[u] = None  # rebuilt below, once its children are
                order.append(u)
                stack += (d.nodes[u].c0, d.nodes[u].c1)
        for u in sorted(order, key=lambda u: d.nodes[u].height):
            n = d.nodes[u]
            (l0, c0), (l1, c1) = done[n.c0], done[n.c1]
            done[u] = bld.edge(n.height - drop, (n.w0 * l0, c0), (n.w1 * l1, c1))
        lam, c = done[top[1]]
        return (top[0] * lam, c)

    return walk


def _restrictor(d: Sqmdd, bld: Builder, imp: dict, target: int, bit: int) -> Walk:
    """A walker that fixes the variable at ``target`` to ``bit``."""
    return _walker(d, bld, target, 1, lambda e0, e1: bld.import_edge(d, (e0, e1)[bit], imp))


def _adder(bld: Builder, a: Sqmdd, b: Sqmdd) -> Act:
    """Pointwise sum of an edge of ``a`` and an edge of ``b``; the returned
    function's calls share one computed table."""
    memo: dict[tuple, Edge] = {}
    imp_a: dict[int, Edge] = {}
    imp_b = imp_a if b is a else {}

    def known(ea: Edge, eb: Edge) -> Edge | None:
        (wa, ca), (wb, cb) = ea, eb
        key = (ca, wa, cb, wb)
        hit = memo.get(key)
        if hit is None:
            if ca == TERMINAL and wa == 0j:
                hit = memo[key] = bld.import_edge(b, eb, imp_b)
            elif cb == TERMINAL and wb == 0j:
                hit = memo[key] = bld.import_edge(a, ea, imp_a)
            elif ca == cb == TERMINAL:
                hit = memo[key] = (wa + wb, TERMINAL)
        return hit

    def total(ea: Edge, eb: Edge) -> Edge:
        stack = [(ea, eb, 0, None)]
        while stack:
            pa, pb, h, halves = stack.pop()
            if halves is not None:  # second visit: both halves are known
                (wa, ca), (wb, cb) = pa, pb
                memo[(ca, wa, cb, wb)] = bld.edge(h, *(known(*p) for p in halves))
            elif known(pa, pb) is None:
                h = max(_height(a, pa[1]), _height(b, pb[1]))
                halves = [(split_edge(a, pa, h, s), split_edge(b, pb, h, s)) for s in (0, 1)]
                stack.append((pa, pb, h, halves))
                stack += [(*p, 0, None) for p in reversed(halves)]  # the 0-side first
        return known(ea, eb)

    return total


def canonical_from_vector(vec, settings: Settings = DEFAULT) -> Sqmdd:
    """The reduced diagram of a dense vector (length a power of two)."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.size == 0 or (v.size & (v.size - 1)) != 0:
        raise ShapeError(f"vector length {v.size} is not a power of two")
    if not np.all(np.isfinite(v.view(float))):
        raise ShapeError("vector entries must be finite")
    height = v.size.bit_length() - 1
    bld = Builder(settings)
    level = [(complex(x), TERMINAL) for x in v]
    for h in range(1, height + 1):
        level = [bld.edge(h, level[k], level[k + 1]) for k in range(0, len(level), 2)]
    return bld.finish(level[0], height)


def scale(d: Sqmdd, factor: complex, settings: Settings = DEFAULT) -> Sqmdd:
    """Multiply the denoted vector by a scalar."""
    factor = complex(factor)
    if factor == 0j:
        return zero_form(d.height)
    out = Sqmdd(d.scalar * factor, d.height, d.root, dict(d.nodes))
    if out.root != TERMINAL and weight_key(out.scalar, settings) == (0, 0):
        return zero_form(d.height)
    return out


def add(a: Sqmdd, b: Sqmdd, settings: Settings = DEFAULT) -> Sqmdd:
    """Pointwise sum of two diagrams of equal height."""
    if a.height != b.height:
        raise ShapeError(f"cannot add heights {a.height} and {b.height}")
    bld = Builder(settings)
    return bld.finish(_adder(bld, a, b)((a.scalar, a.root), (b.scalar, b.root)), a.height)


def tensor(a: Sqmdd, b: Sqmdd, settings: Settings = DEFAULT) -> Sqmdd:
    """Kronecker product: ``a`` supplies the upper wires, ``b`` the lower.

    Purely structural — ``b`` keeps its nodes, ``a``'s nodes move on top
    with shifted heights, and ``a``'s non-zero terminal edges are rerouted
    to ``b``'s root.  Reduced inputs give a reduced output.
    """
    height = a.height + b.height
    if a.scalar == 0j or b.scalar == 0j:
        return zero_form(height)
    scalar = a.scalar * b.scalar
    if a.root == TERMINAL:
        return Sqmdd(scalar, height, b.root, dict(b.nodes))
    offset = max(b.nodes, default=0)
    nodes = dict(b.nodes)

    def relink(w: complex, c: int) -> tuple[complex, int]:
        if c != TERMINAL:
            return (w, c + offset)
        if w != 0j and weight_key(w, settings) != (0, 0):
            return (w, b.root)  # b.root may itself be the terminal
        return (w, TERMINAL)

    for i, n in a.nodes.items():
        w0, c0 = relink(n.w0, n.c0)
        w1, c1 = relink(n.w1, n.c1)
        nodes[i + offset] = Node(n.height + b.height, w0, c0, w1, c1)
    return Sqmdd(scalar, height, a.root + offset, nodes)


def restrict(d: Sqmdd, i: int, bit: int, settings: Settings = DEFAULT) -> Sqmdd:
    """Fix output wire ``i`` to ``bit``; the result has one wire fewer."""
    if not 0 <= i < d.height:
        raise ShapeError(f"wire {i} out of range for height {d.height}")
    if bit not in (0, 1):
        raise ShapeError(f"bit must be 0 or 1, got {bit!r}")
    bld = Builder(settings)
    top = _restrictor(d, bld, {}, d.height - i, bit)((d.scalar, d.root))
    return bld.finish(top, d.height - 1)


def z_merge_outputs(d: Sqmdd, i: int, j: int, settings: Settings = DEFAULT) -> Sqmdd:
    """Identify output wires ``i < j`` (a Z-spider joining them): keep the
    entries where the two bits agree.  The shared wire stays at position
    ``i``; position ``j`` disappears."""
    if not 0 <= i < j < d.height:
        raise ShapeError(
            f"need two distinct wires 0 <= i < j < {d.height}, got ({i}, {j})"
        )
    bld, imp, hi = Builder(settings), {}, d.height - i
    r0, r1 = (_restrictor(d, bld, imp, d.height - j, bit) for bit in (0, 1))

    def act(e0: Edge, e1: Edge) -> Edge:
        return bld.edge(hi - 1, r0(e0), r1(e1))

    top = _walker(d, bld, hi, 1, act)((d.scalar, d.root))
    return bld.finish(top, d.height - 1)


def plug_bra_plus(d: Sqmdd, i: int, settings: Settings = DEFAULT) -> Sqmdd:
    """Contract output wire ``i`` with the all-ones effect (sum it out)."""
    if not 0 <= i < d.height:
        raise ShapeError(f"wire {i} out of range for height {d.height}")
    bld = Builder(settings)
    top = _walker(d, bld, d.height - i, 1, _adder(bld, d, d))((d.scalar, d.root))
    return bld.finish(top, d.height - 1)


def swap_adjacent_levels(d: Sqmdd, k: int, settings: Settings = DEFAULT) -> Sqmdd:
    """Exchange the variables at heights ``k+1`` and ``k`` (1 <= k < H)."""
    if not 1 <= k < d.height:
        raise ShapeError(f"level {k} out of range for height {d.height}")
    bld, imp = Builder(settings), {}

    def act(e0: Edge, e1: Edge) -> Edge:
        ll, lr, rl, rr = (
            bld.import_edge(d, split_edge(d, e, k, side), imp)
            for e in (e0, e1)
            for side in (0, 1)
        )
        return bld.edge(k + 1, bld.edge(k, ll, rl), bld.edge(k, lr, rr))

    top = _walker(d, bld, k + 1, 0, act)((d.scalar, d.root))
    return bld.finish(top, d.height)


def permute_outputs(d: Sqmdd, perm: Sequence[int], settings: Settings = DEFAULT) -> Sqmdd:
    """Rearrange wires so that result wire ``i`` is input wire ``perm[i]``.

    Realized as a bubble of adjacent-level swaps, each of which is checked
    structure-preserving on its own.
    """
    perm = list(perm)
    if sorted(perm) != list(range(d.height)):
        raise ShapeError(f"{perm} is not a permutation of range({d.height})")
    cur = list(range(d.height))
    out = d
    for i in range(d.height):
        j = cur.index(perm[i])
        while j > i:
            # swap positions (j-1, j), i.e. heights (H-j+1, H-j)
            out = swap_adjacent_levels(out, d.height - j, settings)
            cur[j - 1], cur[j] = cur[j], cur[j - 1]
            j -= 1
    return out
