"""Operations on diagrams: vector import, tensor, sum, wire surgery.

The operations are edge-level routines ``(bld, edge, ...) -> edge``.  They
read their input nodes from a :class:`Builder`'s table and write their
results into the same table, so a chain of them (the contraction in
:func:`zhdd.translate.zh_to_sqmdd`) shares the builder's unique table and
sum table, and is packaged once, by :meth:`Builder.finish`.  Each public
operation on diagrams is a thin wrapper around one routine: a fresh
builder, an ``import_edge`` of its input(s), the routine, one ``finish``;
:func:`canonical` is the wrapper with no routine.  The import makes every
output reduced by construction (given sanely-scaled weights — see the grid
caveats in :mod:`zhdd.sqmdd`), so inputs do **not** have to be reduced;
the operations only rely on validity.

The wire operations share one level-walker, :func:`zhdd.sqmdd.walker`,
which the builder's own import also runs.  It visits each node above a
target height once, bottom-up in ascending height, and rebuilds it
``drop`` levels lower: 2 when a wire is closed, 1 when the target wire
disappears, 0 when it stays, and minus the lower factor's height when a
tensor lifts the upper factor over it.  An edge that arrives at or crosses
the target is cut there: the two cofactors of its child at the target
height go to the operation's ``act(e0, e1)``, and the walker scales the
returned edge by the edge weight.  The operations are linear in edge
weights, so ``act`` runs once per child and the cost is proportional to
the diagram, not to 2**H.  Closing a wire (:func:`contract_edge`) is a
single pass: its ``act`` restricts the lower wire to agree with the upper
one and sums the two branches, a Z merge and a <+| plug in one.  A wire
permutation (:func:`permute_edge`) is one adjacent-level swap per entry of
the package's one swap schedule, :func:`zhdd.terms.swap_schedule`.

The sum (:func:`add_edge`) walks an edge pair with an explicit stack.  It
stops where both edges reach the same node (the terminal included): the
sum of ``(wa, c)`` and ``(wb, c)`` is ``(wa + wb, c)``, as in QMDD
packages, so a sum never walks the sub-diagram below a shared child.
Closing a wire from the top relies on this: its two branches share
everything below the wire's lower end.  Both engines read a node's height
off the node, so levels that an edge skips are jumped over, never stepped
through, and neither recurses: height is bounded by memory, not by the
interpreter's recursion limit.

The sum's computed table is the builder's (``Builder.sums``) and lives as
long as the builder, so every wire that a contraction closes reuses the
sums of the wires closed before it.  This is sound because builder nodes
are never changed or freed, so a key names one sum for the builder's
life, and a hit returns exactly what recomputing it would.  The key is the
raw edge weights, not their grid cells: two sums whose weights differ
below eps would share one result, and the output would depend on which of
them ran first.

Wire indexing: output ``i`` counts from the top, so it lives at height
``H - i``; output 0 is the most significant bit of the denoted vector.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import DEFAULT, Settings
from .errors import ShapeError
from .sqmdd import TERMINAL, Builder, Edge, Sqmdd, Walk, split_edge, walker
from .terms import swap_schedule


def _restrictor(bld: Builder, target: int, bit: int) -> Walk:
    """A walker that fixes the variable at ``target`` to ``bit``."""
    return walker(bld, target, 1, lambda e0, e1: (e0, e1)[bit])


def add_edge(bld: Builder, ea: Edge, eb: Edge) -> Edge:
    """Pointwise sum of two edges, through the builder's sum table.

    A pair of edges is summed at once when one of them is zero, when both
    reach the same node, or when the table holds it; otherwise both are
    split at the higher of their two heights, the 0-side pair is summed
    first, then the 1-side pair, and ``bld.edge`` joins the two halves.
    """
    nodes, sums, edge = bld.nodes, bld.sums, bld.edge
    stack: list = [(ea, eb)]  # pairs to sum, and (None, h, key) joins
    done: list[Edge] = []  # the sums found so far, the latest last
    while stack:
        top = stack.pop()
        if top[0] is None:  # both halves are summed: join them
            _, h, key = top
            e1 = done.pop()
            done[-1] = sums[key] = edge(h, done[-1], e1)
            continue
        pa, pb = top
        (wa, ca), (wb, cb) = pa, pb
        if ca == TERMINAL and wa == 0j:
            done.append(pb)
        elif cb == TERMINAL and wb == 0j:
            done.append(pa)
        elif ca == cb:
            done.append((wa + wb, ca))
        else:
            key = (ca, wa, cb, wb)
            known = sums.get(key)
            if known is not None:
                done.append(known)
                continue
            ha = nodes[ca].height if ca != TERMINAL else 0
            hb = nodes[cb].height if cb != TERMINAL else 0
            h = ha if ha > hb else hb  # only an edge at height h splits
            if ha == h:
                n = nodes[ca]
                a0, a1 = (wa * n.w0, n.c0), (wa * n.w1, n.c1)
            else:
                a0 = a1 = pa
            if hb == h:
                n = nodes[cb]
                b0, b1 = (wb * n.w0, n.c0), (wb * n.w1, n.c1)
            else:
                b0 = b1 = pb
            stack += ((None, h, key), (a1, b1), (a0, b0))  # the 0-side first
    return done[0]


# ---------------------------------------------------------------------------
# edge-level operations: inputs and result live in ``bld``'s table


def tensor_edge(bld: Builder, top: Edge, bottom: Edge, bottom_height: int) -> Edge:
    """Kronecker product: ``top``'s nodes are rebuilt ``bottom_height``
    levels higher, with ``bottom`` in place of the terminal."""
    return walker(bld, 0, -bottom_height, lambda e0, e1: bottom)(top)


def restrict_edge(bld: Builder, e: Edge, height: int, i: int, bit: int) -> Edge:
    """Fix output wire ``i`` to ``bit``."""
    return _restrictor(bld, height - i, bit)(e)


def merge_edge(bld: Builder, e: Edge, height: int, i: int, j: int) -> Edge:
    """Keep the entries where the bits of wires ``i < j`` agree; ``j`` goes."""
    hi = height - i
    r0, r1 = (_restrictor(bld, height - j, bit) for bit in (0, 1))
    return walker(bld, hi, 1, lambda e0, e1: bld.edge(hi - 1, r0(e0), r1(e1)))(e)


def plug_edge(bld: Builder, e: Edge, height: int, i: int) -> Edge:
    """Sum output wire ``i`` out."""
    return walker(bld, height - i, 1, lambda e0, e1: add_edge(bld, e0, e1))(e)


def contract_edge(bld: Builder, e: Edge, height: int, i: int, j: int) -> Edge:
    """Close the wire joining outputs ``i < j``: both go, and the result is
    ``plug_edge(merge_edge(e, i, j), i)``, computed in one pass."""
    r0, r1 = (_restrictor(bld, height - j, bit) for bit in (0, 1))
    return walker(bld, height - i, 2, lambda e0, e1: add_edge(bld, r0(e0), r1(e1)))(e)


def swap_edge(bld: Builder, e: Edge, k: int) -> Edge:
    """Exchange the variables at heights ``k+1`` and ``k``."""

    def act(e0: Edge, e1: Edge) -> Edge:
        ll, lr, rl, rr = (split_edge(bld, x, k, side) for x in (e0, e1) for side in (0, 1))
        return bld.edge(k + 1, bld.edge(k, ll, rl), bld.edge(k, lr, rr))

    return walker(bld, k + 1, 0, act)(e)


def permute_edge(bld: Builder, e: Edge, height: int, perm: Sequence[int]) -> Edge:
    """Rearrange wires so that result wire ``i`` is input wire ``perm[i]``,
    one adjacent-level swap per entry of :func:`~zhdd.terms.swap_schedule`."""
    for p in swap_schedule(perm):
        e = swap_edge(bld, e, height - p - 1)  # wires p, p+1 sit at heights H-p, H-p-1
    return e


# ---------------------------------------------------------------------------
# operations on diagrams


def _imported(settings: Settings, *ds: Sqmdd) -> tuple:
    """A fresh builder, then the top edge of each of ``ds`` imported into it."""
    bld = Builder(settings)
    return (bld, *(bld.import_edge(d, (d.scalar, d.root)) for d in ds))


def canonical(d: Sqmdd, settings: Settings = DEFAULT) -> Sqmdd:
    """The irreducible form of ``d``: one ``Builder`` re-import, packaged.

    The same form the rewrite system reaches (node ids aside), without its
    trace; :func:`zhdd.reduction.reduce_diagram` is for when the steps
    themselves are wanted.
    """
    bld, e = _imported(settings, d)
    return bld.finish(e, d.height)


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
    bld, (w, c) = _imported(settings, d)
    return bld.finish((w * complex(factor), c), d.height)


def add(a: Sqmdd, b: Sqmdd, settings: Settings = DEFAULT) -> Sqmdd:
    """Pointwise sum of two diagrams of equal height."""
    if a.height != b.height:
        raise ShapeError(f"cannot add heights {a.height} and {b.height}")
    bld, ea, eb = _imported(settings, a, b)
    return bld.finish(add_edge(bld, ea, eb), a.height)


def tensor(a: Sqmdd, b: Sqmdd, settings: Settings = DEFAULT) -> Sqmdd:
    """Kronecker product: ``a`` supplies the upper wires, ``b`` the lower."""
    bld, ea, eb = _imported(settings, a, b)
    return bld.finish(tensor_edge(bld, ea, eb, b.height), a.height + b.height)


def restrict(d: Sqmdd, i: int, bit: int, settings: Settings = DEFAULT) -> Sqmdd:
    """Fix output wire ``i`` to ``bit``; the result has one wire fewer."""
    if not 0 <= i < d.height:
        raise ShapeError(f"wire {i} out of range for height {d.height}")
    if bit not in (0, 1):
        raise ShapeError(f"bit must be 0 or 1, got {bit!r}")
    bld, e = _imported(settings, d)
    return bld.finish(restrict_edge(bld, e, d.height, i, bit), d.height - 1)


def z_merge_outputs(d: Sqmdd, i: int, j: int, settings: Settings = DEFAULT) -> Sqmdd:
    """Identify output wires ``i < j`` (a Z-spider joining them): keep the
    entries where the two bits agree.  The shared wire stays at position
    ``i``; position ``j`` disappears."""
    if not 0 <= i < j < d.height:
        raise ShapeError(
            f"need two distinct wires 0 <= i < j < {d.height}, got ({i}, {j})"
        )
    bld, e = _imported(settings, d)
    return bld.finish(merge_edge(bld, e, d.height, i, j), d.height - 1)


def plug_bra_plus(d: Sqmdd, i: int, settings: Settings = DEFAULT) -> Sqmdd:
    """Contract output wire ``i`` with the all-ones effect (sum it out)."""
    if not 0 <= i < d.height:
        raise ShapeError(f"wire {i} out of range for height {d.height}")
    bld, e = _imported(settings, d)
    return bld.finish(plug_edge(bld, e, d.height, i), d.height - 1)


def swap_adjacent_levels(d: Sqmdd, k: int, settings: Settings = DEFAULT) -> Sqmdd:
    """Exchange the variables at heights ``k+1`` and ``k`` (1 <= k < H)."""
    if not 1 <= k < d.height:
        raise ShapeError(f"level {k} out of range for height {d.height}")
    bld, e = _imported(settings, d)
    return bld.finish(swap_edge(bld, e, k), d.height)


def permute_outputs(d: Sqmdd, perm: Sequence[int], settings: Settings = DEFAULT) -> Sqmdd:
    """Rearrange wires so that result wire ``i`` is input wire ``perm[i]``."""
    perm = list(perm)
    if sorted(perm) != list(range(d.height)):
        raise ShapeError(f"{perm} is not a permutation of range({d.height})")
    bld, e = _imported(settings, d)
    return bld.finish(permute_edge(bld, e, d.height, perm), d.height)
