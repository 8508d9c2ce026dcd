"""The rewrite system that drives diagrams to their unique reduced form.

This is the reference form: the rules are how the reduced form is shown
to be unique, and each run leaves a trace of the steps it took.  It runs
for ``reduce`` (which reports the trace), for the claim suite's soundness
checks and for :func:`is_irreducible`.  Code that only needs the form
builds it with one :class:`~zhdd.sqmdd.Builder` re-import
(:func:`zhdd.algebra.canonical`), which lands on the same diagram.

Seven local rules, applied until none fires.  Each application strictly
decreases the lexicographic :func:`zhdd.sqmdd.measure`, so the loop
terminates; the reduced form is independent of application order, which
the test suite probes by re-running with randomized rule choices.

Rule guards compare weights on the eps grid (see
:func:`zhdd.sqmdd.weight_key`); snapping a grid-zero weight to an exact
zero is the only place interpretation can move, and it moves by at most
eps per entry factor.

The rules, in the deterministic priority order used by :func:`reduce`:

``zero``  the whole diagram denotes (grid-)zero — its root has two
          grid-zero weights, or every entry is grid-zero
          (:func:`~zhdd.sqmdd.denotes_zero`): replace it by the
          terminal-only form with scalar exactly 0, height kept.
``r3``    an edge that contributes nothing — grid-zero weight, or a child
          whose both weights are grid-zero — becomes an exact zero edge
          to the terminal.
``r4``    a non-root node with no incoming edge is dropped.
``r2``    a node (0, b) with b outside {0, 1}: pull b out to the incoming
          edges (or the scalar, at the root), leaving (0, 1).
``r1``    a node (a, b) with a outside {0, 1}: pull a out, leaving
          (1, b/a).
``r5``    a node (1, 1) whose two edges share a child is a skipped level:
          reroute incoming edges to the child and delete the node.
``r6``    two nodes with identical keys merge into the first.

``r5`` and ``r6`` retarget and delete in one atomic step — done as two
separate steps, the intermediate diagram would not have a smaller
measure.

How the next redex is found: one rewriter (:class:`_Rewriter`) keeps the
node table, a parent index, each node's :func:`~zhdd.sqmdd.node_key` with
the ids sharing it, and one min-heap of ``(rank, entry)`` pairs, ranked by
rule priority after ``zero``.  The heap holds every entry whose guard
holds — r3 entries are ``(node, side)``, r6 entries the id to merge away,
the others node ids — and possibly stale ones, which are checked against
their guard and dropped when they reach the top.  A step re-offers every
guard that reads what it changed: the changed node's own rules, its
parents' r3 edges, the r6 entry of its new key group's old first id, and
r4 for any child that lost an edge.  The deterministic pick is the heap's
smallest valid pair: the smallest valid entry of the first rule that has
one, which is exactly the first candidate of the full scan
:func:`find_candidates`, so traces and results match the scan step for
step while a step costs only the nodes it touches.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .config import DEFAULT, Settings
from .sqmdd import (
    TERMINAL,
    Node,
    Sqmdd,
    denotes_zero,
    node_key,
    weight_key,
)

_ZERO = (0, 0)  # the grid cell of a zero weight


@dataclass(frozen=True)
class Step:
    rule: str
    node: Optional[int]
    detail: str

    def to_json(self) -> dict[str, Any]:
        return {"rule": self.rule, "node": self.node, "detail": self.detail}


Candidate = tuple[str, Any]


class _Rewriter:
    """One mutable diagram plus the indexes its rule guards read.

    ``parents`` maps each node to its incoming ``(parent, side)`` edges;
    ``keys`` holds each node's key and ``groups`` the sorted ids per key.
    ``heap`` is the lazily pruned min-heap of ``(rank in _GUARDS, entry)``
    (see the module docstring for the invariant).
    """

    def __init__(self, d: Sqmdd, settings: Settings) -> None:
        self.settings = settings
        self.one = weight_key(1.0 + 0j, settings)
        self.scalar, self.height, self.root = d.scalar, d.height, d.root
        self.nodes = dict(d.nodes)
        self.parents: dict[int, set[tuple[int, int]]] = {i: set() for i in self.nodes}
        self.keys: dict[int, tuple] = {}
        self.groups: dict[tuple, list[int]] = {}
        ids = sorted(self.nodes)
        for i in ids:
            n = self.nodes[i]
            for side, c in ((0, n.c0), (1, n.c1)):
                if c != TERMINAL:
                    self.parents[c].add((i, side))
            key = self.keys[i] = node_key(n, settings)
            self.groups.setdefault(key, []).append(i)
        edges = [(i, side) for i in ids for side in (0, 1)]
        # a sorted list is already a heap
        self.heap = [(rank, e) for rank, (rule, ok) in enumerate(self._GUARDS)
                     for e in (edges if rule == "r3" else ids) if ok(self, e)]

    # -- guards: each one is a predicate on the current table ------------
    # Weights are compared through the grid cells cached in ``keys``
    # (``key[2]`` and ``key[4]``); child ids are read from ``nodes``.

    def _zero_weights(self, i: int) -> bool:
        key = self.keys[i]
        return key[2] == _ZERO and key[4] == _ZERO

    def _zero(self) -> bool:
        return self.root != TERMINAL and (
            self._zero_weights(self.root)
            or denotes_zero(self.scalar, self.nodes, self.root, self.settings)
        )

    def _r3(self, e: tuple[int, int]) -> bool:
        i, side = e
        n = self.nodes.get(i)
        if n is None:
            return False
        c = n.c1 if side else n.c0
        return c != TERMINAL and (self.keys[i][2 + 2 * side] == _ZERO or self._zero_weights(c))

    def _r4(self, i: int) -> bool:
        return i in self.nodes and i != self.root and not self.parents[i]

    def _r2(self, i: int) -> bool:
        key = self.keys.get(i)
        return key is not None and key[2] == _ZERO and key[4] != _ZERO and key[4] != self.one

    def _r1(self, i: int) -> bool:
        key = self.keys.get(i)
        return key is not None and key[2] != _ZERO and key[2] != self.one

    def _r5(self, i: int) -> bool:
        n = self.nodes.get(i)
        return n is not None and n.c0 == n.c1 and self.keys[i][2] == self.keys[i][4] == self.one

    def _r6(self, i: int) -> bool:
        return i in self.nodes and self.groups[self.keys[i]][0] < i

    # the rules after "zero" in priority order, which RULE_ORDER reads;
    # plain functions, since bound methods kept on the instance would form
    # a reference cycle that holds each finished rewriter until the cyclic
    # collector runs
    _GUARDS = (("r3", _r3), ("r4", _r4), ("r2", _r2), ("r1", _r1), ("r5", _r5), ("r6", _r6))
    _RANKED = {rule: (rank, ok) for rank, (rule, ok) in enumerate(_GUARDS)}

    # -- picking ---------------------------------------------------------

    def _candidate(self, rule: str, e: Any) -> Candidate:
        if rule == "r6":
            return ("r6", (self.groups[self.keys[e]][0], e))
        return (rule, e)

    def first(self) -> list[Candidate]:
        """The first candidate in priority order, as a list of at most one."""
        if self._zero():
            return [("zero", None)]
        heap = self.heap
        while heap:
            rank, e = heap[0]
            rule, ok = self._GUARDS[rank]
            if ok(self, e):
                return [self._candidate(rule, e)]
            heapq.heappop(heap)
        return []

    def candidates(self) -> list[Candidate]:
        """Every candidate in priority order; prunes the heap on the way."""
        out: list[Candidate] = [("zero", None)] if self._zero() else []
        guards = self._GUARDS
        self.heap = sorted({(rank, e) for rank, e in self.heap if guards[rank][1](self, e)})
        return out + [self._candidate(guards[rank][0], e) for rank, e in self.heap]

    # -- bookkeeping -----------------------------------------------------

    def _offer(self, rule: str, e: Any) -> None:
        rank, ok = self._RANKED[rule]
        if ok(self, e):
            heapq.heappush(self.heap, (rank, e))

    def _leave_group(self, i: int, key: tuple) -> None:
        group = self.groups[key]
        del group[bisect_left(group, i)]
        if not group:
            del self.groups[key]

    def _set(self, i: int, n: Node) -> None:
        self.nodes[i] = n
        self._touch(i)

    def _touch(self, i: int) -> None:
        """Node i changed: re-key it and re-offer every guard that reads it."""
        key = node_key(self.nodes[i], self.settings)
        if key != self.keys[i]:
            self._leave_group(i, self.keys[i])
            self.keys[i] = key
            group = self.groups.setdefault(key, [])
            at = bisect_left(group, i)
            group.insert(at, i)
            if at == 0 and len(group) > 1:
                self._offer("r6", group[1])
        for rule in ("r2", "r1", "r5", "r6"):
            self._offer(rule, i)
        self._offer("r3", (i, 0))
        self._offer("r3", (i, 1))
        for e in self.parents[i]:
            self._offer("r3", e)

    def _unlink(self, p: int, side: int, c: int) -> None:
        """Edge (p, side) no longer points at c."""
        if c != TERMINAL:
            self.parents[c].discard((p, side))
            self._offer("r4", c)

    def _delete(self, i: int) -> set[tuple[int, int]]:
        """Remove node i; returns its incoming edges."""
        n = self.nodes.pop(i)
        self._unlink(i, 0, n.c0)
        self._unlink(i, 1, n.c1)
        self._leave_group(i, self.keys.pop(i))
        return self.parents.pop(i)

    def _merge(self, i: int, to: int) -> None:
        """Point i's incoming edges (or the root) at ``to`` and delete i."""
        edges = self._delete(i)
        for p, side in edges:
            if to != TERMINAL:
                self.parents[to].add((p, side))
            n = self.nodes[p]
            self.nodes[p] = n.with_edge(side, n.edge(side)[0], to)
        for p in {p for p, _ in edges}:  # a parent may hold both edges
            self._touch(p)
        if self.root == i:
            self.root = to

    def _pull(self, i: int, factor: complex) -> None:
        """Multiply the factor onto every incoming edge of i (or the scalar)."""
        if i == self.root:
            self.scalar = self.scalar * factor
            return
        for p, side in self.parents[i]:
            n = self.nodes[p]
            w, c = n.edge(side)
            self._set(p, n.with_edge(side, w * factor, c))

    # -- rewriting -------------------------------------------------------

    def apply(self, cand: Candidate) -> Step:
        """One rewrite step, in place; returns its trace entry."""
        rule, payload = cand
        if rule == "zero":
            self.scalar, self.root, self.nodes = 0j, TERMINAL, {}
            self.parents, self.keys, self.groups, self.heap = {}, {}, {}, []
            return Step("zero", None, "diagram denotes zero")
        if rule == "r3":
            i, side = payload
            n = self.nodes[i]
            self._unlink(i, side, n.edge(side)[1])
            self._set(i, n.with_edge(side, 0j, TERMINAL))
            return Step("r3", i, f"edge {side} of node {i} redirected to an exact zero")
        if rule == "r4":
            self._delete(payload)
            return Step("r4", payload, f"node {payload} has no parents")
        if rule in ("r2", "r1"):
            i = payload
            n = self.nodes[i]
            if rule == "r2":
                factor = n.w1
                self._set(i, Node(n.height, 0j, n.c0, 1.0 + 0j, n.c1))
            else:
                factor = n.w0
                # a grid-zero w1 becomes an exact zero, as Builder.edge snaps it
                w1 = 0j if self.keys[i][4] == _ZERO else n.w1 / factor
                self._set(i, Node(n.height, 1.0 + 0j, n.c0, w1, n.c1))
            self._pull(i, factor)
            return Step(rule, i, f"factor {factor} pulled out of node {i}")
        if rule == "r5":
            i = payload
            child = self.nodes[i].c0
            self._merge(i, child)
            return Step("r5", i, f"skipped-level node {i} removed in favour of {child}")
        if rule == "r6":
            keep, drop = payload
            self._merge(drop, keep)
            return Step("r6", drop, f"node {drop} merged into identical node {keep}")
        raise ValueError(f"unknown rule {rule!r}")

    def diagram(self) -> Sqmdd:
        return Sqmdd(self.scalar, self.height, self.root, self.nodes)


RULE_ORDER = ("zero",) + tuple(rule for rule, _ in _Rewriter._GUARDS)


def find_candidates(d: Sqmdd, settings: Settings = DEFAULT) -> list[Candidate]:
    """Every applicable (rule, payload) pair, in deterministic order."""
    return _Rewriter(d, settings).candidates()


def apply_step(d: Sqmdd, cand: Candidate, settings: Settings = DEFAULT) -> tuple[Sqmdd, Step]:
    """One rewrite step; returns the new diagram and its trace entry."""
    rw = _Rewriter(d, settings)
    step = rw.apply(cand)
    return rw.diagram(), step


def reduce_diagram(
    d: Sqmdd,
    settings: Settings = DEFAULT,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Sqmdd, list[Step]]:
    """Rewrite to the fixpoint.

    Deterministic by default (first candidate in priority order); pass an
    ``rng`` to pick uniformly among all applicable candidates instead —
    the result must come out the same either way.
    """
    rw = _Rewriter(d, settings)
    steps: list[Step] = []
    while True:
        cands = rw.first() if rng is None else rw.candidates()
        if not cands:
            return (rw.diagram() if steps else d), steps
        pick = cands[0] if rng is None else cands[int(rng.integers(len(cands)))]
        steps.append(rw.apply(pick))


def is_irreducible(d: Sqmdd, settings: Settings = DEFAULT) -> bool:
    return not _Rewriter(d, settings).first()
