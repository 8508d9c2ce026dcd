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

The node-local guards of r2, r1 and r5 are one test,
:func:`~zhdd.sqmdd.normal_form_rule`, which :func:`~zhdd.sqmdd.measure`
reads too; the bodies of r2 and r1 are the pull,
:func:`~zhdd.sqmdd.pull`, the one :meth:`~zhdd.sqmdd.Builder.edge` calls.
So both engines write the same weights for the same form.

How the next redex is found: one rewriter (:class:`_Rewriter`) keeps the
node table, a parent index, each node's :func:`~zhdd.sqmdd.node_key` with
the ids sharing it, and one min-heap of ``(rank, entry)`` pairs, ranked by
rule priority after ``zero``.  The heap holds every entry whose guard
holds — r3 entries are ``(node, side)``, r6 entries the id to merge away,
the others node ids — and possibly stale ones, which are checked against
their guard and dropped when they reach the top.  Every guard reads only
key cells, children, group order and the parent index, so a step offers
an entry only when one of those inputs moved:

- a node whose key did not change offers nothing;
- a node whose key changed offers its own r6 entry, or the r6 entry of
  its new group's old first id when it heads the group now; the one of
  r2, r1 and r5 its new cells make true (they exclude each other); r3 on
  each side whose child or zero cell moved; and its parents' r3 edges
  only when both its weights have just become grid-zero;
- a child that lost its last incoming edge offers r4.

``zero`` is read every step, but its path walk
(:func:`~zhdd.sqmdd.denotes_zero`) runs only while the scalar is in the
zero cell: outside it the diagram is zero exactly when the root has two
grid-zero weights.  The deterministic pick is the heap's smallest valid
pair: the smallest valid entry of the first rule that has one, which is
exactly the first candidate of the full scan :func:`find_candidates`, so
traces and results match the scan step for step while a step costs only
the nodes it changes.
"""
from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Any, NamedTuple, Optional

import numpy as np

from .config import DEFAULT, Settings
from .sqmdd import (
    TERMINAL, ZERO_CELL, Node, Sqmdd, denotes_zero, node_key, normal_form_rule, one_cell, pull,
)


class Step(NamedTuple):
    rule: str
    node: Optional[int]
    detail: str

    def to_json(self) -> dict[str, Any]:
        return {"rule": self.rule, "node": self.node, "detail": self.detail}


Candidate = tuple[str, Any]

# the rules after "zero" in priority order: an entry's rank in the heap is
# the index of its rule here
_RULES = ("r3", "r4", "r2", "r1", "r5", "r6")
_RANK = {rule: rank for rank, rule in enumerate(_RULES)}
_R3, _R4, _R6 = _RANK["r3"], _RANK["r4"], _RANK["r6"]


class _Rewriter:
    """One mutable diagram plus the indexes its rule guards read.

    ``parents`` maps each node to its incoming ``(parent, side)`` edges;
    ``keys`` holds each node's key and ``groups`` the sorted ids per key.
    ``heap`` is the lazily pruned min-heap of ``(rank in _RULES, entry)``
    (see the module docstring for the invariant).
    """

    def __init__(self, d: Sqmdd, settings: Settings) -> None:
        self.settings = settings
        one = self.one = one_cell(settings)
        self.scalar, self.height, self.root = d.scalar, d.height, d.root
        nodes = self.nodes = dict(d.nodes)
        ids = sorted(nodes)
        parents = self.parents = {i: set() for i in ids}
        keys: dict[int, tuple] = {}
        groups: dict[tuple, list[int]] = {}
        self.keys, self.groups = keys, groups
        for i in ids:
            n = nodes[i]
            c0, c1 = n.c0, n.c1
            if c0 != TERMINAL:
                parents[c0].add((i, 0))
            if c1 != TERMINAL:
                parents[c1].add((i, 1))
            key = keys[i] = node_key(n, settings)
            group = groups.get(key)
            if group is None:
                groups[key] = [i]
            else:
                group.append(i)
        # one list per rule in id order, joined in rank order: a sorted
        # list, so already a heap
        lists: list[list] = [[] for _ in _RULES]
        r3, r4, r6 = lists[_R3], lists[_R4], lists[_R6]
        dead = self._dead_edge
        for i in ids:
            key = keys[i]
            _h, c0, k0, c1, k1 = key
            if dead(c0, k0):
                r3.append((_R3, (i, 0)))
            if dead(c1, k1):
                r3.append((_R3, (i, 1)))
            if not parents[i] and i != self.root:
                r4.append((_R4, i))
            rule = normal_form_rule(key, one)
            if rule is not None:
                rank = _RANK[rule]
                lists[rank].append((rank, i))
            if groups[key][0] < i:
                r6.append((_R6, i))
        self.heap = [pair for entries in lists for pair in entries]

    # -- guards: predicates on the current table -------------------------
    # Besides which nodes exist, they read only ``keys`` (children at
    # ``key[1]`` and ``key[3]``, grid cells at ``key[2]`` and ``key[4]``),
    # ``groups`` and ``parents``.

    def _zero_weights(self, i: int) -> bool:
        key = self.keys[i]
        return key[2] == ZERO_CELL and key[4] == ZERO_CELL

    def _zero(self) -> bool:
        return self.root != TERMINAL and (
            self._zero_weights(self.root)
            or denotes_zero(self.scalar, self.nodes, self.root, self.settings)
        )

    def _dead_edge(self, c: int, k: tuple[int, int]) -> bool:
        """Whether an edge to child c with weight cell k contributes nothing."""
        return c != TERMINAL and (k == ZERO_CELL or self._zero_weights(c))

    def _holds(self, rank: int, e: Any) -> bool:
        """Whether the guard of rule ``_RULES[rank]`` holds for entry e."""
        if rank == _R3:
            i, side = e
            key = self.keys.get(i)
            return key is not None and self._dead_edge(key[1 + 2 * side], key[2 + 2 * side])
        if rank == _R4:
            return e in self.nodes and e != self.root and not self.parents[e]
        if rank == _R6:
            return e in self.nodes and self.groups[self.keys[e]][0] < e
        key = self.keys.get(e)
        return key is not None and normal_form_rule(key, self.one) == _RULES[rank]

    # -- picking ---------------------------------------------------------

    def _candidate(self, rank: int, e: Any) -> Candidate:
        if rank == _R6:
            return ("r6", (self.groups[self.keys[e]][0], e))
        return (_RULES[rank], e)

    def first(self) -> Optional[Candidate]:
        """The first candidate in priority order, or None at the fixpoint."""
        if self._zero():
            return ("zero", None)
        heap = self.heap
        while heap:
            rank, e = heap[0]
            if self._holds(rank, e):
                return self._candidate(rank, e)
            heappop(heap)
        return None

    def candidates(self) -> list[Candidate]:
        """Every candidate in priority order; prunes the heap on the way."""
        out: list[Candidate] = [("zero", None)] if self._zero() else []
        self.heap = sorted({(rank, e) for rank, e in self.heap if self._holds(rank, e)})
        return out + [self._candidate(rank, e) for rank, e in self.heap]

    # -- bookkeeping -----------------------------------------------------

    def _leave_group(self, i: int, key: tuple) -> None:
        group = self.groups[key]
        del group[bisect_left(group, i)]
        if not group:
            del self.groups[key]

    def _set(self, i: int, n: Node) -> None:
        """Node i becomes n: re-key it and offer what the new key makes true
        (the offer rule of the module docstring)."""
        self.nodes[i] = n
        key = node_key(n, self.settings)
        _h, c0, k0, c1, k1 = key
        old = self.keys[i]
        if key == old:
            return
        self.keys[i] = key
        heap = self.heap
        self._leave_group(i, old)
        group = self.groups.get(key)
        if group is None:
            self.groups[key] = [i]
        else:
            at = bisect_left(group, i)
            group.insert(at, i)
            heappush(heap, (_R6, group[1] if at == 0 else i))
        rule = normal_form_rule(key, self.one)
        if rule is not None:
            heappush(heap, (_RANK[rule], i))
        zero0, zero1 = k0 == ZERO_CELL, k1 == ZERO_CELL
        was0, was1 = old[2] == ZERO_CELL, old[4] == ZERO_CELL
        if (c0 != old[1] or zero0 != was0) and self._dead_edge(c0, k0):
            heappush(heap, (_R3, (i, 0)))
        if (c1 != old[3] or zero1 != was1) and self._dead_edge(c1, k1):
            heappush(heap, (_R3, (i, 1)))
        if zero0 and zero1 and not (was0 and was1):
            for e in self.parents[i]:
                heappush(heap, (_R3, e))

    def _unlink(self, p: int, side: int, c: int) -> None:
        """Edge (p, side) no longer points at c."""
        if c != TERMINAL:
            edges = self.parents[c]
            edges.discard((p, side))
            if not edges and c != self.root:
                heappush(self.heap, (_R4, c))

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
            self._set(p, n.with_edge(side, n.edge(side)[0], to))
        if self.root == i:
            self.root = to

    def _to_parents(self, i: int, factor: complex) -> None:
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
            n, key = self.nodes[i], self.keys[i]
            factor, w0, w1 = pull(n.w0, key[2], n.w1, key[4])
            self._set(i, Node(n.height, w0, n.c0, w1, n.c1))
            self._to_parents(i, factor)
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


RULE_ORDER = ("zero",) + _RULES


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
    if rng is None:
        while (cand := rw.first()) is not None:
            steps.append(rw.apply(cand))
    else:
        while cands := rw.candidates():
            steps.append(rw.apply(cands[int(rng.integers(len(cands)))]))
    return (rw.diagram() if steps else d), steps


def is_irreducible(d: Sqmdd, settings: Settings = DEFAULT) -> bool:
    return _Rewriter(d, settings).first() is None
