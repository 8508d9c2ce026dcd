"""State-form decision diagrams over complex weights.

An :class:`Sqmdd` is a rooted DAG: every non-terminal node carries a height,
a pair of child references and a pair of complex weights; the diagram as a
whole carries an overall scalar and a height ``H``.  The denoted vector is
defined by cofactor recursion — the left/right child subtrees (scaled by
their weights) are the state with the top qubit fixed to 0/1 — with two
twists that make the format compact: node heights may skip levels (a child
more than one level down duplicates its cofactor across the gap), and the
root itself may sit below ``H``.

Node ids are arbitrary positive integers; the terminal is the reserved id
``TERMINAL`` (0).  The structure is deliberately lax: several distinct
diagrams can denote the same vector.  Canonical forms are built by
:class:`Builder` (the hash-consing constructor behind every algebraic
operation and :func:`zhdd.algebra.canonical`); :mod:`zhdd.reduction` is
the rewrite system that reaches the same form step by step, with a trace.
The normal form is defined here, once: the zero cell :data:`ZERO_CELL`,
the one cell :func:`one_cell`, the test :func:`normal_form_rule` and the
pull (:func:`pull`), a weight pair as a factor times (1, w) or (0, 1).
:meth:`Builder.edge` and the rewriter's r1 and r2 call the pull, and the
rewriter and :func:`measure` read the test.
Next to the normal form sit the two walks from the root: :func:`preorder`
(depth-first, 0-side first: the order :func:`renumber` numbers and the
emitter lays out, and the set that pruning keeps) and :func:`bottom_up`
(the same ids by ascending height, each node after its children: the
order of every fold over a diagram, :func:`denotes_zero` and the dense
oracle's among them).  Only two walks keep their own loop: the pair walk
of :func:`structurally_same`, the independent referee of
:func:`renumber`, and :func:`walker`'s, which stops at its target.

Weight comparisons for structural purposes (unique table, rule guards)
round to an ``eps`` grid — see :func:`weight_key`.  This grid is the only
approximation anywhere in the package; all other arithmetic is plain
complex double precision.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, NamedTuple

from ._json import complex_from_json, complex_to_json
from .config import DEFAULT, Settings
from .errors import ResourceLimitError

TERMINAL = 0

Edge = tuple[complex, int]  # (weight, child id)
Act = Callable[[Edge, Edge], Edge]  # a cofactor pair -> one edge
Walk = Callable[[Edge], Edge]


class Node(NamedTuple):
    height: int
    w0: complex
    c0: int
    w1: complex
    c1: int

    def edge(self, side: int) -> Edge:
        return (self.w0, self.c0) if side == 0 else (self.w1, self.c1)

    def with_edge(self, side: int, w: complex, c: int) -> Node:
        """This node with edge ``side`` replaced by ``(w, c)``."""
        if side == 0:
            return Node(self.height, w, c, self.w1, self.c1)
        return Node(self.height, self.w0, self.c0, w, c)


@dataclass
class Sqmdd:
    scalar: complex
    height: int
    root: int
    nodes: dict[int, Node] = field(default_factory=dict)


def terminal_only(scalar: complex, height: int) -> Sqmdd:
    return Sqmdd(scalar, height, TERMINAL, {})


def zero_form(height: int) -> Sqmdd:
    """The canonical all-zero state: scalar 0, terminal root, height kept."""
    return Sqmdd(0j, height, TERMINAL, {})


# ---------------------------------------------------------------------------
# weight grid


def weight_key(w: complex, settings: Settings = DEFAULT) -> tuple[int, int]:
    """Integer grid cell of a weight, at the settings' eps resolution.

    Two weights in the same cell are treated as structurally equal by the
    unique table and the rule guards.
    """
    return (round(w.real / settings.eps), round(w.imag / settings.eps))


ZERO_CELL = (0, 0)  # the grid cell of a zero weight, on every grid


def one_cell(settings: Settings = DEFAULT) -> tuple[int, int]:
    """The grid cell of the weight 1."""
    return weight_key(1.0 + 0j, settings)


def is_zero_weight(w: complex, settings: Settings = DEFAULT) -> bool:
    return weight_key(w, settings) == ZERO_CELL


def node_key(n: Node, settings: Settings = DEFAULT) -> tuple:
    """Height, children and the two weights' grid cells: the unique table's
    key, and the key the rewriter's guards read (:func:`weight_key`,
    inlined, since both run it once per node)."""
    eps = settings.eps
    w0, w1 = n.w0, n.w1
    return (n.height, n.c0, (round(w0.real / eps), round(w0.imag / eps)),
            n.c1, (round(w1.real / eps), round(w1.imag / eps)))


# ---------------------------------------------------------------------------
# the normal form: what the Builder builds and the rewriter reaches


def normal_form_rule(key: tuple, one: tuple[int, int]) -> str | None:
    """The node-local rule a node with this :func:`node_key` breaks the
    normal form by, or None.  ``one`` is :func:`one_cell` of the key's grid.

    ``"r2"``: weights (0, b) with b outside {0, 1}; ``"r1"``: weights (a, b)
    with a outside {0, 1}; :func:`pull` mends both.  ``"r5"``: weights
    (1, 1) over one child, a level to skip.  They exclude each other (r2
    and r1 disagree on ``w0``'s zero cell, r1 and r5 on its one cell, r2
    and r5 on ``w1``'s one cell).
    """
    _h, c0, k0, c1, k1 = key
    if k0 == ZERO_CELL and k1 != ZERO_CELL and k1 != one:
        return "r2"
    if k0 != ZERO_CELL and k0 != one:
        return "r1"
    if c0 == c1 and k0 == one and k1 == one:
        return "r5"
    return None


def pull(
    w0: complex, k0: tuple[int, int], w1: complex, k1: tuple[int, int]
) -> tuple[complex, complex, complex]:
    """A weight pair with grid cells ``k0`` and ``k1`` as ``(factor, w0',
    w1')``: ``w0`` times (1, w1 / w0), or ``w1`` times (0, 1) when ``w0``
    is in the zero cell.  A ``w1`` in the zero cell gives the exact ratio
    ``0j``, never ``0j / w0``, which carries a sign (``-0-0j`` when ``w0``
    is negative): so a form has one spelling, whichever route builds it."""
    if k0 == ZERO_CELL:
        return w1, 0j, 1.0 + 0j
    return w0, 1.0 + 0j, 0j if k1 == ZERO_CELL else w1 / w0


# ---------------------------------------------------------------------------
# the walks from the root, validation and basic accessors


def preorder(nodes: dict[int, Node], root: int) -> list[int]:
    """The node ids reachable from ``root`` (terminal excluded), each once,
    in depth-first preorder with the 0-side first: the order in which
    :func:`renumber` numbers them."""
    seen: dict[int, None] = {}  # an ordered set
    stack = [root]
    while stack:
        u = stack.pop()
        if u == TERMINAL or u in seen:
            continue
        seen[u] = None
        n = nodes[u]
        stack += (n.c1, n.c0)
    return list(seen)


def bottom_up(nodes: dict[int, Node], root: int) -> list[int]:
    """The ids of :func:`preorder` by ascending height (preorder among
    equals): since every edge goes down, each node comes after its
    children, so a fold over this list sees its children's values."""
    return sorted(preorder(nodes, root), key=lambda i: nodes[i].height)


def denotes_zero(
    scalar: complex, nodes: dict[int, Node], root: int, settings: Settings = DEFAULT
) -> bool:
    """Whether every entry of ``scalar`` over ``root`` lies in the zero cell,
    given a live root.  A grid-zero scalar alone does not make it so: a
    path below may carry weights large enough to lift its entry out of the
    cell.  So the largest product of weight magnitudes on a path is read
    too, and the diagram is zero when the largest entry stays below eps/2.
    """
    if root == TERMINAL or not is_zero_weight(scalar, settings):
        return False
    best = {TERMINAL: 1.0}
    for i in bottom_up(nodes, root):
        n = nodes[i]
        best[i] = max(abs(n.w0) * best[n.c0], abs(n.w1) * best[n.c1])
    return abs(scalar) * best[root] < settings.eps / 2


def validate(d: Sqmdd) -> list[str]:
    """All invariant violations, as human-readable strings; empty = valid."""
    problems: list[str] = []
    nodes, root = d.nodes, d.root
    if d.height < 0:
        problems.append(f"height must be non-negative, got {d.height}")
    if not cmath.isfinite(d.scalar):
        problems.append("overall scalar must be finite")
    if root != TERMINAL and root not in nodes:
        problems.append(f"root {root} is not in the node table")
        return problems
    if root == TERMINAL and nodes:
        problems.append("terminal root with a non-empty node table")
    if root != TERMINAL and nodes[root].height > d.height:
        problems.append(
            f"root height {nodes[root].height} exceeds diagram height {d.height}"
        )
    reached = {root}  # the root and every node's children
    for i, n in nodes.items():
        if i == TERMINAL:
            problems.append("node table may not contain the terminal id")
            continue
        if n.height < 1:
            problems.append(f"node {i}: height must be >= 1, got {n.height}")
        for w, c in ((n.w0, n.c0), (n.w1, n.c1)):
            if not cmath.isfinite(w):
                problems.append(f"node {i}: non-finite weight")
            if c != TERMINAL:
                reached.add(c)
                child = nodes.get(c)
                if child is None:
                    problems.append(f"node {i}: dangling child reference {c}")
                elif child.height >= n.height:
                    problems.append(
                        f"node {i}: edge must decrease height "
                        f"({n.height} -> {child.height})"
                    )
    # With every edge going down, climbing parents from any node ends at
    # the root; so when each node is the root or some node's child, all are
    # reachable, and only otherwise is the walk from the root needed.
    if not problems and not reached.issuperset(nodes):
        orphans = set(nodes).difference(preorder(nodes, root))
        for i in sorted(orphans):
            problems.append(f"node {i}: all vertices need at least one parent (unreachable)")
    return problems


def require_valid(d: Sqmdd) -> None:
    problems = validate(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))


def measure(d: Sqmdd, settings: Settings = DEFAULT) -> tuple[int, ...]:
    """Lexicographic termination measure of the reduction system.

    ``(|V|, 2|V| − deg(t), per-height counts of non-normalized nodes)``
    where |V| counts the terminal, deg(t) counts terminal child slots, and
    a node is non-normalized when :func:`normal_form_rule` names r2 or r1
    for it: its weight pair is not (1, w) or (0, 0/1).
    Lower-height sums come first; the tuple length depends on H.
    """
    one = one_cell(settings)
    n_v = len(d.nodes) + 1
    deg_t = 0
    per_height = [0] * d.height
    for n in d.nodes.values():
        deg_t += (n.c0 == TERMINAL) + (n.c1 == TERMINAL)
        per_height[n.height - 1] += normal_form_rule(node_key(n, settings), one) in ("r2", "r1")
    return (n_v, 2 * n_v - deg_t, *per_height)


# ---------------------------------------------------------------------------
# structural comparison


def structurally_same(a: Sqmdd, b: Sqmdd, settings: Settings = DEFAULT) -> bool:
    """Graph isomorphism with weights compared within eps (a NaN weight
    matches nothing).

    Makes no canonicity assumption — use :func:`iso_equal` for the
    Theorem-backed comparison of reduced diagrams.
    """
    if a.height != b.height:
        return False
    if not abs(a.scalar - b.scalar) <= settings.eps:
        return False
    pair_ab: dict[int, int] = {}
    pair_ba: dict[int, int] = {}
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if x == TERMINAL or y == TERMINAL:
            if x != y:
                return False
            continue
        if x in pair_ab or y in pair_ba:
            if pair_ab.get(x) != y or pair_ba.get(y) != x:
                return False
            continue
        na, nb = a.nodes.get(x), b.nodes.get(y)
        if na is None or nb is None or na.height != nb.height:
            return False
        if not (abs(na.w0 - nb.w0) <= settings.eps and abs(na.w1 - nb.w1) <= settings.eps):
            return False
        pair_ab[x] = y
        pair_ba[y] = x
        stack += ((na.c1, nb.c1), (na.c0, nb.c0))
    return True


def iso_equal(a: Sqmdd, b: Sqmdd, settings: Settings = DEFAULT) -> bool:
    """Equality of reduced diagrams: same height, scalar and structure.

    Raises ValueError when either argument is not irreducible — uniqueness
    only makes the comparison meaningful on reduced forms.
    """
    from .reduction import is_irreducible

    for name, d in (("first", a), ("second", b)):
        if not is_irreducible(d, settings):
            raise ValueError(f"iso_equal: {name} argument is not reduced")
    return structurally_same(a, b, settings)


# ---------------------------------------------------------------------------
# serialization


def _child_to_json(c: int) -> Any:
    return "t" if c == TERMINAL else c


def _child_from_json(v: Any, what: str) -> int:
    if v == "t":
        return TERMINAL
    if isinstance(v, int) and not isinstance(v, bool) and v > 0:
        return v
    raise ValueError(f"{what} must be a positive node id or \"t\", got {v!r}")


def sqmdd_to_json(d: Sqmdd) -> dict[str, Any]:
    return {
        "scalar": complex_to_json(d.scalar),
        "height": d.height,
        "root": _child_to_json(d.root),
        "nodes": [
            {
                "id": i,
                "h": n.height,
                "c0": _child_to_json(n.c0),
                "w0": complex_to_json(n.w0),
                "c1": _child_to_json(n.c1),
                "w1": complex_to_json(n.w1),
            }
            for i, n in sorted(d.nodes.items())
        ],
    }


def sqmdd_from_json(obj: Any) -> Sqmdd:
    if not isinstance(obj, dict):
        raise ValueError("diagram must be a JSON object")
    try:
        scalar = complex_from_json(obj["scalar"], "scalar")
        height = obj["height"]
        root = _child_from_json(obj["root"], "root")
        raw_nodes = obj["nodes"]
    except KeyError as e:
        raise ValueError(f"diagram is missing field {e.args[0]!r}") from None
    if not isinstance(height, int) or isinstance(height, bool) or height < 0:
        raise ValueError(f"height must be a non-negative integer, got {height!r}")
    if not isinstance(raw_nodes, list):
        raise ValueError("'nodes' must be a list")
    d = Sqmdd(scalar, height, root, _nodes_from_json(raw_nodes))
    require_valid(d)
    return d


def _nodes_from_json(raw_nodes: list) -> dict[int, Node]:
    """The node table, in one pass over the entries.  An entry as
    :func:`sqmdd_to_json` writes it passes the exact-type checks and loads
    at once; any other takes :func:`_checked_node`, which also reads
    integer weights or names the fault.  The table's validity is left to
    :func:`validate`."""
    nodes: dict[int, Node] = {}
    for entry in raw_nodes:
        try:
            i, h, c0, c1 = entry["id"], entry["h"], entry["c0"], entry["c1"]
            (re0, im0), (re1, im1) = entry["w0"], entry["w1"]
        except (KeyError, TypeError, ValueError):
            pass
        else:
            if (type(entry) is dict and type(i) is int and i > 0 and i not in nodes
                    and type(h) is int
                    and type(re0) is type(im0) is type(re1) is type(im1) is float):
                w0, w1 = complex(re0, im0), complex(re1, im1)
                c0 = TERMINAL if c0 == "t" else c0 if type(c0) is int and c0 > 0 else None
                c1 = TERMINAL if c1 == "t" else c1 if type(c1) is int and c1 > 0 else None
                if c0 is not None and c1 is not None and cmath.isfinite(w0) and cmath.isfinite(w1):
                    nodes[i] = Node(h, w0, c0, w1, c1)
                    continue
        i, nodes[i] = _checked_node(entry, nodes)
    return nodes


def _checked_node(entry: Any, nodes: dict[int, Node]) -> tuple[int, Node]:
    """The id and node of one entry, or the ValueError that names its
    fault; ``nodes`` holds the entries before it."""
    if not isinstance(entry, dict):
        raise ValueError("node entries must be JSON objects")
    try:
        i = entry["id"]
        n = Node(
            height=entry["h"],
            w0=complex_from_json(entry["w0"], "w0"),
            c0=_child_from_json(entry["c0"], "c0"),
            w1=complex_from_json(entry["w1"], "w1"),
            c1=_child_from_json(entry["c1"], "c1"),
        )
    except KeyError as e:
        raise ValueError(f"node entry is missing field {e.args[0]!r}") from None
    if not isinstance(i, int) or isinstance(i, bool) or i <= 0:
        raise ValueError(f"node id must be a positive integer, got {i!r}")
    if i in nodes:
        raise ValueError(f"duplicate node id {i}")
    if not isinstance(n.height, int) or isinstance(n.height, bool):
        raise ValueError(f"node {i}: height must be an integer")
    return i, n


def renumber(d: Sqmdd) -> Sqmdd:
    """Relabel node ids 1, 2, … in :func:`preorder` from the root.

    Deterministic, so emitted files are stable for golden tests.
    """
    order = preorder(d.nodes, d.root)
    rank = {u: k for k, u in enumerate(order, 1)}
    rank[TERMINAL] = TERMINAL
    nodes = {}
    for u in order:
        n = d.nodes[u]
        nodes[rank[u]] = Node(n.height, n.w0, rank[n.c0], n.w1, rank[n.c1])
    return Sqmdd(d.scalar, d.height, rank[d.root], nodes)


# ---------------------------------------------------------------------------
# DOT export


def _fmt_weight(w: complex) -> str:
    def fmt_real(x: float) -> str:
        if x == int(x) and abs(x) < 1e6:
            return str(int(x))
        return f"{x:.6g}"

    if w.imag == 0:
        return fmt_real(w.real)
    if w.real == 0:
        return fmt_real(w.imag) + "i"
    sign = "+" if w.imag > 0 else "-"
    return f"{fmt_real(w.real)}{sign}{fmt_real(abs(w.imag))}i"


def sqmdd_to_dot(d: Sqmdd) -> str:
    """Graphviz DOT: terminal as a box, weight-1 edge labels omitted,
    the scalar on the root's incoming edge, height annotated when the
    root skips levels."""
    lines = [
        "digraph sqmdd {",
        "  rankdir=TB;",
        '  node [fontname="sans-serif"];',
        '  start [shape=none, label=""];',
        '  t [shape=box, label="1"];',
    ]
    for i, n in sorted(d.nodes.items()):
        lines.append(f'  n{i} [shape=circle, label="h{n.height}"];')
    root_name = "t" if d.root == TERMINAL else f"n{d.root}"
    root_label = _fmt_weight(d.scalar)
    root_h = 0 if d.root == TERMINAL else d.nodes[d.root].height
    if root_h < d.height:
        root_label += f" (H={d.height})"
    lines.append(f'  start -> {root_name} [label="{root_label}"];')
    for i, n in sorted(d.nodes.items()):
        for side, (w, c) in enumerate((n.edge(0), n.edge(1))):
            target = "t" if c == TERMINAL else f"n{c}"
            style = "dashed" if side == 0 else "solid"
            label = "" if w == 1 else _fmt_weight(w)
            attr = f"style={style}"
            if label:
                attr += f', label="{label}"'
            lines.append(f"  n{i} -> {target} [{attr}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hash-consing builder


class Builder:
    """Bottom-up constructor that only ever creates reduced structure.

    :meth:`edge` plays the role of the classic unique-table ``makeNode``:
    it snaps grid-zero weights to exact zero edges, skips nodes whose two
    edges agree, normalizes the weight pair to (1, w) or (0, 1) by
    :func:`pull`, whose factor becomes the returned edge weight (snapping
    or skipping again when the ratio ``w`` lands in the zero or the one
    cell), and
    hash-conses on the :func:`node_key` of the normalized node.  It
    computes each weight's grid cell once (the two inputs and the ratio;
    the cell of 1 once per builder) and allocates a :class:`Node` only on
    a table miss.  Diagrams assembled exclusively through it are
    irreducible by construction.

    A builder keeps both tables of the package for its life: the unique
    table behind :meth:`edge` and the sum table ``sums`` of
    :func:`zhdd.algebra.add_edge`.  Every rebuild, :meth:`import_edge`
    included, is one :func:`walker` pass.
    """

    def __init__(self, settings: Settings = DEFAULT) -> None:
        self.settings = settings
        self.nodes: dict[int, Node] = {}
        self._table: dict[tuple, int] = {}
        self.sums: dict[tuple, Edge] = {}  # (ca, wa, cb, wb) -> the sum's edge
        self._next_id = 1
        self._one_key = one_cell(settings)

    def edge(self, height: int, e0: Edge, e1: Edge) -> Edge:
        (w0, c0), (w1, c1) = e0, e1
        eps = self.settings.eps
        k0 = (round(w0.real / eps), round(w0.imag / eps))  # weight_key, inlined
        k1 = (round(w1.real / eps), round(w1.imag / eps))
        if k0 == ZERO_CELL:
            w0, c0 = 0j, TERMINAL
        if k1 == ZERO_CELL:
            w1, c1 = 0j, TERMINAL
        if c0 == c1 and k0 == k1:
            return (w0, c0)  # both cofactors equal (or zero): skip this level
        lam, w0, w1 = pull(w0, k0, w1, k1)
        if k0 == ZERO_CELL:
            k1 = self._one_key
        else:
            k0 = self._one_key
            k1 = (round(w1.real / eps), round(w1.imag / eps))
        # the ratio w1 / w0 can land in the zero or the one cell although w1
        # did not; snap or skip as r3 and r5 would (w0 == 0 only over the
        # terminal)
        if k1 == ZERO_CELL and c1 != TERMINAL:
            w1, c1 = 0j, TERMINAL
        elif c0 == c1 and k1 == k0:
            return (lam, c0)
        key = (height, c0, k0, c1, k1)  # node_key of the normalized node
        found = self._table.get(key)
        if found is None:
            found = self._next_id
            self._next_id += 1
            self._table[key] = found
            self.nodes[found] = Node(height, w0, c0, w1, c1)
        return (lam, found)

    def import_edge(self, d: Sqmdd, e: Edge) -> Edge:
        """Re-create a sub-diagram of ``d`` inside this builder: one
        :func:`walker` over ``d``'s nodes that rebuilds each at its own
        height.  Returns the canonical edge denoting the same (weighted)
        subtree."""
        return walker(self, 0, 0, lambda e0, e1: (1.0 + 0j, TERMINAL), d)(e)

    def finish(self, top: Edge, height: int) -> Sqmdd:
        """Package a top edge as a diagram, pruning builder garbage.  A top
        weight that is not finite raises :class:`ResourceLimitError`."""
        lam, root = top
        if not cmath.isfinite(lam):
            raise ResourceLimitError(f"the top weight {lam} is beyond the float range")
        if root == TERMINAL and lam == 0j:
            return zero_form(height)
        if denotes_zero(lam, self.nodes, root, self.settings):
            return zero_form(height)
        nodes = self.nodes  # sorted ids: the table's own (creation) order
        return Sqmdd(lam, height, root, {i: nodes[i] for i in sorted(preorder(nodes, root))})


def split_edge(bld: Builder, e: Edge, height: int, side: int) -> Edge:
    """Cofactor of an edge of ``bld``'s table viewed at ``height``: follow
    the node when it sits exactly at that level, otherwise the edge spans
    the level and both cofactors are the edge itself."""
    w, c = e
    if c != TERMINAL and bld.nodes[c].height == height:
        n = bld.nodes[c]
        ww, cc = n.edge(side)
        return (w * ww, cc)
    return (w, c)


def walker(
    bld: Builder, target: int, drop: int, act: Act, src: Sqmdd | Builder | None = None
) -> Walk:
    """Rebuild in ``bld`` the part above height ``target`` of an edge whose
    nodes live in ``src`` (``bld`` by default): each node ``drop`` levels
    lower, each child at or below the target as ``act`` of its cofactors
    there.  The returned function's calls share one table of rebuilt nodes.
    """
    src = bld if src is None else src
    nodes, done, edge = src.nodes, {}, bld.edge

    def walk(top: Edge) -> Edge:
        order, stack = [], [top[1]]
        while stack:
            u = stack.pop()
            if u in done:
                continue
            n = nodes[u] if u != TERMINAL else None
            if n is None or n.height < target:
                unit = (1.0 + 0j, u)
                done[u] = act(unit, unit)
            elif n.height == target:  # the cofactors of the unit edge to u
                done[u] = act(((1.0 + 0j) * n.w0, n.c0), ((1.0 + 0j) * n.w1, n.c1))
            else:
                done[u] = None  # rebuilt below, once its children are
                order.append((n.height, u, n))
                stack += (n.c0, n.c1)
        order.sort(key=itemgetter(0))  # stable: equal heights keep their order
        for h, u, n in order:
            (l0, c0), (l1, c1) = done[n.c0], done[n.c1]
            done[u] = edge(h - drop, (n.w0 * l0, c0), (n.w1 * l1, c1))
        lam, c = done[top[1]]
        return (top[0] * lam, c)

    return walk
