"""Translation between terms and diagrams, in both directions.

Term -> diagram (:func:`zh_to_sqmdd`) never goes through a dense vector:
the term is flattened to its wiring network, shrunk by the exact rules of
:func:`~zhdd.network.simplify_network`, and contracted by the steps of
:func:`~zhdd.network.contraction_steps` on a state kept as a root of unit
weight.  No sugar is expanded on the way: each generator is one network
instance or none.  A one-legged spider/box or X/NotX effect, or a
two-legged H-box, weight box, X or NotX, with one wire to the state is
applied where that wire is, in one level-walker pass over the levels
above it (:func:`apply_in_place`).  Each other instance (a spider/box,
routing gadget, monoid or X spider) is built as a small closed-form
diagram, O(arity) nodes, directly on top of the state
(:func:`generator_edge`), and each of its wires is
closed (a Z merge and a <+| plug, fused into one level-walker pass of
:func:`~zhdd.algebra.contract_edge`) as soon as both its ends are live,
so the state never grows past the steps' peak live width.  Each
step's top weight joins one scalar, a mantissa times a power of two that
meets the network's prefactor at the end, so no builder weight depends on
the state's scale.  All of it happens in one :class:`~zhdd.sqmdd.Builder`,
whose unique table and sum table serve the whole contraction, packaged
once, so the result is irreducible by construction and the rewrite system
is never run.  The optional per-stage dense mirror is
:func:`~zhdd.network.dense_stages`, the same step list on dense vectors.

Diagram -> term (:func:`sqmdd_to_zh`) emits one block of generators per
level: a fresh |+> wire per level feeds a copy spider whose legs control
one routing gadget per node, in the nodes' depth-first preorder from the
root (:func:`~zhdd.sqmdd.preorder`), so the term depends on the diagram
alone, not on its node ids; branch indicator wires pick up the edge
weights in weight boxes and are funnelled into the child's fan-in.  Each
generator is one row, between at most two identity bundles, after the
swap rows (of :func:`~zhdd.terms.swap_schedule`) that gather its inputs.
The wires form three blocks: finished level wires on top, the active band
in the middle, and the branches bound for the terminal at the bottom.
Each level's state goes directly under the finished block, and each
terminal branch moves down onto the bottom block as soon as it is made, so
a gather crosses only band wires and the final terminal fan-in needs no
swaps.  The term therefore holds O(nodes + height) generators for a
diagram of bounded width (1,234 with 127 swaps for the Z state of 32
legs, 3H + 5 for a height-H diagram with no nodes), and is built in time
linear in its size.

The emitted shape is rigid enough that :func:`sqmdd_read_back` can parse
it back into the exact diagram it came from.  The parser reads the chain
one generator at a time through :func:`~zhdd.terms.placed`, so it does not
depend on how the generators are grouped into rows: generators set beside
each other act on disjoint wires, and taking them left to right means the
same.

Emission and read-back are exact and take no settings, and the generator
states of :func:`generator_state_sqmdd` are built on the default weight
grid.  The contraction reads ``eps`` as its builder's weight grid;
``max_qubits`` caps only the dense mirror of ``assert_stages``.
"""
from __future__ import annotations

from itertools import count
from typing import Optional

from .algebra import add_edge, contract_edge, permute_edge
from .config import DEFAULT, Settings
from .errors import ResourceLimitError, ShapeError
from .network import (
    NetInstance,
    contraction_steps,
    dense_stages,
    flatten_to_network,
    ldexp_complex,
    scaled,
    simplify_network,
    usable_memory,
)
from .oracle import interpret_sqmdd, max_deviation
from .reduction import is_irreducible
from .sqmdd import TERMINAL, Builder, Edge, Node, Sqmdd, preorder, validate, walker
from .terms import (
    Gadget,
    Gen,
    GeneratorKind,
    HBox,
    Identity,
    KetOne,
    KetPlus,
    MonoidN,
    NotXSpider,
    ParNode,
    Swap,
    WeightBox,
    XSpider,
    ZSpider,
    ZhTerm,
    beside,
    describe,
    generator_arity,
    par,
    placed,
    seq,
    swap_schedule,
)

# ---------------------------------------------------------------------------
# closed-form generator states


def generator_state_sqmdd(tag: str, legs: int, label: Optional[complex] = None) -> Sqmdd:
    """The reduced diagram of the Z state ("z") or H-box state ("h", with
    ``label``, default -1) on ``legs`` legs."""
    if tag not in ("z", "h"):
        raise ShapeError(f"no generator state for {tag!r}")
    if legs < 0:
        raise ShapeError(f"negative leg count {legs}")
    kind = ZSpider(0, legs) if tag == "z" else HBox(0, legs, -1 if label is None else label)
    bld = Builder()
    return bld.finish(generator_edge(bld, kind), legs)


def generator_edge(
    bld: Builder, kind: GeneratorKind, below: int = TERMINAL, base: int = 0
) -> Edge:
    """Top edge of the state of a network instance ``kind``, built in
    ``bld`` on top of the state ``(1, below)`` of height ``base``: their
    tensor product, the instance's legs first.

    ``ZSpider(0, k)`` and ``HBox(0, k, label)`` take any number of legs.
    Each sugar kind's closed form is written out here, legs in
    :func:`~zhdd.network.flatten_to_network`'s order (inputs, then
    outputs), in O(arity) nodes: a weight box is |00> + w|11>, a routing
    gadget the four one-hot entries |c, d, d and not c, d and c>, a
    ``MonoidN(k)`` two nodes per input level ("no input 1 yet" and
    "exactly one") over its output leg at the lowest level, and an X
    spider (a ``NotXSpider``) the indicator of even (odd) parity, two
    nodes per level.  The recipes' scalars are folded in: X(0, 0) is 1
    and NotX(0, 0) is 0.  Each equals its :func:`~zhdd.sugar.core_recipe`
    under the dense interpreter, a claim of :mod:`zhdd.claims`."""
    unit = (1.0 + 0j, below)
    zero = (0j, TERMINAL)
    match kind:
        case Gadget():  # legs c, d, o0, o1 from the top
            off, on = bld.edge(base + 1, unit, zero), bld.edge(base + 1, zero, unit)  # o1
            idle = bld.edge(base + 2, off, zero)  # o0 o1 = 00, where d = 0
            c0 = bld.edge(base + 3, idle, bld.edge(base + 2, zero, off))  # d = 1: 10
            c1 = bld.edge(base + 3, idle, bld.edge(base + 2, on, zero))  # d = 1: 01
            return bld.edge(base + 4, c0, c1)
        case ZSpider(0, legs):
            if legs == 0:
                return (2.0 + 0j, below)
            lo = hi = unit  # the |0...0> and |1...1> corners
            for h in range(base + 1, base + legs):
                lo = bld.edge(h, lo, zero)
            for h in range(base + 1, base + legs):
                hi = bld.edge(h, zero, hi)
            return bld.edge(base + legs, lo, hi)
        case HBox(0, legs, label):
            ones_but_last = (complex(label), below)
            for h in range(base + 1, base + legs + 1):
                ones_but_last = bld.edge(h, unit, ones_but_last)
            return ones_but_last
        case WeightBox(w):
            lo = bld.edge(base + 1, unit, zero)
            return bld.edge(base + 2, lo, bld.edge(base + 1, zero, (complex(w), below)))
        case MonoidN(k):  # inputs from the top, the output y lowest
            none, one = bld.edge(base + 1, unit, zero), bld.edge(base + 1, zero, unit)
            for h in range(base + 2, base + k + 1):
                none, one = bld.edge(h, none, one), bld.edge(h, one, zero)
            return bld.edge(base + k + 1, none, one)
        case XSpider(n, m) | NotXSpider(n, m):
            even, odd = unit, zero  # the legs below have even, odd parity
            for h in range(base + 1, base + n + m):
                even, odd = bld.edge(h, even, odd), bld.edge(h, odd, even)
            if isinstance(kind, NotXSpider):
                even, odd = odd, even
            return bld.edge(base + n + m, even, odd) if n + m else even
    raise ShapeError(f"no closed-form state for {kind!r}")


# ---------------------------------------------------------------------------
# term -> diagram


def apply_in_place(bld: Builder, inst: NetInstance, e: Edge, h: int) -> Edge:
    """Apply an instance of arity 1 or 2 to the wire at height ``h`` of
    ``e``, in one :func:`~zhdd.sqmdd.walker` pass over the levels above it.

    With ``e0``, ``e1`` the wire's cofactors and ``a`` the label, a Z
    effect is ``e0 + e1``, an H effect ``e0 + a*e1``, and each removes the
    wire.  A two-legged instance leaves its free leg at height ``h``: an H
    map is the node ``(e0 + e1, e0 + a*e1)`` and a weight box the node
    ``(e0, a*e1)``.  An X and a NotX are one case, by parity, as in
    :func:`generator_edge`: a NotX swaps ``e0`` and ``e1``, then an effect
    is ``e0`` and a map the node ``(e0, e1)``.  Every sum is
    an :func:`~zhdd.algebra.add_edge`, in the builder's sum table.  Each
    of these instances is symmetric, so which of its legs is wired does
    not matter.  A gadget or monoid (arity 4 and 3) never comes here, nor
    a two-legged Z: ``z-identity`` turns each Z(2) with a wire to another
    instance into a plain wire.
    """
    match inst.kind:
        case HBox(0, 1 | 2 as legs, label):
            def act(e0: Edge, e1: Edge, a: complex = complex(label)) -> Edge:
                ae1 = (a * e1[0], e1[1]) if a != 0 else (0j, TERMINAL)
                if legs == 1:
                    return add_edge(bld, e0, ae1)
                return bld.edge(h, add_edge(bld, e0, e1), add_edge(bld, e0, ae1))
        case WeightBox(w):
            def act(e0: Edge, e1: Edge, a: complex = complex(w)) -> Edge:
                return bld.edge(h, e0, (a * e1[0], e1[1]))
        case ZSpider(0, 1):
            def act(e0: Edge, e1: Edge) -> Edge:
                return add_edge(bld, e0, e1)
        case XSpider(n, m) | NotXSpider(n, m) if n + m <= 2:
            def act(e0: Edge, e1: Edge, odd: bool = isinstance(inst.kind, NotXSpider)) -> Edge:
                if odd:
                    e0, e1 = e1, e0
                return e0 if n + m == 1 else bld.edge(h, e0, e1)
        case _:
            raise AssertionError(f"no in-place step for {inst.kind!r}")

    return walker(bld, h, 2 - inst.arity, act)(e)


def zh_to_sqmdd(
    t: ZhTerm, settings: Settings = DEFAULT, assert_stages: bool = False
) -> Sqmdd:
    """Reduced diagram of a term (of the term's state form, for maps).

    Runs :func:`~zhdd.network.contraction_steps` in one :class:`Builder`
    on a state kept as a root of unit weight.  An in-place step is one
    :func:`apply_in_place` at its wire's height; any other instance is
    built on top of the state, and closing one of its wires rebuilds only
    the levels above the wire's lower end.
    Each step's top weight joins one scalar, a mantissa times a power of
    two (:func:`~zhdd.network.scaled`), so no builder weight depends on the
    state's scale; the output permutation and the network's prefactor come
    last.  ``assert_stages`` re-checks every state against
    :func:`~zhdd.network.dense_stages` of the same step list, and the
    result for irreducibility; only feasible when the steps' peak live
    width fits under the dense wire cap (else the first check raises
    :class:`~zhdd.errors.ResourceLimitError`).
    """
    net = simplify_network(flatten_to_network(t))
    steps, perm, _ = plan = contraction_steps(net)
    stages = dense_stages(net, plan, settings) if assert_stages else None
    bld = Builder(settings)
    scalar, root, height = (1.0 + 0j, 0), TERMINAL, 0

    def take(e: Edge, exp2: int = 0) -> int:
        """Fold ``e``'s weight times ``2**exp2`` into the scalar; ``e``'s
        root is the new state, compared with the next dense stage in the
        dense mantissa's scale when asked (a NaN deviation fails)."""
        nonlocal scalar
        scalar = scaled(scalar[0], scalar[1] + exp2, e[0])
        if assert_stages:
            what, ten, shift = next(stages)
            m = ldexp_complex(scalar[0], scalar[1] - shift)
            got = interpret_sqmdd(Sqmdd(m, ten.size.bit_length() - 1, e[1], bld.nodes), settings)
            dev = max_deviation(got, ten)
            if not dev <= settings.eps:
                raise AssertionError(f"contraction stage '{what}' drifted by {dev:.3e}")
        return e[1]

    for idx, at, closes in steps:
        inst = net.instances[idx]
        if at is not None:
            root = take(apply_in_place(bld, inst, (1.0 + 0j, root), height - at))
            height += inst.arity - 2
            continue
        root = take(generator_edge(bld, inst.kind, root, height))
        height += inst.arity
        for i, j in closes:
            root = take(contract_edge(bld, (1.0 + 0j, root), height, i, j))
            height -= 2
    root = take(permute_edge(bld, (net.scalar, root), height, perm), net.exp2)
    out = bld.finish((ldexp_complex(*scalar), root), height)
    if assert_stages and not is_irreducible(out, settings):
        raise AssertionError("contracted diagram is not irreducible")
    return out


# ---------------------------------------------------------------------------
# diagram -> term: the row assembler


class _Assembler:
    """Builds a term row by row over a list of tagged wire slots.

    The slots form three blocks: the finished level wires on top, the
    active band, and the wires bound for the terminal at the bottom.  A
    gather runs within the band, so it never crosses the other two.  Each
    row is one generator between at most two identity bundles.  Tags must
    be unique tuples; the final term is a plain sequential composition of
    the rows.
    """

    def __init__(self) -> None:
        self.rows: list[ZhTerm] = []
        self.slots: list[tuple] = []
        self.done = 0  # finished level wires, on top
        self.sunk = 0  # wires bound for the terminal, at the bottom

    def band(self) -> list[tuple]:
        return self.slots[self.done : len(self.slots) - self.sunk]

    def _row(self, at: int, term: ZhTerm) -> None:
        self.rows.append(beside(at, term, len(self.slots) - at - term.n_in))

    def _swap(self, p: int) -> None:
        self._row(p, Gen(Swap()))
        self.slots[p], self.slots[p + 1] = self.slots[p + 1], self.slots[p]

    def apply(self, term: ZhTerm, in_tags: list[tuple], out_tags: list[tuple]) -> None:
        """Swap the tagged band wires together, in the given order, at the
        topmost of them, and apply ``term`` there; a state goes on top of
        the band."""
        pos = {tag: p for p, tag in enumerate(self.band(), self.done)}
        where = [pos[tag] for tag in in_tags]
        anchor = min(where, default=self.done)
        if where != list(range(anchor, anchor + len(where))):
            # the stable gather, on the window from the anchor to the lowest
            # input (it fixes the wires outside): the inputs, then the rest
            order = where + [p for p in range(anchor, max(where) + 1) if p not in where]
            for p in swap_schedule([p - anchor for p in order]):
                self._swap(anchor + p)
        self._row(anchor, term)
        self.slots[anchor : anchor + len(where)] = out_tags

    def level(self, term: ZhTerm, out_tags: list[tuple]) -> None:
        """Apply a level's state on top of the band; its first output is
        the level's finished wire."""
        self.apply(term, [], out_tags)
        self.done += 1

    def sink(self, tag: tuple) -> None:
        """Move a band wire down onto the top of the terminal block."""
        bottom = len(self.slots) - self.sunk - 1
        for p in range(self.slots.index(tag, self.done, bottom + 1), bottom):
            self._swap(p)
        self.sunk += 1

    def term(self) -> ZhTerm:
        return seq(*self.rows)


# The peak memory one emitted generator takes, from emission through the
# CLI's JSON text: about 1.0 KB, measured on diagrams with no nodes of
# height 20,000 to 80,000 (CPython, 64-bit Linux).
BYTES_PER_GENERATOR = 1024


def sqmdd_to_zh(d: Sqmdd) -> ZhTerm:
    """A term denoting exactly the diagram's vector (scalar included).

    One |+>-fed copy spider per level drives a routing gadget per node;
    branch wires pass through weight boxes into the child's fan-in, a
    partial-xor :class:`~zhdd.terms.MonoidN`; the terminal's fan-in is
    postselected on "path arrived".  Each level's nodes are laid out in
    their depth-first preorder from the root (:func:`~zhdd.sqmdd.preorder`),
    so the term is a function of the diagram, not of its node ids.

    Before anything is emitted, a lower bound on the term's generators
    (``3H + 4``, and four more per node) is checked against
    :func:`~zhdd.network.usable_memory` over :data:`BYTES_PER_GENERATOR`;
    past it, :class:`~zhdd.errors.ResourceLimitError` is raised.
    """
    problems = validate(d)
    if problems:
        raise ShapeError("cannot translate invalid diagram: " + "; ".join(problems))
    # each level's state row holds 3 generators but the top one's 2, and the
    # scalar, the |1> feed and the terminal's two rows 6: 3H + 5, or 4 at
    # H = 0; each node adds its fan-in, gadget and two weight boxes
    least, limit = 3 * d.height + 4 + 4 * len(d.nodes), usable_memory() // BYTES_PER_GENERATOR
    if least > limit:
        raise ResourceLimitError(
            f"the term would have at least {least} generators (the memory limit allows {limit})"
        )
    asm = _Assembler()
    serial = count()

    def to_child(term: ZhTerm, in_tags: list[tuple], c: int) -> None:
        """Apply ``term``, whose one output is bound for ``c``."""
        tag = ("to", c, next(serial))
        asm.apply(term, in_tags, [tag])
        if c == TERMINAL:
            asm.sink(tag)

    to_child(Gen(KetOne()), [], d.root)
    by_level: dict[int, list[int]] = {}
    for u in preorder(d.nodes, d.root):
        by_level.setdefault(d.nodes[u].height, []).append(u)

    for h in range(d.height, 0, -1):
        level = by_level.get(h, [])
        if not level:
            asm.level(Gen(KetPlus()), [("q", h)])
            continue
        asm.level(Gen(ZSpider(0, 1 + len(level))), [("q", h)] + [("ctrl", u) for u in level])
        for u in level:
            n = d.nodes[u]
            arrivals = [t for t in asm.band() if t[0] == "to" and t[1] == u]
            asm.apply(Gen(MonoidN(len(arrivals))), arrivals, [("data", u)])
            asm.apply(
                Gen(Gadget()), [("ctrl", u), ("data", u)], [("g0", u), ("g1", u)]
            )
            to_child(Gen(WeightBox(n.w0)), [("g0", u)], n.c0)
            to_child(Gen(WeightBox(n.w1)), [("g1", u)], n.c1)

    assert not asm.band()
    asm.sunk = 0  # the terminal block is the band now, already in place
    at_terminal = asm.band()
    asm.apply(Gen(MonoidN(len(at_terminal))), at_terminal, [("arrived",)])
    asm.apply(Gen(NotXSpider(1, 0)), [("arrived",)], [])
    assert asm.slots == [("q", h) for h in range(d.height, 0, -1)]
    return par(Gen(HBox(0, 0, d.scalar)), asm.term())


# ---------------------------------------------------------------------------
# term -> diagram, syntactically: the read-back parser


def sqmdd_read_back(t: ZhTerm) -> Sqmdd:
    """Parse a term in the emitted layer format back into its diagram.

    Strict inverse of :func:`sqmdd_to_zh` on that function's image, and of
    any regrouping of its rows into other ``seq``/``par`` nestings, up to
    node ids: nodes are numbered in the order their gadgets come.  Every
    fan-in must be a :class:`~zhdd.terms.MonoidN`.  Anything else raises
    :class:`ShapeError` naming the offending sub-term.
    """
    if (
        not isinstance(t, ParNode)
        or not isinstance(t.left, Gen)
        or not isinstance(t.left.kind, HBox)
        or generator_arity(t.left.kind) != (0, 0)
    ):
        raise ShapeError(
            "expected a nullary H-box (the scalar) in parallel with the layer chain"
        )
    scalar = complex(t.left.kind.label)
    chain = t.right
    if chain.n_in:
        raise ShapeError(f"the layer chain has {chain.n_in} inputs; expected a state")
    height = chain.n_out

    slots: list[tuple] = []
    node_height: dict[int, int] = {}
    ctrl_level: dict[int, int] = {}
    weights: dict[tuple[int, int], complex] = {}
    edges: dict[tuple[int, int], tuple[complex, int]] = {}
    root: Optional[int] = None
    boot_seen = False
    terminal_seen = False
    next_level = height
    fresh_node = count(1)
    fresh_ctrl = count()

    def resolve(sources: tuple, target: int) -> None:
        nonlocal root
        for src in sources:
            if src == ("boot",):
                if root is not None:
                    raise ShapeError("the bootstrap wire was consumed twice")
                root = target
            else:
                _, u, side = src
                edges[(u, side)] = (weights[(u, side)], target)

    for op, at in placed(chain):
        kind = op.kind
        if isinstance(kind, Identity):
            continue
        n_in, n_out = generator_arity(kind)

        if isinstance(kind, Swap):
            slots[at], slots[at + 1] = slots[at + 1], slots[at]
        elif isinstance(kind, KetOne):
            if boot_seen:
                raise ShapeError("second bootstrap wire")
            boot_seen = True
            slots[at:at] = [("boot",)]
        elif isinstance(kind, KetPlus) or (
            isinstance(kind, ZSpider) and n_in == 0 and n_out >= 1
        ):
            if next_level < 1:
                raise ShapeError("more level wires than boundary outputs")
            new = [("q", next_level)]
            for _ in range(n_out - 1):
                tok = next(fresh_ctrl)
                ctrl_level[tok] = next_level
                new.append(("ctrl", tok))
            next_level -= 1
            slots[at:at] = new
        elif isinstance(kind, MonoidN):
            got = slots[at : at + n_in]
            sources = []
            for tag in got:
                if tag == ("boot",) or tag[0] == "branch":
                    sources.append(tag)
                else:
                    raise ShapeError(
                        f"fan-in {describe(op)} applied to a non-branch wire {tag!r}"
                    )
            slots[at : at + n_in] = [("data", tuple(sources))]
        elif isinstance(kind, ZSpider):
            raise ShapeError(
                f"cannot read back {describe(op)}: a Z-spider would copy rather "
                "than gather the branch indicators; expected a partial-xor "
                "fan-in (MonoidN)"
            )
        elif isinstance(kind, Gadget):
            ctag, dtag = slots[at], slots[at + 1]
            if ctag[0] != "ctrl" or dtag[0] != "data":
                raise ShapeError(
                    f"routing gadget applied to {ctag!r}, {dtag!r} "
                    "(expected a level wire and a fan-in output)"
                )
            u = next(fresh_node)
            node_height[u] = ctrl_level[ctag[1]]
            resolve(dtag[1], u)
            slots[at : at + 2] = [("gout", u, 0), ("gout", u, 1)]
        elif isinstance(kind, WeightBox):
            tag = slots[at]
            if tag[0] != "gout":
                raise ShapeError(f"weight box applied to a non-branch wire {tag!r}")
            _, u, side = tag
            weights[(u, side)] = complex(kind.weight)
            slots[at] = ("branch", u, side)
        elif isinstance(kind, NotXSpider):
            if (n_in, n_out) != (1, 0):
                raise ShapeError(f"unexpected generator {describe(op)} in layer chain")
            tag = slots[at]
            if tag[0] != "data":
                raise ShapeError("terminal postselection applied to a non-fan-in wire")
            if terminal_seen:
                raise ShapeError("second terminal postselection")
            terminal_seen = True
            resolve(tag[1], TERMINAL)
            del slots[at]
        else:
            raise ShapeError(f"unexpected generator {describe(op)} in layer chain")

    if not boot_seen:
        raise ShapeError("no bootstrap wire")
    if not terminal_seen:
        raise ShapeError("no terminal postselection")
    if root is None:
        raise ShapeError("the bootstrap wire was never consumed")
    if slots != [("q", h) for h in range(height, 0, -1)]:
        raise ShapeError(f"leftover wires after parsing: {slots!r}")

    nodes: dict[int, Node] = {}
    for u, h in node_height.items():
        for side in (0, 1):
            if (u, side) not in edges:
                raise ShapeError(f"branch {side} of parsed node {u} never resolved")
        (w0, c0), (w1, c1) = edges[(u, 0)], edges[(u, 1)]
        nodes[u] = Node(h, w0, c0, w1, c1)
    out = Sqmdd(scalar, height, root, nodes)
    problems = validate(out)
    if problems:
        raise ShapeError("parsed diagram is invalid: " + "; ".join(problems))
    return out
