"""Term language for ZH diagrams.

A term is a binary composition tree over generators: ``Seq(a, b)`` wires
``a``'s outputs into ``b``'s inputs (diagram read top to bottom, so ``a``
acts first), ``Par(a, b)`` places ``a`` to the left of ``b``.  Arities are
checked at construction time so a :class:`ZhTerm` is well-formed by
construction; sequential mismatches raise :class:`~zhdd.errors.ShapeError`
immediately rather than at interpretation time.

Generators come in two layers.  The core layer (Z spiders, H boxes,
identity, swap, cap, cup) is what the dense interpreter and the network
flattener are defined on.  The sugar layer (X spiders, the exactly-one-hot
monoid, the two-bit routing gadget, weight boxes, basis kets, plus
bra/ket) expands into the core via :func:`zhdd.sugar.expand_sugar`; each
sugar generator also has a closed-form matrix so interpretation does not
depend on the expansion being right — that independence is what the
sugar-invariance tests lean on.

Each generator kind is a frozen dataclass whose fields are its parameters.
One table maps JSON names to kinds and records the nine fixed arities, and
everything per-kind reads it: :func:`generator_arity`, the parameter text
of :func:`describe`, and the JSON codec.  In JSON a generator is
``{"kind": name, "params": {...}, "children": []}`` whose params are its
fields, in field order, with complex fields as ``[re, im]`` pairs; an
integer field at its default (Identity's wire count of 1) is left out and
read back as the default.  :func:`term_from_json` rejects a param the kind
does not have.

Every walk over a term goes through one of two non-recursive traversals,
so a term may nest far deeper than the interpreter's recursion limit (an
emitted term is a left-folded chain with one level per row).  :func:`fold`
combines results bottom-up, :func:`placed` yields each generator with the
offset of its first input among the live wires.  Both visit generators in
evaluation order.  Consumers that read a term generator by generator (the
network flattener, the read-back parser of :mod:`zhdd.translate`) use
:func:`placed`, so they see the same sequence however ``seq`` and ``par``
nest.

Every wire reorder runs one adjacent-swap schedule, :func:`swap_schedule`:
as swap rows in :func:`permutation_term` and the emitter of
:mod:`zhdd.translate`, as level swaps in :func:`zhdd.algebra.permute_edge`.

Wire-order conventions used throughout the package: matrix row index
enumerates outputs, column index inputs, and the *first* (leftmost) wire is
the most significant bit of the index.
"""
from __future__ import annotations

from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Iterator, Sequence, TypeVar, Union

from ._json import complex_from_json, complex_to_json
from .errors import ShapeError

# ---------------------------------------------------------------------------
# generator kinds


@dataclass(frozen=True)
class ZSpider:
    """Z spider with ``inputs`` input legs and ``outputs`` output legs.

    Matrix: all zeros except 1 at the all-zeros and all-ones positions.
    The 0→0 case is the scalar 2.
    """

    inputs: int
    outputs: int


@dataclass(frozen=True)
class HBox:
    """H box: all-ones matrix except ``label`` at the all-ones position.

    The default label is -1, which makes HBox(1, 1) the (unnormalized)
    Hadamard.  The 0→0 case is the scalar ``label``.
    """

    inputs: int
    outputs: int
    label: complex = -1


@dataclass(frozen=True)
class Identity:
    """A bundle of ``n`` parallel wires, so a padded row holds one
    generator on each side however many wires it passes."""

    n: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ShapeError(f"Identity needs at least one wire, got {self.n}")


@dataclass(frozen=True)
class Swap:
    pass


@dataclass(frozen=True)
class Cap:
    """0→2 bent wire: the state (1, 0, 0, 1)."""


@dataclass(frozen=True)
class Cup:
    """2→0 bent wire: the effect (1, 0, 0, 1)."""


@dataclass(frozen=True)
class XSpider:
    """X spider: ½(|+…⟩⟨+…| + |-…⟩⟨-…|) pattern, so XOR at 2→1, |0⟩ at 0→1."""

    inputs: int
    outputs: int


@dataclass(frozen=True)
class NotXSpider:
    """X spider with a NOT fused in: ½(|+…⟩⟨+…| − |-…⟩⟨-…|); |1⟩ at 0→1."""

    inputs: int
    outputs: int


@dataclass(frozen=True)
class MonoidN:
    """k→1 exactly-one-hot merge: |0…0⟩ ↦ |0⟩, one-hot inputs ↦ |1⟩, rest ↦ 0.

    MonoidN(1) is the identity wire; MonoidN(2) has matrix
    [[1,0,0,0],[0,1,1,0]].
    """

    inputs: int

    def __post_init__(self) -> None:
        if self.inputs < 1:
            raise ShapeError(f"MonoidN needs at least one input, got {self.inputs}")


@dataclass(frozen=True)
class Gadget:
    """2→2 router: |c, d⟩ ↦ |d∧¬c⟩ ⊗ |d∧c⟩ (control first, then data)."""


@dataclass(frozen=True)
class WeightBox:
    """1→1 diagonal diag(1, weight)."""

    weight: complex


@dataclass(frozen=True)
class KetZero:
    pass


@dataclass(frozen=True)
class KetOne:
    pass


@dataclass(frozen=True)
class KetPlus:
    """The unnormalized plus state (1, 1)."""


@dataclass(frozen=True)
class BraPlus:
    """The unnormalized plus effect (1, 1)."""


GeneratorKind = Union[
    ZSpider,
    HBox,
    Identity,
    Swap,
    Cap,
    Cup,
    XSpider,
    NotXSpider,
    MonoidN,
    Gadget,
    WeightBox,
    KetZero,
    KetOne,
    KetPlus,
    BraPlus,
]

# The generator table (see the module docstring).  A field annotated
# ``complex`` travels in JSON as an ``[re, im]`` pair, the others are
# non-negative integers, written only when they differ from their default.
_KINDS: dict[str, type] = {
    "zspider": ZSpider, "hbox": HBox, "identity": Identity, "swap": Swap, "cap": Cap,
    "cup": Cup, "xspider": XSpider, "notxspider": NotXSpider, "monoid": MonoidN,
    "gadget": Gadget, "weight": WeightBox, "ket0": KetZero, "ket1": KetOne,
    "ketplus": KetPlus, "braplus": BraPlus,
}
_NAMES: dict[type, str] = {cls: name for name, cls in _KINDS.items()}
# name -> (is complex, default) for each field, in field order
_PARAMS: dict[type, dict[str, tuple[bool, Any]]] = {
    cls: {f.name: (f.type == "complex", f.default) for f in fields(cls)} for cls in _NAMES
}
# Identity has ``n`` wires in and out; the other kinds have ``inputs`` wires
# in and ``outputs`` wires out (one out if they have no ``outputs`` field).
_FIXED_ARITY: dict[type, tuple[int, int]] = {
    WeightBox: (1, 1), Swap: (2, 2), Gadget: (2, 2), Cap: (0, 2),
    Cup: (2, 0), KetZero: (0, 1), KetOne: (0, 1), KetPlus: (0, 1), BraPlus: (1, 0),
}


def generator_arity(kind: GeneratorKind) -> tuple[int, int]:
    """(input count, output count) of a generator."""
    cls = type(kind)
    fixed = _FIXED_ARITY.get(cls)
    if fixed is not None:
        return fixed
    if cls not in _NAMES:
        raise ShapeError(f"unknown generator {kind!r}")
    if cls is Identity:
        return kind.n, kind.n
    n, m = kind.inputs, getattr(kind, "outputs", 1)
    if n < 0 or m < 0:
        raise ShapeError(f"negative arity on {kind!r}")
    return n, m


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Gen:
    kind: GeneratorKind
    n_in: int = field(init=False, compare=False)
    n_out: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        n, m = generator_arity(self.kind)
        object.__setattr__(self, "n_in", n)
        object.__setattr__(self, "n_out", m)


class _Node:
    """Structural equality, hashing and repr without recursion, for deep terms."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, Gen):
                if a != b:
                    return False
            elif isinstance(a, SeqNode):
                pairs += ((a.first, b.first), (a.then, b.then))
            else:
                pairs += ((a.left, b.left), (a.right, b.right))
        return True

    def __hash__(self) -> int:
        return hash((type(self), *iter_generators(self)))

    def __repr__(self) -> str:
        return describe(self)


_SUMMARY_GENERATORS = 16
_SUMMARY_CHARS = 200


def _summary(t: ZhTerm) -> str:
    """``describe(t)`` when it is short, else the term's type, shape and
    generator count, so an error message stays bounded on a huge term."""
    count = sum(1 for _ in placed(t))
    if count <= _SUMMARY_GENERATORS:
        text = describe(t)
        if len(text) <= _SUMMARY_CHARS:
            return text
    return f"{type(t).__name__} {t.n_in}->{t.n_out} of {count} generators"


@dataclass(frozen=True, eq=False, repr=False)
class SeqNode(_Node):
    first: "ZhTerm"
    then: "ZhTerm"
    n_in: int = field(init=False, compare=False)
    n_out: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.first.n_out != self.then.n_in:
            raise ShapeError(
                f"sequential mismatch: {_summary(self.first)} has "
                f"{self.first.n_out} outputs but {_summary(self.then)} expects "
                f"{self.then.n_in} inputs"
            )
        object.__setattr__(self, "n_in", self.first.n_in)
        object.__setattr__(self, "n_out", self.then.n_out)


@dataclass(frozen=True, eq=False, repr=False)
class ParNode(_Node):
    left: "ZhTerm"
    right: "ZhTerm"
    n_in: int = field(init=False, compare=False)
    n_out: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_in", self.left.n_in + self.right.n_in)
        object.__setattr__(self, "n_out", self.left.n_out + self.right.n_out)


ZhTerm = Union[Gen, SeqNode, ParNode]


def seq(*terms: ZhTerm) -> ZhTerm:
    """Left fold of sequential composition; at least one term required."""
    if not terms:
        raise ShapeError("seq() needs at least one term")
    out = terms[0]
    for t in terms[1:]:
        out = SeqNode(out, t)
    return out


def par(*terms: ZhTerm) -> ZhTerm:
    if not terms:
        raise ShapeError("par() needs at least one term")
    out = terms[0]
    for t in terms[1:]:
        out = ParNode(out, t)
    return out


def wires(n: int) -> ZhTerm:
    """Bundle of ``n`` parallel identity wires (n >= 1): one generator."""
    if n < 1:
        raise ShapeError(f"wires() needs n >= 1, got {n}")
    return Gen(Identity(n))


def beside(above: int, t: ZhTerm, below: int) -> ZhTerm:
    """``t`` between a bundle of ``above`` and one of ``below`` identity
    wires, so at most three generators; empty bundles are left out."""
    parts = [wires(above)] if above else []
    parts.append(t)
    if below:
        parts.append(wires(below))
    return par(*parts)


_T = TypeVar("_T")


def fold(
    t: ZhTerm,
    gen: Callable[[GeneratorKind], _T],
    seq_: Callable[[_T, _T], _T],
    par_: Callable[[_T, _T], _T],
) -> _T:
    """Combine a term bottom-up with an explicit stack.

    ``gen`` maps each generator kind; ``seq_`` and ``par_`` combine the
    results of a node's two children.  Generators are visited in evaluation
    order: a ``SeqNode``'s first part before the part after it, a
    ``ParNode``'s left part before its right.
    """
    done: list[_T] = []
    todo: list[tuple[ZhTerm, bool]] = [(t, False)]
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Gen):
            done.append(gen(node.kind))
        elif ready:
            b = done.pop()
            a = done.pop()
            done.append((seq_ if isinstance(node, SeqNode) else par_)(a, b))
        elif isinstance(node, SeqNode):
            todo += ((node, True), (node.then, False), (node.first, False))
        elif isinstance(node, ParNode):
            todo += ((node, True), (node.right, False), (node.left, False))
        else:
            raise TypeError(f"not a term: {node!r}")
    return done[0]


def placed(t: ZhTerm) -> Iterator[tuple[Gen, int]]:
    """Each generator in evaluation order, with the offset of its first
    input wire among the wires live when it applies.

    A ``ParNode``'s right part applies once its left part is done, so it
    sits at ``at + left.n_out``.
    """
    todo: list[tuple[ZhTerm, int]] = [(t, 0)]
    while todo:
        node, at = todo.pop()
        if isinstance(node, Gen):
            yield node, at
        elif isinstance(node, SeqNode):
            todo += ((node.then, at), (node.first, at))
        elif isinstance(node, ParNode):
            todo += ((node.right, at + node.left.n_out), (node.left, at))
        else:
            raise TypeError(f"not a term: {node!r}")


def describe(t: ZhTerm) -> str:
    """Short one-line description of a term, for error messages."""
    return fold(
        t,
        lambda kind: type(kind).__name__ + _params_text(kind),
        lambda a, b: f"Seq({a}, {b})",
        lambda a, b: f"Par({a}, {b})",
    )


def _shown_params(kind: GeneratorKind) -> Iterator[tuple[str, Any, bool]]:
    """Each param that the kind's text and JSON show, with whether it is
    complex: an integer param at its default (a one-wire Identity) is left
    out."""
    for name, (is_complex, default) in _PARAMS[type(kind)].items():
        v = getattr(kind, name)
        if is_complex or v != default:
            yield name, v, is_complex


def _params_text(kind: GeneratorKind) -> str:
    """``(n->m, rest)`` when the kind has ``outputs``, else ``(params)``;
    empty for a kind without parameters to show."""
    text = [str(v) for _, v, _ in _shown_params(kind)]
    if hasattr(kind, "outputs"):
        text[:2] = [f"{text[0]}->{text[1]}"]
    return f"({', '.join(text)})" if text else ""


def iter_generators(t: ZhTerm) -> Iterator[GeneratorKind]:
    """All generator leaves of a term, left to right."""
    return (g.kind for g, _ in placed(t))


def swap_schedule(perm: Sequence[int]) -> list[int]:
    """The positions ``p``, in order, at which swapping wires ``p`` and
    ``p + 1`` makes result wire ``i`` input wire ``perm[i]`` (a permutation
    of ``range(len(perm))``): a bubble that lifts ``perm[0]``, ``perm[1]``,
    ... into place, one swap per inversion."""
    cur = list(range(len(perm)))  # wire at each position
    pos = list(cur)  # position of each wire
    out: list[int] = []
    for i, w in enumerate(perm):
        j = pos[w]
        out += range(j - 1, i - 1, -1)
        cur[i : j + 1] = [w, *cur[i:j]]
        for p in range(i, j + 1):
            pos[cur[p]] = p
    return out


def permutation_term(perm: list[int]) -> ZhTerm:
    """Wire permutation as a swap network on ``len(perm)`` wires.

    ``perm[i]`` is the *input* position that ends up at output position
    ``i`` (so the term's interpretation maps basis state ``x`` to the state
    whose i-th wire carries ``x[perm[i]]``).  One swap row per entry of
    :func:`swap_schedule`, each the swap between at most two identity
    bundles, so the term holds at most three generators per inversion; the
    identity permutation yields a single wire bundle.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ShapeError(f"not a permutation of range({n}): {perm}")
    if n == 0:
        raise ShapeError("cannot build a permutation on zero wires")
    rows = [beside(p, Gen(Swap()), n - p - 2) for p in swap_schedule(perm)]
    return seq(*rows) if rows else wires(n)


# ---------------------------------------------------------------------------
# JSON round trip

def _gen_to_json(kind: GeneratorKind) -> dict[str, Any]:
    params = {
        name: complex_to_json(v) if is_complex else v
        for name, v, is_complex in _shown_params(kind)
    }
    return {"kind": _NAMES[type(kind)], "params": params, "children": []}


def _joiner(name: str) -> Callable[[dict, dict], dict]:
    """Join two written parts; a ``name`` part on either side gives up its
    children, kept in a deque (an O(1) prepend) until :func:`_written`."""

    def join(a: dict, b: dict) -> dict:
        if a["kind"] != name and b["kind"] == name:
            b["children"].appendleft(_written(a))
            return b
        if a["kind"] != name:
            a = {"kind": name, "params": {}, "children": deque([_written(a)])}
        a["children"] += b["children"] if b["kind"] == name else [_written(b)]
        return a

    return join


def _written(node: dict) -> dict:
    node["children"] = list(node["children"])
    return node


def term_to_json(t: ZhTerm) -> dict[str, Any]:
    """JSON form of a term; a ``seq``/``par`` chain nested to either side is
    written as one node with all of its children, which
    :func:`term_from_json` reads back as the left fold."""
    return _written(fold(t, _gen_to_json, _joiner("seq"), _joiner("par")))


def _require_int(params: dict[str, Any], key: str, kind: str) -> int:
    v = params.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"generator {kind!r} needs a non-negative integer {key!r}, got {v!r}")
    return v


def term_from_json(obj: Any) -> ZhTerm:
    """Parse a term from its JSON form, validating structure as it goes.

    ``seq``/``par`` accept two or more children, folded left (a term
    written from a right-nested chain comes back as the left fold, with
    the same generators in the same places), which is friendlier for
    hand-written files than strict binary nesting.  A node
    has no keys but ``kind``, ``params`` and ``children`` (the ones
    :func:`term_to_json` writes); a ``seq``/``par`` node has no params and
    a generator no children.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"term node must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    params = obj.get("params", {})
    children = obj.get("children", [])
    if not isinstance(kind, str):
        raise ValueError("term node is missing its 'kind' string")
    if not isinstance(params, dict) or not isinstance(children, list):
        raise ValueError(f"malformed term node for kind {kind!r}")
    unknown = obj.keys() - {"kind", "params", "children"}
    if unknown:
        raise ValueError(
            f"term node for kind {kind!r} has no key {min(unknown)!r}; "
            "its keys are 'kind', 'params' and 'children'"
        )

    if kind in ("seq", "par"):
        if params:
            raise ValueError(f"{kind!r} node cannot have params")
        if len(children) < 2:
            raise ValueError(f"{kind!r} node needs at least two children")
        parsed = [term_from_json(c) for c in children]
        return seq(*parsed) if kind == "seq" else par(*parsed)

    if children:
        raise ValueError(f"generator {kind!r} cannot have children")

    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown term kind {kind!r}")
    spec = _PARAMS[cls]
    if not params.keys() <= spec.keys():
        raise ValueError(
            f"generator {kind!r} has no param {min(params.keys() - spec.keys())!r}; "
            f"its params are {list(spec) or 'none'}"
        )
    args = []
    for name, (is_complex, default) in spec.items():
        if name not in params and default is not MISSING:
            args.append(complex(default) if is_complex else default)
        elif is_complex:
            args.append(complex_from_json(params.get(name), f"generator {kind!r} param {name!r}"))
        else:
            args.append(_require_int(params, name, kind))
    return Gen(cls(*args))
