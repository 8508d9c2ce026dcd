"""Expansion of sugar generators into the six core generators.

Every sugar generator has an exact core realization, scalar factors
included; :func:`expand_sugar` rewrites a term bottom-up so that only
ZSpider, HBox, Identity, Swap, Cap and Cup remain.  The dense interpreter
evaluates sugar through independent closed-form matrices, so the equality
``interpret(expand_sugar(t)) == interpret(t)`` is a genuine two-route
check, not a tautology — see tests/test_sugar.py.

The contraction to decision diagrams expands no sugar: each gadget,
weight box, |1>, X and NotX spider is a network instance of its own
class, and each monoid a comb of two-input monoids, built in a closed
form of its own (:func:`zhdd.translate.generator_edge`); a |0>, |+> and
<+| become their one-generator recipes.  The recipes here stay the
reference for those closed forms, and only the referees read them: the
dense stages of a contraction read each sugar instance's tensor from
:func:`core_recipe`, and a claim per kind states that the closed form
equals its recipe.

The constructions (all verified against the interpreter):

- ``WeightBox(w)``: copy the wire with a Z spider and absorb one branch
  into an H box 1→0 labelled w, giving diag(1, w).
- ``XSpider(n, m)``: conjugate a Z spider by H boxes on every leg and
  multiply by the scalar ½; this yields the XOR at 2→1 and ket-0 at 0→1.
- ``NotXSpider(n, m)``: the same sandwich with one extra (−1)-weight
  inside (on the first input leg, or on the first output leg when n = 0);
  the 0→0 case is the zero scalar.
- ``MonoidN(k)``: kill the |1…1⟩ component with a shared 0-labelled H box,
  then XOR the legs together; left-comb recursion for k > 2.
- ``Gadget``: copy both wires, negate one copy of the control, and AND the
  pairs (¬c with d, c with d); AND itself is ½·H(1,1,−1)∘H(2,1,−1).
"""
from __future__ import annotations

from .errors import ShapeError
from .terms import (
    BraPlus,
    Cap,
    Cup,
    Gadget,
    Gen,
    GeneratorKind,
    HBox,
    Identity,
    KetOne,
    KetPlus,
    KetZero,
    MonoidN,
    NotXSpider,
    Swap,
    WeightBox,
    XSpider,
    ZhTerm,
    ZSpider,
    beside,
    fold,
    par,
    permutation_term,
    seq,
    wires,
)

CORE_KINDS = (ZSpider, HBox, Identity, Swap, Cap, Cup)

_HALF = Gen(HBox(0, 0, 0.5))


def _hadamard_row(k: int) -> ZhTerm:
    return par(*(Gen(HBox(1, 1, -1)) for _ in range(k)))


def _weight_core(w: complex) -> ZhTerm:
    return seq(Gen(ZSpider(1, 2)), par(Gen(Identity()), Gen(HBox(1, 0, w))))


def _x_core(n: int, m: int) -> ZhTerm:
    parts: list[ZhTerm] = []
    if n:
        parts.append(_hadamard_row(n))
    parts.append(Gen(ZSpider(n, m)))
    if m:
        parts.append(_hadamard_row(m))
    return par(_HALF, seq(*parts))


def _notx_core(n: int, m: int) -> ZhTerm:
    if n == 0 and m == 0:
        return Gen(HBox(0, 0, 0))
    # A (-1)-weight on one leg *inside* the H sandwich flips the sign of
    # the |1...1> branch of the Z spider, turning the sum of the two
    # X-projectors into their difference.
    flip = _weight_core(-1)
    parts: list[ZhTerm] = []
    if n:
        parts.append(_hadamard_row(n))
        parts.append(beside(0, flip, n - 1))
    parts.append(Gen(ZSpider(n, m)))
    if n == 0:
        parts.append(beside(0, flip, m - 1))
    if m:
        parts.append(_hadamard_row(m))
    return par(_HALF, seq(*parts))


def _and_core() -> ZhTerm:
    return par(_HALF, seq(Gen(HBox(2, 1, -1)), Gen(HBox(1, 1, -1))))


def _kill_all_ones(k: int) -> ZhTerm:
    """k→k diagonal that zeroes exactly the |1…1⟩ component."""
    copies = par(*(Gen(ZSpider(1, 2)) for _ in range(k)))
    # Gather the second copy of every wire to the right, feed them to one
    # shared H box labelled 0: its row is all-ones except 0 at |1...1>.
    gather = permutation_term([2 * i for i in range(k)] + [2 * i + 1 for i in range(k)])
    absorb = par(wires(k), Gen(HBox(k, 0, 0)))
    return seq(copies, gather, absorb)


def _monoid2_core() -> ZhTerm:
    return seq(_kill_all_ones(2), _x_core(2, 1))


def _monoid_core(k: int) -> ZhTerm:
    if k == 1:
        return Gen(Identity())
    out = _monoid2_core()
    for _ in range(k - 2):
        out = seq(par(out, Gen(Identity())), _monoid2_core())
    return out


def _gadget_core() -> ZhTerm:
    copies = par(Gen(ZSpider(1, 2)), Gen(ZSpider(1, 2)))
    negate_first = par(_notx_core(1, 1), wires(3))
    pair_up = permutation_term([0, 2, 1, 3])
    return seq(copies, negate_first, pair_up, par(_and_core(), _and_core()))


def core_recipe(kind: GeneratorKind) -> ZhTerm:
    """The core term a single sugar generator expands to.

    Core generators come back as themselves (wrapped as a leaf).
    """
    if isinstance(kind, CORE_KINDS):
        return Gen(kind)
    match kind:
        case XSpider(n, m):
            return _x_core(n, m)
        case NotXSpider(n, m):
            return _notx_core(n, m)
        case MonoidN(k):
            return _monoid_core(k)
        case Gadget():
            return _gadget_core()
        case WeightBox(w):
            return _weight_core(w)
        case KetZero():
            return Gen(HBox(0, 1, 0))
        case KetOne():
            return _notx_core(0, 1)
        case KetPlus():
            return Gen(ZSpider(0, 1))
        case BraPlus():
            return Gen(ZSpider(1, 0))
    raise ShapeError(f"unknown generator {kind!r}")


def expand_sugar(t: ZhTerm) -> ZhTerm:
    """Rewrite a term so only the six core generators remain.

    Interpretation is preserved exactly, including the ½ scalars hidden in
    the X-spider, monoid and gadget definitions.
    """
    return fold(t, core_recipe, seq, par)
