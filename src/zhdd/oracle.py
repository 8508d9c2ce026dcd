"""Dense semantics: the ground truth everything else is checked against.

Every generator gets a closed-form matrix here, written out directly —
including the derived generators, which :mod:`zhdd.sugar` also defines by
expansion into the core set.  Keeping both routes genuinely independent is
the point: a bug in the expansions cannot hide if the closed forms are
authored separately, and vice versa.

Conventions (fixed throughout the package):

* a map with ``n`` inputs and ``m`` outputs is a ``(2**m, 2**n)`` matrix;
* basis order is binary counting with the **first wire as the most
  significant bit**, so ``par(a, b)`` is ``np.kron(A, B)``;
* ``seq(a, b)`` composes left-to-right: ``B @ A``.

A term has one entry, :func:`interpret_zh`, and one route: the term is
evaluated as a state tensor, one generator at a time, with a trailing batch
axis of input basis states for a map.  Before a generator would make the
state wider than the cap, the state is cut in two along an axis that the
next generators leave alone (a live wire, or else the batch); each half
runs on until the whole state fits again, and the halves are stacked back
(sliced evaluation, as in Chen et al., arXiv:1805.01450).

Dense work is capped at ``settings.max_qubits`` wires, and never above
:data:`~zhdd.config.DENSE_WIRE_LIMIT` (58, the most numpy can size), with
one rule for every array held, intermediates included: a term or a
generator counts its inputs plus its outputs, a diagram its height, and a
state its wires plus its batch bits.  Anything larger raises
:class:`ResourceLimitError` before it is allocated, rather than silently
thrashing.
"""
from __future__ import annotations

import math
from typing import Any

import numpy as np

from ._json import complex_from_json, complex_to_json
from .config import DEFAULT, Settings, dense_cap
from .errors import ResourceLimitError, ShapeError
from .sqmdd import TERMINAL, Sqmdd, bottom_up
from .terms import (
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
    BraPlus,
    MonoidN,
    NotXSpider,
    Swap,
    WeightBox,
    XSpider,
    ZSpider,
    ZhTerm,
    describe,
    generator_arity,
    placed,
)

def _popcounts(k: int) -> np.ndarray:
    """popcount(x) for x in 0..2**k-1."""
    out = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        out = np.concatenate([out, out + 1])
    return out


def _z_matrix(n: int, m: int) -> np.ndarray:
    out = np.zeros((2**m, 2**n), dtype=complex)
    out[0, 0] += 1.0
    out[-1, -1] += 1.0
    return out


def _check_span(span: int, what: str, settings: Settings) -> None:
    """Refuse dense work on more than the cap's wires; a map counts its
    inputs plus outputs, as a ``(2**m, 2**n)`` matrix holds as many entries
    as a state on ``n + m`` wires."""
    if span > dense_cap(settings):
        raise ResourceLimitError(
            f"{what} spans {span} dense wires (cap is {dense_cap(settings)})"
        )


def generator_matrix(kind: GeneratorKind, settings: Settings = DEFAULT) -> np.ndarray:
    """Closed-form matrix of a single generator."""
    n, m = generator_arity(kind)
    _check_span(n + m, f"generator {kind}", settings)
    match kind:
        case ZSpider():
            return _z_matrix(n, m)
        case HBox(label=r):
            out = np.ones((2**m, 2**n), dtype=complex)
            out[-1, -1] = r
            return out
        case Identity():
            return np.eye(2**n, dtype=complex)
        case Swap():
            out = np.zeros((4, 4), dtype=complex)
            for a in range(2):
                for b in range(2):
                    out[(b << 1) | a, (a << 1) | b] = 1.0
            return out
        case Cap():
            return np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)
        case Cup():
            return np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex)
        case XSpider() | NotXSpider():
            # Conjugating the Z form by Hadamards leaves a rank-2 matrix:
            # 1/2 (J + s P) with J all-ones, P[y, x] = (-1)^(|y| + |x|), and
            # s = -1 when the |1..1> component is negated before fusing.
            s = -1.0 if isinstance(kind, NotXSpider) else 1.0
            rows = (-1.0) ** _popcounts(m)
            cols = (-1.0) ** _popcounts(n)
            return 0.5 * (
                np.ones((2**m, 2**n), dtype=complex) + s * np.outer(rows, cols)
            )
        case MonoidN(inputs=k):
            out = np.zeros((2, 2**k), dtype=complex)
            for x in range(2**k):
                ones = x.bit_count()
                if ones <= 1:
                    out[ones, x] = 1.0
            return out
        case Gadget():
            # |c, d>  ->  |d and not c> (x) |d and c>
            out = np.zeros((4, 4), dtype=complex)
            for c in range(2):
                for d in range(2):
                    out[((d & (1 - c)) << 1) | (d & c), (c << 1) | d] = 1.0
            return out
        case WeightBox(weight=w):
            return np.array([[1.0, 0.0], [0.0, w]], dtype=complex)
        case KetZero():
            return np.array([[1.0], [0.0]], dtype=complex)
        case KetOne():
            return np.array([[0.0], [1.0]], dtype=complex)
        case KetPlus():
            return np.array([[1.0], [1.0]], dtype=complex)
        case BraPlus():
            return np.array([[1.0, 1.0]], dtype=complex)
    raise ShapeError(f"no matrix for generator kind {kind!r}")


# ---------------------------------------------------------------------------
# term interpretation: a rank-k state tensor, one axis per live wire and a
# last axis that batches a map's input basis states (of size 1 for a state)

_Steps = list[tuple[Gen, np.ndarray, int]]  # each generator, its matrix, its first wire
_SMALL_PRODUCT = 16  # entries of the state in one product of :func:`_apply`


def _apply(state: np.ndarray, mat: np.ndarray, at: int, n: int, m: int) -> np.ndarray:
    """Apply a ``(2**m, 2**n)`` matrix to the state's axes ``at`` to
    ``at + n``: its ``m`` output axes take their place.

    The state is read as ``(before, 2**n, after)``, and ``mat @ state`` is
    one small product per entry of ``before``.  Each product has a fixed
    cost, so when they are many and small (more of them than entries in
    each, and at most :data:`_SMALL_PRODUCT` each: a generator on the last
    wires), one product over the whole state is faster, though it moves
    the state twice."""
    shape = state.shape
    s = state.reshape(math.prod(shape[:at]), 2**n, -1)
    before, each = s.shape[0], s.shape[1] * s.shape[2]
    if each <= _SMALL_PRODUCT < before:
        res = np.tensordot(s, mat, (1, 1)).transpose(0, 2, 1)
    else:
        res = mat @ s
    return res.reshape(shape[:at] + (2,) * m + shape[at + n :])


def _cut(state: np.ndarray, steps: _Steps, i: int, cap: int) -> tuple[int, int, int]:
    """Where to cut ``state``, too wide for ``steps[i]``: the first axis of
    two or more entries that the steps leave alone until the whole state
    fits again, the step where it fits, and where the axis sits by then."""
    size, end = state.size, i
    while end == i or size > 2**cap:
        g = steps[end][0]
        size, end = size >> g.n_in << g.n_out, end + 1
    for axis in range(state.ndim):
        if state.shape[axis] < 2:
            continue
        at_end = axis
        for g, _, at in steps[i:end]:
            if at + g.n_in <= at_end:
                at_end += g.n_out - g.n_in
            elif at <= at_end:
                break
        else:
            return axis, end, at_end
    g = steps[i][0]
    raise ResourceLimitError(
        f"the state after {describe(g)} spans {(state.size >> g.n_in << g.n_out).bit_length() - 1}"
        f" dense wires (cap is {cap}), and the generators after it touch every"
        " wire before it fits again"
    )


def _run(state: np.ndarray, steps: _Steps, cap: int) -> np.ndarray:
    """Apply ``steps`` to ``state``, cutting it in two wherever a step
    would take it past ``2**cap`` entries and stacking the halves back once
    the whole fits again.  The loop goes on past each cut, so nesting grows
    only with the number of axes cut at once."""
    i = 0
    while i < len(steps):
        g, mat, at = steps[i]
        if state.size >> g.n_in << g.n_out <= 2**cap:
            state, i = _apply(state, mat, at, g.n_in, g.n_out), i + 1
            continue
        axis, end, at_end = _cut(state, steps, i, cap)
        halves = [_run(h, steps[i:end], cap) for h in np.split(state, 2, axis=axis)]
        state, i = np.concatenate(halves, axis=at_end), end
    return state


# ---------------------------------------------------------------------------
# public entry points


def interpret_zh(t: ZhTerm, settings: Settings = DEFAULT) -> np.ndarray:
    """Dense matrix of a term, shape ``(2**n_out, 2**n_in)``.

    ``t`` is applied to its input basis states, batched in chunks as wide
    as the cap leaves room for beside the inputs, one generator at a time;
    a state that would grow past the cap is cut in two and run in halves.
    The term's inputs plus outputs, and each generator's, must fit under
    the cap, and no intermediate holds more than ``2**cap`` entries.
    """
    _check_span(t.n_in + t.n_out, "term", settings)
    steps = [
        (g, generator_matrix(g.kind, settings), at)
        for g, at in placed(t)
        if not isinstance(g.kind, Identity)
    ]
    cap = dense_cap(settings)
    chunk = 2 ** min(t.n_in, cap - t.n_in)
    cols = []
    for first in range(0, 2**t.n_in, chunk):
        state = np.zeros((2**t.n_in, chunk), dtype=complex)
        state[np.arange(first, first + chunk), np.arange(chunk)] = 1.0
        state = _run(state.reshape((2,) * t.n_in + (chunk,)), steps, cap)
        cols.append(state.reshape(2**t.n_out, chunk))
    return np.concatenate(cols, axis=1)


def interpret_zh_state(t: ZhTerm, settings: Settings = DEFAULT) -> np.ndarray:
    """Dense vector of an inputs-free term, shape ``(2**n_out,)``."""
    if t.n_in != 0:
        raise ShapeError(f"term has {t.n_in} inputs, expected a state")
    return interpret_zh(t, settings).reshape(-1)


def interpret_sqmdd(d: Sqmdd, settings: Settings = DEFAULT) -> np.ndarray:
    """Dense vector denoted by a diagram, shape ``(2**height,)``.

    Folds the cofactor recursion bottom-up (:func:`~zhdd.sqmdd.bottom_up`):
    each node's vector is its two children's, weighted and stacked; a child
    sitting more than one level down duplicates its vector across the
    skipped levels.
    """
    _check_span(d.height, "diagram", settings)
    nodes, vec = d.nodes, {}

    def at_height(c: int, h: int) -> np.ndarray:
        if c == TERMINAL:
            return np.ones(2**h, dtype=complex)
        skip = h - nodes[c].height
        return np.tile(vec[c], 2**skip) if skip else vec[c]

    for i in bottom_up(nodes, d.root):
        n = nodes[i]
        vec[i] = np.concatenate(
            [n.w0 * at_height(n.c0, n.height - 1), n.w1 * at_height(n.c1, n.height - 1)]
        )
    return d.scalar * at_height(d.root, d.height)


# ---------------------------------------------------------------------------
# comparisons


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b), initial=0.0))


# ---------------------------------------------------------------------------
# dense reference implementations of the diagram-level operations


def _as_tensor(v: np.ndarray, height: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != 2**height:
        raise ShapeError(f"vector of length {v.size} is not 2**{height}")
    return v.reshape((2,) * height)


def dense_merge_outputs(v: np.ndarray, height: int, i: int, j: int) -> np.ndarray:
    """Diagonal of wires i and j (i < j): keep entries where they agree,
    leaving the shared wire at position i."""
    t = _as_tensor(v, height)
    diag = np.diagonal(t, axis1=i, axis2=j)  # shared axis lands at the end
    return np.moveaxis(diag, -1, i).reshape(-1)


def dense_plug_plus(v: np.ndarray, height: int, i: int) -> np.ndarray:
    """Sum out wire i (plugging an all-ones effect)."""
    return _as_tensor(v, height).sum(axis=i).reshape(-1)


def dense_restrict(v: np.ndarray, height: int, i: int, bit: int) -> np.ndarray:
    return np.take(_as_tensor(v, height), bit, axis=i).reshape(-1)


def dense_permute(v: np.ndarray, height: int, perm: list[int]) -> np.ndarray:
    """Wire shuffle with ``result wire k = input wire perm[k]``."""
    return np.transpose(_as_tensor(v, height), axes=perm).reshape(-1)


# ---------------------------------------------------------------------------
# vector / matrix JSON


def vector_to_json(v: np.ndarray) -> list:
    return [complex_to_json(complex(x)) for x in np.asarray(v, dtype=complex).reshape(-1)]


def vector_from_json(obj: Any) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("vector must be a non-empty list of [re, im] pairs")
    return np.array(
        [complex_from_json(x, f"vector entry {k}") for k, x in enumerate(obj)],
        dtype=complex,
    )


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return [[complex_to_json(complex(x)) for x in row] for row in m]
