"""Bending wires: turning maps into states and back.

A map with n inputs corresponds to a state on n extra wires via the usual
cup/cap duality.  We fix the layout once and for all: the state's wires
are the map's outputs first, then the bent inputs **in their original
order**, so the state vector is the row-major flattening of the matrix.
"""
from __future__ import annotations

from .errors import ShapeError
from .terms import (
    Cap,
    Cup,
    Gen,
    ZhTerm,
    beside,
    describe,
    par,
    permutation_term,
    seq,
    wires,
)


def to_state_form(t: ZhTerm) -> ZhTerm:
    """Bend all inputs of ``t`` into trailing outputs.

    Inputs-free terms pass through unchanged.  The result has
    ``t.n_out + t.n_in`` outputs: the original outputs, then one wire per
    original input, in input order.
    """
    n = t.n_in
    if n == 0:
        return t
    caps = par(*[Gen(Cap()) for _ in range(n)])
    # Caps emit their two legs adjacently; route first legs to the map,
    # second legs to the tail.
    gather = permutation_term([2 * i for i in range(n)] + [2 * i + 1 for i in range(n)])
    return seq(caps, gather, par(t, wires(n)))


def from_state_form(t: ZhTerm, n_inputs: int) -> ZhTerm:
    """Reinterpret the last ``n_inputs`` outputs of a state as inputs.

    Inverse of :func:`to_state_form` up to semantic equality.
    """
    if t.n_in != 0:
        raise ShapeError(f"expected a state (no inputs), got {describe(t)}")
    if n_inputs < 0 or n_inputs > t.n_out:
        raise ShapeError(
            f"cannot bend {n_inputs} of {t.n_out} output wires of {describe(t)}"
        )
    if n_inputs == 0:
        return t
    m = t.n_out - n_inputs
    # [outs..., bent..., fresh inputs...] -> [outs..., b0, x0, b1, x1, ...]
    pairing = list(range(m))
    for j in range(n_inputs):
        pairing += [m + j, m + n_inputs + j]
    cups = par(*[Gen(Cup()) for _ in range(n_inputs)])
    return seq(par(t, wires(n_inputs)), permutation_term(pairing), beside(m, cups, 0))
