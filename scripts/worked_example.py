#!/usr/bin/env python3
"""Walk one 16-entry vector through the whole pipeline, printing each stage.

The vector has a global prefactor 3/sqrt(2) and mixes exact zeros, equal
cofactor blocks and a complex phase, so every interesting canonicalization
effect shows up: weight normalization, node sharing, level skipping.
"""
import numpy as np

from zhdd import (
    Settings,
    canonical_from_vector,
    interpret_sqmdd,
    interpret_zh,
    measure,
    reduce_diagram,
    sqmdd_to_dot,
    sqmdd_to_zh,
    zh_to_sqmdd,
)
from zhdd.generate import tree_from_vector

SETTINGS = Settings(max_qubits=24)


def main() -> None:
    s = 1 / np.sqrt(2)
    vec = (3 / np.sqrt(2)) * np.array(
        [1, 0, 0, 0, s, s, s, s, -s, 0, 0, 0, -1j, 0, -1j, 0],
        dtype=complex,
    )
    print("input vector (16 entries, height 4):")
    with np.printoptions(precision=4, suppress=True):
        print(" ", vec)

    naive = tree_from_vector(vec)
    print(f"\nnaive tree: {len(naive.nodes)} nodes, measure {measure(naive)}")

    reduced, steps = reduce_diagram(naive, SETTINGS)
    print(f"reduced:    {len(reduced.nodes)} nodes, measure {measure(reduced)}")
    print(f"            {len(steps)} rewrite steps "
          f"({', '.join(sorted({st.rule for st in steps}))})")

    direct = canonical_from_vector(vec, SETTINGS)
    assert len(direct.nodes) == len(reduced.nodes)
    dev = np.max(np.abs(interpret_sqmdd(direct, SETTINGS) - vec))
    print(f"\ncanonical-from-vector agrees, interpretation deviation {dev:.2e}")

    term = sqmdd_to_zh(direct)
    emitted = interpret_zh(term, SETTINGS).reshape(-1)
    dev = np.max(np.abs(emitted - vec))
    print(f"emitted term: {term.n_out} output wires, deviation {dev:.2e}")

    back = zh_to_sqmdd(term, SETTINGS)
    print(f"contracted back: {len(back.nodes)} nodes "
          f"(round trip {'closed' if len(back.nodes) == len(direct.nodes) else 'OPEN'})")

    print("\nDOT of the canonical diagram:\n")
    print(sqmdd_to_dot(direct))


if __name__ == "__main__":
    main()
