"""Randomized instances for the test suite and benchmarks.

Sizing note: terms emitted by :func:`zhdd.translate.sqmdd_to_zh` carry
one wire per pending branch, so dense checking of the emitted term is
only feasible when the diagram has few nodes per level and edges don't
skip too far down.  The DAG generator below is deliberately conservative
(at most a couple of nodes per level, near-level children) so that every
generated instance stays within reach of the dense oracle.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .config import DEFAULT, Settings
from .sqmdd import TERMINAL, Node, Sqmdd, is_zero_weight, preorder
from .terms import (
    Cap,
    Cup,
    Gadget,
    Gen,
    HBox,
    KetOne,
    KetPlus,
    KetZero,
    BraPlus,
    MonoidN,
    NotXSpider,
    WeightBox,
    XSpider,
    ZSpider,
    ZhTerm,
    beside,
    generator_arity,
    permutation_term,
    seq,
)

#: weights that are exactly representable and survive products unchanged
PALETTE = (0j, 1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0j, -0.5 + 0j, 1 + 1j)

#: invertible factors that multiply through any complex double exactly and
#: cancel exactly against their inverse: signed powers of two only.  Unit
#: imaginaries look safe on paper but swap the components, and the fused
#: multiply-adds inside the platform's complex product are not symmetric
#: under that swap; 1+1j rounds outright on the cross terms.
EXACT_FACTORS = (2 + 0j, -2 + 0j, -1 + 0j, 0.5 + 0j, -0.5 + 0j, 4 + 0j, -0.25 + 0j)


def random_weight(rng: np.random.Generator, allow_zero: bool = True) -> complex:
    if rng.random() < 0.6:
        pool = PALETTE if allow_zero else PALETTE[1:]
        return complex(pool[int(rng.integers(len(pool)))])
    return complex(rng.standard_normal(), rng.standard_normal())


def random_vector(rng: np.random.Generator, height: int) -> np.ndarray:
    """Dense vector with a mix of palette entries and gaussians."""
    n = 2**height
    roll = rng.random()
    if roll < 0.05:
        return np.zeros(n, dtype=complex)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if roll < 0.35:
        v[rng.random(n) < 0.7] = 0  # zero-heavy
    picks = rng.random(n) < 0.4
    v[picks] = rng.choice(np.array(PALETTE), int(picks.sum()))
    return v


def shared_cofactor_vector(rng: np.random.Generator, height: int) -> np.ndarray:
    """A vector assembled from a tiny pool of block patterns, so its reduced
    diagram shares many nodes."""
    block_h = max(1, height - int(rng.integers(1, height + 1)))
    pool = [random_vector(rng, block_h) for _ in range(2)]
    scalars = [1 + 0j, -1 + 0j, 2 + 0j, 1j]
    parts = []
    for _ in range(2 ** (height - block_h)):
        s = scalars[int(rng.integers(len(scalars)))]
        if rng.random() < 0.15:
            s = 0j
        parts.append(s * pool[int(rng.integers(len(pool)))])
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# random diagrams


def random_dag(
    rng: np.random.Generator,
    height: int,
    max_per_level: int = 2,
    settings: Settings = DEFAULT,
) -> Sqmdd:
    """A random valid diagram: sparse levels, near-level children, mixed
    palette/gaussian weights, occasional exact-zero edges."""
    if height == 0:
        return Sqmdd(random_weight(rng, allow_zero=False), 0, TERMINAL, {})
    nodes: dict[int, Node] = {}
    by_level: dict[int, list[int]] = {}
    next_id = 1
    for h in range(1, height + 1):
        want = int(rng.integers(0, max_per_level + 1))
        if h == 1 and want == 0 and not nodes:
            want = 1
        ids = []
        for _ in range(want):
            def pick_child() -> tuple[complex, int]:
                if rng.random() < 0.12:
                    return (0j, TERMINAL)
                # prefer children close below this level
                cands: list[int] = []
                for depth in range(1, h):
                    level = by_level.get(h - depth, [])
                    cands.extend(level)
                    if cands and rng.random() < 0.75:
                        break
                if not cands or rng.random() < 0.3:
                    return (random_weight(rng), TERMINAL)
                return (
                    random_weight(rng, allow_zero=False),
                    cands[int(rng.integers(len(cands)))],
                )

            w0, c0 = pick_child()
            w1, c1 = pick_child()
            if is_zero_weight(w0, settings) and is_zero_weight(w1, settings):
                w1, c1 = 1 + 0j, TERMINAL  # avoid an all-zero node
            nodes[next_id] = Node(h, w0, c0, w1, c1)
            ids.append(next_id)
            next_id += 1
        if ids:
            by_level[h] = ids
    top_level = max(by_level)
    root = by_level[top_level][int(rng.integers(len(by_level[top_level])))]
    nodes = {i: nodes[i] for i in sorted(preorder(nodes, root))}
    return Sqmdd(random_weight(rng, allow_zero=False), height, root, nodes)


def tree_from_vector(vec) -> Sqmdd:
    """The naive full binary tree of a vector: no sharing, no weight
    normalization, one node per internal position."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.size == 0 or (v.size & (v.size - 1)) != 0:
        raise ValueError(f"vector length {v.size} is not a power of two")
    height = v.size.bit_length() - 1
    if height == 0:
        return Sqmdd(complex(v[0]), 0, TERMINAL, {})
    nodes: dict[int, Node] = {}
    counter = [0]

    def build(a: np.ndarray, h: int) -> tuple[complex, int]:
        if h == 0:
            return (complex(a[0]), TERMINAL)
        half = a.size // 2
        w0, c0 = build(a[:half], h - 1)
        w1, c1 = build(a[half:], h - 1)
        counter[0] += 1
        nodes[counter[0]] = Node(h, w0, c0, w1, c1)
        return (1.0 + 0j, counter[0])

    w, root = build(v, height)
    return Sqmdd(w, height, root, nodes)


# ---------------------------------------------------------------------------
# scrambling: inverse rewrites that preserve the interpretation exactly


def _fresh_id(nodes: dict[int, Node]) -> int:
    return max(nodes, default=0) + 1


def _inverse_factor(d: Sqmdd, rng: np.random.Generator) -> bool:
    """Undo a weight normalization: push an exact factor into one node."""
    if not d.nodes:
        return False
    ids = sorted(d.nodes)
    i = ids[int(rng.integers(len(ids)))]
    f = EXACT_FACTORS[int(rng.integers(len(EXACT_FACTORS)))]
    n = d.nodes[i]
    d.nodes[i] = Node(n.height, n.w0 * f, n.c0, n.w1 * f, n.c1)
    inv = 1 / f
    if i == d.root:
        d.scalar *= inv
        return True
    for p, pn in list(d.nodes.items()):
        w0, w1 = pn.w0, pn.w1
        if pn.c0 == i:
            w0 *= inv
        if pn.c1 == i:
            w1 *= inv
        d.nodes[p] = Node(pn.height, w0, pn.c0, w1, pn.c1)
    return True


def _inverse_merge(d: Sqmdd, rng: np.random.Generator) -> bool:
    """Undo a node merge: split one multi-parent node into two copies."""
    parents: dict[int, list[tuple[int, int]]] = {}
    for p, n in d.nodes.items():
        if n.c0 != TERMINAL:
            parents.setdefault(n.c0, []).append((p, 0))
        if n.c1 != TERMINAL:
            parents.setdefault(n.c1, []).append((p, 1))
    multi = sorted(i for i, ps in parents.items() if len(ps) >= 2)
    if not multi:
        return False
    i = multi[int(rng.integers(len(multi)))]
    copy = _fresh_id(d.nodes)
    d.nodes[copy] = d.nodes[i]
    ps = parents[i]
    k = int(rng.integers(1, len(ps)))
    moved = [ps[j] for j in rng.permutation(len(ps))[:k]]
    for p, side in moved:
        n = d.nodes[p]
        d.nodes[p] = n.with_edge(side, n.edge(side)[0], copy)
    return True


def _inverse_skip(d: Sqmdd, rng: np.random.Generator) -> bool:
    """Undo a skipped-level deletion: materialize a (1, 1) node inside an
    edge that jumps more than one level (or above a low root)."""
    gaps: list[tuple[Optional[int], int, int]] = []  # (parent, side, child)
    root_h = 0 if d.root == TERMINAL else d.nodes[d.root].height
    if d.root != TERMINAL and root_h < d.height:
        gaps.append((None, 0, d.root))
    for p, n in d.nodes.items():
        for side, c in ((0, n.c0), (1, n.c1)):
            ch = 0 if c == TERMINAL else d.nodes[c].height
            if n.height - ch >= 2:
                gaps.append((p, side, c))
    if not gaps:
        return False
    p, side, c = gaps[int(rng.integers(len(gaps)))]
    ch = 0 if c == TERMINAL else d.nodes[c].height
    top = d.height if p is None else d.nodes[p].height - 1
    if top <= ch:
        return False
    new_h = int(rng.integers(ch + 1, top + 1))
    i = _fresh_id(d.nodes)
    d.nodes[i] = Node(new_h, 1 + 0j, c, 1 + 0j, c)
    if p is None:
        d.root = i
    else:
        n = d.nodes[p]
        d.nodes[p] = n.with_edge(side, n.edge(side)[0], i)
    return True


def _inverse_zero_edge(d: Sqmdd, rng: np.random.Generator) -> bool:
    """Point an exact-zero terminal edge at some node instead."""
    zeros = []
    for p, n in d.nodes.items():
        if n.w0 == 0j and n.c0 == TERMINAL:
            zeros.append((p, 0))
        if n.w1 == 0j and n.c1 == TERMINAL:
            zeros.append((p, 1))
    if not zeros:
        return False
    p, side = zeros[int(rng.integers(len(zeros)))]
    ph = d.nodes[p].height
    lower = sorted(i for i, n in d.nodes.items() if n.height < ph)
    if not lower:
        return False
    c = lower[int(rng.integers(len(lower)))]
    d.nodes[p] = d.nodes[p].with_edge(side, 0j, c)
    return True


def scramble(d: Sqmdd, rng: np.random.Generator, settings: Settings = DEFAULT) -> Sqmdd:
    """A differently-shaped diagram with exactly the same interpretation.

    Applies 12 inverse rewrites, each drawn at random; every move is exact
    (the factors multiply without rounding), so the interpretation is not
    just close but equal.
    """
    out = Sqmdd(d.scalar, d.height, d.root, dict(d.nodes))
    if out.root == TERMINAL and out.scalar == 0j and out.height >= 1:
        # dress up the zero form: arbitrary structure under a zero scalar
        base = random_dag(rng, out.height, settings=settings)
        return Sqmdd(0j, out.height, base.root, dict(base.nodes))
    ops = (_inverse_factor, _inverse_merge, _inverse_skip, _inverse_zero_edge)
    for _ in range(12):
        op = ops[int(rng.integers(len(ops)))]
        op(out, rng)
    return out


# ---------------------------------------------------------------------------
# random terms


def _random_label(rng: np.random.Generator) -> complex:
    if rng.random() < 0.4:
        pool = (-1 + 0j, 0j, 1 + 0j, 1j, 0.5 + 0j, 2 + 0j, 1 + 1j)
        return complex(pool[int(rng.integers(len(pool)))])
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))


def random_term(
    rng: np.random.Generator,
    max_generators: int = 12,
    max_boundary: int = 8,
) -> ZhTerm:
    """A random composite term.

    Built as a state (wires only ever appended or consumed on the right
    of the growing term), with at most ``max_generators`` non-wiring
    generators and every intermediate width at most ``max_boundary``;
    sometimes some outputs are bent back into inputs at the end.
    """
    from .duality import from_state_form

    width = 0
    rows: list[ZhTerm] = []
    budget = int(rng.integers(1, max_generators + 1))
    used = 0

    def row_with(gen_kind, at: int) -> None:
        nonlocal width, used
        n, m = generator_arity(gen_kind)
        rows.append(beside(at, Gen(gen_kind), width - at - n))
        width = width - n + m
        used += 1

    while used < budget:
        headroom = max_boundary - width
        choices = []
        if headroom >= 1:
            choices.extend(["state"] * 2)
        if width >= 1:
            choices.extend(["apply"] * 3)
        if width >= 2:
            choices.append("contract")
        if width >= 2 and rng.random() < 0.35:
            perm = list(rng.permutation(width))
            if perm != list(range(width)):
                rows.append(permutation_term(perm))
        kind = choices[int(rng.integers(len(choices)))]
        if kind == "state":
            m = int(rng.integers(1, min(3, headroom) + 1))
            pool = [ZSpider(0, m), HBox(0, m, _random_label(rng))]
            if m == 1:
                pool += [KetZero(), KetOne(), KetPlus()]
            if m == 2:
                pool.append(Cap())
            row_with(pool[int(rng.integers(len(pool)))], width)
        elif kind == "apply":
            n = int(rng.integers(1, min(3, width) + 1))
            m = int(rng.integers(0, min(3, max_boundary - (width - n)) + 1))
            at = int(rng.integers(0, width - n + 1))
            pool: list = [ZSpider(n, m), HBox(n, m, _random_label(rng))]
            if m >= 1:
                pool.append(XSpider(n, m))
                pool.append(NotXSpider(n, m))
            if m == 1:
                pool.append(MonoidN(n))
            if (n, m) == (1, 1):
                pool.append(WeightBox(_random_label(rng)))
            if (n, m) == (2, 2):
                pool.append(Gadget())
            if (n, m) == (1, 0):
                pool.append(BraPlus())
            row_with(pool[int(rng.integers(len(pool)))], at)
        else:
            at = int(rng.integers(0, width - 1))
            row_with(Cup(), at)

    t = seq(*rows)
    # bending n outputs into inputs costs n cups, which count toward the
    # generator budget like any other non-wiring generator
    allowance = min(t.n_out, max_generators - used)
    if allowance >= 1 and rng.random() < 0.3:
        t = from_state_form(t, int(rng.integers(1, allowance + 1)))
    return t
