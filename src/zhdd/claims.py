"""A regression net of equational claims checked numerically.

Each claim states that two term constructions denote the same matrix (or
that a term denotes a pinned constant matrix).  Claims are verified by
the dense oracle on fixed cases or over sampled parameters -- this
certifies soundness of the identities the library leans on, nothing more.
Statements that only exist as pictures in the source material and don't
admit a confident textual reconstruction are listed as skipped, with the
reason attached; deliberately broken claims act as negative controls.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DEFAULT, Settings
from .errors import ShapeError
from .oracle import interpret_zh, max_deviation
from .terms import (
    Cap,
    Cup,
    Gadget,
    Gen,
    GeneratorKind,
    HBox,
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
    beside,
    fold,
    par,
    permutation_term,
    seq,
    wires,
)

Side = Union[ZhTerm, np.ndarray]
Case = Tuple[ZhTerm, Side]
if TYPE_CHECKING:  # spelling np.random here would import it with every CLI run
    Builder = Callable[[np.random.Generator], List[Case]]


@dataclass(frozen=True)
class Claim:
    name: str
    origin: str
    # the claim's fixed cases, checked once, or a builder that draws cases
    # from the RNG, run ``samples`` times
    build: Union[Builder, Sequence[Case], None] = None
    samples: int = 20
    expect_fail: bool = False
    skip_reason: Optional[str] = None


@dataclass(frozen=True)
class ClaimResult:
    name: str
    origin: str
    samples: int
    max_deviation: float
    status: str  # "pass" | "fail" | "skipped"
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "skipped")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "origin": self.origin,
            "samples": self.samples,
            "max_deviation": self.max_deviation,
            "status": self.status,
            "note": self.note,
        }


def verify_claim(
    claim: Claim,
    settings: Settings = DEFAULT,
    samples: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> ClaimResult:
    """Evaluate one claim: its fixed cases once, or its builder ``samples`` times.

    An ``expect_fail`` claim passes when at least one case deviates --
    it exists to prove the runner can see failures.  A NaN deviation fails
    either kind.
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if claim.skip_reason is not None:
        return ClaimResult(claim.name, claim.origin, 0, 0.0, "skipped", claim.skip_reason)
    if rng is None:
        rng = np.random.default_rng(0xC1A1)
    fixed = not callable(claim.build)
    n_samples = 1 if fixed else claim.samples if samples is None else samples
    worst = 0.0
    ran = 0
    try:
        for _ in range(n_samples):
            for lhs, rhs in claim.build if fixed else claim.build(rng):
                got = interpret_zh(lhs, settings)
                want = rhs if isinstance(rhs, np.ndarray) else interpret_zh(rhs, settings)
                if got.shape != want.shape:
                    raise ShapeError(
                        f"sides disagree on arity: {got.shape} vs {want.shape}"
                    )
                worst = float(np.maximum(worst, max_deviation(got, want)))  # NaN sticks
                ran += 1
    except Exception as exc:  # malformed claim or resource blowup
        return ClaimResult(
            claim.name, claim.origin, ran, worst, "fail", f"{type(exc).__name__}: {exc}"
        )
    if claim.expect_fail:
        if worst > settings.eps:
            return ClaimResult(
                claim.name, claim.origin, ran, worst, "pass",
                "control: deviates as intended",
            )
        return ClaimResult(
            claim.name, claim.origin, ran, worst, "fail",
            "control failed to deviate",
        )
    status = "pass" if worst <= settings.eps else "fail"
    return ClaimResult(claim.name, claim.origin, ran, worst, status)


def run_suite(
    settings: Settings = DEFAULT,
    name_filter: Optional[str] = None,
    samples: Optional[int] = None,
    seed: int = 0xC1A1,
) -> List[ClaimResult]:
    results = []
    for claim in builtin_suite():
        if name_filter and name_filter not in claim.name:
            continue
        rng = np.random.default_rng(seed)
        results.append(verify_claim(claim, settings, samples=samples, rng=rng))
    return results


# ---------------------------------------------------------------------------
# term shorthands

def _sb(r: complex) -> ZhTerm:
    return Gen(HBox(0, 0, r))


_M2 = Gen(MonoidN(2))


def _label(rng: np.random.Generator) -> complex:
    if rng.random() < 0.3:
        pool = (0j, 1 + 0j, -1 + 0j, 2 + 0j, 0.5 + 0j, 1j)
        return complex(pool[int(rng.integers(len(pool)))])
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))


def _hrow(k: int) -> ZhTerm:
    return par(*[Gen(HBox(1, 1, -1)) for _ in range(k)])


# ---------------------------------------------------------------------------
# case builders: ``_bld_*(rng)`` draws parameters, the others are fixed


def _z_fusion() -> List[Case]:
    cases = []
    for a, b, c, d in ((0, 0, 0, 0), (1, 1, 1, 1), (0, 2, 1, 0), (2, 0, 0, 2), (1, 2, 2, 1)):
        lhs = seq(
            beside(0, Gen(ZSpider(a, b + 1)), c),
            beside(b, Gen(ZSpider(c + 1, d)), 0),
        )
        cases.append((lhs, Gen(ZSpider(a + c, b + d))))
    return cases


def _z_self_loop() -> List[Case]:
    """A cup on two legs of a Z state drops them; with no legs left, the
    Z is the scalar 2."""
    cases = [(seq(Gen(ZSpider(0, 2)), Gen(Cup())), _sb(2))]
    for n in (1, 2, 3):
        cases.append((seq(Gen(ZSpider(0, n + 2)), beside(0, Gen(Cup()), n)), Gen(ZSpider(0, n))))
    return cases


def _bld_scalar_product(rng: np.random.Generator) -> List[Case]:
    r, s = _label(rng), _label(rng)
    return [(par(_sb(r), _sb(s)), _sb(r * s))]


def _bld_label_multiply(rng: np.random.Generator) -> List[Case]:
    r, s = _label(rng), _label(rng)
    lhs = seq(
        Gen(ZSpider(1, 2)),
        par(Gen(HBox(1, 1, r)), Gen(HBox(1, 1, s))),
        Gen(ZSpider(2, 1)),
    )
    return [(lhs, Gen(HBox(1, 1, r * s)))]


def _bld_weight_product(rng: np.random.Generator) -> List[Case]:
    r, s = _label(rng), _label(rng)
    return [(seq(Gen(WeightBox(r)), Gen(WeightBox(s))), Gen(WeightBox(r * s)))]


def _bld_weight_core(rng: np.random.Generator) -> List[Case]:
    r = _label(rng)
    lhs = Gen(WeightBox(r))
    rhs = seq(Gen(ZSpider(1, 2)), par(wires(1), Gen(HBox(1, 0, r))))
    return [(lhs, rhs)]


def _x_core() -> List[Case]:
    cases = []
    for n, m in ((0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (0, 3)):
        rows: List[ZhTerm] = []
        if n:
            rows.append(_hrow(n))
        rows.append(Gen(ZSpider(n, m)))
        if m:
            rows.append(_hrow(m))
        body = seq(*rows) if len(rows) > 1 else rows[0]
        cases.append((Gen(XSpider(n, m)), par(_sb(0.5), body)))
    return cases


def _bld_ket0_hbox(rng: np.random.Generator) -> List[Case]:
    cases = []
    for n in (1, 2, 3):
        for m in (0, 1, 2):
            r = _label(rng)
            lhs = seq(beside(0, Gen(KetZero()), n - 1), Gen(HBox(n, m, r)))
            cases.append((lhs, Gen(HBox(n - 1, m, 1))))
    return cases


def _bld_ket1_hbox(rng: np.random.Generator) -> List[Case]:
    cases = []
    for n in (1, 2, 3):
        for m in (0, 1, 2):
            r = _label(rng)
            lhs = seq(beside(0, Gen(KetOne()), n - 1), Gen(HBox(n, m, r)))
            cases.append((lhs, Gen(HBox(n - 1, m, r))))
    return cases


def _one_box_splits() -> List[Case]:
    cases = []
    for n in (0, 1, 2, 3):
        for m in (0, 1, 2):
            lhs = Gen(HBox(n, m, 1))
            rhs = seq(Gen(HBox(n, 0, 1)), Gen(HBox(0, m, 1)))
            cases.append((lhs, rhs))
    return cases


def _bld_effect1_weight(rng: np.random.Generator) -> List[Case]:
    r = _label(rng)
    lhs = seq(Gen(WeightBox(r)), Gen(NotXSpider(1, 0)))
    return [(lhs, par(_sb(r), Gen(NotXSpider(1, 0))))]


def _bld_effect0_weight(rng: np.random.Generator) -> List[Case]:
    r = _label(rng)
    return [(seq(Gen(WeightBox(r)), Gen(HBox(1, 0, 0))), Gen(HBox(1, 0, 0)))]


def _monoid_gen_unit() -> List[Case]:
    return [
        (
            seq(par(Gen(KetZero()), wires(k - 1)), Gen(MonoidN(k))),
            Gen(MonoidN(k - 1)),
        )
        for k in (2, 3)
    ]


def _monoid_chain() -> List[Case]:
    return [
        (Gen(MonoidN(1)), wires(1)),
        (Gen(MonoidN(3)), seq(par(_M2, wires(1)), _M2)),
        (
            Gen(MonoidN(4)),
            seq(par(_M2, wires(2)), par(_M2, wires(1)), _M2),
        ),
    ]


# ---------------------------------------------------------------------------
# translation-level builders (rely on the diagram side of the library)


def _emit(d) -> ZhTerm:
    from .translate import sqmdd_to_zh

    return sqmdd_to_zh(d)


def _small_dag(rng: np.random.Generator, height: int):
    from .algebra import canonical
    from .generate import random_dag

    return canonical(random_dag(rng, height), DEFAULT)


def _bld_fan_in_interchange(rng: np.random.Generator) -> List[Case]:
    """An emitted term equals itself with every partial-xor fan-in
    replaced by a full xor: on one-hot branch indicators they agree."""
    t = _emit(_small_dag(rng, int(rng.integers(1, 4))))

    def as_xor(kind: GeneratorKind) -> ZhTerm:
        return Gen(XSpider(kind.inputs, 1) if isinstance(kind, MonoidN) else kind)

    return [(t, fold(t, as_xor, seq, par))]


def _z_state_nf() -> List[Case]:
    from .translate import generator_state_sqmdd

    return [
        (Gen(ZSpider(0, k)), _emit(generator_state_sqmdd("z", k)))
        for k in (1, 2, 3)
    ]


def _bld_h_state_nf(rng: np.random.Generator) -> List[Case]:
    from .translate import generator_state_sqmdd

    cases = []
    for k in (1, 2, 3):
        r = _label(rng)
        cases.append(
            (
                Gen(HBox(0, k, r)),
                _emit(generator_state_sqmdd("h", k, label=r)),
            )
        )
    return cases


def _bld_tensor_join(rng: np.random.Generator) -> List[Case]:
    from .algebra import tensor

    a = _small_dag(rng, int(rng.integers(1, 3)))
    b = _small_dag(rng, int(rng.integers(1, 3)))
    lhs = par(_emit(a), _emit(b))
    return [(lhs, _emit(tensor(a, b, DEFAULT)))]


def _bld_swap_propagates(rng: np.random.Generator) -> List[Case]:
    from .algebra import swap_adjacent_levels

    h = int(rng.integers(2, 4))
    d = _small_dag(rng, h)
    k = int(rng.integers(1, h))  # heights k+1 and k <-> wires h-k-1, h-k
    at = h - k - 1
    row = beside(at, Gen(Swap()), h - at - 2)
    lhs = seq(_emit(d), row)
    return [(lhs, _emit(swap_adjacent_levels(d, k, DEFAULT)))]


def _bld_merge_propagates(rng: np.random.Generator) -> List[Case]:
    from .algebra import z_merge_outputs

    h = int(rng.integers(2, 4))
    d = _small_dag(rng, h)
    i = int(rng.integers(0, h - 1))
    row = beside(i, Gen(ZSpider(2, 1)), h - i - 2)
    lhs = seq(_emit(d), row)
    return [(lhs, _emit(z_merge_outputs(d, i, i + 1, DEFAULT)))]


def _bld_plug_propagates(rng: np.random.Generator) -> List[Case]:
    from .algebra import plug_bra_plus

    h = int(rng.integers(1, 4))
    d = _small_dag(rng, h)
    i = int(rng.integers(0, h))
    row = beside(i, Gen(ZSpider(1, 0)), h - i - 1)
    lhs = seq(_emit(d), row)
    return [(lhs, _emit(plug_bra_plus(d, i, DEFAULT)))]


# --- reduction soundness: one targeted rewrite, compared through terms -----


def _apply_named_rule(d, rule: str):
    from .reduction import apply_step, find_candidates

    cands = [c for c in find_candidates(d, DEFAULT) if c[0] == rule]
    if not cands:
        raise ShapeError(f"constructed instance has no {rule} redex")
    out, _step = apply_step(d, cands[0], DEFAULT)
    return out


def _rand_w(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))


def _bld_reduction_sound(rule: str) -> Builder:
    from .sqmdd import TERMINAL, Node, Sqmdd

    def build(rng: np.random.Generator) -> List[Case]:
        w = _rand_w(rng)
        v = _rand_w(rng)
        if rule == "zero":
            d = Sqmdd(0j, 2, 2, {
                1: Node(1, 1 + 0j, TERMINAL, w, TERMINAL),
                2: Node(2, 1 + 0j, 1, v, 1),
            })
        elif rule == "r1":
            # first weight not 0 or 1: the whole edge weight diffuses
            d = Sqmdd(1 + 0j, 2, 2, {
                1: Node(1, 2 * w, TERMINAL, v, TERMINAL),
                2: Node(2, 1 + 0j, 1, 1 + 0j, TERMINAL),
            })
        elif rule == "r2":
            d = Sqmdd(1 + 0j, 2, 2, {
                1: Node(1, 0j, TERMINAL, 2 + w.real + 0j, TERMINAL),
                2: Node(2, 1 + 0j, 1, v, TERMINAL),
            })
        elif rule == "r3":
            d = Sqmdd(1 + 0j, 2, 2, {
                1: Node(1, 1 + 0j, TERMINAL, w, TERMINAL),
                2: Node(2, 0j, 1, v, 1),
            })
        elif rule == "r5":
            d = Sqmdd(1 + 0j, 2, 2, {
                1: Node(1, 1 + 0j, TERMINAL, 1 + 0j, TERMINAL),
                2: Node(2, w, 1, v, TERMINAL),
            })
        elif rule == "r6":
            d = Sqmdd(1 + 0j, 2, 3, {
                1: Node(1, 1 + 0j, TERMINAL, w, TERMINAL),
                2: Node(1, 1 + 0j, TERMINAL, w, TERMINAL),
                3: Node(2, 1 + 0j, 1, v, 2),
            })
        else:
            raise ShapeError(f"no builder for rule {rule!r}")
        post = _apply_named_rule(d, rule)
        return [(_emit(d), _emit(post))]

    return build


# ---------------------------------------------------------------------------
# the suite


def builtin_suite() -> List[Claim]:
    """The deterministic claim list; order and names are stable."""
    G = Gen(Gadget())
    monoid_pair = np.array([[1, 0, 0, 0], [0, 1, 1, 0]], dtype=complex)
    gadget_mat = np.array(
        [[1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=complex
    )
    gadget_top0 = np.array([[1, 0, 1, 0], [0, 0, 0, 1]], dtype=complex)

    claims: List[Claim] = [
        # -- wiring and scalar conventions
        Claim("snake", "wiring", (
            (seq(par(wires(1), Gen(Cap())), par(Gen(Cup()), wires(1))), wires(1)),
            (seq(par(Gen(Cap()), wires(1)), par(wires(1), Gen(Cup()))), wires(1)),
        )),
        Claim("swap-involution", "wiring", (
            (seq(Gen(Swap()), Gen(Swap())), wires(2)),
        )),
        Claim("closed-loop", "wiring", (
            (seq(Gen(Cap()), Gen(Cup())), _sb(2)),
        )),
        Claim("scalar-product", "wiring", _bld_scalar_product),
        # -- reconstructed axioms (regression net; bodies are standard forms,
        #    the exact source presentation is not textually recoverable)
        Claim("z-fusion", "axiom (reconstructed)", _z_fusion()),
        Claim("z-identity", "axiom (reconstructed)", (
            (Gen(ZSpider(1, 1)), wires(1)),
        )),
        Claim("z-self-loop", "axiom (reconstructed)", _z_self_loop()),
        Claim("h-involution", "axiom (reconstructed)", (
            (seq(Gen(HBox(1, 1, -1)), Gen(HBox(1, 1, -1))), par(_sb(2), wires(1))),
        )),
        Claim("copy-xor-bialgebra", "axiom (reconstructed)", (
            (
                seq(Gen(XSpider(2, 1)), Gen(ZSpider(1, 2))),
                seq(
                    par(Gen(ZSpider(1, 2)), Gen(ZSpider(1, 2))),
                    permutation_term([0, 2, 1, 3]),
                    par(Gen(XSpider(2, 1)), Gen(XSpider(2, 1))),
                ),
            ),
        )),
        Claim("hopf-copy-xor", "axiom (reconstructed)", (
            (
                seq(Gen(ZSpider(1, 2)), Gen(XSpider(2, 1))),
                seq(Gen(ZSpider(1, 0)), Gen(XSpider(0, 1))),
            ),
        )),
        Claim("one-label-state", "axiom (reconstructed)", (
            (Gen(HBox(0, 1, 1)), Gen(ZSpider(0, 1))),
        )),
        Claim("label-multiply", "axiom (reconstructed)", _bld_label_multiply),
        Claim("axiom-ba2", "axiom (reconstructed)", skip_reason=(
            "the H/Z bialgebra body is a figure; no reconstruction attempted "
            "here survived numerical checking, so none is claimed"
        )),
        Claim("axiom-average", "axiom (reconstructed)", skip_reason=(
            "figure-only body; the obvious xor-contraction reconstructions "
            "are numerically false, so none is claimed"
        )),
        Claim("axiom-intro", "axiom (reconstructed)", skip_reason=(
            "figure-only body; not textually recoverable"
        )),
        Claim("axiom-ortho", "axiom (reconstructed)", skip_reason=(
            "figure-only body; not textually recoverable"
        )),
        # -- monoid laws
        Claim("monoid-pair-matrix", "monoid laws", (
            (_M2, monoid_pair),
        )),
        Claim("monoid-unit", "monoid laws", (
            (seq(par(Gen(KetZero()), wires(1)), _M2), wires(1)),
            (seq(par(wires(1), Gen(KetZero())), _M2), wires(1)),
        )),
        Claim("monoid-ket1", "monoid laws", (
            (
                seq(par(Gen(KetOne()), wires(1)), _M2),
                seq(Gen(HBox(1, 0, 0)), Gen(KetOne())),
            ),
        )),
        Claim("monoid-assoc", "monoid laws", (
            (seq(par(_M2, wires(1)), _M2), seq(par(wires(1), _M2), _M2)),
        )),
        Claim("monoid-comm", "monoid laws", (
            (seq(Gen(Swap()), _M2), _M2),
        )),
        Claim("monoid-chain", "monoid laws", _monoid_chain()),
        Claim("monoid-gen-unit", "monoid laws", _monoid_gen_unit()),
        Claim("monoid-sum", "monoid laws", skip_reason=(
            "figure-only statement in the proofs appendix"
        )),
        # -- routing gadget
        Claim("gadget-matrix", "routing gadget", (
            (G, gadget_mat),
        )),
        Claim("gadget-ctrl0", "routing gadget", (
            (seq(par(Gen(KetZero()), wires(1)), G), par(wires(1), Gen(KetZero()))),
        )),
        Claim("gadget-ctrl1", "routing gadget", (
            (seq(par(Gen(KetOne()), wires(1)), G), par(Gen(KetZero()), wires(1))),
        )),
        Claim("gadget-swap-legs", "routing gadget", (
            (seq(G, Gen(Swap())), seq(par(Gen(NotXSpider(1, 1)), wires(1)), G)),
        )),
        Claim("gadget-ket0-top", "routing gadget", (
            (seq(G, par(Gen(HBox(1, 0, 0)), wires(1))), gadget_top0),
        )),
        # -- layer propagation rewrites
        Claim("weight-product", "layer propagation", _bld_weight_product),
        Claim("effect1-weight", "layer propagation", _bld_effect1_weight),
        Claim("effect0-weight", "layer propagation", _bld_effect0_weight),
        Claim("z-merge-chain", "layer propagation", (
            (
                seq(Gen(ZSpider(0, 2)), par(wires(1), Gen(ZSpider(1, 2)))),
                Gen(ZSpider(0, 3)),
            ),
        )),
        # -- H-box plugging
        Claim("ket0-into-hbox", "h-box plugging", _bld_ket0_hbox),
        Claim("ket1-into-hbox", "h-box plugging", _bld_ket1_hbox),
        Claim("one-box-splits", "h-box plugging", _one_box_splits()),
        Claim("zero-box", "h-box plugging", skip_reason=(
            "figure-only statement; the zero-label decomposition body is "
            "not textually recoverable"
        )),
        # -- sugar cores
        Claim("x-spider-core", "sugar core", _x_core()),
        Claim("weight-core", "sugar core", _bld_weight_core),
        Claim("plus-state", "sugar core", (
            (Gen(KetPlus()), Gen(HBox(0, 1, 1))),
        )),
        Claim("ketzero-is-hbox", "sugar core", (
            (Gen(KetZero()), Gen(HBox(0, 1, 0))),
        )),
        Claim("ketone-is-notx", "sugar core", (
            (Gen(KetOne()), Gen(NotXSpider(0, 1))),
        )),
        Claim("braplus-is-copy", "sugar core", (
            (Gen(BraPlus()), Gen(ZSpider(1, 0))),
        )),
        # -- composition primitives
        Claim("cap-from-copy", "composition primitives", (
            (Gen(Cap()), seq(Gen(ZSpider(0, 1)), Gen(ZSpider(1, 2)))),
        )),
        Claim("cup-from-merge", "composition primitives", (
            (Gen(Cup()), seq(Gen(ZSpider(2, 1)), Gen(BraPlus()))),
        )),
        Claim("closed-copy-scalar", "composition primitives", (
            (Gen(ZSpider(0, 0)), _sb(2)),
        )),
        # -- translation
        Claim("fan-in-interchange", "translation", _bld_fan_in_interchange, samples=6),
        Claim("z-state-normal-form", "translation", _z_state_nf()),
        Claim("h-state-normal-form", "translation", _bld_h_state_nf, samples=6),
        Claim("tensor-join", "translation", _bld_tensor_join, samples=6),
        Claim("swap-propagates", "translation", _bld_swap_propagates, samples=6),
        Claim("merge-propagates", "translation", _bld_merge_propagates, samples=6),
        Claim("plug-propagates", "translation", _bld_plug_propagates, samples=6),
        # -- reduction soundness (one targeted rewrite through the term side)
        Claim("reduction-sound-zero", "reduction soundness", _bld_reduction_sound("zero"), samples=6),
        Claim("reduction-sound-r1", "reduction soundness", _bld_reduction_sound("r1"), samples=6),
        Claim("reduction-sound-r2", "reduction soundness", _bld_reduction_sound("r2"), samples=6),
        Claim("reduction-sound-r3", "reduction soundness", _bld_reduction_sound("r3"), samples=6),
        Claim("reduction-sound-r5", "reduction soundness", _bld_reduction_sound("r5"), samples=6),
        Claim("reduction-sound-r6", "reduction soundness", _bld_reduction_sound("r6"), samples=6),
        Claim("reduction-sound-r4", "reduction soundness", skip_reason=(
            "orphan deletion has no term image (only live graphs are "
            "emitted); preservation is covered by the diagram-level tests"
        )),
        # -- figure-only lemma battery behind the reduction proofs
        Claim("diagonal-through-monoid", "reduction soundness", skip_reason=(
            "figure-only statement; exercised collectively by the "
            "reduction-sound-* claims"
        )),
        Claim("diagonal-through-gadget", "reduction soundness", skip_reason=(
            "figure-only statement; exercised collectively by the "
            "reduction-sound-* claims"
        )),
        Claim("monoid-gadget-bialgebra", "reduction soundness", skip_reason=(
            "figure-only statement; exercised collectively by the "
            "reduction-sound-* claims"
        )),
        Claim("special-monoid-gadget", "reduction soundness", skip_reason=(
            "figure-only statement; exercised collectively by the "
            "reduction-sound-* claims"
        )),
        # -- other figure-only lemmas
        Claim("z-h-multiple-links", "h-box plugging", skip_reason=(
            "figure-only statement"
        )),
        Claim("not-through-h-box", "h-box plugging", skip_reason=(
            "figure-only statement"
        )),
        Claim("bialgebra-z-and", "h-box plugging", skip_reason=(
            "figure-only statement"
        )),
        Claim("cnot-on-h-legs", "h-box plugging", skip_reason=(
            "figure-only statement"
        )),
        Claim("hopf-with-hbox", "h-box plugging", skip_reason=(
            "figure-only statement"
        )),
        # -- negative controls
        Claim("control-label-shift", "negative control", (
            (Gen(HBox(1, 1, 0.25 + 0.5j)), Gen(HBox(1, 1, 1.25 + 0.5j))),
        ), expect_fail=True),
        Claim("control-h-self-loop", "negative control", (
            (seq(Gen(HBox(0, 3, -1)), beside(0, Gen(Cup()), 1)), Gen(HBox(0, 1, -1))),
        ), expect_fail=True),
        Claim("control-gadget-transpose", "negative control", (
            (G, gadget_mat.T.copy()),
        ), expect_fail=True),
        Claim("control-ket1-monoid", "negative control", (
            (seq(par(Gen(KetOne()), wires(1)), _M2), wires(1)),
        ), expect_fail=True),
    ]
    return claims
