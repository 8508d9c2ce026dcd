#!/usr/bin/env python3
"""Long-running randomized audit of the main soundness properties.

Bigger and more configurable than the test-suite gates: use it to hammer
the library after a change, e.g.

    python3 scripts/randomized_audit.py --trials 1000 --max-height 6 --seed 3

It exits 1 when any check prints FAIL, and 0 otherwise.
"""
import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import os
import signal
import tempfile
import time
import typing

import numpy as np

from zhdd import (
    Settings,
    apply_step,
    canonical_from_vector,
    find_candidates,
    interpret_sqmdd,
    interpret_zh,
    is_irreducible,
    iso_equal,
    max_deviation,
    plug_bra_plus,
    reduce_diagram,
    sqmdd_to_zh,
    z_merge_outputs,
    zh_to_sqmdd,
)
from zhdd import cli
from zhdd.algebra import canonical, contract_edge
from zhdd.duality import from_state_form, to_state_form
from zhdd.errors import ResourceLimitError, ShapeError
from zhdd.generate import random_dag, random_term, random_vector, scramble, tree_from_vector
from zhdd.network import flatten_to_network, net_interpret, simplify_network
from zhdd.oracle import (
    dense_merge_outputs,
    dense_plug_plus,
    interpret_zh_state,
    vector_to_json,
)
from zhdd.sqmdd import TERMINAL, Builder, Node, Sqmdd, sqmdd_to_json
from zhdd.terms import (
    Cup,
    Gen,
    GeneratorKind,
    HBox,
    Identity,
    KetOne,
    KetPlus,
    NotXSpider,
    SeqNode,
    Swap,
    XSpider,
    iter_generators,
    par,
    placed,
    seq,
    term_from_json,
    term_to_json,
)


def worst_of(*devs: float) -> float:
    """The largest deviation, NaN when any is: a NaN never reads as ok."""
    return float(np.max(devs))


def verdict(out, eps: float) -> tuple[str, bool]:
    """The printed verdict of a check's result, and whether it passes: a
    deviation within ``eps`` (so not NaN) or no mismatches."""
    if isinstance(out, float):
        return f"worst deviation {out:.2e}", out <= eps
    return f"{out} mismatches", out == 0


def audit_translation(rng, n, max_h, settings):
    worst = 0.0
    for k in range(n):
        d = random_dag(rng, 1 + k % max_h)
        got = interpret_zh(sqmdd_to_zh(d), settings).reshape(-1)
        worst = worst_of(worst, max_deviation(got, interpret_sqmdd(d, settings)))
    return worst


def audit_round_trip(rng, n, max_h, settings):
    """diagram -> term -> diagram lands on the input's reduced form (its
    Builder re-import)."""
    failures = 0
    for k in range(n):
        d = random_dag(rng, 1 + k % max_h)
        want = canonical(d, settings)
        if not iso_equal(zh_to_sqmdd(sqmdd_to_zh(d), settings), want, settings):
            failures += 1
    return failures


def relabelled(d, rng):
    """``d`` with its node ids replaced by a random injection into 1..3n."""
    ids = rng.choice(np.arange(1, 3 * len(d.nodes) + 1), size=len(d.nodes), replace=False)
    new = dict(zip(d.nodes, map(int, ids)))
    new[TERMINAL] = TERMINAL
    nodes = {new[i]: Node(nd.height, nd.w0, new[nd.c0], nd.w1, new[nd.c1])
             for i, nd in d.nodes.items()}
    return Sqmdd(d.scalar, d.height, new[d.root], nodes)


def audit_emit_relabel(rng, n, max_h, settings):
    """sqmdd_to_zh emits the same term for a reduced diagram and for a copy
    whose node ids are relabelled at random: emission reads structure, not
    ids.  Up to three nodes per level, so a relabelling often reorders one."""
    mismatches = 0
    for k in range(n):
        d = canonical(random_dag(rng, 1 + k % max_h, 3), settings)
        mismatches += sqmdd_to_zh(relabelled(d, rng)) != sqmdd_to_zh(d)
    return mismatches


def layout_faults(chain) -> int:
    """Faults in the row layout of an emitted layer chain: a row that is
    not one generator between at most one identity bundle on each side,
    and a swap that moves a finished level wire or crosses the bottom
    block of wires bound for the terminal."""
    faults, rows, rest = 0, [], chain
    while isinstance(rest, SeqNode):
        rows.append(rest.then)
        rest = rest.first
    for row in [rest, *rows]:
        kinds = [g.kind for g, _ in placed(row)]
        ops = [i for i, kind in enumerate(kinds) if not isinstance(kind, Identity)]
        faults += len(ops) != 1 or ops[0] > 1 or len(kinds) - ops[0] > 2

    # one id per wire; a level wire is the first output of a level's state
    fresh = itertools.count()
    live, levels, swaps, made_from, terminal = [], set(), [], {}, set()
    for g, at in placed(chain):
        kind, ins = g.kind, live[at : at + g.n_in]
        if isinstance(kind, Identity):
            continue
        if isinstance(kind, Swap):
            swaps.append((ins, live[at + 1 :]))  # the pair, and the lower one's wire and all below
            live[at], live[at + 1] = live[at + 1], live[at]
            continue
        outs = [next(fresh) for _ in range(g.n_out)]
        if not ins and not isinstance(kind, KetOne):
            levels.add(outs[0])
        if outs:
            made_from[outs[0]] = ins
        elif isinstance(kind, NotXSpider):  # postselects the terminal's fan-in
            terminal = set(made_from[ins[0]])
        live[at : at + g.n_in] = outs
    for pair, below in swaps:
        faults += bool(levels.intersection(pair)) or set(below) <= terminal
    return faults


def audit_emit_layout(rng, n, max_h, settings):
    """Emitted rows keep the linear-size layout of sqmdd_to_zh (see
    layout_faults)."""
    faults = 0
    for k in range(n):
        d = random_dag(rng, 1 + k % max_h)
        faults += layout_faults(sqmdd_to_zh(d).right)
    return faults


def zero_cell_vector(rng, height, eps):
    """Gaussian (off-palette) entries, one of them inside the grid's zero
    cell: both parts below eps/2."""
    v = rng.standard_normal(2**height) + 1j * rng.standard_normal(2**height)
    v[rng.integers(v.size)] = complex(*rng.uniform(-eps / 2, eps / 2, 2))
    return v


def audit_canonicity(rng, n, max_h, settings):
    """Two scrambles of a vector's naive tree reduce to its canonical form;
    so does the naive tree of a vector with one zero-cell entry, where r1
    must snap the entry as the Builder does."""
    failures = 0
    for k in range(n):
        h = 1 + k % max_h
        v = random_vector(rng, h)
        tree = tree_from_vector(v)
        got = [reduce_diagram(scramble(tree, rng), settings)[0] for _ in range(2)]
        z = zero_cell_vector(rng, h, settings.eps)
        got.append(reduce_diagram(tree_from_vector(z), settings)[0])
        wants = [canonical_from_vector(x, settings) for x in (v, v, z)]
        failures += not all(iso_equal(a, b, settings) for a, b in zip(got, wants))
    return failures


def audit_canonical_agreement(rng, n, max_h, settings):
    """canonical (one Builder re-import) is irreducible and lands on the
    rewriter's normal form, for random DAGs and scrambled naive trees."""
    failures = 0
    for k in range(n):
        h = 1 + k % max_h
        if k % 2:
            d = scramble(tree_from_vector(random_vector(rng, h)), rng)
        else:
            d = random_dag(rng, h)
        got = canonical(d, settings)
        want = reduce_diagram(d, settings)[0]
        if not (is_irreducible(got, settings) and iso_equal(got, want, settings)):
            failures += 1
    return failures


def audit_reduction_trace(rng, n, max_h, settings):
    """reduce_diagram against a loop that rescans the whole diagram before
    every step: same steps, same result (node order included), both in
    the deterministic order and with a seeded random pick."""
    def scan(d, pick_rng):
        cur, steps = d, []
        while True:
            cands = find_candidates(cur, settings)
            if not cands:
                return cur, steps
            pick = cands[0] if pick_rng is None else cands[int(pick_rng.integers(len(cands)))]
            cur, step = apply_step(cur, pick, settings)
            steps.append(step)

    def exact(d):
        return d.scalar, d.height, d.root, list(d.nodes.items())

    def rng_for(seed):
        return None if seed is None else np.random.default_rng(seed)

    failures = 0
    for k in range(n):
        d = scramble(tree_from_vector(random_vector(rng, 1 + k % max_h)), rng)
        for seed in (None, k):
            got, got_steps = reduce_diagram(d, settings, rng=rng_for(seed))
            want, want_steps = scan(d, rng_for(seed))
            if got_steps != want_steps or exact(got) != exact(want):
                failures += 1
    return failures


def audit_contraction(rng, n, max_h, settings):
    """zh_to_sqmdd with every stage checked against dense_stages (a plain
    run when the plan is wider than the dense cap), on random terms and on
    a chain of 1,200 X spiders whose sugar halves must not underflow."""
    def contracted(t):
        try:
            return zh_to_sqmdd(t, settings, assert_stages=True)
        except ResourceLimitError:
            return zh_to_sqmdd(t, settings)

    chain = seq(Gen(KetPlus()), *[Gen(XSpider(1, 1))] * 1200)
    worst = max_deviation(interpret_sqmdd(contracted(chain), settings), [1, 1])
    for k in range(n):
        t = random_term(rng, max_generators=10, max_boundary=7)
        d = contracted(t)
        assert is_irreducible(d, settings)
        s = to_state_form(t) if t.n_in else t
        worst = worst_of(
            worst,
            max_deviation(interpret_sqmdd(d, settings), interpret_zh_state(s, settings)),
        )
    return worst


def audit_contraction_scale(rng, n, max_h, settings):
    """zh_to_sqmdd on random terms padded with up to 1,500 scalar
    components that each denote 1: a loop H-box closed by a cup (the
    scalar 2) beside a compensating 1/2.  The contraction's running
    scalar grows by 2 per loop while the 1/2s wait in the prefactor; the
    result must match the dense value of the unpadded term, so a scalar
    that is not finite reads as an infinite or NaN deviation."""
    one = par(seq(Gen(HBox(0, 2, 1)), Gen(Cup())), Gen(HBox(0, 0, 0.5)))
    worst = 0.0
    for k in range(n):
        t = random_term(rng, max_generators=10, max_boundary=7)
        d = zh_to_sqmdd(par(t, *[one] * int(rng.integers(1, 1501))), settings)
        s = to_state_form(t) if t.n_in else t
        worst = worst_of(
            worst, max_deviation(interpret_sqmdd(d, settings), interpret_zh_state(s, settings))
        )
    return worst


def audit_network_simplify(rng, n, max_h, settings):
    """simplify_network keeps the dense tensor of random-term networks and
    of emitted networks; networks whose plan is wider than the dense cap
    are skipped."""
    worst = 0.0
    for k in range(n):
        if k % 2:
            t = random_term(rng, max_generators=10, max_boundary=7)
        else:
            d = random_dag(rng, 1 + (k // 2) % min(max_h, 3))
            t = sqmdd_to_zh(d)
        net = flatten_to_network(t)
        try:
            want = net_interpret(net, settings)
        except ResourceLimitError:
            continue
        worst = worst_of(worst, max_deviation(net_interpret(simplify_network(net), settings), want))
    return worst


def audit_dense_route(rng, n, max_h, settings):
    """interpret_zh under caps of 6 and 8 wires, where it cuts wide states
    in halves, against net_interpret, on random maps as drawn and bent into
    state form and back.  A refusal under the tight cap is skipped."""
    mismatches = 0
    for k in range(n):
        t = random_term(rng, max_generators=8, max_boundary=6)
        try:
            want = net_interpret(flatten_to_network(t), settings)
        except ResourceLimitError:
            continue
        for u in (t, from_state_form(to_state_form(t), t.n_in)):
            for cap in (6, 8):
                try:
                    got = interpret_zh(u, dataclasses.replace(settings, max_qubits=cap))
                except ResourceLimitError:
                    continue
                mismatches += not max_deviation(got, want) <= settings.eps
    return mismatches


def audit_primitives(rng, n, max_h, settings):
    worst = 0.0
    for k in range(n):
        h = 2 + k % (max_h - 1)
        d = random_dag(rng, h)
        v = interpret_sqmdd(d, settings)
        i = int(rng.integers(h - 1))
        j = int(rng.integers(i + 1, h))
        worst = worst_of(worst, max_deviation(
            interpret_sqmdd(z_merge_outputs(d, i, j, settings), settings),
            dense_merge_outputs(v, h, i, j),
        ))
        p = int(rng.integers(h))
        worst = worst_of(worst, max_deviation(
            interpret_sqmdd(plug_bra_plus(d, p, settings), settings),
            dense_plug_plus(v, h, p),
        ))
        bld = Builder(settings)
        closed = contract_edge(bld, bld.import_edge(d, (d.scalar, d.root)), h, i, j)
        worst = worst_of(worst, max_deviation(
            interpret_sqmdd(bld.finish(closed, h - 2), settings),
            dense_plug_plus(dense_merge_outputs(v, h, i, j), h - 1, i),
        ))
    return worst


def audit_builder_edge(rng, n, max_h, settings):
    """Builder.edge on weight pairs placed near grid-cell boundaries, over
    children drawn from a small built table.  The returned edge denotes the
    input pair within one cell's diagonal, eps * sqrt(2) * max(1, |lam|) on
    each side: the ratio w1 / w0 is rounded and hash-consed on the grid,
    so its error scales with lam.  A side may move to the terminal only
    when its weight there and before are that small.  The node is
    normalized to (1, w) or (0, 1), and the same pair built twice returns
    the same edge without a new node."""
    eps = settings.eps

    def near_boundary():
        # a cell's edge, exactly or nudged by a thousandth of a cell
        k = rng.integers(-3, 4, size=2) + 0.5 + rng.choice([-1e-3, 0.0, 1e-3], size=2)
        return complex(*(k * eps))

    def pair():
        w0 = near_boundary() if rng.random() < 0.5 else complex(*rng.normal(size=2))
        r = rng.random()
        if r < 0.25:  # w1 near a boundary of its own
            return w0, near_boundary()
        if r < 0.5:  # the ratio w1 / w0 near the one cell's edge
            return w0, w0 * (1 + near_boundary())
        if r < 0.75:  # the ratio near the zero cell's edge
            return w0, w0 * near_boundary()
        return w0, w0 + near_boundary()  # w1 near w0's cell

    failures = 0
    for k in range(n):
        h = 2 + k % (max_h - 1)
        d = random_dag(rng, h)
        bld = Builder(settings)
        bld.import_edge(d, (d.scalar, d.root))
        for _ in range(20):
            height = int(rng.integers(1, h + 2))
            pool = [TERMINAL] + [i for i, nd in bld.nodes.items() if nd.height < height]
            c0 = pool[rng.integers(len(pool))]
            c1 = c0 if rng.random() < 0.5 else pool[rng.integers(len(pool))]
            w0, w1 = pair()
            lam, c = e = bld.edge(height, (w0, c0), (w1, c1))
            nd = bld.nodes.get(c)
            if nd is not None and nd.height == height:  # a node at this level
                got = [(lam * nd.w0, nd.c0), (lam * nd.w1, nd.c1)]
                ok = nd.w0 == 1 or (nd.w0 == 0 and nd.c0 == TERMINAL and nd.w1 == 1)
            else:  # the level was skipped
                got, ok = [e, e], True
            tol = 2 ** 0.5 * eps * max(1.0, abs(lam)) * (1 + 1e-9)
            for (wo, co), (wi, ci) in zip(got, [(w0, c0), (w1, c1)]):
                if co == ci:
                    ok &= abs(wo - wi) <= tol
                else:  # moved to the terminal, where a zero-cell weight may stay
                    ok &= co == TERMINAL and abs(wo) <= tol and abs(wi) <= tol
            size = len(bld.nodes)
            ok &= bld.edge(height, (w0, c0), (w1, c1)) == e and len(bld.nodes) == size
            failures += not ok
    return failures


def audit_term_json(rng, n, max_h, settings):
    """term -> JSON text -> term over random instances of every generator
    kind, with integer params up to 2^40 and complex params that include
    signed zeros, subnormals and huge values.  The read-back term must be
    equal and every complex param the same float bit for bit."""
    kinds = typing.get_args(GeneratorKind)
    specials = [0.0, -0.0, 5e-324, -1e-300, 1e300, -(2.0 ** 53 + 2), 0.1]

    def component():
        return specials[rng.integers(len(specials))] if rng.random() < 0.5 else rng.normal()

    def param(f):
        if f.type == "complex":
            return complex(component(), component())
        return int(rng.choice([0, 1, 2, 7, 2 ** 40]))

    def instance(cls):
        while True:
            try:
                return cls(*(param(f) for f in dataclasses.fields(cls)))
            except ShapeError:  # a draw the kind rejects, e.g. MonoidN(0)
                pass

    def bits(kind):
        return [(type(v), v.real.hex(), v.imag.hex()) if isinstance(v, complex) else (type(v), v)
                for v in (getattr(kind, f.name) for f in dataclasses.fields(kind))]

    failures = 0
    for k in range(n):
        t = par(*(Gen(instance(kinds[(k + j) % len(kinds)])) for j in range(1 + k % 4)))
        try:
            back = term_from_json(json.loads(json.dumps(term_to_json(t))))
        except (ValueError, ShapeError):
            failures += 1
            continue
        failures += back != t or any(
            bits(a) != bits(b) for a, b in zip(iter_generators(t), iter_generators(back)))
    return failures


# The commands that read each kind of corpus file; check-equiv compares a
# mutant with its base.
_FUZZ_COMMANDS = (
    ("interpret", "to-sqmdd", "check-equiv"),  # a term
    ("interpret", "reduce", "to-zh", "export-dot", "check-equiv"),  # a diagram
    ("canonical", "check-equiv"),  # a vector
)
# Keys whose value sizes the work: a diagram's height, a node's level, an
# arity or an identity bundle's width.
_SIZE_KEYS = {"height", "h", "inputs", "outputs", "n"}
FUZZ_MUTANTS_PER_TRIAL = 50
FUZZ_SECONDS_PER_JOB = 10
FUZZ_MEMORY_BYTES = 512 << 20  # address space a job may add to the audit's own


class JobTimeout(BaseException):
    """A job ran past its time limit; a BaseException, so that no handler
    in the CLI takes it for the command's own error."""


def mutate(obj, rng):
    """``obj``, a JSON tree, with one value or key mutated in place (the
    tree itself may be replaced), and the mutation's name."""
    box = [obj]
    slots, stack = [], [box]  # (container, key or index) of every value
    while stack:
        x = stack.pop()
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            slots.append((x, k))
            if isinstance(v, (dict, list)):
                stack.append(v)
    what = ("huge-int", "nan", "wrong-type", "missing-key", "huge-size")[rng.integers(5)]
    sized = [(x, k) for x, k in slots if k in _SIZE_KEYS]
    if what == "huge-size" and sized:
        x, k = sized[rng.integers(len(sized))]
        x[k] = [10**6, 10**9, 2**40, 2**70][rng.integers(4)]
        return box[0], f"huge-size {k}={x[k]}"
    x, k = slots[rng.integers(len(slots))]
    if what == "missing-key" and x is box:  # the tree itself cannot go
        what = "wrong-type"
    if what == "missing-key":
        del x[k]
    elif what == "nan":
        x[k] = [float("nan"), float("inf"), -float("inf")][rng.integers(3)]
    elif what == "wrong-type":
        x[k] = ["x", None, True, [], {}, 0.5, [[0, 0]]][rng.integers(7)]
    else:
        x[k] = [2**31, 2**63, -(2**63), 10**30, 10**400][rng.integers(5)]
    return box[0], f"{what} {k!r}"


def run_cli(argv):
    """``cli.main(argv)`` with stderr captured and a time limit: the exit
    code (None on a timeout) or the exception that escaped, and stderr."""
    err = io.StringIO()

    def expire(signum, frame):
        raise JobTimeout

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS_PER_JOB)
    try:
        with contextlib.redirect_stderr(err):
            out = cli.main(argv)
    except JobTimeout:
        out = None
    except Exception as exc:  # an escaped exception is a finding, not a crash
        out = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return out, err.getvalue()


@contextlib.contextmanager
def memory_limit(extra):
    """The process's address space capped ``extra`` bytes past its size;
    no cap where the host cannot set one."""
    try:
        import resource

        with open("/proc/self/statm", encoding="ascii") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def audit_cli_fuzz(rng, n, max_h, settings):
    """Each CLI command that reads a corpus file's kind, in-process, on
    mutants of corpus JSON (random_term, random_dag and random_vector, one
    or two values or keys mutated: a huge int, NaN, a wrong type, a missing
    key, a huge height or arity), FUZZ_MUTANTS_PER_TRIAL per trial, under a
    per-job time limit and an address-space limit.  A finding is an exit 4, an exception that
    escapes cli.main, a job past its time limit, or an exit 1 ("not
    equivalent") from any command but check-equiv."""
    findings = 0
    with tempfile.TemporaryDirectory() as work, memory_limit(FUZZ_MEMORY_BYTES):
        base_path, mutant_path = os.path.join(work, "base.json"), os.path.join(work, "mutant.json")
        for k in range(FUZZ_MUTANTS_PER_TRIAL * n):
            if k % 3 == 0:
                obj = term_to_json(random_term(rng, max_generators=6, max_boundary=4))
            elif k % 3 == 1:
                obj = sqmdd_to_json(random_dag(rng, 1 + k % max_h))
            else:
                obj = vector_to_json(random_vector(rng, 1 + k % min(max_h, 4)))
            text = json.dumps(obj)
            with open(base_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            names = []
            obj = json.loads(text)
            for _ in range(1 + (rng.random() < 0.3)):
                obj, name = mutate(obj, rng)
                names.append(name)
            with open(mutant_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(obj))
            for command in _FUZZ_COMMANDS[k % 3]:
                files = [mutant_path, base_path] if command == "check-equiv" else [mutant_path]
                out, err = run_cli([command, *files, "-o", os.devnull])
                if out in (0, 2, 3) or (out == 1 and command == "check-equiv"):
                    continue
                findings += 1
                if findings <= 5:
                    got = "timeout" if out is None else f"exit {out!r}"
                    print(f"    {command} on {', '.join(names)} of {text[:200]}: {got}\n"
                          f"      {err.strip()[-300:]}")
    return findings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--max-height", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-qubits", type=int, default=24)
    args = ap.parse_args()

    settings = Settings(max_qubits=args.max_qubits)
    checks = [
        ("diagram -> term -> vector", audit_translation),
        ("diagram -> term -> diagram", audit_round_trip),
        ("emit-layout", audit_emit_layout),
        ("emit-relabel", audit_emit_relabel),
        ("canonicity of scrambles", audit_canonicity),
        ("canonical-agreement", audit_canonical_agreement),
        ("reduction-trace vs full scan", audit_reduction_trace),
        ("term -> diagram, exact scalar", audit_contraction),
        ("contraction-scale", audit_contraction_scale),
        ("merge/plug/one-pass close vs dense", audit_primitives),
        ("network-simplify", audit_network_simplify),
        ("dense-route", audit_dense_route),
        ("builder-edge", audit_builder_edge),
        ("term-json", audit_term_json),
        ("cli-fuzz", audit_cli_fuzz),
    ]
    print(f"{args.trials} trials per check, heights <= {args.max_height}, "
          f"seed {args.seed}\n")
    failed = 0
    for name, fn in checks:
        rng = np.random.default_rng(args.seed)
        t0 = time.time()
        out = fn(rng, args.trials, args.max_height, settings)
        dt = time.time() - t0
        text, ok = verdict(out, settings.eps)
        failed += not ok
        print(f"  {'ok ' if ok else 'FAIL'} {name:34s} {text:24s} ({dt:.1f}s)")
    print("\ndone")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
