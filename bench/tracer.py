"""Span tracing for the benchmark's traced run, installed from outside zhdd.

The tracer replaces named functions of the zhdd modules (and two
``Builder`` methods) with wrappers.  A wrapper records one span -- name,
job, parent, start, end -- and leaves the call itself alone.  Spans stay
in memory and are written out when the run ends.  Nothing here is
imported or installed by the untraced run.

Self time of a span is its duration minus the time its direct child spans
cover; the run is single-threaded, so children never overlap.  Work the
tracer does after a call returns (counting generators, measuring nesting
depth) is itself recorded as a ``bench.hook`` span, so it is not charged
to the caller's self time.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Every binding of the same function object
# in any zhdd module is replaced, so ``from .x import f`` copies are caught.
SPANNED = [
    ("zhdd.cli", "main", "cli.main"),
    ("zhdd.terms", "term_to_json", "terms.term_to_json"),
    ("zhdd.terms", "term_from_json", "terms.term_from_json"),
    ("zhdd.translate", "sqmdd_to_zh", "translate.sqmdd_to_zh"),
    ("zhdd.translate", "zh_to_sqmdd", "translate.zh_to_sqmdd"),
    ("zhdd.translate", "generator_state_sqmdd", "translate.generator_state_sqmdd"),
    ("zhdd.network", "flatten_to_network", "network.flatten_to_network"),
    ("zhdd.algebra", "tensor", "algebra.tensor"),
    ("zhdd.algebra", "z_merge_outputs", "algebra.z_merge_outputs"),
    ("zhdd.algebra", "plug_bra_plus", "algebra.plug_bra_plus"),
    ("zhdd.algebra", "permute_outputs", "algebra.permute_outputs"),
    ("zhdd.algebra", "swap_adjacent_levels", "algebra.swap_adjacent_levels"),
    ("zhdd.algebra", "scale", "algebra.scale"),
    ("zhdd.algebra", "canonical_from_vector", "algebra.canonical_from_vector"),
    ("zhdd.sqmdd", "sqmdd_from_json", "sqmdd.sqmdd_from_json"),
    ("zhdd.sqmdd", "sqmdd_to_json", "sqmdd.sqmdd_to_json"),
    ("zhdd.sqmdd", "renumber", "sqmdd.renumber"),
    ("zhdd.sqmdd", "iso_equal", "sqmdd.iso_equal"),
    ("zhdd.sqmdd", "validate", "sqmdd.validate"),
    ("zhdd.reduction", "reduce_diagram", "reduction.reduce_diagram"),
    ("zhdd.reduction", "find_candidates", "reduction.find_candidates"),
    ("zhdd.reduction", "apply_step", "reduction.apply_step"),
    ("zhdd.reduction", "is_irreducible", "reduction.is_irreducible"),
    ("zhdd.oracle", "interpret_sqmdd", "oracle.interpret_sqmdd"),
    ("zhdd.oracle", "vector_from_json", "oracle.vector_from_json"),
    ("zhdd.oracle", "vector_to_json", "oracle.vector_to_json"),
]

# These call themselves through their module global.  While one runs, the
# global points back at the original, so the recursion adds no wrapper
# frames and hits the interpreter's recursion limit exactly where it would
# untraced.
SELF_RECURSIVE = {"terms.term_to_json", "terms.term_from_json"}

ALGEBRA_OPS = ("tensor", "z_merge_outputs", "plug_bra_plus", "permute_outputs",
               "swap_adjacent_levels")
ALGEBRA_SPANS = {f"algebra.{op}" for op in ALGEBRA_OPS}

# child span of zh_to_sqmdd -> contraction stage it belongs to
STAGE_OF = {
    "translate.generator_state_sqmdd": "tensor_fold_ms",
    "algebra.tensor": "tensor_fold_ms",
    "algebra.z_merge_outputs": "contract_ms",
    "algebra.plug_bra_plus": "contract_ms",
    "algebra.permute_outputs": "permute_ms",
    "algebra.scale": "permute_ms",
    "reduction.reduce_diagram": "final_reduce_ms",
}

RULES = ("zero", "r1", "r2", "r3", "r4", "r5", "r6")


def seq_depth(t) -> int:
    """Deepest nesting of seq/par nodes in a term, without recursion."""
    from zhdd.terms import Gen

    best = 0
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Gen):
            best = max(best, depth)
        else:
            a, b = (node.first, node.then) if hasattr(node, "first") else (node.left, node.right)
            stack.append((a, depth + 1))
            stack.append((b, depth + 1))
    return best


class Tracer:
    """Owns the spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, job, parent index, start, end]
        self.stack: list[int] = []
        self.job = -1
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import zhdd.sqmdd

        zhdd_modules = [m for n, m in sys.modules.items()
                        if (n == "zhdd" or n.startswith("zhdd.")) and m is not None]
        for mod_name, attr, name in SPANNED:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._span_wrapper(orig, name, sys.modules[mod_name], attr)
            for mod in zhdd_modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        bld = zhdd.sqmdd.Builder
        self._undo.append((bld, "edge", bld.edge))
        self._undo.append((bld, "import_edge", bld.import_edge))
        bld.edge = self._count_edge(bld.edge)
        bld.import_edge = self._span_wrapper(bld.import_edge, "sqmdd.Builder.import_edge")

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, orig, name, home=None, attr=None):
        tracer = self
        pre = _PRE_HOOKS.get(name)
        post = _POST_HOOKS.get(name)
        unpatch = name in SELF_RECURSIVE

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [name, tracer.job, parent, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            if unpatch:
                patched = getattr(home, attr)
                setattr(home, attr, orig)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
                if unpatch:
                    setattr(home, attr, patched)
            if post is not None:
                h0 = time.perf_counter()
                post(tracer, result)
                tracer.spans.append(["bench.hook", tracer.job, parent, h0, time.perf_counter()])
            return result

        return wrapper

    def _count_edge(self, orig):
        """Counts only: a span per unique-table lookup would swamp the run."""
        counts = self.counts
        tracer = self

        @functools.wraps(orig)
        def edge(bld, height, e0, e1):
            if not tracer.active:
                return orig(bld, height, e0, e1)
            before = len(bld.nodes)
            result = orig(bld, height, e0, e1)
            counts["edge.calls"] += 1
            counts["edge.created"] += len(bld.nodes) - before
            return result

        return edge

    # -- results ----------------------------------------------------------

    def per_span_totals(self) -> dict[str, dict[str, float]]:
        """{name: {calls, ms, self_ms}} over the whole run."""
        child_cover = [0.0] * len(self.spans)
        for name, _job, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_cover[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for k, (name, _job, _parent, t0, t1) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (t1 - t0) * 1e3
            row["self_ms"] += (t1 - t0 - child_cover[k]) * 1e3
        return out

    def per_job_ms(self) -> dict[int, dict[str, float]]:
        """{job: {span name: total ms}}, for the scaling read."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, job, _parent, t0, t1 in self.spans:
            if name != "bench.hook":
                out[job][name] += (t1 - t0) * 1e3
        return {j: dict(v) for j, v in out.items()}

    def stage_ms(self) -> dict[str, float]:
        """Time of zh_to_sqmdd's direct children, by contraction stage."""
        out = dict.fromkeys(("tensor_fold_ms", "contract_ms", "permute_ms",
                             "final_reduce_ms"), 0.0)
        for name, _job, parent, t0, t1 in self.spans:
            stage = STAGE_OF.get(name)
            if stage and parent >= 0 and self.spans[parent][0] == "translate.zh_to_sqmdd":
                out[stage] += (t1 - t0) * 1e3
        return out

    def metrics(self, n_jobs: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit).

        ``.ms``, ``.self_ms`` and ``.calls`` are per CLI job; sizes are per
        call of the function that produced them; peaks are over the run.
        """
        tot = self.per_span_totals()
        c, pk = self.counts, self.peaks
        jobs = max(n_jobs, 1)

        def ms(name, key="ms"):
            return tot.get(name, {}).get(key, 0.0) / jobs

        def calls(name):
            return tot.get(name, {}).get("calls", 0)

        def per(num, den):
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}
        m["cli.main.self_ms"] = (ms("cli.main", "self_ms"), "ms")
        m["terms.term_to_json.ms"] = (ms("terms.term_to_json"), "ms")
        m["terms.term_from_json.ms"] = (ms("terms.term_from_json"), "ms")
        m["terms.max_seq_depth"] = (pk["seq_depth"], "levels")
        n_emit = calls("translate.sqmdd_to_zh")
        m["translate.sqmdd_to_zh.ms"] = (ms("translate.sqmdd_to_zh"), "ms")
        m["translate.sqmdd_to_zh.self_ms"] = (ms("translate.sqmdd_to_zh", "self_ms"), "ms")
        m["translate.sqmdd_to_zh.generators"] = (per(c["generators"], n_emit), "count")
        m["translate.sqmdd_to_zh.swap_share"] = (per(c["swaps"], c["generators"]), "share")
        n_flat = calls("network.flatten_to_network")
        m["network.flatten_to_network.ms"] = (ms("network.flatten_to_network"), "ms")
        m["network.instances"] = (per(c["instances"], n_flat), "count")
        m["network.legs"] = (per(c["legs"], n_flat), "count")
        m["translate.zh_to_sqmdd.ms"] = (ms("translate.zh_to_sqmdd"), "ms")
        m["translate.zh_to_sqmdd.self_ms"] = (ms("translate.zh_to_sqmdd", "self_ms"), "ms")
        for stage, total in self.stage_ms().items():
            m[f"translate.stage.{stage}"] = (total / jobs, "ms")
        m["translate.peak_height"] = (pk["height"], "levels")
        m["translate.peak_nodes"] = (pk["nodes"], "nodes")
        for op in ALGEBRA_OPS:
            m[f"algebra.{op}.calls"] = (calls(f"algebra.{op}") / jobs, "count")
            m[f"algebra.{op}.ms"] = (ms(f"algebra.{op}"), "ms")
        # outermost ops only: permute_outputs runs swap_adjacent_levels inside
        op_ms = sum((t1 - t0) * 1e3 for name, _j, parent, t0, t1 in self.spans
                    if name in ALGEBRA_SPANS
                    and (parent < 0 or self.spans[parent][0] not in ALGEBRA_SPANS))
        m["algebra.ms_per_node"] = (per(op_ms, c["op_nodes"]), "ms/node")
        m["algebra.canonical_from_vector.ms"] = (ms("algebra.canonical_from_vector"), "ms")
        m["sqmdd.Builder.edge.calls"] = (c["edge.calls"] / jobs, "count")
        m["sqmdd.Builder.edge.hit_ratio"] = (
            per(c["edge.calls"] - c["edge.created"], c["edge.calls"]), "share")
        m["sqmdd.Builder.nodes_created"] = (c["edge.created"] / jobs, "count")
        for name in ("sqmdd.Builder.import_edge", "sqmdd.sqmdd_from_json",
                     "sqmdd.sqmdd_to_json", "sqmdd.renumber", "sqmdd.iso_equal",
                     "sqmdd.validate"):
            m[f"{name}.ms"] = (ms(name), "ms")
        n_red = calls("reduction.reduce_diagram")
        m["reduction.reduce_diagram.ms"] = (ms("reduction.reduce_diagram"), "ms")
        m["reduction.reduce_diagram.self_ms"] = (ms("reduction.reduce_diagram", "self_ms"), "ms")
        m["reduction.steps"] = (per(c["steps"], n_red), "count")
        for rule in RULES:
            m[f"reduction.steps.{rule}"] = (per(c[f"steps.{rule}"], n_red), "count")
        m["reduction.find_candidates.calls"] = (calls("reduction.find_candidates") / jobs, "count")
        m["reduction.find_candidates.ms"] = (ms("reduction.find_candidates"), "ms")
        m["reduction.apply_step.ms"] = (ms("reduction.apply_step"), "ms")
        m["reduction.ms_per_step"] = (
            per(tot.get("reduction.reduce_diagram", {}).get("ms", 0.0), c["steps"]), "ms/step")
        m["reduction.is_irreducible.ms"] = (ms("reduction.is_irreducible"), "ms")
        for name in ("oracle.interpret_sqmdd", "oracle.vector_from_json",
                     "oracle.vector_to_json"):
            m[f"{name}.ms"] = (ms(name), "ms")
        return m


# -- hooks: sizes read at the layer boundary ---------------------------------


def _state_size(tracer: Tracer, args) -> None:
    nested = bool(tracer.stack) and tracer.spans[tracer.stack[-1]][0] in ALGEBRA_SPANS
    for d in args[:2]:
        if hasattr(d, "nodes"):
            n = len(d.nodes)
            if not nested:
                tracer.counts["op_nodes"] += n
            tracer.peaks["height"] = max(tracer.peaks["height"], d.height)
            tracer.peaks["nodes"] = max(tracer.peaks["nodes"], n)


def _emitted(tracer: Tracer, term) -> None:
    from zhdd.terms import Swap, iter_generators

    n = swaps = 0
    for kind in iter_generators(term):
        n += 1
        swaps += isinstance(kind, Swap)
    tracer.counts["generators"] += n
    tracer.counts["swaps"] += swaps
    tracer.peaks["seq_depth"] = max(tracer.peaks["seq_depth"], seq_depth(term))


def _network(tracer: Tracer, net) -> None:
    tracer.counts["instances"] += len(net.instances)
    tracer.counts["legs"] += sum(inst.arity for inst in net.instances)


def _reduced(tracer: Tracer, result) -> None:
    _d, steps = result
    tracer.counts["steps"] += len(steps)
    for s in steps:
        tracer.counts[f"steps.{s.rule}"] += 1


_PRE_HOOKS = {f"algebra.{op}": _state_size for op in ALGEBRA_OPS}
_POST_HOOKS = {
    "translate.sqmdd_to_zh": _emitted,
    "network.flatten_to_network": _network,
    "reduction.reduce_diagram": _reduced,
}
