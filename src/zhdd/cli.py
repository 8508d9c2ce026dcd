"""Batch command-line interface.

One command per invocation, JSON in, JSON (or DOT) out.  Exit codes:
0 success, 1 semantic inequivalence or claim failure, 2 malformed input
(also a tolerance that is not finite and positive, a negative qubit cap or
fewer than one sample), 3 resource cap exceeded (also JSON nested past the
parser's recursion limit, a weight beyond the weight grid's range, a dense
result wider than 58 wires whatever ``--max-qubits`` says, and running out
of memory), 4 internal error (a bug in zhdd, never a verdict).

Each command offers only the options its code reads: ``-o`` everywhere,
``--tolerance`` on reduce, to-sqmdd, canonical, check-equiv and verify,
``--max-qubits`` on interpret and verify, and on to-sqmdd and check-equiv
for ``--assert-stages``.

The argument parser is built once per process; each call dispatches to
the module's ``_cmd_<command>`` function by name when it runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import mmap
import sys
import traceback
from typing import Any, Optional

from .config import DEFAULT, Settings
from .errors import ResourceLimitError, ShapeError

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_MALFORMED = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ResourceLimitError(f"{path}: JSON nested past the parser's limit") from None


def _detect(obj: Any) -> str:
    """Classify a parsed JSON payload: 'sqmdd' | 'term' | 'vector'."""
    if isinstance(obj, list):
        return "vector"
    if isinstance(obj, dict):
        if "nodes" in obj and "root" in obj:
            return "sqmdd"
        if "kind" in obj:
            return "term"
    raise ValueError(
        "unrecognized payload: expected a diagram object (with 'nodes'/'root'),"
        " a term object (with 'kind'), or a vector list"
    )


def _emit(args: argparse.Namespace, payload: Any) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload)  # compact: the C encoder, one line
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _settings(args: argparse.Namespace) -> Settings:
    # a setting whose option the command does not offer keeps its default
    return Settings(eps=getattr(args, "tolerance", DEFAULT.eps),
                    max_qubits=getattr(args, "max_qubits", DEFAULT.max_qubits))


# ---------------------------------------------------------------------------
# commands


def _cmd_interpret(args: argparse.Namespace) -> int:
    from .oracle import interpret_sqmdd, interpret_zh, matrix_to_json, vector_to_json
    from .sqmdd import sqmdd_from_json
    from .terms import term_from_json

    settings = _settings(args)
    obj = _load_json(args.file)
    what = _detect(obj)
    if what == "sqmdd":
        vec = interpret_sqmdd(sqmdd_from_json(obj), settings)
        _emit(args, vector_to_json(vec))
    elif what == "term":
        t = term_from_json(obj)
        mat = interpret_zh(t, settings)
        if t.n_in == 0:
            _emit(args, vector_to_json(mat.reshape(-1)))
        else:
            _emit(args, matrix_to_json(mat))
    else:
        raise ValueError("a vector denotes itself; pass a diagram or a term")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .reduction import reduce_diagram
    from .sqmdd import renumber, sqmdd_from_json, sqmdd_to_json

    d = sqmdd_from_json(_load_json(args.file))
    out, steps = reduce_diagram(d, _settings(args))
    _emit(args, {
        "result": sqmdd_to_json(renumber(out)),
        "trace": [s.to_json() for s in steps],
    })
    return EXIT_OK


def _cmd_to_zh(args: argparse.Namespace) -> int:
    from .sqmdd import sqmdd_from_json
    from .terms import term_to_json
    from .translate import sqmdd_to_zh

    d = sqmdd_from_json(_load_json(args.file))
    _emit(args, term_to_json(sqmdd_to_zh(d)))
    return EXIT_OK


def _cmd_to_sqmdd(args: argparse.Namespace) -> int:
    from .sqmdd import renumber, sqmdd_to_json
    from .terms import term_from_json
    from .translate import zh_to_sqmdd

    t = term_from_json(_load_json(args.file))
    d = zh_to_sqmdd(t, _settings(args), assert_stages=args.assert_stages)
    _emit(args, sqmdd_to_json(renumber(d)))
    return EXIT_OK


def _cmd_canonical(args: argparse.Namespace) -> int:
    from .algebra import canonical_from_vector
    from .oracle import vector_from_json
    from .sqmdd import renumber, sqmdd_to_json

    vec = vector_from_json(_load_json(args.file))
    d = canonical_from_vector(vec, _settings(args))
    _emit(args, sqmdd_to_json(renumber(d)))
    return EXIT_OK


def _canonicalize(obj: Any, settings: Settings, assert_stages: bool):
    """Bring any accepted payload to its irreducible diagram."""
    from .algebra import canonical, canonical_from_vector
    from .oracle import vector_from_json
    from .sqmdd import sqmdd_from_json
    from .terms import term_from_json
    from .translate import zh_to_sqmdd

    what = _detect(obj)
    if what == "sqmdd":
        return canonical(sqmdd_from_json(obj), settings)
    if what == "term":
        return zh_to_sqmdd(term_from_json(obj), settings, assert_stages=assert_stages)
    return canonical_from_vector(vector_from_json(obj), settings)


def _cmd_check_equiv(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .sqmdd import iso_equal

    settings = _settings(args)
    da = _canonicalize(_load_json(args.a), settings, args.assert_stages)
    db = _canonicalize(_load_json(args.b), settings, args.assert_stages)
    if da.height != db.height:
        _emit(args, f"NOT EQUIVALENT: heights differ ({da.height} vs {db.height})")
        return EXIT_DIFFER
    if args.up_to_scalar:
        # canonical forms are unique, so two colinear states differ only in
        # the root scalar; compare with both scalars pinned to 1 (the zero
        # state has scalar 0 and stays only equivalent to itself)
        za, zb = abs(da.scalar) == 0.0, abs(db.scalar) == 0.0
        if za or zb:
            same = za and zb
        else:
            same = iso_equal(replace(da, scalar=1 + 0j), replace(db, scalar=1 + 0j), settings)
    else:
        same = iso_equal(da, db, settings)
    if same:
        _emit(args, "EQUIVALENT" + (" (up to scalar)" if args.up_to_scalar else ""))
        return EXIT_OK
    _emit(args, "NOT EQUIVALENT")
    return EXIT_DIFFER


def _cmd_verify(args: argparse.Namespace) -> int:
    from .claims import run_suite

    results = run_suite(
        _settings(args),
        name_filter=args.filter,
        samples=args.samples,
        seed=args.seed,
    )
    if args.json:
        _emit(args, [r.to_json() for r in results])
    else:
        header = f"{'claim':30s} {'origin':26s} {'n':>4s} {'max dev':>10s} status"
        lines = [header, "-" * len(header)]
        for r in results:
            line = (
                f"{r.name:30s} {r.origin:26s} {r.samples:4d} "
                f"{r.max_deviation:10.2e} {r.status}"
            )
            if r.note:
                line += f"  ({r.note})"
            lines.append(line)
        n_pass = sum(r.status == "pass" for r in results)
        n_skip = sum(r.status == "skipped" for r in results)
        n_fail = sum(r.status == "fail" for r in results)
        lines.append("-" * len(header))
        lines.append(f"{n_pass} passed, {n_skip} skipped, {n_fail} failed")
        _emit(args, "\n".join(lines))
    if not results:
        print("no claims matched the filter", file=sys.stderr)
        return EXIT_MALFORMED
    return EXIT_OK if all(r.ok for r in results) else EXIT_DIFFER


def _cmd_export_dot(args: argparse.Namespace) -> int:
    from .sqmdd import renumber, sqmdd_from_json, sqmdd_to_dot

    d = sqmdd_from_json(_load_json(args.file))
    _emit(args, sqmdd_to_dot(renumber(d)))
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # each command is offered exactly the options its code reads
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=float, default=DEFAULT.eps, metavar="EPS",
                           help="numeric tolerance / weight grid (default 1e-9)")
    max_qubits = argparse.ArgumentParser(add_help=False)
    max_qubits.add_argument("--max-qubits", type=int, default=DEFAULT.max_qubits, metavar="N",
                            help="cap on dense wire count (default 16)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", metavar="FILE",
                        help="write result here instead of stdout")
    assert_stages_help = "check every translation stage against the dense oracle"

    p = argparse.ArgumentParser(prog="zhdd", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("interpret", parents=[max_qubits, output],
                        help="evaluate a diagram or term to a dense vector/matrix")
    sp.add_argument("file")

    sp = sub.add_parser("reduce", parents=[tolerance, output],
                        help="rewrite a diagram to its irreducible form, with trace")
    sp.add_argument("file")

    sp = sub.add_parser("to-zh", parents=[output],
                        help="emit the term normal form of a diagram")
    sp.add_argument("file")

    sp = sub.add_parser("to-sqmdd", parents=[tolerance, max_qubits, output],
                        help="contract a term into an irreducible diagram")
    sp.add_argument("file")
    sp.add_argument("--assert-stages", action="store_true", help=assert_stages_help)

    sp = sub.add_parser("canonical", parents=[tolerance, output],
                        help="build the canonical diagram of a dense vector")
    sp.add_argument("file")

    sp = sub.add_parser("check-equiv", parents=[tolerance, max_qubits, output],
                        help="canonicalize two inputs (any format) and compare")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--up-to-scalar", action="store_true",
                    help="treat states differing by a global factor as equal")
    sp.add_argument("--assert-stages", action="store_true", help=assert_stages_help)

    sp = sub.add_parser("verify", parents=[tolerance, max_qubits, output],
                        help="run the built-in equational claim suite")
    sp.add_argument("--filter", metavar="SUBSTR", default=None,
                    help="only claims whose name contains this")
    sp.add_argument("--samples", type=int, default=None, metavar="N",
                    help="draws per randomized claim (fixed claims run once)")
    sp.add_argument("--seed", type=int, default=0xC1A1)
    sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("export-dot", parents=[output],
                        help="render a diagram as GraphViz DOT")
    sp.add_argument("file")

    return p


_OUT_OF_MEMORY = "resource cap: out of memory\n"
# Address space held back, never touched, for the way out after a
# MemoryError: clearing the frames does not always free what filled memory
# (a reference can outlive them), and the exit still needs a little.
_RESERVE_BYTES = 8 << 20
_reserve: Optional[mmap.mmap] = None


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; the exit code.  A ``MemoryError`` from anywhere,
    a handler below included, exits 3: the code is fixed first, the frames
    that filled memory are cleared, the reserve is given back, and the
    message is a constant, so nothing that needs memory runs before the
    code is certain."""
    global _reserve
    try:
        if _reserve is None:
            _reserve = mmap.mmap(-1, _RESERVE_BYTES)
        return _run(argv)
    except MemoryError as exc:
        while exc is not None:  # the chain of errors raised while handling
            traceback.clear_frames(exc.__traceback__)
            exc.__traceback__, exc = None, exc.__context__
    if _reserve is not None:
        _reserve.close()
        _reserve = None
    try:
        sys.stderr.write(_OUT_OF_MEMORY)
    except MemoryError:
        pass
    return EXIT_RESOURCE


def _run(argv: Optional[list[str]]) -> int:
    args = build_parser().parse_args(argv)
    # looked up when called, so a replaced ``_cmd_*`` module attribute is seen
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except MemoryError:  # a dense input within the caps but beyond memory
        raise
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OverflowError:  # round(w / eps) past the float range
        print("resource cap: a weight is beyond the weight grid's range "
              "(|w| / tolerance must stay below about 1.8e308)", file=sys.stderr)
        return EXIT_RESOURCE
    except (ShapeError, ValueError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"cannot read/write: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as exc:  # a bug, not a verdict: never let it read as exit 1
        traceback.print_exc(limit=-20)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
