"""End-to-end command behavior, including the exit-code contract:
0 ok, 1 not-equivalent / claim failed, 2 malformed input, 3 resource cap,
4 internal error."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zhdd
from zhdd import cli
from zhdd.algebra import canonical
from zhdd.cli import main
from zhdd.config import DEFAULT
from zhdd.generate import random_dag, random_vector, scramble, tree_from_vector
from zhdd.oracle import interpret_sqmdd, interpret_zh, vector_from_json, vector_to_json
from zhdd.reduction import reduce_diagram
from zhdd.sqmdd import (
    TERMINAL,
    Builder,
    Sqmdd,
    iso_equal,
    renumber,
    sqmdd_from_json,
    sqmdd_to_json,
)
from zhdd.terms import (
    Cup,
    Gen,
    HBox,
    Identity,
    KetPlus,
    XSpider,
    ZSpider,
    par,
    seq,
    term_from_json,
    term_to_json,
    wires,
)
from zhdd.translate import generator_state_sqmdd, sqmdd_read_back, sqmdd_to_zh

from conftest import relabelled


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return _write


@pytest.fixture
def diagram():
    return reduce_diagram(random_dag(np.random.default_rng(7), 3))[0]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_interpret_diagram(write, capsys, diagram):
    f = write("d.json", sqmdd_to_json(diagram))
    code, out, _ = run(capsys, "interpret", f)
    assert code == 0
    got = vector_from_json(json.loads(out))
    assert np.allclose(got, interpret_sqmdd(diagram))


def test_interpret_term_state_is_vector(write, capsys):
    f = write("t.json", term_to_json(Gen(ZSpider(0, 2))))
    code, out, _ = run(capsys, "interpret", f)
    assert code == 0
    assert np.allclose(vector_from_json(json.loads(out)), [1, 0, 0, 1])


def test_interpret_term_map_is_matrix(write, capsys):
    f = write("t.json", term_to_json(Gen(ZSpider(1, 1))))
    code, out, _ = run(capsys, "interpret", f)
    assert code == 0
    assert json.loads(out) == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def test_reduce_emits_result_and_trace(write, capsys):
    tree = tree_from_vector(np.ones(8, dtype=complex))
    f = write("tree.json", sqmdd_to_json(tree))
    code, out, _ = run(capsys, "reduce", f)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"result", "trace"}
    assert payload["trace"]
    assert not sqmdd_from_json(payload["result"]).nodes


def test_reduce_trace_empty_on_fixpoint(write, capsys, diagram):
    f = write("d.json", sqmdd_to_json(diagram))
    code, out, _ = run(capsys, "reduce", f)
    payload = json.loads(out)
    assert payload["trace"] == []
    assert payload["result"] == sqmdd_to_json(renumber(diagram))


def test_translation_round_trip_via_files(write, capsys, diagram):
    """The round trip lands on the same renumbered structure; its weights
    agree within eps, as float rounding depends on the contraction order."""
    f = write("d.json", sqmdd_to_json(diagram))
    code, out, _ = run(capsys, "to-zh", f)
    assert code == 0
    g = write("t.json", json.loads(out))
    code, out, _ = run(capsys, "to-sqmdd", g)
    assert code == 0
    back, want = renumber(sqmdd_from_json(json.loads(out))), renumber(diagram)
    assert (back.height, back.root) == (want.height, want.root)
    assert {i: (n.height, n.c0, n.c1) for i, n in back.nodes.items()} == {
        i: (n.height, n.c0, n.c1) for i, n in want.nodes.items()
    }
    eps = DEFAULT.eps
    assert abs(back.scalar - want.scalar) <= eps
    for i, n in want.nodes.items():
        assert abs(back.nodes[i].w0 - n.w0) <= eps and abs(back.nodes[i].w1 - n.w1) <= eps


def test_to_zh_writes_the_same_bytes_for_relabelled_ids(write, capsys, tmp_path):
    d = canonical(random_dag(np.random.default_rng(2), 4))
    outs = []
    for name, x in (("d", d), ("r", relabelled(d, np.random.default_rng(1)))):
        f, path = write(f"{name}.json", sqmdd_to_json(x)), tmp_path / f"{name}.zh.json"
        assert run(capsys, "to-zh", f, "-o", str(path))[0] == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_canonical_and_check_equiv_ghz(write, capsys):
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0
    v = write("ghz.json", vector_to_json(ghz))
    code, out, _ = run(capsys, "canonical", v)
    assert code == 0
    c = write("c.json", json.loads(out))
    z = write("z.json", term_to_json(Gen(ZSpider(0, 3))))
    code, out, _ = run(capsys, "check-equiv", z, c)
    assert code == 0
    assert "EQUIVALENT" in out


@pytest.mark.parametrize("fmt", ["vector", "sqmdd", "term"])
def test_check_equiv_reflexive(write, capsys, diagram, fmt):
    if fmt == "vector":
        f = write("a.json", vector_to_json(interpret_sqmdd(diagram)))
    elif fmt == "sqmdd":
        f = write("a.json", sqmdd_to_json(diagram))
    else:
        f = write("a.json", term_to_json(sqmdd_to_zh(diagram)))
    assert run(capsys, "check-equiv", f, f)[0] == 0


def test_check_equiv_map_against_its_row_major_vector(write, capsys):
    t = write("t.json", term_to_json(Gen(HBox(1, 1, -1))))
    v = write("v.json", vector_to_json(np.array([1, 1, 1, -1], dtype=complex)))
    assert run(capsys, "check-equiv", t, v)[0] == 0


def test_check_equiv_of_a_long_x_spider_chain(write, capsys):
    """The chain's 1,200 sugar halves must not underflow to the zero
    state."""
    t = write("t.json", term_to_json(seq(Gen(KetPlus()), *[Gen(XSpider(1, 1))] * 1200)))
    v = write("v.json", [[1, 0], [1, 0]])
    code, out, _ = run(capsys, "check-equiv", t, v)
    assert (code, out.strip()) == (0, "EQUIVALENT")


def test_check_equiv_of_many_scalar_loops(write, capsys, tmp_path):
    """1,100 components that each denote 1 (a loop H-box closed by a cup,
    beside a 1/2): the scalar stays 1 instead of overflowing to NaN, and
    a NaN can no longer read as EQUIVALENT to [[5, 0]]."""
    one = par(seq(Gen(HBox(0, 2, 1)), Gen(Cup())), Gen(HBox(0, 0, 0.5)))
    t = write("t.json", term_to_json(par(*[one] * 1100)))
    back = tmp_path / "back.json"
    assert run(capsys, "to-sqmdd", t, "-o", str(back))[0] == 0
    d = sqmdd_from_json(json.loads(back.read_text()))
    assert d.height == 0 and abs(d.scalar - 1) <= 1e-9
    five, one_v = write("five.json", [[5, 0]]), write("one.json", [[1, 0]])
    assert run(capsys, "check-equiv", t, five)[:2] == (1, "NOT EQUIVALENT\n")
    assert run(capsys, "check-equiv", t, one_v)[:2] == (0, "EQUIVALENT\n")


def test_check_equiv_scalar_modes(write, capsys):
    v = np.array([1, 2j, 0, 3], dtype=complex)
    a = write("a.json", vector_to_json(v))
    b = write("b.json", vector_to_json((2 - 1j) * v))
    assert run(capsys, "check-equiv", a, b)[0] == 1
    assert run(capsys, "check-equiv", a, b, "--up-to-scalar")[0] == 0
    c = write("c.json", vector_to_json(np.arange(4, dtype=complex)))
    assert run(capsys, "check-equiv", a, c, "--up-to-scalar")[0] == 1


@pytest.mark.parametrize("flags", [[], ["--up-to-scalar"]], ids=["exact", "up-to-scalar"])
def test_check_equiv_compares_at_the_given_tolerance(write, capsys, flags):
    """The canonical forms are built and compared on the same grid."""
    a = write("a.json", vector_to_json(np.array([1, 2], dtype=complex)))
    b = write("b.json", vector_to_json(np.array([1, 2 + 1e-7], dtype=complex)))
    assert run(capsys, "check-equiv", a, b, *flags)[0] == 1
    assert run(capsys, "check-equiv", a, b, *flags, "--tolerance", "1e-6")[0] == 0


def test_zero_vector_scalar_equivalence(write, capsys):
    z = write("z.json", vector_to_json(np.zeros(4, dtype=complex)))
    e = write("e.json", vector_to_json(np.eye(4, dtype=complex)[0]))
    assert run(capsys, "check-equiv", z, z, "--up-to-scalar")[0] == 0
    assert run(capsys, "check-equiv", z, e, "--up-to-scalar")[0] == 1


def test_verify_table_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "monoid")
    assert code == 0
    assert "passed" in out and "status" in out


def test_verify_json_mode(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "snake", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["name"] == "snake" and rows[0]["status"] == "pass"


def test_verify_unmatched_filter_is_error(capsys):
    assert run(capsys, "verify", "--filter", "nope-nothing")[0] == 2


def test_export_dot(write, capsys, diagram):
    f = write("d.json", sqmdd_to_json(diagram))
    code, out, _ = run(capsys, "export-dot", f)
    assert code == 0
    assert out.startswith("digraph")


def test_malformed_inputs_exit_2(write, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(capsys, "interpret", str(bad))[0] == 2
    v = write("v.json", vector_to_json(np.ones(2, dtype=complex)))
    assert run(capsys, "interpret", v)[0] == 2  # a vector denotes itself
    t = write("t.json", {"kind": "seq"})
    assert run(capsys, "reduce", t)[0] == 2
    assert run(capsys, "interpret", str(tmp_path / "missing.json"))[0] == 2


def test_unknown_generator_param_exits_2(write, capsys):
    """A param the generator does not have is malformed input, not ignored."""
    t = write("t.json", {"kind": "zspider", "params": {"inputs": 0, "outputs": 1,
                                                       "label": [2, 0]}, "children": []})
    code, _, err = run(capsys, "to-sqmdd", t)
    assert code == 2
    assert "'label'" in err


@pytest.mark.parametrize("node, key", [
    ({"kind": "hbox", "params": {"inputs": 0, "outputs": 1}, "label": [2, 0]}, "'label'"),
    ({"kind": "seq", "params": {"inputs": 1}, "children": [
        {"kind": "ket0", "params": {}, "children": []},
        {"kind": "identity", "params": {}, "children": []}]}, "params"),
])
def test_unknown_term_node_key_exits_2(write, capsys, node, key):
    """A key the node does not have is malformed input, not ignored: a
    label beside the params, or params on a seq."""
    code, _, err = run(capsys, "to-sqmdd", write("t.json", node))
    assert code == 2
    assert key in err


def test_resource_cap_exits_3(write, capsys):
    f = write("z.json", term_to_json(Gen(ZSpider(0, 3))))
    code, _, err = run(capsys, "interpret", f, "--max-qubits", "2")
    assert code == 3
    assert "resource cap" in err


def test_dense_cap_counts_matrix_inputs_and_outputs(write, capsys):
    """A 3-wire identity bundle is an 8 x 8 matrix: over a cap of 4 wires."""
    f = write("w.json", term_to_json(wires(3)))
    code, _, err = run(capsys, "interpret", f, "--max-qubits", "4")
    assert code == 3
    assert "resource cap" in err


def test_interpret_cuts_a_row_wider_than_the_cap(write, capsys):
    """A term whose row passes --max-qubits is evaluated in halves; a
    generator wider than the cap is still refused, by name."""
    singles = par(*[Gen(Identity())] * 5)
    t = seq(
        par(singles, Gen(ZSpider(0, 5))),
        par(singles, seq(par(Gen(ZSpider(0, 1)), singles), Gen(ZSpider(6, 0)))),
    )
    code, out, _ = run(capsys, "interpret", write("t.json", term_to_json(t)), "--max-qubits", "10")
    assert code == 0
    got = np.array(json.loads(out))
    assert np.array_equal(got[..., 0] + 1j * got[..., 1], interpret_zh(t))
    wide = seq(Gen(ZSpider(0, 12)), Gen(ZSpider(12, 0)))
    code, _, err = run(capsys, "interpret", write("w.json", term_to_json(wide)), "--max-qubits", "10")
    assert code == 3
    assert "ZSpider" in err and "12 dense wires" in err and "cap is 10" in err


@pytest.mark.parametrize("obj, max_qubits", [
    (sqmdd_to_json(generator_state_sqmdd("z", 700)), 1000),
    (sqmdd_to_json(generator_state_sqmdd("h", 700)), 1000),
    (term_to_json(Gen(ZSpider(0, 70))), 100),
], ids=["z-state-700", "h-state-700", "z-spider-70"])
def test_dense_results_past_numpy_sizes_exit_3(write, capsys, obj, max_qubits):
    """numpy cannot size a dense vector of more than 58 wires, so interpret
    refuses one before it allocates or recurses, whatever --max-qubits says
    (a recursion error, exit 4, or a numpy error, exit 2, before)."""
    f = write("x.json", obj)
    code, _, err = run(capsys, "interpret", f, "--max-qubits", str(max_qubits))
    assert code == 3
    assert "resource cap" in err and "58" in err


# Runs the CLI in a process whose address space may grow only 128 MB past
# its size once zhdd is imported: it runs out of memory fast, on any host.
_SMALL_MEMORY_MAIN = """
import resource, sys
from zhdd.cli import main
size = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (128 << 20), hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("obj, max_qubits", [
    (sqmdd_to_json(generator_state_sqmdd("h", 40)), 40),
    (term_to_json(Gen(ZSpider(0, 36))), 36),
], ids=["h-state-40", "z-spider-36"])
def test_dense_results_beyond_memory_exit_3(write, obj, max_qubits):
    """Within numpy's sizes but beyond memory, interpret exits 3, not 4."""
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm to size the address space")
    f = write("x.json", obj)
    env = {**os.environ, "PYTHONPATH": str(Path(zhdd.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _SMALL_MEMORY_MAIN, "interpret", f, "--max-qubits",
         str(max_qubits)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "resource cap: out of memory" in proc.stderr


def test_empty_identity_bundle_exits_2(write, capsys):
    t = write("t.json", {"kind": "identity", "params": {"n": 0}, "children": []})
    code, _, err = run(capsys, "interpret", t)
    assert code == 2
    assert "Traceback" not in err


_HUGE = 1e300  # |w| / eps overflows a float at the default eps of 1e-9
_ONE_NODE = {"scalar": [1, 0], "height": 1, "root": 1,
             "nodes": [{"id": 1, "h": 1, "w0": [_HUGE, 0], "c0": "t", "w1": [1, 0], "c1": "t"}]}
_BAD_INPUTS = {
    "tolerance-0": (["to-sqmdd", "--tolerance", "0", "z"], 2, "tolerance"),
    "tolerance-nan": (["to-sqmdd", "--tolerance", "nan", "z"], 2, "tolerance"),
    "tolerance-inf": (["to-sqmdd", "--tolerance", "inf", "z"], 2, "tolerance"),
    "max-qubits-negative": (["interpret", "--max-qubits", "-1", "z"], 2, "max qubits"),
    "samples-0": (["verify", "--samples", "0"], 2, "samples"),
    "samples-negative": (["verify", "--samples", "-3"], 2, "samples"),
    "canonical-huge-weight": (["canonical", "vec"], 3, "weight grid"),
    "reduce-huge-weight": (["reduce", "node"], 3, "weight grid"),
    "check-equiv-huge-weight": (["check-equiv", "node", "node"], 3, "weight grid"),
    "to-sqmdd-huge-weight": (["to-sqmdd", "hbox"], 3, "weight grid"),
}


@pytest.mark.parametrize("argv, want, names", list(_BAD_INPUTS.values()), ids=list(_BAD_INPUTS))
def test_out_of_range_settings_and_weights_exit_cleanly(write, capsys, argv, want, names):
    """Settings out of range are malformed input (exit 2); a finite weight
    beyond the weight grid's range is a resource cap (exit 3).  Neither is
    an internal error with a traceback, and the one line on stderr names
    what is out of range."""
    files = {
        "z": write("z.json", term_to_json(Gen(ZSpider(0, 2)))),
        "vec": write("vec.json", [[_HUGE, 0], [1, 0]]),
        "node": write("node.json", _ONE_NODE),
        "hbox": write("hbox.json", term_to_json(Gen(HBox(0, 1, _HUGE)))),
    }
    code, _, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == want
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert names in err


@pytest.mark.parametrize(
    "command", ["interpret", "reduce", "to-zh", "to-sqmdd", "canonical", "check-equiv",
                "export-dot"])
def test_deeply_nested_json_exits_3(capsys, tmp_path, command):
    """A term of 3,000 right-nested seq nodes is nested past the JSON
    parser's recursion limit: a resource cap, not a traceback."""
    seq_open = '{"kind": "seq", "params": {}, "children": ['
    ket0 = '{"kind": "ket0", "params": {}, "children": []}'
    z = '{"kind": "zspider", "params": {"inputs": 1, "outputs": 1}, "children": []}'
    deep = tmp_path / "deep.json"
    deep.write_text(seq_open + ket0 + ", " + (seq_open + z + ", ") * 2999 + z + "]}" * 3000)
    files = [str(deep)] * (2 if command == "check-equiv" else 1)
    code, _, err = run(capsys, command, *files)
    assert code == 3
    assert "resource cap" in err and "Traceback" not in err


def test_output_flag_writes_file(write, capsys, tmp_path, diagram):
    f = write("d.json", sqmdd_to_json(diagram))
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "interpret", f, "-o", str(out_path))
    assert code == 0 and out == ""
    data = json.loads(out_path.read_text())
    assert np.allclose(vector_from_json(data), interpret_sqmdd(diagram))


def test_reduce_writes_compact_json(write, capsys, tmp_path):
    """Results are written as one line of compact JSON."""
    tree = scramble(tree_from_vector(np.arange(16, dtype=complex)), np.random.default_rng(3))
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "reduce", write("tree.json", sqmdd_to_json(tree)), "-o", str(out_path))
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    result, steps = reduce_diagram(tree)
    want = {"result": sqmdd_to_json(renumber(result)), "trace": [s.to_json() for s in steps]}
    assert steps and json.loads(text) == json.loads(json.dumps(want))


# SHA-256 of the input and of the `reduce` output for each (height, kind):
# the output must stay the same byte for byte, trace included.
_PINNED_REDUCE = {
    (4, "full"): ("dd40df590bfa97960b5f78b58f8b60dd17f043221cc2923d6e86561c816bc51f",
                  "a0ab39c3aea1b611e2c9c6bab078f967122a97496282bbbc2af0a552c6255a10"),
    (4, "sparse"): ("df7daa19c8e356d7c29fc7fd9822d24707ff3aace2aa96c2e123b07b928a5a0a",
                    "56599e72e6796efc34461db72540442e23f4ceb6f130cc78b1e264da81b462b5"),
    (6, "full"): ("087c1d4d919399321922f10ab16a4e726eb60f9e8b201b07f44e68f03423f4fd",
                  "6625e683e6458f085c44f65f34f02a5c5fa1bdd43ece20e54d947adde7cc56d0"),
    (6, "sparse"): ("056d5f6d32e634ac9ca2126fe330235a9f08033934856a8251986ac91bb317c9",
                    "40fed3ac8cd2c880f5f03bcbbfa30b7aceeacb35b501ea091726abcea2f89eba"),
    (8, "full"): ("0979a41cc22d4b7cf952067b1f81253d6967a0756643c8f00753ccd5b0579829",
                  "5e6409f901cd714aadb5d193a5ed08246bd61813ece1bf1b2e251089b80c253b"),
    (8, "sparse"): ("5224b4e254d609ba7263f9c6e045ac0533623b329576712bd011a884fd8d6092",
                    "299f1f61267ce0302f7bc34caff8a0375f9adcb595f965cfbd3e4ccebd1272e4"),
}


@pytest.mark.parametrize("height, kind", sorted(_PINNED_REDUCE))
def test_reduce_output_bytes_are_pinned(tmp_path, height, kind):
    """A seeded scrambled tree, with under half ("full") or at least half
    ("sparse") of its entries zero, reduces to the pinned bytes."""
    rng = np.random.default_rng([height, kind == "sparse"])
    while True:
        v = random_vector(rng, height)
        zeros = int(np.count_nonzero(v == 0))
        if (zeros < v.size // 2) == (kind == "full") and zeros < v.size - 1:
            break
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(sqmdd_to_json(scramble(tree_from_vector(v), rng))))
    assert main(["reduce", str(src), "-o", str(out)]) == 0
    want_in, want_out = _PINNED_REDUCE[height, kind]
    assert hashlib.sha256(src.read_bytes()).hexdigest() == want_in, "the input drifted"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want_out


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """Only commands that draw random numbers may pay for numpy.random."""
    env = {**os.environ, "PYTHONPATH": str(Path(zhdd.__file__).parents[1])}
    code = "import sys, zhdd.cli; sys.exit('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


def test_internal_error_exits_4(write, capsys, monkeypatch, diagram):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_export_dot", boom)
    f = write("d.json", sqmdd_to_json(diagram))
    code, _, err = run(capsys, "export-dot", f)
    assert code == 4
    assert "internal error: RuntimeError: boom" in err


def test_internal_key_error_exits_4(write, capsys, monkeypatch, diagram):
    """A KeyError inside a command is a bug, not malformed input."""
    def boom(args):
        raise KeyError("slot")

    monkeypatch.setattr(cli, "_cmd_export_dot", boom)
    code, _, err = run(capsys, "export-dot", write("d.json", sqmdd_to_json(diagram)))
    assert code == 4
    assert "internal error: KeyError" in err


def test_deep_chain_reduce_and_export_dot(write, capsys):
    """A chain far deeper than the interpreter's recursion limit."""
    bld = Builder()
    e = (1.0 + 0j, TERMINAL)
    for h in range(1, 3001):
        e = bld.edge(h, e, (0.5 + 0j, TERMINAL))
    f = write("chain.json", sqmdd_to_json(bld.finish(e, 3000)))
    code, out, _ = run(capsys, "reduce", f)
    assert code == 0
    assert json.loads(out)["trace"] == []
    code, out, _ = run(capsys, "export-dot", f)
    assert code == 0
    assert out.count("shape=circle") == 3000


@pytest.mark.parametrize("kind, legs", [("z", 16), ("h", 32)])
def test_to_zh_on_deep_emissions(write, capsys, kind, legs):
    """The emitted chain has one level per row (20,648 generators for the Z
    state of 16 legs); its JSON stays shallow and reads back exactly."""
    d = generator_state_sqmdd(kind, legs)
    code, out, _ = run(capsys, "to-zh", write("d.json", sqmdd_to_json(d)))
    assert code == 0
    obj = json.loads(out)
    assert iso_equal(sqmdd_read_back(term_from_json(obj)), d)
    deepest, todo = 0, [(obj, 1)]
    while todo:
        node, depth = todo.pop()
        deepest = max(deepest, depth)
        todo.extend((c, depth + 1) for c in node["children"])
    assert deepest <= 8


@pytest.mark.parametrize("shape, height", [("z", 3_000), ("terminal-only", 20_000)])
def test_to_zh_on_deep_diagrams(write, capsys, shape, height):
    """Emission is linear in nodes plus height, so to-zh finishes on a
    3,000-level Z chain and a 20,000-level diagram with no nodes, and each
    output reads back to its input."""
    if shape == "z":
        d = generator_state_sqmdd("z", height)
    else:
        d = Sqmdd(1 + 0j, height, TERMINAL, {})
    code, out, _ = run(capsys, "to-zh", write("d.json", sqmdd_to_json(d)))
    assert code == 0
    assert iso_equal(sqmdd_read_back(term_from_json(json.loads(out))), d)


def test_deep_round_trip_at_default_settings(write, capsys):
    """The dense wire cap does not apply to the decision-diagram path."""
    d = generator_state_sqmdd("z", 20)
    f = write("d.json", sqmdd_to_json(d))
    code, out, _ = run(capsys, "to-zh", f)
    assert code == 0
    t = write("t.json", json.loads(out))
    code, out, _ = run(capsys, "to-sqmdd", t)
    assert code == 0
    assert iso_equal(sqmdd_from_json(json.loads(out)), d)
    assert run(capsys, "check-equiv", "--up-to-scalar", f, t)[0] == 0


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_interleaved_calls_match_calls_run_alone(write, capsys):
    """Option values never leak from one call into the next through the
    shared parser: each pair differs only in an option, and the outputs
    of the two calls differ."""
    v = np.array([1, 2j, 0, 3], dtype=complex)
    a = write("a.json", vector_to_json(v))
    b = write("b.json", vector_to_json((2 - 1j) * v))
    close = write("close.json", vector_to_json(np.array([1, 1 + 1e-7], dtype=complex)))
    pairs = [
        (["check-equiv", "--up-to-scalar", a, b], ["check-equiv", a, b]),
        (["canonical", "--tolerance", "1e-6", close], ["canonical", close]),
    ]
    for first, second in pairs:
        alone = []
        for argv in (first, second):
            cli.build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        assert alone[0] != alone[1]
        for argv, want in [(first, alone[0]), (second, alone[1])] * 2:
            assert run(capsys, *argv) == want


_COMMANDS = ("interpret", "reduce", "to-zh", "to-sqmdd", "canonical", "check-equiv",
             "verify", "export-dot")
_OFFERED = {
    "--tolerance": {"reduce", "to-sqmdd", "canonical", "check-equiv", "verify"},
    "--max-qubits": {"interpret", "to-sqmdd", "check-equiv", "verify"},
    "--assert-stages": {"to-sqmdd", "check-equiv"},
    "--fan-in": set(),  # no command offers it: emission has one fan-in
}
_OPTION_VALUE = {"--tolerance": ["1e-6"], "--max-qubits": ["20"], "--assert-stages": [],
                 "--fan-in": ["x"]}


@pytest.mark.parametrize("option", list(_OFFERED))
@pytest.mark.parametrize("command", _COMMANDS)
def test_option_is_only_offered_where_it_is_read(command, option):
    """Each command parses exactly the shared options its code reads; any
    other one is a usage error (argparse exits 2)."""
    files = {"verify": [], "check-equiv": ["a.json", "b.json"]}.get(command, ["x.json"])
    argv = [command, *files, option, *_OPTION_VALUE[option]]
    if command in _OFFERED[option]:
        cli.build_parser().parse_args(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2


def test_to_sqmdd_assert_stages_writes_the_same_bytes(write, capsys, tmp_path, diagram):
    f = write("t.json", term_to_json(sqmdd_to_zh(diagram)))
    plain, checked = tmp_path / "plain.json", tmp_path / "checked.json"
    assert run(capsys, "to-sqmdd", f, "-o", str(plain))[0] == 0
    assert run(capsys, "to-sqmdd", f, "--assert-stages", "-o", str(checked))[0] == 0
    assert checked.read_bytes() == plain.read_bytes()


def test_check_equiv_output_flag_writes_the_verdict(write, capsys, tmp_path, diagram):
    f = write("d.json", sqmdd_to_json(diagram))
    out_path = tmp_path / "verdict.txt"
    code, out, _ = run(capsys, "check-equiv", f, f, "-o", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == "EQUIVALENT\n"
