"""State-form decision diagrams and ZH diagrams, with exact translation
both ways, a canonical reduction system, and a dense semantic oracle.

The three layers:

* :mod:`zhdd.terms` / :mod:`zhdd.oracle` — syntax trees of ZH generators
  and their dense matrix semantics;
* :mod:`zhdd.sqmdd` / :mod:`zhdd.reduction` / :mod:`zhdd.algebra` — the
  decision-diagram side: weighted DAGs, the seven-rule rewrite system
  (``zero`` and r1-r6) that makes them canonical, and vector-level
  operations on them;
* :mod:`zhdd.translate` — the bridge, faithful in both directions.

Everything numeric funnels through :class:`zhdd.config.Settings`.
"""
from .algebra import (
    add,
    canonical_from_vector,
    permute_outputs,
    plug_bra_plus,
    restrict,
    scale,
    swap_adjacent_levels,
    tensor,
    z_merge_outputs,
)
from .claims import Claim, ClaimResult, builtin_suite, run_suite, verify_claim
from .config import DEFAULT, Settings
from .duality import from_state_form, to_state_form
from .errors import ResourceLimitError, ShapeError
from .oracle import interpret_sqmdd, interpret_zh, max_deviation
from .reduction import (
    Step,
    apply_step,
    find_candidates,
    is_irreducible,
    reduce_diagram,
)
from .sqmdd import (
    Node,
    Sqmdd,
    iso_equal,
    measure,
    renumber,
    sqmdd_from_json,
    sqmdd_to_dot,
    sqmdd_to_json,
    terminal_only,
    validate,
    zero_form,
)
from .sugar import expand_sugar
from .terms import (
    BraPlus,
    Cap,
    Cup,
    Gadget,
    Gen,
    HBox,
    Identity,
    KetOne,
    KetPlus,
    KetZero,
    MonoidN,
    NotXSpider,
    ParNode,
    SeqNode,
    Swap,
    WeightBox,
    XSpider,
    ZhTerm,
    ZSpider,
    par,
    permutation_term,
    seq,
    term_from_json,
    term_to_json,
    wires,
)
from .translate import sqmdd_to_zh, zh_to_sqmdd

__version__ = "0.1.0"

__all__ = [
    "add", "canonical_from_vector", "permute_outputs", "plug_bra_plus",
    "restrict", "scale", "swap_adjacent_levels", "tensor", "z_merge_outputs",
    "Claim", "ClaimResult", "builtin_suite", "run_suite", "verify_claim",
    "DEFAULT", "Settings",
    "from_state_form", "to_state_form",
    "ResourceLimitError", "ShapeError",
    "interpret_sqmdd", "interpret_zh", "max_deviation",
    "Step", "apply_step", "find_candidates", "is_irreducible", "measure",
    "reduce_diagram",
    "Node", "Sqmdd", "iso_equal", "renumber", "sqmdd_from_json",
    "sqmdd_to_dot", "sqmdd_to_json", "terminal_only", "validate", "zero_form",
    "expand_sugar",
    "BraPlus", "Cap", "Cup", "Gadget", "Gen", "HBox", "Identity", "KetOne",
    "KetPlus", "KetZero", "MonoidN", "NotXSpider", "ParNode", "SeqNode",
    "Swap", "WeightBox", "XSpider", "ZhTerm", "ZSpider",
    "par", "permutation_term", "seq", "term_from_json", "term_to_json",
    "wires",
    "sqmdd_to_zh", "zh_to_sqmdd",
    "__version__",
]
