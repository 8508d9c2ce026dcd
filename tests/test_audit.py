"""The randomized audit script's own verdicts."""
import importlib.util
from pathlib import Path

import numpy as np


def test_audit_reads_a_nan_as_a_failure():
    """``scripts/randomized_audit.py`` keeps a NaN deviation through its
    running maximum and fails it, where ``max(0.0, nan)`` read 0.0."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "randomized_audit.py"
    spec = importlib.util.spec_from_file_location("randomized_audit", path)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    nan = float("nan")
    assert np.isnan(audit.worst_of(0.0, nan)) and np.isnan(audit.worst_of(nan, 1.0))
    assert audit.verdict(1e-12, 1e-9)[1] and not audit.verdict(nan, 1e-9)[1]
    assert not audit.verdict(float("inf"), 1e-9)[1]
