"""The randomized audit script's own verdicts."""
import importlib.util
import time
from pathlib import Path

import numpy as np

from zhdd.config import Settings


def _audit():
    path = Path(__file__).resolve().parents[1] / "scripts" / "randomized_audit.py"
    spec = importlib.util.spec_from_file_location("randomized_audit", path)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    return audit


def test_audit_reads_a_nan_as_a_failure():
    """``scripts/randomized_audit.py`` keeps a NaN deviation through its
    running maximum and fails it, where ``max(0.0, nan)`` read 0.0."""
    audit = _audit()
    nan = float("nan")
    assert np.isnan(audit.worst_of(0.0, nan)) and np.isnan(audit.worst_of(nan, 1.0))
    assert audit.verdict(1e-12, 1e-9)[1] and not audit.verdict(nan, 1e-9)[1]
    assert not audit.verdict(float("inf"), 1e-9)[1]


def test_cli_fuzz_finds_each_fault_class(monkeypatch):
    """cli-fuzz counts a job as a finding on exit 4, on an escaped
    exception, past its time limit, and on exit 1 from any command but
    check-equiv; exits 0, 2 and 3 and check-equiv's exit 1 are verdicts."""
    audit = _audit()
    monkeypatch.setattr(audit, "FUZZ_SECONDS_PER_JOB", 0.05)
    outcomes = {"interpret": 4, "reduce": 1, "to-zh": "timeout", "to-sqmdd": "raise",
                "export-dot": 3, "canonical": 2, "check-equiv": 1}
    calls = []

    def fake_main(argv):
        calls.append(argv[0])
        out = outcomes[argv[0]]
        if out == "timeout":
            time.sleep(5)
        if out == "raise":
            raise KeyError("escaped")
        return out

    monkeypatch.setattr(audit.cli, "main", fake_main)
    findings = audit.audit_cli_fuzz(np.random.default_rng(0), 1, 3, Settings())
    faulty = {"interpret", "reduce", "to-zh", "to-sqmdd"}
    assert len(calls) > audit.FUZZ_MUTANTS_PER_TRIAL
    assert findings == sum(c in faulty for c in calls) > 0
    assert set(calls) == set(outcomes)
