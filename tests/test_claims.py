import numpy as np
import pytest

from zhdd.claims import Claim, ClaimResult, builtin_suite, run_suite, verify_claim
from zhdd.terms import Gen, HBox, ZSpider


@pytest.fixture(scope="module")
def results():
    return run_suite()


def test_suite_shape():
    suite = builtin_suite()
    names = [c.name for c in suite]
    assert len(names) == len(set(names)), "claim names must be unique"
    assert "snake" in names
    assert "scalar-product" in names
    active = [c for c in suite if c.skip_reason is None and not c.expect_fail]
    assert len(active) >= 25


def test_every_active_claim_passes(results):
    bad = [r for r in results if not r.ok]
    assert not bad, [(r.name, r.note) for r in bad]


def test_skips_carry_reasons(results):
    skipped = [r for r in results if r.status == "skipped"]
    assert skipped, "the suite documents its figure-only gaps"
    assert all(r.note for r in skipped)


def test_negative_controls_deviate(results):
    controls = [r for r in results if r.origin == "negative control"]
    assert len(controls) >= 2
    for r in controls:
        assert r.max_deviation > 1e-6, f"{r.name} failed to deviate"
        assert r.ok  # expected failure counts as a pass for the runner


def test_expect_fail_inverts():
    honest = Claim(
        "tautology", "test",
        lambda rng: [(Gen(ZSpider(1, 1)), Gen(ZSpider(1, 1)))],
        samples=1, expect_fail=True,
    )
    r = verify_claim(honest)
    assert r.status == "fail" and "failed to deviate" in r.note


def test_malformed_claim_reports_not_raises():
    broken = Claim(
        "arity-clash", "test",
        lambda rng: [(Gen(ZSpider(0, 1)), Gen(ZSpider(0, 2)))],
        samples=1,
    )
    r = verify_claim(broken)
    assert r.status == "fail"
    assert "ShapeError" in r.note


def test_sample_override_and_filter():
    rows = run_suite(name_filter="gadget", samples=2)
    assert rows and all("gadget" in r.name for r in rows)
    checked = [r for r in rows if r.status == "pass" and r.samples]
    assert checked


def test_fixed_claims_run_once():
    """A claim whose cases do not depend on the RNG is not re-sampled."""
    snake = next(c for c in builtin_suite() if c.name == "snake")
    assert verify_claim(snake, samples=20).samples == len(snake.build) == 2


def test_results_serialize():
    r = ClaimResult("x", "y", 3, 0.0, "pass")
    obj = r.to_json()
    assert obj["name"] == "x" and obj["status"] == "pass"


def test_deterministic_given_seed():
    a = [r.to_json() for r in run_suite(seed=99)]
    b = [r.to_json() for r in run_suite(seed=99)]
    assert a == b


def test_a_nan_deviation_fails_the_claim():
    """``max(0.0, nan)`` is 0.0, so a NaN side must not be folded in by
    ``max``: it fails a claim, and a negative control too."""
    case = [(Gen(HBox(0, 0, 1)), np.array([[np.nan]]))]
    assert verify_claim(Claim("nan", "test", build=case)).status == "fail"
    control = Claim("nan-control", "test", build=case, expect_fail=True)
    assert verify_claim(control).status == "fail"
