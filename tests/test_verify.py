from dataclasses import replace

from moyalbench import verify
from moyalbench.verify import FAIL, run_suite


def _stable(result):
    return replace(result, elapsed=0.0)


def test_crashing_check_is_reported_as_failure(monkeypatch):
    baseline = run_suite("all", seed=0)
    assert baseline.exit_code == 0

    def check_orthonormality():
        raise AssertionError("planted crash")

    planted = list(verify._EXACT_CHECKS)
    index = planted.index(verify.check_orthonormality)
    planted[index] = check_orthonormality
    monkeypatch.setattr(verify, "_EXACT_CHECKS", planted)

    report = run_suite("all", seed=0)
    assert len(report.results) == 24
    assert report.exit_code == 1
    (failed,) = report.failures
    assert failed is report.results[index]
    assert failed.name == "check_orthonormality"
    assert failed.suite == "exact"
    assert failed.status == FAIL
    assert failed.detail == "AssertionError: planted crash"
    assert failed.elapsed > 0.0
    others = [_stable(r) for k, r in enumerate(report.results) if k != index]
    expected = [_stable(r) for k, r in enumerate(baseline.results) if k != index]
    assert others == expected

