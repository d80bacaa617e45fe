import math
import types

import pytest

from moyalbench import phase, verify
from moyalbench.backend import Q
from moyalbench.exppoly import exp_integral
from moyalbench.quadrature import _simpson_doublings
from moyalbench.uncertainty import quantum_moments
from moyalbench.verify import FAIL, run_suite


def _stable(result):
    return result._replace(elapsed=0.0)


@pytest.fixture(scope="module")
def baseline():
    report = run_suite("all", seed=0)
    assert report.exit_code == 0
    return report


@pytest.mark.parametrize("name, args", [
    ("laguerre-orthonormality-15", ()),
    ("star-associativity+equivalence-100x3", (7,)),
], ids=["unseeded", "seeded"])
def test_crashing_check_is_reported_as_failure(monkeypatch, baseline, name, args):
    calls = []

    def crash(*got):
        calls.append(got)
        raise AssertionError("planted crash")

    planted = list(verify.CHECKS)
    index = [entry[0] for entry in planted].index(name)
    _, suite, _, takes_seed = planted[index]
    planted[index] = (name, suite, crash, takes_seed)
    monkeypatch.setattr(verify, "CHECKS", tuple(planted))

    # no other check reads the seed, so they match the seed-0 baseline
    report = run_suite("all", seed=7)
    assert calls == [args]
    assert len(report.results) == 24
    assert report.exit_code == 1
    (failed,) = report.failures
    assert failed is report.results[index]
    assert failed.name == name
    assert failed.suite == "exact"
    assert failed.status == FAIL
    assert failed.detail == "AssertionError: planted crash"
    assert failed.tolerance is None
    assert failed.elapsed > 0.0
    others = [_stable(r) for k, r in enumerate(report.results) if k != index]
    expected = [_stable(r) for k, r in enumerate(baseline.results) if k != index]
    assert others == expected


def _wrong_quantum_variance(k, lam):
    mean, second, variance = quantum_moments(k, lam)
    return mean, second, variance + 1


@pytest.mark.parametrize("target, fault, name", [
    ("moyalbench.laguerre.exp_integral", lambda f: exp_integral(f) + 1,
     "laguerre-moment-table-20x20"),
    ("moyalbench.uncertainty.quantum_moments", _wrong_quantum_variance,
     "quantum-weights-moments-50"),
], ids=["moment-integral", "quantum-variance"])
def test_a_planted_wrong_value_is_a_false_verdict(monkeypatch, target, fault, name):
    # the library computes the value once and the catalog check compares it,
    # so the fault reads as the check's own False, not as a caught exception
    monkeypatch.setattr(target, fault)
    report = run_suite("exact")
    (failed,) = report.failures
    assert (failed.name, failed.status, failed.detail) == (name, FAIL, "")


def test_navot_constants_match_mpmath():
    # the check writes them as literals so that verify never loads mpmath
    import mpmath

    for j, (zeta, g) in enumerate(zip(verify._NAVOT_ZETA, verify._NAVOT_G)):
        assert abs(zeta - float(mpmath.zeta(-j - 0.5))) < 1e-15
        assert abs(g - mpmath.diff(lambda z: (1 - z) * mpmath.exp(-z), 0, j)) < 1e-12


def _perturbed_4096(factor):
    """The Simpson estimates, with the 4096-panel one scaled by `factor`."""
    def doublings(f, T):
        for n, s in _simpson_doublings(f, T):
            yield n, s * factor if n == 4096 else s
    return doublings


@pytest.mark.parametrize("name, value", [
    ("_NAVOT_ZETA", (0.207886224977355,) + verify._NAVOT_ZETA[1:]),
    ("_NAVOT_G", (1.0, 2.0) + verify._NAVOT_G[2:]),
    ("_simpson_doublings", _perturbed_4096(1 + 1e-9)),
    ("_simpson_doublings", _perturbed_4096(1 - 1e-9)),
], ids=["zeta-sign", "g-prime-sign", "estimate-up-1e-9", "estimate-down-1e-9"])
def test_a_planted_navot_fault_fails_the_gamma_check(monkeypatch, name, value):
    monkeypatch.setattr(verify, name, value)
    report = run_suite("numeric")
    (failed,) = report.failures
    assert (failed.name, failed.status) == ("gamma-moment-quadrature", FAIL)


STAR_CHECK = "star-associativity+equivalence-100x3"


def _flip_row_2_0(rows):
    """phase._rows with the sign of f's (r, s) = (2, 0) row flipped: the
    kernel weight (1-lam)^2 of every star product negated."""
    def flipped(terms, r_max, s_max, I, J, left, top):
        out = rows(terms, r_max, s_max, I, J, left, top)
        if left and r_max >= 2:
            out[2][0] = [(k, -re, -im) for k, re, im in out[2][0]]
        return out
    return flipped


def _star_at_one_eighth(star):
    """phase.star with q doubled at lam = 1/4, so it computes *_(1/8)."""
    def faulty(f, g, lam):
        if lam == Q(1, 4):
            return phase._star(f, g, 1, 8)
        return star(f, g, lam)
    return faulty


def _plant(monkeypatch, fault):
    if fault == "kernel-weight-sign":
        monkeypatch.setattr(phase, "_rows", _flip_row_2_0(phase._rows))
    elif fault == "equivalence-factorial":
        wrong = types.SimpleNamespace(**vars(math))
        wrong.factorial = lambda m: math.factorial(m) + (m == 2)  # 2! read as 3
        monkeypatch.setattr(phase, "math", wrong)
    else:
        faulty = _star_at_one_eighth(phase.star)
        monkeypatch.setattr(phase, "star", faulty)
        monkeypatch.setattr(verify, "star", faulty)


@pytest.mark.parametrize("fault", ["kernel-weight-sign", "equivalence-factorial",
                                   "star-q-scaling"])
def test_a_planted_star_fault_fails_the_star_check(monkeypatch, fault):
    _plant(monkeypatch, fault)
    report = run_suite("exact")
    (result,) = [r for r in report.results if r.name == STAR_CHECK]
    # the check's own False, not a caught exception
    assert (result.status, result.detail) == (FAIL, "")


def test_only_the_link_sees_a_q_scaling_fault(monkeypatch):
    # the fault is real, but [a, abar] = hbar holds at every lam and the
    # identities at L = X never call star: the check fails through its link
    _plant(monkeypatch, "star-q-scaling")
    a, ab = phase.PhasePoly.a(), phase.PhasePoly.abar()
    assert phase.star(a, ab, Q(1, 4)) != phase._star(a, ab, 1, 4)
    assert phase.star_commutator(a, ab, Q(1, 4)) == phase.PhasePoly.hbar()


def test_verify_json_matches_the_golden_file(capsys):
    # every verdict and detail string of seed 0, byte for byte; regenerate
    # the file only together with a deliberate change of a check
    from pathlib import Path

    from moyalbench.cli import main

    golden = Path(__file__).parent / "data" / "verify_all_seed0.json"
    code = main(["verify", "--suite", "all", "--format", "json", "--seed", "0"])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()
