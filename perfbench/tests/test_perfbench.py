"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction as F
from random import Random

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Record  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_times_subtract_covered_child_time():
    spans = [
        ["op", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 2.0, 3.0, 1, 1],
        ["a", 5.0, 9.0, 0, 1],
        ["c", 6.0, 8.0, 3, 1],
        ["c", 7.0, 8.5, 3, 1],  # overlaps its sibling: covered once
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"op": 3.0, "a": 2.0 + 1.5, "b": 1.0, "c": 2.0 + 1.5})


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_tracer_self_time_of_nested_wrapped_calls():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    wleaf = tr.wrap("poly.leaf", leaf)

    def mid():
        clock.t += 1.0
        wleaf()
        wleaf()
        clock.t += 0.5

    wmid = tr.wrap("phase.mid", mid)
    with tr.op("one", 0) as span:
        clock.t += 0.25
        wmid()
    assert tr.busy["poly.leaf"] == pytest.approx(4.0)
    assert tr.busy["phase.mid"] == pytest.approx(1.5)
    assert tr.calls["poly.leaf"] == 2
    assert span.seconds == pytest.approx(5.75)
    assert span.layer_seconds == pytest.approx(5.5)
    assert tracing.self_times(tr.spans) == pytest.approx(
        {"op:one": 0.25, "phase.mid": 1.5, "poly.leaf": 4.0})


def test_tracer_counts_errors_and_keeps_the_stack_balanced():
    tr = tracing.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    wboom = tr.wrap("exppoly.boom", boom)
    with pytest.raises(ValueError):
        wboom()
    assert tr.errors["exppoly.boom"] == 1
    assert tr._stack == []


# -- percentiles --------------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    p50, p90, beyond = metrics.percentiles(range(1, 101))
    assert p50 == 50.5
    assert p90 == pytest.approx(90.9)
    assert beyond == 10
    _, p90, beyond = metrics.percentiles(range(1, 51))
    assert p90 is None and beyond == 5


def test_spread_is_interquartile_distance_over_median():
    assert metrics.spread([10.0] * 5) == 0.0
    assert metrics.spread([1.0]) is None
    assert metrics.spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# -- wrapper install and restore ------------------------------------------------

def test_install_rebinds_imported_names_and_uninstall_restores_them():
    import importlib

    poly = importlib.import_module("moyalbench.poly")
    root = importlib.import_module("moyalbench.rootisolate")
    phase = importlib.import_module("moyalbench.phase")
    orig_divmod, orig_mul = poly.divmod_poly, poly.Poly.__mul__
    tracing.assert_no_wrappers()
    tr = tracing.Tracer(after=metrics.AFTER)
    tr.install()
    try:
        assert root.divmod_poly is not orig_divmod  # imported name, rebound
        assert poly.Poly.__mul__ is not orig_mul
        p = poly.Poly([F(-2), F(0), F(1)])
        assert root.count_roots(p, F(0), F(2)) == 1
        f = phase.random_phase_poly(Random(3), 3)
        phase.star(f, f, F(1, 3))
    finally:
        tr.uninstall()
    assert poly.divmod_poly is orig_divmod and root.divmod_poly is orig_divmod
    assert poly.Poly.__mul__ is orig_mul
    tr.assert_restored()
    tracing.assert_no_wrappers()
    assert tr.calls["poly.divmod_poly"] > 0
    assert tr.calls["rootisolate.count_roots"] == 1
    assert tr.counters["phase.star.term_pairs"] > 0


def test_assert_no_wrappers_catches_a_leftover():
    import importlib

    spec = importlib.import_module("moyalbench.spectral")
    tr = tracing.Tracer()
    orig = spec.spectrum
    spec.spectrum = tr.wrap("spectral.spectrum", orig)
    try:
        with pytest.raises(AssertionError):
            tracing.assert_no_wrappers()
    finally:
        spec.spectrum = orig


def test_term_pairs_match_the_naive_product():
    from moyalbench import phase

    rng = Random(7)
    for lam in (F(0), F(1, 2), F(5, 37)):
        f = phase.random_phase_poly(rng, 4, gauss=True)
        g = phase.random_phase_poly(rng, 3)
        want = 0
        for r in range(f.deg_a + 1):
            for s in range(f.deg_abar + 1):
                if lam == 0 and s:
                    continue
                fd, gd = f, g
                for _ in range(r):
                    fd, gd = fd.diff_a(), gd.diff_abar()
                for _ in range(s):
                    fd, gd = fd.diff_abar(), gd.diff_a()
                want += len(fd.terms) * len(gd.terms)
        tr = tracing.Tracer()
        metrics._star_term_pairs(tr, (f, g, lam), {}, None)
        assert tr.counters["phase.star.term_pairs"] == want


# -- oracles reject planted wrong outputs ------------------------------------------

def test_verify_oracle_rejects_a_wrong_verdict():
    w = workloads.Verify(0)
    assert w.check(Record("c", 0.1, ("exact", "exact-pass"))) is None
    assert w.check(Record("c", 0.1, ("errata", "documented-erratum"))) is None
    assert w.check(Record("c", 0.1, ("exact", "fail")))
    assert w.check(Record("c", 0.1, ("errata", "fail")))
    assert w.check(Record("c", 0.1, ("numeric", "exact-pass")))
    assert w.check(Record("c", 0.1, None, "AssertionError: boom"))


def test_verify_pass_survives_an_exception_from_run_suite(monkeypatch):
    import importlib

    v = importlib.import_module("moyalbench.verify")

    def broken(suite="all", seed=0):
        raise AssertionError("internal")

    monkeypatch.setattr(v, "run_suite", broken)
    recs = workloads.Verify(0).run_pass(0)
    assert len(recs) == 24
    assert all(r.error == "AssertionError: internal" for r in recs)


def test_star_oracle_rejects_false():
    w = workloads.StarScale(0)
    assert w.check(Record("assoc", 0.1, True)) is None
    assert w.check(Record("assoc", 0.1, False))


def test_sign_oracles_reject_planted_witnesses_and_brackets():
    w = workloads.SignDecide(0)
    from moyalbench import spectral

    n, lam = 8, F(1, 4)
    good = spectral.projector_negative_witness(n, lam)
    args = ("witness", n, lam)
    assert w.check(Record("w", 0.1, good, check_args=args)) is None
    assert w.check(Record("w", 0.1, F(0), check_args=args))  # not positive
    assert w.check(Record("w", 0.1, F(1, 1000), check_args=args))  # pi_8 > 0 there

    l1, l2 = F(1, 4), F(1, 3)
    form = (spectral.projector_closed(1, l1).form
            - spectral.projector_closed(1, l2).form)
    verdict = form.nonneg_on_nonneg()
    args = ("nonneg", 1, l1, l2)
    assert w.check(Record("n", 0.1, verdict, check_args=args)) is None
    assert w.check(Record("n", 0.1, (True, None), check_args=args))
    assert w.check(Record("n", 0.1, (False, F(1000)), check_args=args))

    bracket = workloads.bisect_sign_change(form, 40)
    args = ("bisect", 1, l1, l2)
    saved = workloads.BISECT_BITS
    workloads.BISECT_BITS = 40
    try:
        assert w.check(Record("b", 0.1, bracket, check_args=args)) is None
        a, b, sa, sb = bracket
        assert w.check(Record("b", 0.1, (a, b, sb, sa), check_args=args))
        assert w.check(Record("b", 0.1, (a - 1, b, sa, sb), check_args=args))
    finally:
        workloads.BISECT_BITS = saved


def _cli(cmd):
    import contextlib
    import io

    from moyalbench import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(cmd["argv"])
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("index", range(12))
def test_cli_oracle_accepts_in_range_commands(index):
    cmd = dict(workloads.cli_commands(5, 0)[index])
    if cmd["kind"] == "pi":
        cmd["n"] = min(cmd["n"], 30)
    if "mu" in cmd:
        cmd["mu"] = F(7, 2)
    cmd["argv"] = workloads.cli_argv(cmd)
    code, out = _cli(cmd)
    assert oracles.check_cli_output(cmd, out, code) is None


def test_cli_oracle_rejects_planted_wrong_outputs():
    fund = {"kind": "fund", "k_max": 3, "n_max": 3}
    fund["argv"] = workloads.cli_argv(fund)
    code, out = _cli(fund)
    assert oracles.check_cli_output(fund, out, code) is None
    assert oracles.check_cli_output(fund, out.replace(b"-18", b"-17"), code)
    assert oracles.check_cli_output(fund, out, 1)

    pi = {"kind": "pi", "lambda": F(1, 4), "n": 2, "mu": F(3)}
    pi["argv"] = workloads.cli_argv(pi)
    code, out = _cli(pi)
    assert oracles.check_cli_output(pi, out, code) is None
    value = out.decode().splitlines()[-1].split(",")[1]
    assert oracles.check_cli_output(pi, out.replace(value.encode(), b"0"), code)
    bumped = value[:-1] + str((int(value[-1]) + 3) % 10)
    assert oracles.check_cli_output(pi, out.replace(value.encode(), bumped.encode()), code)

    sx = {"kind": "starexp", "lambda": F(1, 4), "mu": F(2), "t": "1.00", "terms": 120}
    sx["argv"] = workloads.cli_argv(sx)
    code, out = _cli(sx)
    assert oracles.check_cli_output(sx, out, code) is None
    lines = out.decode().splitlines()
    lines[4] = "closed,nan+nanj"
    assert oracles.check_cli_output(sx, "\n".join(lines).encode(), code)


def test_cli_oracle_flags_a_known_float_boundary_case():
    cmd = {"kind": "pi", "lambda": F(1, 4), "n": 40, "mu": F(600)}
    cmd["argv"] = workloads.cli_argv(cmd)
    code, out = _cli(cmd)
    assert "value_at_mu = 0" in oracles.check_cli_output(cmd, out, code)


def test_cli_check_rejects_bytes_that_differ_between_passes():
    w = workloads.CliCold(1, ROOT)
    cmd = {"kind": "duality", "lambda": F(1, 3), "n_max": 2}
    cmd["argv"] = workloads.cli_argv(cmd)
    code, out = _cli(cmd)
    first = Record("d", 0.1, (code, out, b""), None, 0, 0, cmd)
    second = Record("d", 0.1, (code, out + b"\n", b""), None, 1, 0, cmd)
    assert w.check(first) is None
    assert "differ between two passes" in w.check(second)


# -- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert len(spec["per_layer"]) <= 128


def test_compare_verdicts():
    import compare

    assert compare.verdict([10, 10.2, 9.9, 10.1], [8, 8.1, 7.9, 8.2], "lower", 0.1)[1] == "better"
    assert compare.verdict([10, 10.2, 9.9, 10.1], [12, 12.1, 12.3, 11.9], "lower", 0.1)[1] == "worse"
    assert compare.verdict([10, 10.2, 9.9, 10.1], [10.3, 9.8, 10.1, 10.0], "lower", 0.1)[1] == "same"
    assert compare.verdict([10, 14, 7, 12], [10.3, 9.8, 10.1, 10.0], "higher", 0.1)[1] == "unresolved"
    assert compare.verdict([10], [10.5], "lower", 0.1)[1] == "unresolved"
