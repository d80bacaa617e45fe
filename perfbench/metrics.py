"""Metric names, units, the counting hooks, and the statistics rules.

The names here are the ones ``BENCHMARK.json`` lists; a test keeps the two
in step.
"""

from __future__ import annotations

import re
import statistics

from tracing import LAYERS

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms.p50": ("ms", "lower"),
    "op_ms.p90": ("ms", "lower"),
    "verdict_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# The catalog's checks, in run_suite order; verify.check_s.<name> per check.
CHECK_NAMES = (
    "laguerre-moment-table-20x20", "mixed-orthogonality-15",
    "projector-series-identity-(12,12)+scalar", "laguerre-orthonormality-15",
    "signed-binomial-self-inverse-64+monomials", "laguerre-generating-function-8",
    "projector-duality-12", "projector-normalization+eigen",
    "radial-reduction-vs-phase-product", "quantum-weights-moments-50",
    "fourier-laguerre-binomial-10", "basis-inversion-16+pure-state-recovery",
    "projector-negativity-witnesses", "selection-scan-den64-k1000 (630 lambdas)",
    "star-associativity+equivalence-100x3", "partition-of-unity-lam-1/4",
    "star-exponential-closed-vs-series", "projector-series-vs-closed-K60",
    "energy-identity-weighted-sum", "gamma-moment-quadrature",
    "gm-uncertainty-gap-asymptotics", "starexp-doubled-coefficient-display",
    "gm-starexp-sign-convention", "radial-evolution-equation-missing-factor",
)


def check_metric(name: str) -> str:
    return "verify.check_s." + re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


# Function groups reported on their own: group -> traced function keys.
GROUPS = {
    "phase.star": ["phase.star"],
    "phase.equivalence_map": ["phase.apply_equivalence_map"],
    "poly.mul": ["poly.Poly.__mul__"],
    "poly.divmod": ["poly.divmod_poly"],
    "poly.gcd": ["poly.poly_gcd"],
    "rootisolate.sturm_chain": ["rootisolate.sturm_chain"],
    "rootisolate.squarefree": ["rootisolate.squarefree_part",
                               "rootisolate.squarefree_decomposition",
                               "rootisolate.odd_multiplicity_part"],
    "rootisolate.nonneg": ["rootisolate.nonneg_on_nonneg"],
    "rootisolate.count_roots": ["rootisolate.count_roots"],
    "exppoly.sign_at": ["exppoly.ExpPoly.sign_at"],
    "exppoly.nonneg": ["exppoly.ExpPoly.nonneg_on_nonneg"],
    "exppoly.exp_integral": ["exppoly.exp_integral"],
    "laguerre.eval_sequence": ["laguerre.laguerre_eval_sequence"],
    "laguerre.matmul": ["laguerre.matmul"],
    "laguerre.mixed_orthogonality": ["laguerre.mixed_orthogonality"],
    "laguerre.moment_integral": ["laguerre.moment_integral"],
    "biseries.mul": ["biseries.BiSeries.__mul__"],
    "biseries.exp": ["biseries.BiSeries.exp"],
    "observables.duality_gram": ["observables.duality_gram"],
    "observables.fourier_laguerre": ["observables.fourier_laguerre"],
    "observables.basis_inversion": ["observables.basis_inversion"],
    "uncertainty.scan_lambda": ["uncertainty.scan_lambda"],
    "uncertainty.star_square_cross_check": ["uncertainty.star_square_cross_check"],
    "quadrature.integrate": ["quadrature.integrate_decay"],
    "spectral.projector_closed": ["spectral.projector_closed"],
    "spectral.projector_poly_values": ["spectral.projector_poly_values"],
    "spectral.partition": ["spectral.partition_of_unity"],
    "spectral.star_exp_series": ["spectral.star_exp_series"],
    "tables.build": ["tables.build_table", "tables.fund_table", "tables.laguerre_table",
                     "tables.weights_table", "tables.duality_table",
                     "tables.spectrum_table", "tables.scan_table",
                     "tables.moments_table"],
    "tables.render": ["tables.render_csv", "tables.render_json", "tables.write_output",
                      "tables.format_float", "tables.format_complex"],
    "cli.main": ["cli.main"],
}

_CALLS_AND_BUSY = (
    "phase.star", "poly.mul", "poly.divmod", "poly.gcd", "rootisolate.sturm_chain",
    "rootisolate.squarefree", "rootisolate.nonneg", "exppoly.sign_at",
    "exppoly.exp_integral", "laguerre.eval_sequence", "laguerre.matmul",
    "laguerre.mixed_orthogonality", "laguerre.moment_integral",
    "quadrature.integrate", "spectral.projector_closed",
    "spectral.projector_poly_values", "spectral.partition", "spectral.star_exp_series",
)
_BUSY_ONLY = (
    "phase.equivalence_map", "exppoly.nonneg", "biseries.mul", "biseries.exp",
    "observables.duality_gram", "observables.fourier_laguerre",
    "observables.basis_inversion", "uncertainty.scan_lambda",
    "uncertainty.star_square_cross_check", "tables.build", "tables.render", "cli.main",
)


def per_layer_spec() -> dict:
    """name -> unit, in the order BENCHMARK.json lists them."""
    spec = {}
    for layer in LAYERS:
        spec[f"{layer}.busy_s"] = "s"
        spec[f"{layer}.errors"] = "count"
    for g in _CALLS_AND_BUSY:
        spec[f"{g}.calls"] = "count"
        spec[f"{g}.busy_s"] = "s"
    for g in _BUSY_ONLY:
        spec[f"{g}.busy_s"] = "s"
    spec.update({
        "phase.star.term_pairs": "count", "phase.star.us_per_term_pair": "us",
        "rootisolate.count_roots.calls": "count",
        "backend.self_share": "ratio", "gauss.self_share": "ratio",
        "poly.coeff_bits.max": "bits", "laguerre.cache_len": "count",
        "quadrature.panels": "count", "quadrature.f_evals": "count",
        "cli.import_s": "s",
        "trace.overhead_ratio": "ratio", "trace.untraced_s": "s",
        "trace.layer_share": "ratio",
        "profile.slowdown": "ratio", "profile.untraced_s": "s",
    })
    for name in CHECK_NAMES:
        spec[check_metric(name)] = "s"
    return spec


# -- counting hooks (run by the tracer after or before the wrapped call) -------

def _star_term_pairs(tracer, args, kwargs, result):
    """Coefficient products the naive double loop of ``star`` performs.

    Term (i, j, d) of f survives d_a^r d_abar^s iff i >= r and j >= s; the
    (r, s) pass pairs those with the terms of g that survive d_abar^r d_a^s,
    and is skipped when its factor (1-lam)^r (-lam)^s is zero.
    """
    f, g = args[0], args[1]
    lam = args[2] if len(args) > 2 else kwargs["lam"]
    fk, gk = list(f.terms), list(g.terms)
    r_max = min(max((k[0] for k in fk), default=-1), max((k[1] for k in gk), default=-1))
    s_max = min(max((k[1] for k in fk), default=-1), max((k[0] for k in gk), default=-1))
    pairs = 0
    for r in range(r_max + 1):
        if lam == 1 and r:
            break
        for s in range(s_max + 1):
            if lam == 0 and s:
                break
            nf = sum(1 for i, j, _ in fk if i >= r and j >= s)
            ng = sum(1 for i, j, _ in gk if j >= r and i >= s)
            pairs += nf * ng
    tracer.counters["phase.star.term_pairs"] += pairs


def _coeff_bits(tracer, args, kwargs, result):
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.coeffs), default=0)
    if bits > tracer.maxima["poly.coeff_bits"]:
        tracer.maxima["poly.coeff_bits"] = bits


def _panels(tracer, args, kwargs, result):
    tracer.counters["quadrature.panels"] += result.panels


def _count_integrand(tracer, args, kwargs):
    f = args[0] if args else kwargs.pop("f")

    def counted(x):
        tracer.counters["quadrature.f_evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


BEFORE = {"quadrature.integrate_decay": _count_integrand}
AFTER = {"phase.star": _star_term_pairs, "poly.Poly.__mul__": _coeff_bits,
         "quadrature.integrate_decay": _panels}


def layer_metrics(state: dict) -> dict:
    """Per-layer metric values from a tracer state (see ``tracer_state``)."""
    calls, busy, errors = state["calls"], state["busy"], state["errors"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = sum(v for k, v in busy.items()
                                     if k.split(".", 1)[0] == layer)
        out[f"{layer}.errors"] = sum(v for k, v in errors.items()
                                     if k.split(".", 1)[0] == layer)
    for group, keys in GROUPS.items():
        out[f"{group}.calls"] = sum(calls.get(k, 0) for k in keys)
        out[f"{group}.busy_s"] = sum(busy.get(k, 0.0) for k in keys)
    pairs = state["counters"].get("phase.star.term_pairs", 0)
    out["phase.star.term_pairs"] = pairs
    out["phase.star.us_per_term_pair"] = (
        1e6 * out["phase.star.busy_s"] / pairs if pairs else 0.0)
    out["poly.coeff_bits.max"] = state["maxima"].get("poly.coeff_bits", 0)
    out["quadrature.panels"] = state["counters"].get("quadrature.panels", 0)
    out["quadrature.f_evals"] = state["counters"].get("quadrature.f_evals", 0)
    op_s = state["op_seconds"]
    out["trace.layer_share"] = state["op_layer_seconds"] / op_s if op_s else 0.0
    return out


def tracer_state(tracer) -> dict:
    """Plain-data totals of a tracer, so child processes can send theirs."""
    return {
        "calls": dict(tracer.calls), "busy": dict(tracer.busy),
        "errors": dict(tracer.errors), "counters": dict(tracer.counters),
        "maxima": dict(tracer.maxima), "hook_seconds": tracer.hook_seconds,
        "op_seconds": tracer.op_seconds, "op_layer_seconds": tracer.op_layer_seconds,
        "dropped_spans": tracer.dropped_spans,
    }


def merge_states(states) -> dict:
    out = {"calls": {}, "busy": {}, "errors": {}, "counters": {}, "maxima": {},
           "hook_seconds": 0.0, "op_seconds": 0.0, "op_layer_seconds": 0.0,
           "dropped_spans": 0}
    for st in states:
        for part in ("calls", "busy", "errors", "counters"):
            for k, v in st[part].items():
                out[part][k] = out[part].get(k, 0) + v
        for k, v in st["maxima"].items():
            out["maxima"][k] = max(out["maxima"].get(k, 0), v)
        for k in ("hook_seconds", "op_seconds", "op_layer_seconds", "dropped_spans"):
            out[k] += st[k]
    return out


# -- statistics ---------------------------------------------------------------

MIN_BEYOND_P90 = 10


def percentiles(samples) -> tuple:
    """(p50, p90, samples strictly above p90), by ``statistics.quantiles``.

    p90 is reported only when at least ``MIN_BEYOND_P90`` samples lie above
    it; with fewer it is ``None``.
    """
    data = sorted(samples)
    if len(data) < 2:
        return (data[0] if data else None), None, 0
    p50 = statistics.median(data)
    p90 = statistics.quantiles(data, n=10)[8]
    beyond = sum(1 for x in data if x > p90)
    return p50, (p90 if beyond >= MIN_BEYOND_P90 else None), beyond


def spread(values) -> float | None:
    """Interquartile distance as a share of the median (``None`` below 2 values)."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None
