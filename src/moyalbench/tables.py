"""Table builders and deterministic CSV/JSON writers for the CLI.

Every builder returns (header, rows), rows being lists of strings.  Exact
rationals cross the boundary as "p/q" strings; floats are rendered with a
fixed number of significant digits (default 12).  Output is bit-stable for
fixed inputs: sorted keys, "\\n" newlines, UTF-8.

Each builder imports the modules it computes with, so a command loads only
what its own table needs; a new builder does the same.  The library modules
keep the rule one level down: each imports at its top only what its
module-level definitions need, and a function that uses another layer
imports it in its own body.  ``weights`` thus loads 9 moyalbench modules,
and no table command loads phase, biseries, gauss, quadrature, rootisolate
or dataclasses.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings

from .backend import Q, rational_str
from .errors import ConditionalConvergenceWarning, DomainError, MoyalBenchError
from .params import nonneg_int

DEFAULT_FLOAT_PREC = 12


def format_float(x: float, prec: int = DEFAULT_FLOAT_PREC) -> str:
    return format(float(x), f".{prec}g")


def format_complex(z: complex, prec: int = DEFAULT_FLOAT_PREC) -> str:
    re, im = format_float(z.real, prec), format_float(z.imag, prec)
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{im.lstrip('-')}j"


def fund_table(k_max: int, n_max: int):
    """Moment table: entry (k, n) = integral z^k L_n e^(-z) dz as "p/q"."""
    from .laguerre import moment_integral
    nonneg_int("k_max", k_max)
    nonneg_int("n_max", n_max)
    header = ["k\\n"] + [str(n) for n in range(n_max + 1)]
    rows = [
        [str(k)] + [rational_str(moment_integral(k, n)) for n in range(n_max + 1)]
        for k in range(k_max + 1)
    ]
    return header, rows


def laguerre_table(n: int):
    from .laguerre import laguerre
    header = ["degree", "coefficient"]
    rows = [[str(j), rational_str(c)] for j, c in enumerate(laguerre(n).coeffs)]
    return header, rows


def weights_table(lam, k: int):
    from .observables import binomial_weights
    header = ["n", "weight"]
    w = binomial_weights(k, lam)
    rows = [[str(n), rational_str(c)] for n, c in enumerate(w)]
    return header, rows


def duality_table(lam, n_max: int):
    from .observables import duality_gram
    header = ["n\\m"] + [str(m) for m in range(n_max + 1)]
    gram = duality_gram(n_max, lam)
    rows = [
        [str(n)] + [rational_str(c) for c in row] for n, row in enumerate(gram)
    ]
    return header, rows


def spectrum_table(lam, n_max: int):
    from .spectral import spectrum
    header = ["n", "energy"]
    rows = [[str(n), rational_str(e)] for n, e in enumerate(spectrum(lam, n_max))]
    return header, rows


def scan_table(k_max: int, max_denominator: int = 64):
    from .uncertainty import default_lambda_grid, scan_lambda
    header = ["lambda", "first_fail_k", "predicted_k", "matches", "boundary"]
    rows = [
        [
            rational_str(e.lam),
            "" if e.first_fail_k is None else str(e.first_fail_k),
            "" if e.predicted_k is None else str(e.predicted_k),
            str(e.matches_prediction).lower(),
            str(e.boundary_at_fail).lower(),
        ]
        for e in scan_lambda(default_lambda_grid(max_denominator), k_max)
    ]
    return header, rows


def moments_table(lam, k: int, prec: int = DEFAULT_FLOAT_PREC):
    from .uncertainty import classical_moments, quantum_moments
    header = ["quantity", "exact", "float"]
    rows = []
    for kind, (mean, second, variance) in (("classical", classical_moments(k, lam)),
                                           ("quantum", quantum_moments(k, lam))):
        rows += [
            [f"{kind}_mean", rational_str(mean), ""],
            [f"{kind}_second", rational_str(second), ""],
            [f"{kind}_variance", rational_str(variance), ""],
            [f"{kind}_std", "", format_float(math.sqrt(float(variance)), prec)],
        ]
    return header, rows


def pi_table(lam, n: int, mu, series: bool, terms: int,
             prec: int = DEFAULT_FLOAT_PREC):
    """The closed form of pi_n; with mu its value there, and with series
    also the terms-term lam-series at mu and its distance to the closed form."""
    from .exppoly import exp_integral
    from .spectral import projector_closed, projector_series_eval
    if series and mu is None:
        raise DomainError("--series needs --mu")
    if mu is not None and mu < 0:
        raise DomainError(f"--mu must be >= 0, got {mu}")
    proj = projector_closed(n, lam)
    header = ["quantity", "value"]
    rows = [["n", str(n)], ["lambda", rational_str(lam)]]
    for t in proj.form.to_json_obj():
        rows.append(["rate", t["rate"]])
        rows.append(["coeffs", " ".join(t["coeffs"])])
    rows.append(["integral", rational_str(exp_integral(proj.form))])
    if mu is None:
        return header, rows
    closed = proj(mu)
    rows.append(["value_at_mu", format_float(closed, prec)])
    if series:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditionalConvergenceWarning)
            sv = float(projector_series_eval(n, lam, terms, mu))
        rows.append(["series_terms", str(terms)])
        rows.append(["series_value", format_float(sv, prec)])
        rows.append(["series_minus_closed", format_float(sv - closed, prec)])
        if lam == Q(1, 2):
            rows.append(["conditional_convergence", "true"])
    return header, rows


def starexp_table(lam, mu, t: float, terms: int, prec: int = DEFAULT_FLOAT_PREC):
    """The star exponential at mu and time t: closed form against the
    terms-term Fourier-Dirichlet sum."""
    from .spectral import star_exp_closed, star_exp_series
    if mu < 0:
        raise DomainError(f"--mu must be >= 0, got {mu}")
    closed = star_exp_closed(lam, mu, t)
    series = star_exp_series(lam, mu, t, terms)
    header = ["quantity", "value"]
    rows = [
        ["lambda", rational_str(lam)],
        ["mu", rational_str(mu)],
        ["t", format_float(t, prec)],
        ["closed", format_complex(closed, prec)],
        ["series", format_complex(series, prec)],
        ["terms", str(terms)],
        ["abs_difference", format_float(abs(closed - series), prec)],
        ["conditional_convergence", str(lam == Q(1, 2)).lower()],
    ]
    return header, rows


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(header, rows, meta: dict | None = None) -> str:
    obj = {"header": list(header), "rows": [list(r) for r in rows]}
    if meta:
        obj["meta"] = meta
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_output(text: str, path: str | None):
    if path is None:
        print(text, end="")
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise MoyalBenchError(f"cannot write {path}: {exc.strerror}") from exc
