"""Table builders and deterministic CSV/JSON writers for the CLI.

Exact rationals cross the boundary as "p/q" strings; floats are rendered
with a fixed number of significant digits (default 12).  Output is
bit-stable for fixed inputs: sorted keys, "\\n" newlines, UTF-8.
"""

from __future__ import annotations

import csv
import io
import json

from .backend import rational_str
from .errors import DomainError
from .params import ModelParams
from .laguerre import laguerre, moment_integral
from . import observables as obs
from . import spectral as spec
from . import uncertainty as unc

DEFAULT_FLOAT_PREC = 12


def format_float(x: float, prec: int = DEFAULT_FLOAT_PREC) -> str:
    return format(float(x), f".{prec}g")


def format_complex(z: complex, prec: int = DEFAULT_FLOAT_PREC) -> str:
    re, im = format_float(z.real, prec), format_float(z.imag, prec)
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{im.lstrip('-')}j"


def fund_table(k_max: int, n_max: int):
    """Moment table: entry (k, n) = integral z^k L_n e^(-z) dz as "p/q"."""
    header = ["k\\n"] + [str(n) for n in range(n_max + 1)]
    rows = []
    for k in range(k_max + 1):
        rows.append(
            [str(k)]
            + [rational_str(moment_integral(k, n)) for n in range(n_max + 1)]
        )
    return header, rows


def laguerre_table(n: int):
    header = ["degree", "coefficient"]
    rows = [[str(j), rational_str(c)] for j, c in enumerate(laguerre(n).coeffs)]
    return header, rows


def weights_table(lam, k: int):
    header = ["n", "weight"]
    w = obs.binomial_weights(k, lam)
    rows = [[str(n), rational_str(c)] for n, c in enumerate(w)]
    return header, rows


def duality_table(lam, n_max: int):
    header = ["n\\m"] + [str(m) for m in range(n_max + 1)]
    gram = obs.duality_gram(n_max, lam)
    rows = [
        [str(n)] + [rational_str(c) for c in row] for n, row in enumerate(gram)
    ]
    return header, rows


def spectrum_table(lam, n_max: int, params: ModelParams = ModelParams()):
    header = ["n", "energy"]
    rows = [
        [str(e.n), rational_str(e.energy)]
        for e in spec.spectrum(lam, n_max, params)
    ]
    return header, rows


def scan_table(k_max: int, max_denominator: int = 64):
    header = ["lambda", "first_fail_k", "predicted_k", "matches", "boundary"]
    res = unc.scan_lambda(unc.default_lambda_grid(max_denominator), k_max)
    rows = []
    for e in res.entries:
        rows.append(
            [
                rational_str(e.lam),
                "" if e.first_fail_k is None else str(e.first_fail_k),
                "" if e.predicted_k is None else str(e.predicted_k),
                str(e.matches_prediction).lower(),
                str(e.boundary_at_fail).lower(),
            ]
        )
    return header, rows


def moments_table(lam, k: int, prec: int = DEFAULT_FLOAT_PREC):
    rep = unc.moment_report(k, lam)
    header = ["quantity", "exact", "float"]
    rows = [
        ["classical_mean", rational_str(rep.classical_mean), ""],
        ["classical_second", rational_str(rep.classical_second), ""],
        ["classical_variance", rational_str(rep.classical_variance), ""],
        ["classical_std", "", format_float(rep.classical_std, prec)],
        ["quantum_mean", rational_str(rep.quantum_mean), ""],
        ["quantum_second", rational_str(rep.quantum_second), ""],
        ["quantum_variance", rational_str(rep.quantum_variance), ""],
        ["quantum_std", "", format_float(rep.quantum_std, prec)],
    ]
    return header, rows


_BUILDERS = {
    "fund": lambda args: fund_table(args["k_max"], args["n_max"]),
    "weights": lambda args: weights_table(args["lam"], args["k"]),
    "duality": lambda args: duality_table(args["lam"], args["n_max"]),
    "scan": lambda args: scan_table(args["k_max"], args["max_denominator"]),
    "spectrum": lambda args: spectrum_table(args["lam"], args["n_max"]),
    "laguerre": lambda args: laguerre_table(args["n"]),
}


def build_table(what: str, args: dict):
    if what not in _BUILDERS:
        raise DomainError(
            f"unknown table {what!r}; expected one of {sorted(_BUILDERS)}"
        )
    return _BUILDERS[what](args)


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
