"""Independent oracles: closed forms written here, not taken from moyalbench.

Exact values use ``fractions.Fraction`` and plain integers; float values
are compared against ``mpmath.mp`` evaluations at 50 or more digits.  Each
``check_*`` function returns ``None`` when the output is right and a short
reason string when it is not.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction as F

import mpmath

EXPECTED_VERDICTS = {"exact": "exact-pass", "numeric": "numeric-pass",
                     "errata": "documented-erratum"}
EXPECTED_COUNTS = {"exact": 15, "numeric": 6, "errata": 3}


def rstr(x) -> str:
    x = F(x)
    return f"{x.numerator}" if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- closed forms -------------------------------------------------------------

def laguerre_coeffs(n: int) -> list:
    """L_n(z) = sum_j (-1)^j C(n, j) z^j / j!."""
    return [F((-1) ** j * math.comb(n, j), math.factorial(j)) for j in range(n + 1)]


def laguerre_values(n_max: int, x: F) -> list:
    """[L_0(x), ..., L_nmax(x)] exactly, by (n+1)L_{n+1} = (2n+1-x)L_n - nL_{n-1}."""
    out = [F(1), 1 - x]
    for n in range(1, n_max):
        out.append(((2 * n + 1 - x) * out[n] - n * out[n - 1]) / (n + 1))
    return out[: n_max + 1]


def projector(n: int, lam) -> tuple:
    """(rate, coefficients in mu) of pi_n = P(mu) exp(-rate mu) at lambda."""
    lam = F(lam)
    if lam == 0:
        return F(1), [F(0)] * n + [F(1, math.factorial(n))]
    one_m = 1 - lam
    pref = (-lam / one_m) ** n / one_m
    s = 1 / (lam * one_m)
    return 1 / one_m, [pref * c * s**j for j, c in enumerate(laguerre_coeffs(n))]


def poly_at(coeffs, x: F) -> F:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def mp_rat(x) -> mpmath.mpf:
    x = F(x)
    return mpmath.mpf(x.numerator) / x.denominator


def expsum_sign(parts, x: F, prec: int = 1200):
    """Sign of sum_i P_i(x) exp(-r_i x) for [(rate, coeffs)], by mpmath.

    Raises ArithmeticError when the value is inside the rounding error even
    at four times the starting precision.
    """
    vals = [(poly_at(c, x), r * x) for r, c in parts]
    for p in (prec, 4 * prec):
        with mpmath.workprec(p):
            terms = [mp_rat(v) * mpmath.exp(-mp_rat(e)) for v, e in vals]
            total = mpmath.fsum(terms)
            size = mpmath.fsum(abs(t) for t in terms)
            if abs(total) > size * mpmath.ldexp(1, 16 - p):
                return 1 if total > 0 else -1
    raise ArithmeticError(f"sign at {x} not resolved at {4 * prec} bits")


# -- float comparison ---------------------------------------------------------

def float_ok(printed: str, true, digits: int, scale=None) -> bool:
    """A printed float is right to within one unit of its last digit.

    The unit is taken relative to ``scale`` when given (used for printed
    differences of two computed values, whose precision is that of the
    operands) and relative to the true value otherwise.
    """
    try:
        got = mpmath.mpf(printed)
    except (ValueError, TypeError):
        return False
    if not mpmath.isfinite(got):
        return False
    ref = abs(true) if scale is None else scale
    return abs(got - true) <= mpmath.mpf(10) ** (1 - digits) * ref


def complex_ok(printed: str, true, digits: int, scale=None) -> bool:
    s = printed.rstrip("j")
    cut = max(s.rfind("+", 1), s.rfind("-", 1))
    while cut > 0 and s[cut - 1] in "eE":
        cut = max(s.rfind("+", 1, cut), s.rfind("-", 1, cut))
    if cut <= 0:
        return False
    try:
        got = mpmath.mpc(mpmath.mpf(s[:cut]), mpmath.mpf(s[cut:]))
    except ValueError:
        return False
    if not (mpmath.isfinite(got.real) and mpmath.isfinite(got.imag)):
        return False
    ref = abs(true) if scale is None else scale
    return abs(got - true) <= mpmath.mpf(10) ** (1 - digits) * ref


# -- verify -------------------------------------------------------------------

def check_verdict(suite: str, status: str):
    want = EXPECTED_VERDICTS.get(suite)
    if want is None:
        return f"unknown suite {suite!r}"
    return None if status == want else f"{suite} check reported {status}, expected {want}"


# -- sign-decide ---------------------------------------------------------------

def check_negative_at(parts, x, want: int = -1):
    if x is None or F(x) < 0:
        return f"no nonnegative witness (got {x!r})"
    try:
        got = expsum_sign(parts, F(x))
    except ArithmeticError as exc:
        return str(exc)
    return None if got == want else f"sign {got} at {rstr(x)}, expected {want}"


def check_bracket(parts, a, b, sa: int, sb: int, width: F):
    if not (F(b) - F(a) <= width and sa == -sb and sa != 0):
        return f"bracket [{rstr(a)}, {rstr(b)}] is not a sign change of width <= {width}"
    for x, s in ((a, sa), (b, sb)):
        bad = check_negative_at(parts, x, want=s)
        if bad:
            return bad
    return None


# -- cli-cold -----------------------------------------------------------------

csv.field_size_limit(1 << 26)  # Laguerre rows near n = 400 run past the default


def _csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _grid(max_den: int):
    grid = {F(1, 2)}
    for q in range(2, max_den + 1):
        for p in range(1, q // 2 + 1):
            if math.gcd(p, q) == 1:
                grid.add(F(p, q))
    return sorted(grid)


def expected_table(cmd: dict):
    """(header, rows) the exact CLI tables must print, from closed forms."""
    kind, lam = cmd["kind"], F(cmd.get("lambda", 0))
    if kind == "fund":
        k_max, n_max = cmd["k_max"], cmd["n_max"]
        rows = [[str(k)] + [rstr((-1) ** n * math.comb(k, n) * math.factorial(k))
                            for n in range(n_max + 1)] for k in range(k_max + 1)]
        return ["k\\n"] + [str(n) for n in range(n_max + 1)], rows
    if kind == "laguerre":
        return ["degree", "coefficient"], [
            [str(j), rstr(c)] for j, c in enumerate(laguerre_coeffs(cmd["n"]))]
    if kind == "scan":
        rows = []
        for g in _grid(cmd["den_max"]):
            if g == F(1, 2):
                rows.append([rstr(g), "", "", "true", "false"])
                continue
            bound = g / (1 - 2 * g)  # k lam(1-lam) < (k+1) lam^2  <=>  k < bound
            pred = -(-bound.numerator // bound.denominator)
            hit = pred <= cmd["k_max"]
            rows.append([rstr(g), str(pred) if hit else "", str(pred), "true",
                         str(hit and bound == pred).lower()])
        return ["lambda", "first_fail_k", "predicted_k", "matches", "boundary"], rows
    if kind == "duality":
        n = cmd["n_max"]
        return ["n\\m"] + [str(m) for m in range(n + 1)], [
            [str(i)] + ["1" if i == j else "0" for j in range(n + 1)] for i in range(n + 1)]
    if kind == "weights":
        k = cmd["k"]
        return ["n", "weight"], [
            [str(n), rstr(math.comb(k, n) * lam**n * (1 - lam) ** (k - n))]
            for n in range(k + 1)]
    if kind == "spectrum":
        return ["n", "energy"], [[str(n), rstr(n + lam)] for n in range(cmd["n_max"] + 1)]
    raise KeyError(kind)


def check_cli_output(cmd: dict, stdout: bytes, returncode: int, digits: int = 12):
    """None if the CLI printed the right table for ``cmd``, else why not."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        header, rows = _csv(stdout.decode("utf-8"))
    except (UnicodeDecodeError, csv.Error) as exc:
        return f"unreadable output: {exc}"
    kind = cmd["kind"]
    if kind in ("pi", "starexp", "moments"):
        return _check_quantities(cmd, header, rows, digits)
    want_header, want_rows = expected_table(cmd)
    if header != want_header:
        return "header differs from the closed form"
    if len(rows) != len(want_rows):
        return f"{len(rows)} rows, expected {len(want_rows)}"
    for got, want in zip(rows, want_rows):
        if got != want:
            return f"row {got[0]} differs from the closed form"
    return None


def _check_quantities(cmd, header, rows, digits):
    kind, lam = cmd["kind"], F(cmd["lambda"])
    got = {r[0]: r[1:] for r in rows}
    exact, floats = {}, {}
    if kind == "moments":
        if header != ["quantity", "exact", "float"]:
            return "header differs"
        k = cmd["k"]
        cv = lam**2 * (k + 1)
        qv = k * lam * (1 - lam)
        exact = {"classical_mean": lam * (k + 1),
                 "classical_second": lam**2 * (k + 1) * (k + 2),
                 "classical_variance": cv, "quantum_mean": (k + 1) * lam,
                 "quantum_second": (k * k + k + 1) * lam**2 + k * lam,
                 "quantum_variance": qv}
        with mpmath.workdps(50):
            floats = {"classical_std": (mpmath.sqrt(mp_rat(cv)), None),
                      "quantum_std": (mpmath.sqrt(mp_rat(qv)), None)}
        want_keys = ["classical_mean", "classical_second", "classical_variance",
                     "classical_std", "quantum_mean", "quantum_second",
                     "quantum_variance", "quantum_std"]
        if [r[0] for r in rows] != want_keys:
            return "quantity rows differ"
        for key, v in exact.items():
            if got[key] != [rstr(v), ""]:
                return f"{key} = {got[key][0]}, expected {rstr(v)}"
        for key, (v, _) in floats.items():
            if got[key][0] != "" or not float_ok(got[key][1], v, digits):
                return f"{key} = {got[key][1]}, expected {mpmath.nstr(v, 15)}"
        return None
    if header != ["quantity", "value"]:
        return "header differs"
    val = {k: v[0] for k, v in got.items()}
    if kind == "pi":
        return _check_pi(cmd, lam, rows, val, digits)
    return _check_starexp(cmd, lam, rows, val, digits)


def _check_pi(cmd, lam, rows, val, digits):
    n, mu = cmd["n"], F(cmd["mu"])
    rate, coeffs = projector(n, lam)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    keys = ["n", "lambda", "rate", "coeffs", "integral", "value_at_mu"]
    if cmd.get("series"):
        keys += ["series_terms", "series_value", "series_minus_closed"]
        if lam == F(1, 2):
            keys.append("conditional_convergence")
    if [r[0] for r in rows] != keys:
        return f"quantity rows {[r[0] for r in rows]} differ"
    want = {"n": str(n), "lambda": rstr(lam), "rate": rstr(rate),
            "coeffs": " ".join(rstr(c) for c in coeffs), "integral": "1"}
    for key, v in want.items():
        if val[key] != v:
            return f"{key} differs from the closed form"
    with mpmath.workdps(50):
        closed = mp_rat(poly_at(coeffs, mu)) * mpmath.exp(-mp_rat(rate * mu))
        if not float_ok(val["value_at_mu"], closed, digits):
            return f"value_at_mu = {val['value_at_mu']}, expected {mpmath.nstr(closed, 15)}"
        if not cmd.get("series"):
            return None
        terms = cmd["terms"]
        seq = laguerre_values(n + terms, mu / lam)
        partial = (-1) ** n * sum(lam ** (n + k) * math.comb(n + k, k) * seq[n + k]
                                  for k in range(terms + 1))
        series = mp_rat(partial)
        if val["series_terms"] != str(terms):
            return "series_terms differs"
        if not float_ok(val["series_value"], series, digits):
            return f"series_value = {val['series_value']}, expected {mpmath.nstr(series, 15)}"
        scale = max(abs(series), abs(closed))
        if not float_ok(val["series_minus_closed"], series - closed, digits, scale):
            return "series_minus_closed is off by more than the operands' precision"
        if lam == F(1, 2) and val["conditional_convergence"] != "true":
            return "conditional_convergence missing"
    return None


def starexp_values(lam: F, mu: F, t: float, terms: int):
    """(closed, series) at 50 significant digits, for the printed comparison."""
    dps = 60
    while True:
        with mpmath.workdps(dps):
            tt = mpmath.mpf(t)
            lm, m = mp_rat(lam), mp_rat(mu)
            rot = mpmath.expj(-tt)
            den = 1 - lm + lm * rot
            closed = mpmath.expj(-lm * tt) / den * mpmath.exp(m * (rot - 1) / den)
            if lam == 0:
                parts = [F(1)] + [F(0)] * terms
                weights = [mu**k / math.factorial(k) for k in range(terms + 1)]
                decay = mpmath.exp(-m)
            else:
                one_m = 1 - lam
                seq = laguerre_values(terms, mu / (lam * one_m))
                ratio = -lam / one_m
                weights = [ratio**k / one_m * seq[k] for k in range(terms + 1)]
                decay = mpmath.exp(-m / mp_rat(one_m))
            summands = [mp_rat(w) * decay * mpmath.expj(-(k + lm) * tt)
                        for k, w in enumerate(weights)]
            series = mpmath.fsum(summands)
            big = max(abs(s) for s in summands)
            lost = 0 if series == 0 else int(mpmath.log10(big / abs(series)))
            if lost < dps - 50 or dps > 4000:
                return +closed, +series
            dps = 60 + lost + 10


def _check_starexp(cmd, lam, rows, val, digits):
    mu, t, terms = F(cmd["mu"]), float(cmd["t"]), cmd["terms"]
    keys = ["lambda", "mu", "t", "closed", "series", "terms", "abs_difference",
            "conditional_convergence"]
    if [r[0] for r in rows] != keys:
        return "quantity rows differ"
    if (val["lambda"], val["mu"], val["terms"]) != (rstr(lam), rstr(mu), str(terms)):
        return "echoed parameters differ"
    if val["conditional_convergence"] != str(lam == F(1, 2)).lower():
        return "conditional_convergence flag differs"
    closed, series = starexp_values(lam, mu, t, terms)
    with mpmath.workdps(50):
        if not float_ok(val["t"], mpmath.mpf(t), digits):
            return "t differs"
        if not complex_ok(val["closed"], closed, digits):
            return f"closed = {val['closed']}, expected {mpmath.nstr(closed, 15)}"
        if not complex_ok(val["series"], series, digits):
            return f"series = {val['series']}, expected {mpmath.nstr(series, 15)}"
        scale = max(abs(closed), abs(series))
        if not float_ok(val["abs_difference"], abs(closed - series), digits, scale):
            return "abs_difference is off by more than the operands' precision"
    return None
