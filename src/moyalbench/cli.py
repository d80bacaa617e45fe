"""Command-line front end.

Subcommands: verify, and the table commands pi, spectrum, weights, moments,
duality, scan, starexp, export.  Rationals are passed as "p/q" strings;
tables are printed as CSV or JSON (see --format/--out).  Each table command
registers its `tables` builder with set_defaults, and `main` renders what
the builder returns; no computation lives here.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .backend import Q, rational_str
from .errors import DomainError, MoyalBenchError
from .params import SUITES
from . import tables


def _int_upto(hi=None):
    """An argparse type: an int >= 0, and <= hi when hi is given.  argparse
    reports a value it rejects together with the flag that gave it."""
    def parse(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value
    parse.__name__ = "int"  # a non-int reads "invalid int value", as with type=int
    return parse


_SIZE = _int_upto()
# 17 significant digits tell every double apart; more would print digits of
# its binary expansion, not of the value it stands for
_FLOAT_PREC = _int_upto(17)

# `export --what NAME`, and the direct command NAME where there is one: the
# builder, then the flags it reads (as dests) in its argument order.
EXPORTS = {
    "fund": (tables.fund_table, "k_max", "n_max"),
    "weights": (tables.weights_table, "lam", "k"),
    "duality": (tables.duality_table, "lam", "n_max"),
    "scan": (tables.scan_table, "k_max", "denominator_max"),
    "spectrum": (tables.spectrum_table, "lam", "n_max"),
    "laguerre": (tables.laguerre_table, "n"),
}
# dest: option, type, export default.  A table that reads a flag without a
# default requires it.
_FLAGS = {
    "lam": ("--lambda", Q, None),
    "n": ("--n", _SIZE, None),
    "k": ("--k", _SIZE, None),
    "k_max": ("--k-max", _SIZE, 20),
    "n_max": ("--n-max", _SIZE, 20),
    "denominator_max": ("--denominator-max", _SIZE, 64),
}


def _reads(builder, *dests):
    """A table command's entry: `builder` called on the parsed `dests`."""
    return lambda args: (*builder(*(getattr(args, d) for d in dests)), None)


def _export(args):
    if args.what not in EXPORTS:
        raise DomainError(
            f"unknown table {args.what!r}; expected one of {sorted(EXPORTS)}"
        )
    builder, *dests = EXPORTS[args.what]
    if any(getattr(args, d) is None for d in dests):
        needs = [_FLAGS[d][0] for d in dests if _FLAGS[d][2] is None]
        raise MoyalBenchError(f"{args.what} needs {' and '.join(needs)}")
    header, rows = builder(*(getattr(args, d) for d in dests))
    meta = {"what": args.what}
    if args.lam is not None:
        meta["lambda"] = rational_str(args.lam)
    return header, rows, meta


def _table_args(p: argparse.ArgumentParser, table):
    """The flags every table command shares, and its entry `table(args)`,
    which gives (header, rows, JSON meta or None)."""
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument(
        "--float-prec", type=_FLOAT_PREC, default=tables.DEFAULT_FLOAT_PREC,
        help="significant digits for floats",
    )
    p.set_defaults(table=table)


def _direct(sub, name: str, summary: str, **defaults):
    """Export table `name` as its own command; `defaults` override by dest."""
    p = sub.add_parser(name, help=summary)
    for d in EXPORTS[name][1:]:
        option, typ, default = _FLAGS[d]
        default = defaults.get(d, default)
        p.add_argument(option, dest=d, type=typ, default=default,
                       required=default is None)
    _table_args(p, _reads(*EXPORTS[name]))


class _Parser(argparse.ArgumentParser):
    """Reports a rejected argv as the one line `main` gives a rejected value,
    with no usage block; the subcommand parsers are of this class too.

    A token of "-" and then a digit, such as -1/4 or -1e-3, is a flag's
    value (argparse takes only -1 and -0.5 as such), and so are -inf,
    -infinity and -nan in any case, so the flag's range check can reject
    it; no flag starts with a digit or is named inf, infinity or nan."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\.?\d|(?:inf|infinity|nan)$)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="moyalbench",
        description="Exact workbench for the lambda-family of oscillator "
                    "star products",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity catalog")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--out", default=None)

    p = sub.add_parser("pi", help="spectral projector (closed form / series)")
    p.add_argument("--lambda", dest="lam", type=Q, required=True)
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--mu", type=Q, default=None)
    p.add_argument("--series", action="store_true")
    p.add_argument("--terms", type=_SIZE, default=60)
    _table_args(p, _reads(tables.pi_table, "lam", "n", "mu", "series",
                          "terms", "float_prec"))

    _direct(sub, "spectrum", "energy levels (n + lambda)", n_max=10)
    _direct(sub, "weights", "binomial level weights of p_k")

    p = sub.add_parser("moments", help="classical vs quantum moments of p_k")
    p.add_argument("--lambda", dest="lam", type=Q, required=True)
    p.add_argument("--k", type=_SIZE, required=True)
    _table_args(p, _reads(tables.moments_table, "lam", "k", "float_prec"))

    _direct(sub, "duality", "projector pairing matrix", n_max=8)
    _direct(sub, "scan", "selection-inequality scan over lambda", k_max=100)

    p = sub.add_parser("starexp", help="star exponential, closed vs series")
    p.add_argument("--lambda", dest="lam", type=Q, required=True)
    p.add_argument("--mu", type=Q, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--terms", type=_SIZE, default=200)
    _table_args(p, _reads(tables.starexp_table, "lam", "mu", "t", "terms",
                          "float_prec"))

    p = sub.add_parser("export", help="write a table (fund|weights|duality|"
                                      "scan|spectrum|laguerre)")
    p.add_argument("--what", required=True)
    for d, (option, typ, default) in _FLAGS.items():
        p.add_argument(option, dest=d, type=typ, default=default)
    _table_args(p, _export)
    return ap


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.11+: print exact ints whole
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            from .verify import run_suite
            report = run_suite(args.suite, seed=args.seed)
            if args.format == "json":
                text = json.dumps(report.to_json_obj(), sort_keys=True,
                                  indent=2) + "\n"
            else:
                text = "\n".join(report.human_lines()) + "\n"
            tables.write_output(text, args.out)
            return report.exit_code
        header, rows, meta = args.table(args)
        if args.format == "json":
            text = tables.render_json(header, rows, meta)
        else:
            text = tables.render_csv(header, rows)
        tables.write_output(text, args.out)
        return 0
    except MoyalBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
