"""Run one moyalbench CLI command in a fresh interpreter, traced or profiled.

    python perfbench/cli_child.py --stats OUT.json -- pi --lambda 1/4 --n 2
    python perfbench/cli_child.py --profile OUT.prof -- spectrum --lambda 1/3

The command's stdout, stderr and exit status are those of
``python -m moyalbench.cli``; the tracer's totals (or the cProfile data)
go to the named file.  The cli-cold workload starts one of these per op in
its traced run.
"""

from __future__ import annotations

import argparse
import importlib
import cProfile
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    out = ap.add_mutually_exclusive_group(required=True)
    out.add_argument("--stats")
    out.add_argument("--profile")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import moyalbench.cli as cli
    import_s = time.perf_counter() - t0

    if args.profile:
        prof = cProfile.Profile()
        prof.enable()
        try:
            return cli.main(argv)
        finally:
            prof.disable()
            prof.dump_stats(args.profile)

    sys.path.insert(0, HERE)
    from metrics import AFTER, BEFORE, tracer_state
    from tracing import Tracer
    lag = importlib.import_module("moyalbench.laguerre")  # not the package's laguerre()

    tracer = Tracer(before=BEFORE, after=AFTER)
    tracer.install()
    try:
        with tracer.op(" ".join(argv), 0):
            return cli.main(argv)
    finally:
        tracer.uninstall()
        state = tracer_state(tracer)
        state["import_s"] = import_s
        state["span_list"] = tracer.spans
        state["maxima"]["laguerre.cache_len"] = len(lag._cache)
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(state, fh)


if __name__ == "__main__":
    sys.exit(main())
