"""Compare two sets of results files: one row per workload, a ratio per metric.

Each side is a results file or a directory of them (``*-trace0.json`` and
``*-trace1.json`` as written by ``run.py``).  Runs are grouped by workload
and trace mode; each metric's ratio is NEW median / BASE median.  A metric is
"unresolved" when either side's run-to-run spread (interquartile distance
over median) exceeds the metric's bound from ``BENCHMARK.json``, unless every
NEW run beats every BASE run; with fewer than two runs on a side the spread
is unknown and the metric is unresolved too.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

from metrics import spread

DEFAULT_BOUND = 0.1  # per-layer metrics have no bound of their own


def load(path: str) -> dict:
    """{(workload, trace): [results dict, ...]} from a file or a directory."""
    files = ([path] if os.path.isfile(path)
             else sorted(glob.glob(os.path.join(path, "*-trace[01].json"))))
    out = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            r = json.load(fh)
        out.setdefault((r["workload"], r["trace"]), []).append(r)
    return out


def verdict(base, new, better: str, bound: float) -> tuple:
    mb, mn = statistics.median(base), statistics.median(new)
    ratio = mn / mb if mb else float("inf") if mn else 1.0
    up = better == "higher"
    if all((n > b) if up else (n < b) for n in new for b in base) and len(base) > 1:
        return ratio, "better"
    spreads = [spread(base), spread(new)]
    if any(s is None or s > bound for s in spreads):
        return ratio, "unresolved"
    worse = ratio < 1 - bound if up else ratio > 1 + bound
    gain = ratio > 1 + bound if up else ratio < 1 - bound
    return ratio, "worse" if worse else "better" if gain else "same"


def main(base_path: str, new_path: str, spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], DEFAULT_BOUND) for m in spec["per_layer"]})
    base, new = load(base_path), load(new_path)
    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        cells = []
        for name in base[key][0]["metrics"]:
            if name not in rules:
                continue
            b = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not b or not n:
                continue
            ratio, word = verdict(b, n, *rules[name])
            status |= word == "worse" and not trace
            cells.append(f"{name} {ratio:.3f} {word}")
        runs = f"{len(base[key])}/{len(new[key])} runs"
        print(f"{workload} trace{trace} ({runs}): " + " | ".join(cells))
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]} trace{key[1]}: only in {'BASE' if key in base else 'NEW'}")
    return int(status)
