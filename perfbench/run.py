#!/usr/bin/env python3
"""Layered benchmark for moyalbench.

Run from the root of a checkout (the directory holding ``src/moyalbench``):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10
    python3 perfbench/run.py --compare perfbench/results/base perfbench/results/new

``--trace 0`` measures the end-to-end metrics with no wrapper bound; ``--trace
1`` measures the same passes untraced, traced and under cProfile and reports
the per-layer metrics.  The last line of stdout is one JSON object; a copy of
the results, with the environment, goes to ``perfbench/results/``.  See
``perfbench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import importlib
import contextlib
import cProfile
import io
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RESULTS = os.path.join(HERE, "results")

import metrics  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 110  # p90 needs at least ten samples above it
MAX_LOOP_S = 140.0  # hard stop, so a run ends within 180 s
SETUP_PROBES = 5
TRACE_SHARE = 0.25  # share of --seconds that fixes a traced run's pass count


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- environment ----------------------------------------------------------------

def git_sha(root: str) -> str:
    """The checkout's commit from .git, read as files (no git process)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, backend: str) -> dict:
    return {"python": platform.python_version(), "backend": backend,
            "nproc": os.cpu_count(), "git_sha": git_sha(ROOT), "seed": seed,
            "platform": platform.platform()}


# -- set-up ---------------------------------------------------------------------

def probe(name: str, seed: int) -> int:
    """Child mode: import, build the workload, run one op, report when ready.

    It also times the calibration loop at its start and end, so the parent
    can scale this interpreter's set-up by this interpreter's own speed.
    """
    cal = [speed.calibration_loop() for _ in range(3)]
    import moyalbench
    import moyalbench.cli

    w = workloads.make(name, seed, ROOT)
    if name == "cli-cold":
        with contextlib.redirect_stdout(io.StringIO()):
            moyalbench.cli.main(w.commands(0)[0]["argv"])
    else:
        w.warm_up()
    cal += [speed.calibration_loop() for _ in range(3)]
    print(json.dumps({"ready": time.perf_counter(), "cal": cal,
                      "backend": moyalbench.BACKEND}))
    return 0


def measure_setup(name: str, seed: int):
    """Time from a fresh interpreter to ready, over several probes.

    (scaled seconds, raw seconds, backend); perf_counter() reads
    CLOCK_MONOTONIC, which every process on the machine shares.
    """
    scaled, raw, backend = [], [], "unknown"
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        work = info["ready"] - t0 - sum(info["cal"])
        raw.append(work)
        scaled.append(work / (statistics.fmean(info["cal"]) / speed.REF_S))
        backend = info["backend"]
    return scaled, raw, backend


# -- measuring ------------------------------------------------------------------

def run_passes(w, min_seconds: float, min_ops: int, **kw):
    """Whole passes until both floors are met.

    Returns (records, [(start, end) of each pass], wall seconds).
    """
    records, walls, index = [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records += w.run_pass(index, **kw)
        walls.append((t0, time.perf_counter()))
        index += 1
        elapsed = time.perf_counter() - start
        if index % w.pass_multiple:
            continue
        if (elapsed >= min_seconds and len(records) >= min_ops) or elapsed >= MAX_LOOP_S:
            return records, walls, elapsed


def judge(w, records):
    """Oracle verdicts after timing: (failed ops as [(name, reason)], trusted)."""
    failures, trusted = [], True
    for rec in records:
        try:
            reason = w.check(rec)
        except ArithmeticError as exc:  # the oracle itself could not decide
            reason, trusted = f"oracle undecided: {exc}", False
        if reason:
            failures.append((rec.name, reason))
    return failures, trusted and not getattr(w, "nondeterministic", False)


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float):
    """End-to-end metrics, every time scaled to reference speed (see speed.py)."""
    w = workloads.make(name, seed, ROOT)
    with speed.SpeedMeter() as meter:
        setup, setup_raw, backend = measure_setup(name, seed)
        w.warm_up()
        tracing.assert_no_wrappers()
        records, walls, wall = run_passes(w, seconds, MIN_OPS)
        tracing.assert_no_wrappers()
    failures, trusted = judge(w, records)
    op_s = [meter.scaled(r.start, r.start + r.seconds) for r in records]
    pass_s = [meter.scaled(t0, t1) for t0, t1 in walls]
    p50, p90, beyond = metrics.percentiles(op_s)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(records) / sum(pass_s),
        "op_ms.p50": 1000 * p50,
        "op_ms.p90": None if p90 is None else 1000 * p90,
        "verdict_s": statistics.median(pass_s),
        "peak_rss_mb": peak_rss_mb(name),
    }
    raw_p50, raw_p90, _ = metrics.percentiles([r.seconds for r in records])
    pass_raw = [t1 - t0 for t0, t1 in walls]
    raw = {"setup_s": statistics.median(setup_raw), "ops_per_s": len(records) / wall,
           "op_ms.p50": 1000 * raw_p50,
           "op_ms.p90": None if raw_p90 is None else 1000 * raw_p90,
           "verdict_s": statistics.median(pass_raw)}
    extra = {"wall_clock": raw, "setup_probes_s": setup, "setup_probes_raw_s": setup_raw,
             "slowdown_median": statistics.median(meter.costs) / speed.REF_S,
             "slowdown_samples": len(meter.costs), "passes": len(walls),
             "timed_wall_s": wall, "samples": len(records), "samples_beyond_p90": beyond}
    units = {k: unit for k, (unit, _) in metrics.END_TO_END.items()}
    return values, units, records, failures, trusted, backend, extra


def _traced_in_process(w, n, meter):
    """Passes 0..n-1 traced, then pass 0 under cProfile, in this process."""
    tracer = tracing.Tracer(before=metrics.BEFORE, after=metrics.AFTER)
    tracer.install()
    try:
        traced = []
        for i in range(n):
            traced += w.run_pass(i, tracer)
    finally:
        tracer.uninstall()
    tracer.assert_restored()
    state = metrics.tracer_state(tracer)
    state["maxima"]["laguerre.cache_len"] = len(
        importlib.import_module("moyalbench.laguerre")._cache)
    prof = cProfile.Profile()
    with meter.paused():
        t0 = time.perf_counter()
        prof.enable()
        w.run_pass(0)
        prof.disable()
        window = (t0, time.perf_counter())
    return traced, state, tracer.spans, window, pstats.Stats(prof)


def _traced_children(w, n, scratch):
    """The same, with each CLI child tracing or profiling itself."""
    traced = []
    for i in range(n):
        traced += w.run_pass(i, stats_dir=scratch)
    states, spans = [], []
    for rec in traced:
        path = os.path.join(scratch, f"{rec.pass_index}-{rec.position}.json")
        if not os.path.exists(path):  # the child was killed; the op has failed
            continue
        with open(path, encoding="utf-8") as fh:
            st = json.load(fh)
        base, op = len(spans), [rec.pass_index, rec.position]
        spans += [[name, t0, t1, None if up is None else up + base, op]
                  for name, t0, t1, up, _ in st.pop("span_list")]
        states.append(st)
    state = metrics.merge_states(states)
    state["import_s"] = statistics.median(st["import_s"] for st in states)
    t0 = time.perf_counter()
    w.run_pass(0, profile_dir=scratch)
    prof_window = (t0, time.perf_counter())
    profs = [os.path.join(scratch, f) for f in os.listdir(scratch) if f.endswith(".prof")]
    return traced, state, spans, prof_window, pstats.Stats(*profs)


def measure_traced(name: str, seed: int, seconds: float):
    """Same passes untraced, traced and under cProfile; per-layer metrics."""
    t0 = time.perf_counter()
    import moyalbench
    import moyalbench.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    w = workloads.make(name, seed, ROOT)
    w.warm_up()
    tracing.assert_no_wrappers()
    with speed.SpeedMeter() as meter:
        # the first round only fixes the pass count and warms the caches;
        # the untraced base is a second round over the same passes
        warm, walls, _ = run_passes(w, seconds * TRACE_SHARE, 1)
        n = len(walls)
        records = []
        for i in range(n):
            records += w.run_pass(i)
        if name == "cli-cold":
            scratch = os.path.join(RESULTS, f"tmp-{os.getpid()}")
            os.makedirs(scratch, exist_ok=True)
            try:
                traced, state, spans, prof_window, prof = _traced_children(w, n, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            import_s = state["import_s"]
        else:
            traced, state, spans, prof_window, prof = _traced_in_process(w, n, meter)
    tracing.assert_no_wrappers()

    failures, trusted = judge(w, warm + records + traced)

    def op_seconds(recs):  # scaled, so a change of machine speed is not overhead
        return sum(meter.scaled(r.start, r.start + r.seconds) for r in recs)

    untraced_s = op_seconds(records)
    pass0_s = op_seconds(r for r in records if r.pass_index == 0)
    shares = tracing.layer_self_shares(prof.stats)
    values = metrics.layer_metrics(state)
    values.update({
        "backend.self_share": shares.get("backend", 0.0),
        "gauss.self_share": shares.get("gauss", 0.0),
        "laguerre.cache_len": state["maxima"].get("laguerre.cache_len", 0),
        "cli.import_s": import_s,
        "trace.overhead_ratio": op_seconds(traced) / untraced_s,
        "trace.untraced_s": untraced_s,
        "profile.slowdown": meter.scaled(*prof_window) / pass0_s,
        "profile.untraced_s": pass0_s,
    })
    by_check = {}
    if name == "verify":
        for r in records:
            by_check.setdefault(r.name, []).append(r.seconds)
    for check in metrics.CHECK_NAMES:
        times = by_check.get(check)
        values[metrics.check_metric(check)] = statistics.median(times) if times else 0.0
    extra = {"passes": n, "tracer_hook_s": state["hook_seconds"],
             "spans": len(spans), "dropped_spans": state["dropped_spans"],
             "layer_self_shares": shares,
             "unlisted_checks": sorted(set(by_check) - set(metrics.CHECK_NAMES)),
             "span_file": write_spans(name, seed, spans)}
    units = metrics.per_layer_spec()
    return (values, units, warm + records + traced, failures, trusted,
            moyalbench.BACKEND, extra)


def write_spans(name, seed, spans) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{seed}-spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
    return os.path.relpath(path, ROOT)


# -- reporting -------------------------------------------------------------------

def report(name, seed, seconds, trace, values, units, records, failures, trusted,
           backend, extra) -> int:
    missing = [k for k, v in values.items() if v is None]
    if missing:
        return fail(f"{name}: no value for {', '.join(missing)} "
                    f"({len(records)} samples)")
    attempted, failed = len(records), len(failures)
    metrics_out = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    env = environment(seed, backend)
    result = {"workload": name, "trace": trace, "seconds": seconds, "env": env,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "correct": trusted,
              "failing_ops": [{"op": n, "reason": r} for n, r in failures[:200]],
              "metrics": metrics_out, "details": extra}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"{name}  seed {seed}  trace {trace}  python {env['python']}  "
          f"backend {backend}  nproc {env['nproc']}  git {env['git_sha'][:12]}")
    wall_clock = extra.get("wall_clock", {})
    for k, m in metrics_out.items():
        note = f"  (wall clock {wall_clock[k]:.6g})" if k in wall_clock else ""
        print(f"  {k:<44} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ({failed}/{attempted} ops)")
    if not trace:
        print(f"  {'samples':<44} {attempted:>14d} ({extra['samples_beyond_p90']} above p90,"
              f" {extra['passes']} passes)")
    distinct = {}
    for n, r in failures:
        distinct[(n, r)] = distinct.get((n, r), 0) + 1
    for (n, r), count in list(distinct.items())[:30]:
        print(f"  failed x{count}: {n}: {r}")
    if len(distinct) > 30:
        print(f"  ... {len(distinct) - 30} more in {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": trusted, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in its own process, then one table of metrics."""
    rows, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            status = 1
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if rows:
        names = list(next(iter(rows.values()))["metrics"])
        print("\nmetric".ljust(46) + "".join(f"{w:>14}" for w in rows))
        for k in names + ["fail_ratio"]:
            unit = rows[next(iter(rows))]["metrics"].get(k, {}).get("unit", "")
            cells = []
            for r in rows.values():
                v = (r["failed"] / r["attempted"] if k == "fail_ratio"
                     else r["metrics"][k]["value"])
                cells.append(f"{v:>14.5g}")
            print(f"{k} ({unit})".ljust(45) + "".join(cells))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="ratios of two results files or directories of them")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
    if not os.path.isfile(os.path.join(ROOT, "src", "moyalbench", "__init__.py")):
        return fail("run from the root of a moyalbench checkout (no src/moyalbench here)")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        return fail("give --workload, --all or --compare")
    if args.probe:
        return probe(args.workload, args.seed)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    # One CPU for this process and every child it starts, so the speed
    # samples taken here describe the CPU a CLI child runs on as well.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        out = measure_traced(args.workload, args.seed, args.seconds)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    return report(args.workload, args.seed, args.seconds, args.trace, *out)


if __name__ == "__main__":
    sys.exit(main())
