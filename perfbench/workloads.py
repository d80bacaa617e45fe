"""The four workloads: seeded inputs, timed ops, and the oracle for each op.

A workload runs in passes.  ``run_pass(index)`` times each op of one pass
and returns its records; ``check(record)`` runs the workload's oracle on a
record after timing has stopped.  Inputs depend only on the seed and the
pass index, so a pass can be run again (traced, or under cProfile) on the
same inputs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as F
from random import Random

import oracles

WORKLOADS = ("verify", "star-scale", "sign-decide", "cli-cold")


@dataclass
class Record:
    name: str
    seconds: float
    output: object = None
    error: str | None = None  # exception or failed run, set while timing
    pass_index: int = 0
    position: int = 0
    check_args: object = None  # what the oracle needs besides the output
    start: float = 0.0  # perf_counter() when the op began


def rng_for(seed: int, *parts) -> Random:
    return Random(":".join(str(p) for p in (seed,) + parts))


def draw_lambda(rng: Random, q_lo: int = 2, q_hi: int = 64) -> F:
    """p/q in (0, 1/2] with q_lo <= q <= q_hi (reduced, so q may shrink)."""
    q = rng.randint(q_lo, q_hi)
    return F(rng.randint(1, q // 2), q)


def _timed(name, fn, tracer, op_id, pass_index, position) -> Record:
    rec = Record(name, 0.0, pass_index=pass_index, position=position)
    rec.start = time.perf_counter()
    if tracer is None:
        t0 = rec.start
        try:
            rec.output = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - t0
        return rec
    with tracer.op(name, op_id) as span:
        try:
            rec.output = fn()
        except Exception as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
    rec.seconds = span.seconds
    return rec


class InProcess:
    """Ops are calls into the moyalbench modules of this interpreter."""

    pass_multiple = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._ops = {}

    def ops(self, index: int) -> list:
        """[(name, fn, check_args)] for pass ``index``; fn takes no arguments."""
        raise NotImplementedError

    def prepared(self, index: int) -> list:
        """The ops of pass ``index``, built once so reruns see the same inputs."""
        if index not in self._ops:
            self._ops[index] = self.ops(index)
        return self._ops[index]

    def warm_up(self):
        name, fn, _ = self.prepared(0)[0]
        fn()

    def run_pass(self, index: int, tracer=None) -> list:
        out = []
        for pos, (name, fn, check_args) in enumerate(self.prepared(index)):
            rec = _timed(name, fn, tracer, (index, pos), index, pos)
            rec.check_args = check_args
            out.append(rec)
        return out


class Verify(InProcess):
    """Repeated ``run_suite("all", seed)``; an op is one catalog check."""

    per_pass = sum(oracles.EXPECTED_COUNTS.values())

    def warm_up(self):
        import moyalbench.verify as v

        v.check_moment_table()

    def run_pass(self, index: int, tracer=None) -> list:
        import moyalbench.verify as v

        box = {}

        def suite():
            box["report"] = v.run_suite("all", self.seed)

        whole = _timed("run_suite", suite, tracer, (index, 0), index, 0)
        report = box.get("report")
        if report is None:  # the whole pass was lost: every check failed
            share = whole.seconds / self.per_pass
            return [Record(f"check-{i}", share, None, whole.error, index, i,
                           start=whole.start + i * share) for i in range(self.per_pass)]
        out, start = [], whole.start  # checks run back to back inside the pass
        for i, r in enumerate(report.results):
            out.append(Record(r.name, r.elapsed, (r.suite, r.status), None, index, i,
                              start=start))
            start += r.elapsed
        counts = {s: sum(1 for r in report.results if r.suite == s)
                  for s in oracles.EXPECTED_COUNTS}
        for suite_name, want in oracles.EXPECTED_COUNTS.items():
            for k in range(counts[suite_name], want):
                out.append(Record(f"missing-{suite_name}-{k}", 0.0, None,
                                  f"{suite_name} check missing from the report",
                                  index, len(out)))
        return out

    def check(self, rec):
        if rec.error:
            return rec.error
        suite, status = rec.output
        return oracles.check_verdict(suite, status)


class StarScale(InProcess):
    """Associativity and equivalence of star products at total degree 4-8."""


    def ops(self, index: int) -> list:
        from moyalbench import phase

        rng = rng_for(self.seed, "star", index)
        out = []
        for deg in range(4, 9):
            for gauss in (False, True):
                # six-bit denominators: every draw grows coefficients alike
                lams = (F(0), F(1, 2), draw_lambda(rng, 33, 64))
                for lam in lams:
                    f, g, h = (phase.random_phase_poly(rng, deg, gauss=gauss)
                               for _ in range(3))
                    tag = f"d{deg}-{'gauss' if gauss else 'real'}-lam{oracles.rstr(lam)}"
                    out.append((f"assoc-{tag}",
                                lambda f=f, g=g, h=h, lam=lam:
                                phase.check_associativity(f, g, h, lam), None))
                    out.append((f"equiv-{tag}",
                                lambda f=f, g=g, lam=lam:
                                phase.check_equivalence(f, g, lam), None))
        return out

    def check(self, rec):
        if rec.error:
            return rec.error
        return None if rec.output is True else f"identity check returned {rec.output!r}"


BISECT_BITS = 300


class SignDecide(InProcess):
    """Exact sign decisions: Sturm witnesses, mixed-rate verdicts, bisection."""


    def ops(self, index: int) -> list:
        from moyalbench import spectral as spec

        rng = rng_for(self.seed, "sign", index)
        out = []
        # three draws at n = 12 put the median op inside one kind of op
        for n in (8, 10, 12, 12, 12, 14, 16, 18, 20):
            lam = draw_lambda(rng, 33, 64)
            out.append((f"witness-n{n}-lam{oracles.rstr(lam)}",
                        lambda n=n, lam=lam: spec.projector_negative_witness(n, lam),
                        ("witness", n, lam)))
        for n in range(6, 15, 2):
            l1, l2 = self._pair(rng)
            form = spec.projector_closed(n, l1).form - spec.projector_closed(n, l2).form
            out.append((f"nonneg-n{n}-lam{oracles.rstr(l1)}-{oracles.rstr(l2)}",
                        lambda form=form: form.nonneg_on_nonneg(),
                        ("nonneg", n, l1, l2)))
        for n in (index % 3, 1 + index % 3):
            l1, l2 = self._pair(rng)
            form = spec.projector_closed(n, l1).form - spec.projector_closed(n, l2).form
            out.append((f"bisect-n{n}-lam{oracles.rstr(l1)}-{oracles.rstr(l2)}",
                        lambda form=form: bisect_sign_change(form, BISECT_BITS),
                        ("bisect", n, l1, l2)))
        return out

    @staticmethod
    def _pair(rng):
        while True:
            l1, l2 = sorted((draw_lambda(rng, 33, 64), draw_lambda(rng, 33, 64)))
            if l1 != l2:
                return l1, l2

    def check(self, rec):
        if rec.error:
            return rec.error
        kind, n, *lams = rec.check_args
        if kind == "witness":
            rate, coeffs = oracles.projector(n, lams[0])
            if rec.output is None or rec.output <= 0:
                return f"no positive witness (got {rec.output!r})"
            return oracles.check_negative_at([(rate, coeffs)], rec.output)
        r1, c1 = oracles.projector(n, lams[0])
        r2, c2 = oracles.projector(n, lams[1])
        parts = [(r1, c1), (r2, [-c for c in c2])]
        if kind == "nonneg":
            verdict, witness = rec.output
            if verdict is not False:
                return f"verdict {verdict!r}; two distinct projectors both integrate to 1"
            return oracles.check_negative_at(parts, witness)
        a, b, sa, sb = rec.output
        return oracles.check_bracket(parts, a, b, sa, sb, F(1, 2**BISECT_BITS))


def bisect_sign_change(form, bits: int):
    """Bracket a sign change of ``form`` on [0, inf) to width 2**-bits."""
    s0 = form.sign_at(0)
    if s0 == 0:
        raise ValueError("form vanishes at 0")
    lo, hi = F(0), F(1)
    for _ in range(64):
        s_hi = form.sign_at(hi)
        if s_hi != s0:
            break
        lo, hi = hi, 2 * hi
    else:
        raise ValueError("no sign change below 2**64")
    width = F(1, 2**bits)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = form.sign_at(mid)
        if s == 0:
            return mid, mid, 0, 0
        if s == s0:
            lo = mid
        else:
            hi, s_hi = mid, s
    return lo, hi, s0, s_hi


# -- cli-cold -------------------------------------------------------------------

def _mu(rng):
    return F(rng.randint(1, 2000), 2)  # up to 10^3, where float outputs break


def cli_commands(seed: int, list_index: int) -> list:
    """One pass list: a command of each kind, parameters drawn from the seed.

    Sizes keep the costs in three steady bands, so p90 falls inside one:
    most commands cost about an interpreter start, ``laguerre`` near n = 120
    a little more, and ``pi`` near n = 400, where the float outputs overflow,
    several times more.
    """
    rng = rng_for(seed, "cli", list_index)

    def lam():
        return draw_lambda(rng)

    cmds = [
        {"kind": "fund", "k_max": rng.randint(4, 24), "n_max": rng.randint(4, 24)},
        {"kind": "laguerre", "n": rng.randint(110, 130)},
        {"kind": "scan", "k_max": rng.randint(10, 1000), "den_max": rng.randint(8, 48)},
        {"kind": "duality", "lambda": lam(), "n_max": rng.randint(2, 10)},
        {"kind": "weights", "lambda": lam(), "k": rng.randint(1, 60)},
        {"kind": "moments", "lambda": lam(), "k": rng.randint(1, 60)},
        {"kind": "spectrum", "lambda": lam(), "n_max": rng.randint(1, 400)},
        {"kind": "pi", "lambda": lam(), "n": rng.randint(0, 30), "mu": _mu(rng)},
        {"kind": "pi", "lambda": lam(), "n": rng.randint(370, 400), "mu": _mu(rng)},
        {"kind": "pi", "lambda": lam(), "n": rng.randint(0, 30), "mu": _mu(rng),
         "series": True, "terms": rng.randint(10, 80)},
    ]
    for _ in range(2):
        lm = F(0) if rng.random() < 0.25 else lam()
        cmds.append({"kind": "starexp", "lambda": lm, "mu": _mu(rng),
                     "t": f"{rng.randint(1, 300) / 100:.2f}",
                     "terms": rng.randint(50, 300)})
    for c in cmds:
        c["argv"] = cli_argv(c)
    return cmds


def cli_argv(c: dict) -> list:
    r, kind = oracles.rstr, c["kind"]
    if kind == "fund":
        return ["export", "--what", "fund", "--k-max", str(c["k_max"]),
                "--n-max", str(c["n_max"])]
    if kind == "laguerre":
        return ["export", "--what", "laguerre", "--n", str(c["n"])]
    if kind == "scan":
        return ["scan", "--k-max", str(c["k_max"]), "--denominator-max", str(c["den_max"])]
    if kind in ("duality", "spectrum"):
        return [kind, "--lambda", r(c["lambda"]), "--n-max", str(c["n_max"])]
    if kind in ("weights", "moments"):
        return [kind, "--lambda", r(c["lambda"]), "--k", str(c["k"])]
    if kind == "pi":
        argv = ["pi", "--lambda", r(c["lambda"]), "--n", str(c["n"]), "--mu", r(c["mu"])]
        if c.get("series"):
            argv += ["--series", "--terms", str(c["terms"])]
        return argv
    return ["starexp", "--lambda", r(c["lambda"]), "--mu", r(c["mu"]), "--t", c["t"],
            "--terms", str(c["terms"])]


CHILD_TIMEOUT_S = 60


class CliCold:
    """One ``python -m moyalbench.cli`` child per op, one at a time.

    Pass lists come in pairs: pass 2k and 2k+1 run the same commands, so
    every command's output bytes are compared across two passes.
    """

    pass_multiple = 2

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        self._lists = {}
        self.first_bytes = {}  # (list index, position) -> stdout of first run
        self.nondeterministic = False

    def commands(self, index: int) -> list:
        k = index // 2
        if k not in self._lists:
            self._lists[k] = cli_commands(self.seed, k)
        return self._lists[k]

    def warm_up(self):
        pass  # a cold child is the op being measured

    def child_argv(self, cmd, traced_stats=None, profile=None):
        if traced_stats is None and profile is None:
            return [sys.executable, "-m", "moyalbench.cli"] + cmd["argv"]
        extra = ["--stats", traced_stats] if traced_stats else ["--profile", profile]
        return ([sys.executable, os.path.join(self.root, "perfbench", "cli_child.py")]
                + extra + ["--"] + cmd["argv"])

    def run_pass(self, index: int, stats_dir=None, profile_dir=None) -> list:
        out = []
        for pos, cmd in enumerate(self.commands(index)):
            stats = os.path.join(stats_dir, f"{index}-{pos}.json") if stats_dir else None
            prof = os.path.join(profile_dir, f"{index}-{pos}.prof") if profile_dir else None
            argv = self.child_argv(cmd, stats, prof)
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, cwd=self.root, env=self.env,
                                      capture_output=True, timeout=CHILD_TIMEOUT_S)
                output, error = (proc.returncode, proc.stdout, proc.stderr[-400:]), None
            except subprocess.TimeoutExpired:  # run() kills and reaps the child
                output, error = None, f"timed out after {CHILD_TIMEOUT_S} s"
            out.append(Record(" ".join(cmd["argv"]), time.perf_counter() - t0,
                              output, error, index, pos, cmd, t0))
        return out

    def check(self, rec):
        if rec.error:
            return rec.error
        code, stdout, stderr = rec.output
        key = (rec.pass_index // 2, rec.position)
        first = self.first_bytes.setdefault(key, stdout)
        if first != stdout:
            self.nondeterministic = True
            return "output bytes differ between two passes of the same seed"
        bad = oracles.check_cli_output(rec.check_args, stdout, code)
        if bad and code != 0:
            last = stderr.decode("utf-8", "replace").strip().splitlines()
            bad += f" ({last[-1]})" if last else ""
        return bad


def make(name: str, seed: int, root: str):
    if name == "cli-cold":
        return CliCold(seed, root)
    return {"verify": Verify, "star-scale": StarScale,
            "sign-decide": SignDecide}[name](seed)
