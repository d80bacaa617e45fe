"""Run the Tier-1 tests under every installed CPython 3.1x.

    python tests/tier1_interpreters.py [PYENV_VERSIONS_DIR]

The directory defaults to ``~/.pyenv/versions``.  Only the interpreter this
script runs under needs pytest, hypothesis and mpmath: its ``site-packages``
is put on ``PYTHONPATH`` for the others, after ``src``.  Each interpreter's
pytest summary line is printed.  An interpreter that cannot start pytest (for
example a 3.10 without ``exceptiongroup``) runs the golden-output check
instead: ``python -m moyalbench.cli verify --suite all --format json --seed 0``
against ``tests/data/verify_all_seed0.json`` byte for byte, and every argv of
``tests/data/cli_golden.json`` against its exit code and stdout digest; its
line says so and gives that result.  The exit status is 0 only when every
interpreter started pytest and passed.

The name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
VERIFY_ARGV = ["verify", "--suite", "all", "--format", "json", "--seed", "0"]


def interpreters(versions_dir: str) -> list:
    """(version, python binary) for each 3.1x under versions_dir, oldest first."""
    found = []
    for name in os.listdir(versions_dir):
        parts = name.split(".")
        if len(parts) >= 2 and parts[0] == "3" and parts[1].isdigit() and len(parts[1]) == 2:
            exe = os.path.join(versions_dir, name, "bin", "python")
            if os.access(exe, os.X_OK):
                found.append((tuple(int(p) for p in parts if p.isdigit()), name, exe))
    return [(name, exe) for _, name, exe in sorted(found)]


def golden_outputs(exe: str, env: dict) -> str:
    """Run the verify golden file and the CLI digests under exe; one summary."""

    def cli(argv):
        return subprocess.run([exe, "-m", "moyalbench.cli", *argv], env=env,
                              cwd=ROOT, capture_output=True)

    with open(os.path.join(DATA, "verify_all_seed0.json"), "rb") as fh:
        golden = fh.read()
    run = cli(VERIFY_ARGV)
    same = run.returncode == 0 and run.stdout == golden
    verify = "identical" if same else "DIFFERS"
    with open(os.path.join(DATA, "cli_golden.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    matched = 0
    for case in cases:
        run = cli(case["argv"])
        digest = hashlib.sha256(run.stdout).hexdigest()
        matched += run.returncode == case["exit_code"] and digest == case["stdout_sha256"]
    return f"verify golden {verify}, {matched}/{len(cases)} CLI digests match"


def main(argv: list) -> int:
    versions_dir = argv[0] if argv else os.path.expanduser("~/.pyenv/versions")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), sysconfig.get_paths()["purelib"]]),
        # keep the shared site-packages free of other versions' bytecode
        PYTHONDONTWRITEBYTECODE="1",
    )
    failed = []
    for name, exe in interpreters(versions_dir):
        probe = subprocess.run([exe, "-c", "import pytest, hypothesis, mpmath"],
                               env=env, cwd=ROOT, capture_output=True, text=True)
        if probe.returncode:
            last = (probe.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"{name}: could not start: {last}; {golden_outputs(exe, env)}")
            failed.append(name)
            continue
        run = subprocess.run([exe, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                             env=env, cwd=ROOT, capture_output=True, text=True)
        summary = (run.stdout.strip().splitlines() or ["no output"])[-1]
        print(f"{name}: {summary}")
        if run.returncode:
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
