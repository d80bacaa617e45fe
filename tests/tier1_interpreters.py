"""Run the Tier-1 tests under every installed CPython 3.1x.

    python tests/tier1_interpreters.py [PYENV_VERSIONS_DIR]

The directory defaults to ``~/.pyenv/versions``.  Only the interpreter this
script runs under needs pytest, hypothesis and mpmath: its ``site-packages``
is put on ``PYTHONPATH`` for the others, after ``src``.  Each interpreter's
pytest summary line is printed, and so is every interpreter that could not
start the run (for example a 3.10 without ``exceptiongroup``).  The exit
status is 0 only when every interpreter started and passed.

The name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
            print(f"{name}: could not start: {last}")
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
