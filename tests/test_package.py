"""The package namespace: names come from their modules, not from a facade."""

import json
import os
import subprocess
import sys
import types

import pytest

import moyalbench

SRC = os.path.dirname(os.path.dirname(moyalbench.__file__))


def test_import_loads_only_the_backend():
    code = (
        "import json, sys, moyalbench; print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('moyalbench', 'mpmath'))))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["moyalbench", "moyalbench.backend"]


def test_submodule_import_gives_the_module():
    import moyalbench.laguerre as m

    assert isinstance(m, types.ModuleType)
    assert m.__name__ == "moyalbench.laguerre"
    assert callable(m.laguerre)
    assert moyalbench.BACKEND == "fraction"


# A fresh interpreter imports moyalbench.cli, runs main(argv) when argv is
# given, and reports the exit code and the moyalbench, mpmath and dataclasses
# modules loaded on its last stderr line; the command's own output is on stdout.
COLD_CHILD = (
    "import json, sys\n"
    "from moyalbench.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "mods = sorted(m for m in sys.modules\n"
    "              if m.split('.')[0] in ('moyalbench', 'mpmath', 'dataclasses'))\n"
    "print(json.dumps([code, mods]), file=sys.stderr)\n"
)


def cold(*argv):
    """(exit code, stdout, modules loaded) of one command in a new interpreter.
    The caller's PYTHONPATH stays after src: an interpreter without its own
    mpmath finds it there."""
    path = [SRC, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [SRC]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", COLD_CHILD, *argv], env=env,
                          check=True, capture_output=True, text=True)
    code, mods = json.loads(proc.stderr.splitlines()[-1])
    return code, proc.stdout, set(mods)


def mb(*names):
    return {f"moyalbench.{n}" for n in names}


def test_cli_import_loads_only_the_front_end():
    assert cold()[2] == {"moyalbench"} | mb("backend", "errors", "params", "tables", "cli")


@pytest.mark.parametrize("argv", [
    ["weights", "--lambda", "1/4", "--k", "5"],
    ["scan", "--k-max", "20", "--denominator-max", "8"],
], ids=lambda a: a[0])
def test_selection_tables_load_neither_mpmath_nor_verify(argv):
    code, out, mods = cold(*argv)
    assert code == 0 and out
    assert not mods & ({"mpmath"} | mb("verify"))


def test_fund_loads_no_spectral_layer():
    code, out, mods = cold("export", "--what", "fund", "--k-max", "4", "--n-max", "4")
    assert code == 0 and out
    assert "moyalbench.laguerre" in mods
    assert not mods & ({"mpmath"} | mb("spectral", "observables", "uncertainty", "verify"))


def test_verify_loads_verify():
    code, out, mods = cold("verify", "--suite", "errata")
    assert code == 0 and out
    assert "moyalbench.verify" in mods
    assert "dataclasses" not in mods


def test_numeric_suite_loads_no_mpmath():
    # the gamma check's Navot model takes its zeta values as literals
    code, out, mods = cold("verify", "--suite", "numeric")
    assert code == 0 and "gamma-moment-quadrature" in out
    assert "mpmath" not in mods


def test_pi_past_the_float_exponent_range_in_a_cold_child():
    # the value is formed in mpmath's exponent range, imported on first use
    code, out, mods = cold("pi", "--lambda", "17/64", "--n", "390", "--mu", "801")
    assert code == 0
    assert out.splitlines()[-1] == "value_at_mu,4.87810307113e-98"
    assert "mpmath" in mods


FRONT = {"moyalbench"} | mb("backend", "errors", "params", "tables", "cli")


# Each command kind perfbench's cli-cold workload runs, with the exact
# modules it loads: library modules import their other layers in the
# functions that use them, so no table command pays for phase, biseries,
# gauss, quadrature, rootisolate or dataclasses.
@pytest.mark.parametrize("argv, layers", [
    (["export", "--what", "fund", "--k-max", "3", "--n-max", "3"],
     ("poly", "exppoly", "laguerre")),
    (["export", "--what", "laguerre", "--n", "6"], ("poly", "exppoly", "laguerre")),
    (["scan", "--k-max", "8", "--denominator-max", "6"],
     ("poly", "exppoly", "observables", "uncertainty")),
    (["duality", "--lambda", "1/3", "--n-max", "3"],
     ("poly", "exppoly", "laguerre", "spectral", "observables")),
    (["weights", "--lambda", "1/4", "--k", "5"], ("poly", "exppoly", "observables")),
    (["moments", "--lambda", "1/4", "--k", "5"],
     ("poly", "exppoly", "observables", "uncertainty")),
    (["spectrum", "--lambda", "1/4", "--n-max", "5"], ("spectral",)),
    (["pi", "--lambda", "1/4", "--n", "6", "--mu", "3"],
     ("poly", "exppoly", "laguerre", "spectral")),
    (["pi", "--lambda", "1/4", "--n", "6", "--mu", "3", "--series", "--terms", "20"],
     ("poly", "exppoly", "laguerre", "spectral")),
    (["starexp", "--lambda", "1/4", "--mu", "3", "--t", "0.5", "--terms", "20"],
     ("spectral",)),
], ids=["fund", "laguerre", "scan", "duality", "weights", "moments", "spectrum",
        "pi", "pi-series", "starexp"])
def test_table_command_loads_exactly_its_layers(argv, layers):
    code, out, mods = cold(*argv)
    assert code == 0 and out
    assert mods == FRONT | mb(*layers)
    assert "dataclasses" not in mods


def test_no_module_raises_assertion_error():
    # a library value is computed once and compared once, by a verify check
    # or a test: an internal mismatch must read as a False verdict
    import ast
    from pathlib import Path

    found = []
    for path in sorted(Path(moyalbench.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Public names that nothing in the package or perfbench calls yet, each with
# the ROADMAP item that gives it a caller
NO_CALLER_YET = {
    "observables.is_observable": "item 1",
    "exppoly.ExpPoly.from_json_obj": "item 1",
    "uncertainty.selection_inequality": "item 2",
}


def test_every_public_name_has_a_caller():
    # an AST scan of code, so a docstring or a comment is no reference; a
    # method is matched by its attribute name alone, because a static scan
    # cannot tell which class an attribute is read from
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "moyalbench").glob("*.py"))
    defined = []  # (name, qualified name)
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defined.append((node.name, f"{path.stem}.{node.name}"))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    defined.append((item.name, f"{path.stem}.{node.name}.{item.name}"))
    used = set()
    for path in modules + sorted((root / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(q for name, q in defined if name not in used) == sorted(NO_CALLER_YET)


def test_records_are_immutable_named_tuples():
    from moyalbench.backend import Q
    from moyalbench.laguerre import GammaMomentReport
    from moyalbench.observables import (
        BasisInversion, ObservabilityVerdict, basic_distribution, is_observable)
    from moyalbench.quadrature import QuadResult
    from moyalbench.spectral import Projector, projector_closed
    from moyalbench.uncertainty import GMRow, ScanEntry, SelectionVerdict
    from moyalbench.verify import FAIL, CheckResult, SuiteReport

    records = {
        QuadResult: ("value", "panels", "est_error", "t_max"),
        GammaMomentReport: ("quad_value", "panels", "formula_value", "formula_exact",
                            "abs_diff"),
        Projector: ("n", "lam", "form"),
        ObservabilityVerdict: ("status", "lam", "checked_to", "coefficients",
                               "support_bound", "witness_index", "note"),
        BasisInversion: ("matrix", "inverse", "identity_ok", "has_negative_entries"),
        SelectionVerdict: ("k", "lam", "quantum_variance", "classical_variance",
                           "passes", "boundary"),
        ScanEntry: ("lam", "first_fail_k", "predicted_k", "matches_prediction",
                    "boundary_at_fail"),
        GMRow: ("k", "classical_variance", "quantum_variance", "variance_difference",
                "uncertainty_difference"),
        CheckResult: ("name", "suite", "status", "detail", "tolerance", "elapsed"),
        SuiteReport: ("suite", "seed", "results", "elapsed"),
    }
    for cls, fields in records.items():
        assert cls._fields == fields
        defaults = ({"coefficients": (), "support_bound": None, "witness_index": None,
                     "note": ""} if cls is ObservabilityVerdict else {})
        assert cls._field_defaults == defaults
        record = cls(*range(len(fields)))
        with pytest.raises(AttributeError):
            setattr(record, fields[0], -1)
        with pytest.raises(AttributeError):
            record.extra = -1

    proj = projector_closed(2, Q(1, 4))
    assert isinstance(proj, Projector)
    assert proj(Q(3)) == proj.form(Q(3))
    assert is_observable(basic_distribution(3, Q(1, 4)), Q(1, 4)).exact
    assert not ObservabilityVerdict(status="nonneg-up-to-n", lam=Q(1, 4), checked_to=4).exact
    crashed = CheckResult("c", "exact", FAIL, "AssertionError: boom", None, 0.5)
    report = SuiteReport("exact", 0, (crashed,), 0.5)
    assert crashed.failed and report.failures == [crashed] and report.exit_code == 1
