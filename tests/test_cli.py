import hashlib
import json
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from moyalbench.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_export_fund_entry(capsys, tmp_path):
    path = tmp_path / "fund.csv"
    code, _ = run_cli(capsys, "export", "--what", "fund", "--k-max", "6",
                      "--n-max", "6", "--out", str(path))
    assert code == 0
    rows = path.read_text(encoding="utf-8").splitlines()
    # entry (k, n) = (2, 1) is -4
    assert rows[3].split(",")[2] == "-4"


def test_export_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run_cli(capsys, "export", "--what", "scan", "--k-max", "50",
                          "--format", "json", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_csv_newlines(capsys, tmp_path):
    path = tmp_path / "w.csv"
    run_cli(capsys, "export", "--what", "weights", "--lambda", "1/2", "--k",
            "3", "--out", str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[1] == "0,1/8"


def test_export_laguerre(capsys):
    code, out = run_cli(capsys, "export", "--what", "laguerre", "--n", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,-2", "2,1/2"]


def test_export_unknown_selector(capsys):
    code, _ = run_cli(capsys, "export", "--what", "nope")
    assert code == 2


def test_export_missing_params(capsys):
    code, _ = run_cli(capsys, "export", "--what", "weights")
    assert code == 2


def test_spectrum_values(capsys):
    code, out = run_cli(capsys, "spectrum", "--lambda", "1/2", "--n-max", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1/2", "1,3/2", "2,5/2", "3,7/2"]


def test_weights_sum_header(capsys):
    code, out = run_cli(capsys, "weights", "--lambda", "1/3", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,weight"
    assert lines[1:] == ["0,4/9", "1,4/9", "2,1/9"]


def test_moments_json(capsys):
    code, out = run_cli(capsys, "moments", "--lambda", "1/2", "--k", "2",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    rows = {r[0]: (r[1], r[2]) for r in obj["rows"]}
    assert rows["quantum_variance"][0] == "1/2"
    assert rows["classical_variance"][0] == "3/4"


def test_duality_identity(capsys):
    code, out = run_cli(capsys, "duality", "--lambda", "1/4", "--n-max", "3")
    assert code == 0
    body = [line.split(",")[1:] for line in out.splitlines()[1:]]
    for i, row in enumerate(body):
        assert row == ["1" if j == i else "0" for j in range(4)]


def test_scan_first_failures(capsys):
    code, out = run_cli(capsys, "scan", "--k-max", "100",
                        "--denominator-max", "8")
    assert code == 0
    rows = {r.split(",")[0]: r.split(",")[1] for r in out.splitlines()[1:]}
    assert rows["1/3"] == "1"
    assert rows["2/5"] == "2"
    assert rows["1/2"] == ""


def test_pi_series_comparison(capsys):
    code, out = run_cli(capsys, "pi", "--lambda", "1/4", "--n", "0", "--mu",
                        "1", "--series", "--terms", "60", "--format", "json")
    assert code == 0
    rows = dict((r[0], r[1]) for r in json.loads(out)["rows"])
    assert rows["integral"] == "1"
    assert abs(float(rows["series_minus_closed"])) < 1e-9


def test_starexp_agreement(capsys):
    code, out = run_cli(capsys, "starexp", "--lambda", "0", "--mu", "2",
                        "--t", "1.0", "--terms", "120")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert float(rows["abs_difference"]) < 1e-10
    assert rows["conditional_convergence"] == "false"


def test_starexp_conditional_flag(capsys):
    code, out = run_cli(capsys, "starexp", "--lambda", "1/2", "--mu", "1",
                        "--t", "0.5", "--terms", "50")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["conditional_convergence"] == "true"


def test_verify_errata_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "errata")
    assert code == 0
    assert out.count("documented-erratum") == 3


def test_verify_json_deterministic_given_seed(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run_cli(capsys, "verify", "--suite", "errata", "--seed", "7",
                          "--format", "json", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert obj["seed"] == 7
    assert obj["counts"]["failed"] == 0


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


def test_negative_size_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--lambda", "1/4", "--n-max", "-3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == "error: argument --n-max: must be >= 0, got -3\n"


@pytest.mark.parametrize("argv, message", [
    (["export", "--what", "weights", "--lambda", "1/4"],
     "weights needs --lambda and --k\n"),
    (["export", "--what", "nope"],
     "unknown table 'nope'; expected one of ['duality', 'fund', 'laguerre', "
     "'scan', 'spectrum', 'weights']\n"),
    (["export", "--what", "fund", "--k-max", "-1"],
     "argument --k-max: must be >= 0, got -1\n"),
    (["export", "--what", "fund", "--n-max", "-2"],
     "argument --n-max: must be >= 0, got -2\n"),
    (["moments", "--lambda", "1/3", "--k", "2", "--float-prec", "-1"],
     "argument --float-prec: must be >= 0, got -1\n"),
    (["pi", "--lambda", "1/4", "--n", "2", "--series"], "--series needs --mu"),
    (["starexp", "--lambda", "1/4", "--mu", "1", "--t", "inf"],
     "t must be finite"),
    (["spectrum", "--lambda", "1/2", "--out", "/dev/null/x.csv"],
     "cannot write /dev/null/x.csv: "),
    (["verify", "--suite", "errata", "--out", "/dev/null/x.json"],
     "cannot write /dev/null/x.json: "),
    (["weights", "--lambda", "1/0", "--k", "2"],
     "argument --lambda: invalid Q value: '1/0'\n"),
    (["pi", "--lambda", "1/4", "--n", "2", "--mu", "1/0"],
     "argument --mu: invalid Q value: '1/0'\n"),
    (["pi", "--lambda", "1/4", "--n", "2", "--mu", "-1"], "--mu must be >= 0, got -1\n"),
    (["starexp", "--lambda", "1/4", "--mu", "-2", "--t", "1", "--terms", "10"],
     "--mu must be >= 0, got -2\n"),
    (["pi", "--lambda", "1/4", "--n", "-1"], "argument --n: must be >= 0, got -1\n"),
    (["pi", "--lambda", "1/4", "--n", "2", "--mu", "1", "--series", "--terms", "-5"],
     "argument --terms: must be >= 0, got -5\n"),
    (["weights", "--lambda", "1/4", "--k", "-2"], "argument --k: must be >= 0, got -2\n"),
    (["moments", "--lambda", "1/4", "--k", "-3"], "argument --k: must be >= 0, got -3\n"),
    (["scan", "--k-max", "-4"], "argument --k-max: must be >= 0, got -4\n"),
    (["scan", "--k-max", "5", "--denominator-max", "-1"],
     "argument --denominator-max: must be >= 0, got -1\n"),
    (["duality", "--lambda", "1/3", "--n-max", "-1"],
     "argument --n-max: must be >= 0, got -1\n"),
    (["export", "--what", "laguerre", "--n", "-6"], "argument --n: must be >= 0, got -6\n"),
    (["starexp", "--lambda", "1/4", "--mu", "1", "--t", "1", "--terms", "-1"],
     "argument --terms: must be >= 0, got -1\n"),
    (["pi", "--lambda", "1/4", "--n", "2", "--mu", "1", "--float-prec", "18"],
     "argument --float-prec: must be <= 17, got 18\n"),
    (["pi", "--lambda", "1/4"], "the following arguments are required: --n\n"),
    (["tables"], "argument command: invalid choice: 'tables' (choose from "),
    # a negative rational is a value for its flag's range check, not a flag
    (["pi", "--lambda", "-1/4", "--n", "2", "--mu", "1"], "lambda=-1/4 outside [0, 1)\n"),
    (["pi", "--lambda=-1/4", "--n", "2", "--mu", "1"], "lambda=-1/4 outside [0, 1)\n"),
    (["pi", "--lambda", "1/4", "--n", "2", "--mu", "-1/2"], "--mu must be >= 0, got -1/2\n"),
    (["starexp", "--lambda", "1/4", "--mu", "-1/2", "--t", "1", "--terms", "10"],
     "--mu must be >= 0, got -1/2\n"),
    (["weights", "--lambda", "-1/3", "--k", "2"], "lambda=-1/3 outside (0, 1)\n"),
    (["pi", "--lambda", "1/4", "--n", "2", "--mu", "-1e-3"],
     "--mu must be >= 0, got -1/1000\n"),
    (["pi", "--lambda", "1/4", "--n", "2", "--mu", "-1x"],
     "argument --mu: invalid Q value: '-1x'\n"),
    # so is a negative infinity or nan for a float flag, in any case
    (["starexp", "--lambda", "1/4", "--mu", "1", "--t", "-inf", "--terms", "3"],
     "t must be finite, got -inf\n"),
    (["starexp", "--lambda", "1/4", "--mu", "1", "--t", "-Infinity", "--terms", "3"],
     "t must be finite, got -inf\n"),
    (["starexp", "--lambda", "1/4", "--mu", "1", "--t", "-INF", "--terms", "3"],
     "t must be finite, got -inf\n"),
    (["starexp", "--lambda", "1/4", "--mu", "1", "--t", "-nan", "--terms", "3"],
     "t must be finite, got nan\n"),
    (["starexp", "--lambda", "1/4", "--mu", "1", "--t=-inf", "--terms", "3"],
     "t must be finite, got -inf\n"),
    # a mu that no float holds is a typed error, not a traceback
    (["starexp", "--lambda", "1/4", "--mu", "1e400", "--t", "0.5"],
     "mu = 1.0e+400 exceeds the float range\n"),
    (["starexp", "--lambda", "0", "--mu", "1e400", "--t", "0.5"],
     "mu = 1.0e+400 exceeds the float range\n"),
], ids=["weights-needs", "unknown-table", "fund-k-max", "fund-n-max",
        "float-prec", "pi-series", "starexp-t", "table-out", "verify-out",
        "lambda-zero-den", "mu-zero-den", "pi-mu-negative", "starexp-mu-negative",
        "pi-n", "pi-terms", "weights-k", "moments-k", "scan-k-max",
        "scan-denominator-max", "duality-n-max", "laguerre-n", "starexp-terms",
        "float-prec-18", "pi-missing-n", "unknown-command", "pi-lambda-negative-rational",
        "pi-lambda-equals-negative-rational", "pi-mu-negative-rational",
        "starexp-mu-negative-rational", "weights-lambda-negative-rational",
        "pi-mu-negative-exponent", "pi-mu-negative-malformed", "starexp-t-negative-inf",
        "starexp-t-negative-infinity", "starexp-t-negative-inf-upper",
        "starexp-t-negative-nan", "starexp-t-equals-negative-inf",
        "starexp-mu-past-floats", "starexp-lambda-0-mu-past-floats"])
def test_invalid_input_is_an_error_line(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected a flag's value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {message}")


def test_float_prec_zero_still_prints(capsys):
    code, out = run_cli(capsys, "moments", "--lambda", "1/2", "--k", "2",
                        "--float-prec", "0")
    assert code == 0
    assert out.splitlines()[4] == "classical_std,,0.9"


def test_float_prec_17_is_the_largest_that_prints(capsys):
    # 17 digits tell every double apart; 18 is rejected (test above)
    code, out = run_cli(capsys, "pi", "--lambda", "1/4", "--n", "2", "--mu", "1",
                        "--float-prec", "17")
    assert code == 0
    assert out.splitlines()[-1] == "value_at_mu,0.17790094918098434"


def test_pi_past_the_float_exponent_range_exits_zero(capsys):
    code, out = run_cli(capsys, "pi", "--lambda", "17/64", "--n", "390",
                        "--mu", "801")
    assert code == 0
    assert out.splitlines()[-1] == "value_at_mu,4.87810307113e-98"


@pytest.fixture
def default_int_str_limit():
    """The interpreter's default int-to-str digit limit (3.11+), put back
    as it was afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("argv", [
    ["pi", "--lambda", "1/4", "--n", "1291", "--mu", "1"],
    ["export", "--what", "laguerre", "--n", "1559"],
], ids=["pi-n1291", "laguerre-n1559"])
def test_exact_values_past_4300_digits_print_whole(capsys, default_int_str_limit, argv):
    # the first n whose table holds an int of more than 4300 digits
    code, out = run_cli(capsys, *argv)
    assert code == 0
    last = out.splitlines()[-1]
    if argv[0] == "pi":
        assert last.startswith("value_at_mu,")
    else:
        k, c = last.split(",")
        assert int(k) == 1559
        assert Fraction(c) == Fraction((-1) ** 1559, factorial(1559))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "2/7", "--n-max", "6"],
    ["weights", "--lambda", "1/4", "--k", "5"],
    ["duality", "--lambda", "1/3", "--n-max", "4"],
    ["scan", "--k-max", "30", "--denominator-max", "12"],
], ids=lambda a: a[0])
def test_direct_table_command_matches_export(capsys, argv):
    code, direct = run_cli(capsys, *argv)
    assert code == 0
    code, exported = run_cli(capsys, "export", "--what", *argv)
    assert code == 0
    assert direct == exported


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_table_commands_match_recorded_digests(capsys, case):
    # digests, not text: the n = 390 projector table alone is 0.86 MB
    code, out = run_cli(capsys, *case["argv"])
    assert code == case["exit_code"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == case["stdout_sha256"]
