import json

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
    code = main(["spectrum", "--lambda", "1/4", "--n-max", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: n_max must be >= 0")
