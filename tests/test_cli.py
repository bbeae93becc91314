import csv
import json
from pathlib import Path

import pytest

from surgeseek.cli import main

BENCHMARK_INI = Path(__file__).resolve().parents[1] / "scenarios" / "benchmark.ini"

SCENARIO_INI = """\
[vehicle]
m11 = 1.412
m22 = 1.982
m33 = 0.354
d11 = 3.436
d22 = 12.99
d33 = 0.864

[gains]
k = 1.0
c = 1.0
epsilon = 0.1

[run]
horizon = 5.0
samples_per_period = 100
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SURGESEEK_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO_INI)
    return tmp_path, str(path)


def test_simulate_writes_csv_and_meta(workdir, capsys):
    out, scenario = workdir
    assert main(["simulate", scenario]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("full.csv")
    lines = (out / "full.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,theta,vx,vy,omega,u1,u2,rho"
    meta = json.loads((out / "full_meta.json").read_text())
    assert meta["gains"] == {"k": 1.0, "c": 1.0, "epsilon": 0.1}
    assert meta["warnings"] == []


def test_simulate_reruns_byte_identical(workdir):
    out, scenario = workdir
    assert main(["simulate", scenario]) == 0
    first = (out / "full.csv").read_bytes()
    assert main(["simulate", scenario]) == 0
    assert (out / "full.csv").read_bytes() == first


def test_average_and_compare(workdir, capsys):
    out, scenario = workdir
    assert main(["average", scenario]) == 0
    assert (out / "averaged.csv").exists()
    assert main(["compare", scenario, "--radius", "0.5"]) == 0
    stdout = capsys.readouterr().out
    assert "final_error=" in stdout and "sup_deviation=" in stdout
    meta = json.loads((out / "compare_meta.json").read_text())
    assert meta["metrics"]["convergence_radius"] == 0.5


def test_sweep_writes_metrics(workdir):
    out, scenario = workdir
    code = main(["sweep", scenario, "--axis", "k", "--values", "0.5,1.0"])
    assert code == 0
    lines = (out / "sweep_k.csv").read_text().splitlines()
    assert lines[0].startswith("param_value,final_error")
    assert len(lines) == 3


def test_sweep_bad_value_exits_nonzero(workdir):
    out, scenario = workdir
    code = main(["sweep", scenario, "--axis", "epsilon", "--values", "0.1,-1"])
    assert code == 1
    assert (out / "sweep_epsilon.csv").exists()


def test_sweep_writes_never_only_for_an_unreached_radius(tmp_path, monkeypatch):
    monkeypatch.setenv("SURGESEEK_OUTPUT_DIR", str(tmp_path))
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(BENCHMARK_INI.read_text().replace("horizon = 100.0", "horizon = 2.0"))
    assert main(["sweep", str(scenario), "--axis", "epsilon", "--values", "0.1,inf"]) == 1
    with open(tmp_path / "sweep_epsilon.csv", newline="") as f:
        ok, failed = csv.DictReader(f)
    # 2 s is too short to reach the radius; an infinite epsilon fails the row
    assert (ok["param_value"], ok["conv_time_r"], ok["status"]) == ("0.1", "never", "ok")
    assert (failed["param_value"], failed["conv_time_r"]) == ("inf", "nan")
    assert failed["status"] != "ok"


@pytest.mark.parametrize("values, bad", [("0.5,abc", "'abc'"), ("1, 2x ,3", "'2x'"),
                                         (" , ", "no sweep values")])
def test_sweep_names_the_bad_value(workdir, capsys, values, bad):
    out, scenario = workdir
    assert main(["sweep", scenario, "--axis", "k", "--values", values]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: --values: ") and bad in err
    assert not (out / "sweep_k.csv").exists()


def test_validate_dither_exit_codes(capsys):
    assert main(["validate-dither", "--signal", "cos",
                 "--period", "6.283185307179586"]) == 0
    assert "pass" in capsys.readouterr().out
    assert main(["validate-dither", "--signal", "sin",
                 "--period", "6.283185307179586"]) == 1
    assert "fail" in capsys.readouterr().out


@pytest.mark.parametrize("flags, name", [(["--period", "nan"], "period"),
                                         (["--period", "inf"], "period"),
                                         (["--period", "0"], "period"),
                                         (["--period", "6.28", "--tol", "-1"], "tol"),
                                         (["--period", "6.28", "--tol", "nan"], "tol")])
def test_validate_dither_rejects_bad_period_or_tol(capsys, flags, name):
    assert main(["validate-dither", "--signal", "cos", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ValueError: ") and name in captured.err
    assert "fail" not in captured.out


def test_passivity_report(workdir, capsys):
    _, scenario = workdir
    assert main(["passivity", "--scenario", scenario]) == 0
    stdout = capsys.readouterr().out
    assert "c_hat=20.25" in stdout and "monotone=True" in stdout


def test_demo_di(workdir, capsys):
    out, _ = workdir
    assert main(["demo-di", "--omega", "10", "--horizon", "10"]) == 0
    assert (out / "demo_di.csv").exists()
    assert "final_error_full=" in capsys.readouterr().out


@pytest.mark.parametrize("flags, name", [(["--omega", "-5"], "omega_freq"),
                                         (["--omega", "0"], "omega_freq"),
                                         (["--horizon", "0"], "horizon"),
                                         (["--horizon", "-1"], "horizon")])
def test_demo_di_rejects_non_positive_values(workdir, capsys, flags, name):
    out, _ = workdir
    assert main(["demo-di", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and name in err
    assert not (out / "demo_di.csv").exists()


def test_missing_scenario_reports_error(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope.ini")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: FileNotFoundError")
