import csv
import dataclasses
import json
import math
import os
import warnings
from pathlib import Path

import pytest

import surgeseek.cli as cli
import surgeseek.scenario as sc
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


def _strict_json(path):
    def rejects(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=rejects)


def test_compare_writes_null_for_a_radius_never_reached(workdir, capsys):
    # in 5 s the vessel does not come within 0.5 m of the source, 3.6 m away
    out, scenario = workdir
    assert main(["compare", scenario]) == 0
    assert "convergence_time=inf\n" in capsys.readouterr().out
    meta = _strict_json(out / "compare_meta.json")
    assert meta["metrics"]["convergence_time"] is None
    assert meta["metrics"]["convergence_radius"] == 0.5


def test_compare_fails_rather_than_write_a_non_finite_metric(workdir, capsys, monkeypatch):
    out, scenario = workdir
    compare = sc.compare
    monkeypatch.setattr(sc, "compare", lambda *args, **kwargs: dataclasses.replace(
        compare(*args, **kwargs), sup_deviation=math.nan))
    assert main(["compare", scenario]) == 1
    assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["scenario.ini"]


def test_an_unknown_section_fails_before_any_run(workdir, capsys, monkeypatch):
    out, scenario = workdir
    Path(scenario).write_text(SCENARIO_INI + "\n[intial]\nx = 5.0\n")
    monkeypatch.setattr(sc, "run_forked", lambda *_args: pytest.fail("a run started"))
    assert main(["simulate", scenario]) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: [intial]: unknown section")
    assert sorted(p.name for p in out.iterdir()) == ["scenario.ini"]


@pytest.mark.parametrize("command", ["simulate", "average", "compare", "sweep"])
@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_runs_print_the_torque_warning_once(workdir, capfd, monkeypatch, command, cpus):
    # c = 25 is above the reference boat's c_hat = 20.2535; on two CPUs
    # compare and sweep fork a child, which must not print the warning
    # again, and a sweep prints a warning its values share once
    _, scenario = workdir
    Path(scenario).write_text(SCENARIO_INI.replace("c = 1.0", "c = 25.0"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: cpus, raising=False)
    sweep = ["--axis", "c", "--values", "1,25,25"] if command == "sweep" else []
    assert main([command, scenario, *sweep]) == 0
    assert capfd.readouterr().err == (
        "warning: torque c=25 is at or above the shifted-passivity bound 20.2535; "
        "continuing anyway\n")


@pytest.mark.parametrize("command", ["simulate", "average", "compare", "sweep", "demo-di"])
def test_an_empty_output_dir_variable_is_named_before_any_run(workdir, capsys, monkeypatch,
                                                              command):
    out, scenario = workdir
    monkeypatch.chdir(out)
    monkeypatch.setenv("SURGESEEK_OUTPUT_DIR", "")
    monkeypatch.setattr(sc, "run_forked", lambda *_args: pytest.fail("a run started"))
    monkeypatch.setattr(cli.averaging, "double_integrator_demo",
                        lambda *_args, **_kwargs: pytest.fail("a run started"))
    args = {"sweep": [scenario, "--axis", "k", "--values", "1"], "demo-di": []}
    assert main([command, *args.get(command, [scenario])]) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: SURGESEEK_OUTPUT_DIR: empty")
    assert sorted(p.name for p in out.iterdir()) == ["scenario.ini"]


@pytest.mark.parametrize("command, name", [("simulate", "full_meta.json"),
                                           ("average", "averaged_meta.json"),
                                           ("compare", "compare_meta.json")])
def test_a_failed_meta_write_keeps_the_earlier_meta(workdir, capsys, monkeypatch,
                                                    command, name):
    # the CSVs and the meta are renamed into place together: a failed meta
    # write leaves the earlier CSVs beside the earlier meta they match
    out, scenario = workdir
    csvs = {"simulate": ["full.csv"], "average": ["averaged.csv"],
            "compare": ["full.csv", "averaged.csv"]}[command]
    (out / name).write_bytes(b"earlier meta\n")
    for csv_name in csvs:
        (out / csv_name).write_bytes(b"earlier " + csv_name.encode() + b"\n")

    def fails_part_way(_meta, f, **_kwargs):
        f.write('{\n  "declared')
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", fails_part_way)
    assert main([command, scenario]) == 1
    assert "disk full" in capsys.readouterr().err
    assert (out / name).read_bytes() == b"earlier meta\n"
    for csv_name in csvs:
        assert (out / csv_name).read_bytes() == b"earlier " + csv_name.encode() + b"\n"
    assert [p.name for p in out.iterdir() if p.suffix == ".tmp"] == []


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


def test_sweep_keeps_the_earlier_csv_when_its_write_fails(workdir, capsys, monkeypatch):
    out, scenario = workdir
    (out / "sweep_k.csv").write_bytes(b"earlier sweep\n")
    write_metrics_csv = sc.write_metrics_csv

    def fails_after_writing(rows, path):
        write_metrics_csv(rows, path)
        raise OSError("disk full")

    monkeypatch.setattr(sc, "write_metrics_csv", fails_after_writing)
    assert main(["sweep", scenario, "--axis", "k", "--values", "0.5"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["scenario.ini", "sweep_k.csv"]
    assert (out / "sweep_k.csv").read_bytes() == b"earlier sweep\n"


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


@pytest.mark.parametrize("torque", ["nan", "inf"])
def test_passivity_names_a_non_finite_torque(workdir, capsys, torque):
    _, scenario = workdir
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["passivity", "--scenario", scenario, "--c", torque]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ValueError: torque c ")
    assert torque in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("radius", ["nan", "-1", "0", "inf"])
def test_compare_rejects_a_meaningless_radius(workdir, capsys, radius):
    out, scenario = workdir
    assert main(["compare", scenario, "--radius", radius]) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: --radius: ")
    assert sorted(p.name for p in out.iterdir()) == ["scenario.ini"]


def test_demo_di(workdir, capsys):
    out, _ = workdir
    assert main(["demo-di", "--omega", "10", "--horizon", "10"]) == 0
    assert (out / "demo_di.csv").exists()
    assert "final_error_full=" in capsys.readouterr().out


def test_demo_di_keeps_the_earlier_csv_when_its_write_fails(workdir, capsys, monkeypatch):
    out, _ = workdir
    (out / "demo_di.csv").write_bytes(b"earlier run\n")
    write_rows = sc._write_rows

    def fails_after_writing(path, *args):
        write_rows(path, *args)
        raise OSError("disk full")

    monkeypatch.setattr(sc, "_write_rows", fails_after_writing)
    assert main(["demo-di", "--omega", "10", "--horizon", "10"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["demo_di.csv", "scenario.ini"]
    assert (out / "demo_di.csv").read_bytes() == b"earlier run\n"


@pytest.mark.parametrize("flags, name", [(["--omega", "-5"], "omega_freq"),
                                         (["--omega", "0"], "omega_freq"),
                                         (["--horizon", "0"], "horizon"),
                                         (["--horizon", "-1"], "horizon"),
                                         (["--omega", "inf"], "omega_freq"),
                                         (["--omega", "nan"], "omega_freq"),
                                         (["--horizon", "inf"], "horizon"),
                                         (["--horizon", "nan"], "horizon"),
                                         (["--alpha", "inf"], "alpha"),
                                         (["--alpha", "nan"], "alpha")])
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
