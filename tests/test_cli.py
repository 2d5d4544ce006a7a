"""Command-line harness: exit codes, output files, and byte-level reproducibility."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from mirrorboost import cli, datagen, md_core
from mirrorboost.boosting import TrainingSet
from mirrorboost.cli import (
    EXIT_CERTIFICATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    ConfigError,
    main,
    parse_data_spec,
)
from mirrorboost.datagen import make_regression, write_regression_csv
from mirrorboost.trace import read_trace


def test_parse_data_spec_forms():
    assert parse_data_spec("csv:some/dir/data.csv") == ("csv", "some/dir/data.csv")
    assert parse_data_spec("plain.csv") == ("csv", "plain.csv")
    kind = parse_data_spec("synthetic:separable:seed=7:m=12:d=3")
    assert kind == ("synthetic", "separable", 7, {"m": 12, "d": 3})
    noise = parse_data_spec("synthetic:regression:seed=1:noise=0.25")
    assert noise == ("synthetic", "regression", 1, {"noise": 0.25})


def test_parse_data_spec_errors():
    for bad in ("synthetic:separable",          # no seed
                "synthetic:mystery:seed=1",     # unknown kind
                "synthetic::seed=1",            # empty kind
                "synthetic:separable:seed",     # not key=value
                "synthetic:separable:seed=x",   # not numeric
                "not-a-spec"):
        with pytest.raises(ConfigError):
            parse_data_spec(bad)


def test_experiment_config_round_trip():
    config = ExperimentConfig(task="fs", data="synthetic:regression:seed=3",
                              schedule="constant", iterations=50, epsilon=0.05,
                              center=True, scale=True, out_dir="x", prefix="p")
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"task": "fs", "data": "d.csv", "mystery": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"task": "fs"})


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="boosting", data="d.csv").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(task="adaboost", data="d.csv", schedule="optimal").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(task="fs", data="d.csv", schedule="constant").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(task="minmax-game", data="d.csv", schedule="polyak").validate()
    ExperimentConfig(task="fs", data="d.csv", schedule="constant", epsilon=0.1).validate()


def test_run_adaboost_writes_all_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "adaboost", "--data", "synthetic:nonseparable:seed=7",
                 "--iters", "30", "--out", str(out), "--prefix", "ada"])
    assert code == EXIT_OK
    for suffix in ("trace.jsonl", "report.json", "report.txt", "plot.csv"):
        assert (out / f"ada.{suffix}").exists()
    header, records, terminated = read_trace(out / "ada.trace.jsonl")
    assert header.algorithm == "adaboost" and len(records) == 30
    assert terminated is None
    report = json.loads((out / "ada.report.json").read_text())
    assert report["summary"]["failed"] == 0
    # plot rows: one per iteration plus the column header
    plot_lines = (out / "ada.plot.csv").read_text().strip().splitlines()
    assert len(plot_lines) == 31
    assert plot_lines[0] == "k,objective,best_objective,dual,gap,bound"


def test_run_fs_constant_schedule(tmp_path):
    out = tmp_path / "fs"
    code = main(["run", "fs", "--data", "synthetic:regression:seed=3",
                 "--schedule", "constant", "--epsilon", "0.05",
                 "--iters", "40", "--out", str(out), "--prefix", "f"])
    assert code == EXIT_OK
    header, records, _ = read_trace(out / "f.trace.jsonl")
    assert header.algorithm == "stagewise" and header.eps == 0.05
    assert records[0].l1 == 0.0


def test_run_usage_errors_write_nothing(tmp_path):
    out = tmp_path / "never"
    cases = [
        ["run", "adaboost", "--data", "synthetic:nonseparable:seed=1",
         "--schedule", "optimal", "--out", str(out)],
        ["run", "fs", "--data", "synthetic:regression:seed=1",
         "--schedule", "constant", "--out", str(out)],  # missing epsilon
        ["run", "minmax-game", "--data", "synthetic:game:seed=1",
         "--schedule", "polyak", "--out", str(out)],    # missing f-star
        ["run", "fs", "--data", "synthetic:separable:seed=1", "--schedule",
         "linesearch", "--out", str(out)],              # wrong data kind
        ["run", "adaboost", "--out", str(out)],         # no data
    ]
    for argv in cases:
        assert main(argv) == EXIT_USAGE
        assert not out.exists()


def test_run_rejects_a_step_with_no_finite_square(tmp_path, monkeypatch, capsys):
    # a game whose largest entry is near the subnormal range: the tuned steps
    # would overflow, so the run stops with a usage error before it starts
    tiny = TrainingSet.from_margin_matrix(np.array([[2e-311, -1e-311], [0.0, 2e-311]]))
    monkeypatch.setattr(datagen, "make_margin_matrix", lambda **_: tiny)

    def never(*args, **kwargs):
        raise AssertionError("the engine must not run")

    monkeypatch.setattr(md_core, "run", never)
    out = tmp_path / "never"
    for schedule in ("constant", "dynamic"):
        assert main(["run", "minmax-game", "--data", "synthetic:game:seed=1",
                     "--schedule", schedule, "--out", str(out)]) == EXIT_USAGE
        assert "no finite square" in capsys.readouterr().err
    assert not out.exists()


def test_dynamic_run_whose_square_sum_overflows_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the dynamic schedule checks only its first step: here twice its square
    # is finite, but the squares summed over 10 rounds overflow, so the
    # running-gap certificate's slack is not finite and the strict trace
    # writer refuses it after the run
    tiny = TrainingSet.from_margin_matrix(np.array([[1.3e-154, -0.6e-154], [0.0, 1.3e-154]]))
    monkeypatch.setattr(datagen, "make_margin_matrix", lambda **_: tiny)
    out = tmp_path / "out"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=1",
                 "--schedule", "dynamic", "--iters", "10", "--out", str(out)]) == EXIT_USAGE
    assert "field 'slacks.gap-running' is not finite" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_run_missing_csv_is_io_error(tmp_path):
    out = tmp_path / "never"
    code = main(["run", "fs", "--data", str(tmp_path / "absent.csv"),
                 "--schedule", "linesearch", "--out", str(out)])
    assert code == EXIT_IO
    assert not out.exists()


def test_run_is_byte_deterministic(tmp_path):
    argv = ["run", "adaboost", "--data", "synthetic:nonseparable:seed=13",
            "--schedule", "dynamic", "--iters", "25", "--prefix", "d"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == EXIT_OK
    assert main(argv + ["--out", str(out_b)]) == EXIT_OK
    for name in ("d.trace.jsonl", "d.report.json", "d.report.txt", "d.plot.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_check_reproduces_the_report_bytes(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "fs", "--data", "synthetic:regression:seed=5",
                 "--schedule", "optimal", "--iters", "60",
                 "--out", str(out), "--prefix", "fo"]) == EXIT_OK
    redo = tmp_path / "redo"
    assert main(["check", str(out / "fo.trace.jsonl"), "--out", str(redo)]) == EXIT_OK
    assert (redo / "fo.report.json").read_bytes() == (out / "fo.report.json").read_bytes()
    assert (redo / "fo.report.txt").read_bytes() == (out / "fo.report.txt").read_bytes()


def test_check_flags_tampered_traces(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "adaboost", "--data", "synthetic:nonseparable:seed=2",
                 "--iters", "15", "--out", str(out), "--prefix", "t"]) == EXIT_OK
    trace = out / "t.trace.jsonl"
    lines = trace.read_text().splitlines()
    doctored = []
    for line in lines:
        obj = json.loads(line)
        if obj["type"] == "record" and obj["k"] == 7:
            obj["dual"] = 5.0  # impossible: the dual value never exceeds the primal
        doctored.append(json.dumps(obj, sort_keys=True))
    trace.write_text("\n".join(doctored) + "\n")
    assert main(["check", str(trace), "--out", str(tmp_path / "re")]) == EXIT_CERTIFICATE


def test_check_io_and_usage_errors(tmp_path):
    assert main(["check", str(tmp_path / "absent.trace.jsonl")]) == EXIT_IO
    empty = tmp_path / "empty.trace.jsonl"
    empty.write_text("")
    assert main(["check", str(empty)]) == EXIT_USAGE


def test_gen_round_trips_through_run(tmp_path):
    csv_path = tmp_path / "data" / "cls.csv"
    assert main(["gen", "synthetic:separable:seed=9:m=12:d=2",
                 "--out", str(csv_path)]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["run", "adaboost", "--data", str(csv_path), "--schedule",
                 "dynamic", "--iters", "10", "--out", str(out),
                 "--prefix", "g"]) == EXIT_OK
    header, _, _ = read_trace(out / "g.trace.jsonl")
    assert header.shape["m"] == 12


def test_gen_rejects_matrix_level_kinds(tmp_path):
    assert main(["gen", "synthetic:game:seed=1",
                 "--out", str(tmp_path / "g.csv")]) == EXIT_USAGE
    assert not (tmp_path / "g.csv").exists()


def test_run_from_config_file(tmp_path):
    out = tmp_path / "cfg"
    config = {"task": "fs", "data": "synthetic:regression:seed=3",
              "schedule": "linesearch", "iterations": 20,
              "out_dir": str(out), "prefix": "c"}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    header, _, _ = read_trace(out / "c.trace.jsonl")
    assert header.config["schedule"] == "linesearch"
    # the config file replaces positional arguments
    assert main(["run", "adaboost", "--config", str(cfg_path)]) == EXIT_USAGE


def test_mistyped_config_is_a_usage_error(tmp_path, capsys):
    assert set(cli._CONFIG_TYPES) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    base = {"task": "fs", "data": "synthetic:regression:seed=3", "schedule": "linesearch",
            "iterations": 5, "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "exp.json"
    for key, bad in (("iterations", "5"), ("iterations", True), ("iterations", 5.0),
                     ("task", 3), ("data", None), ("schedule", ["linesearch"]),
                     ("epsilon", "0.1"), ("f_star", False), ("center", 1),
                     ("use_response_bound", "yes"), ("out_dir", 7), ("prefix", {})):
        cfg_path.write_text(json.dumps({**base, key: bad}))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE, (key, bad)
        assert f"config key {key!r}" in capsys.readouterr().err
    cfg_path.write_text(json.dumps([base]))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()
    # integers are accepted where a float is expected, null where a field is optional
    cfg_path.write_text(json.dumps({**base, "f_star": 0, "epsilon": None, "prefix": None}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK


def test_outdir_env_var_is_the_default(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("MIRRORBOOST_OUTDIR", str(env_dir))
    assert main(["run", "adaboost", "--data", "synthetic:nonseparable:seed=1",
                 "--iters", "5", "--prefix", "e"]) == EXIT_OK
    assert (env_dir / "e.trace.jsonl").exists()


def test_terminal_event_lands_in_the_trace(tmp_path):
    csv_path = tmp_path / "tiny.csv"
    write_regression_csv(csv_path, np.eye(2), np.array([1.0, 0.0]))
    out = tmp_path / "run"
    assert main(["run", "fs", "--data", str(csv_path), "--schedule", "linesearch",
                 "--iters", "10", "--out", str(out), "--prefix", "t"]) == EXIT_OK
    _, records, terminated = read_trace(out / "t.trace.jsonl")
    assert len(records) == 1
    assert terminated is not None and "orthogonal" in terminated


def test_bad_arguments_return_usage_exit_code():
    assert main([]) == EXIT_USAGE
    assert main(["run", "adaboost", "--schedule", "banana",
                 "--data", "synthetic:nonseparable:seed=1"]) == EXIT_USAGE


def test_console_entry_point(tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "mirrorboost", "run", "adaboost",
         "--data", "synthetic:nonseparable:seed=4", "--iters", "5",
         "--out", str(out), "--prefix", "s"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "certificates:" in proc.stdout
    assert (out / "s.trace.jsonl").exists()
