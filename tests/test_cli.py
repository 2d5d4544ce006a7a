"""Command-line harness: exit codes, output files, and byte-level reproducibility."""

import dataclasses
import gc
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mirrorboost import bounds, cli, datagen, md_core
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
from mirrorboost.md_core import MinmaxProblem
from mirrorboost.stagewise import RegressionProblem
from mirrorboost.trace import read_trace

# format-1 traces, as the parent fixtures of test_parent_outputs.py
PARENT = Path(__file__).parent / "data" / "parent"


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
                "synthetic:nonseparable:seed=1:m=4:d=1:seed=2",  # a repeated seed
                "synthetic:nonseparable:seed=1:m=4:m=5:d=1",     # a repeated size
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


# options the task does not read, which would be written into the header's
# config as an experiment that did not run, and data spec keys given twice
@pytest.mark.parametrize("args, refusal", [
    (["adaboost", "--data", "synthetic:nonseparable:seed=1:m=4:d=1", "--center", "--scale",
      "--use-response-bound"], "--center is only for fs"),
    (["adaboost", "--data", "synthetic:nonseparable:seed=1:m=4:d=1", "--scale"],
     "--scale is only for fs"),
    (["minmax-game", "--data", "synthetic:game:seed=1:m=3:n=2", "--use-response-bound"],
     "--use-response-bound is only for fs"),
    (["fs", "--data", "synthetic:regression:seed=1:n=5:p=3", "--schedule", "optimal",
      "--epsilon", "5"], "--epsilon is only for fs with the constant schedule"),
    (["minmax-game", "--data", "synthetic:game:seed=1:m=3:n=2", "--epsilon", "0.1"],
     "--epsilon is only for fs with the constant schedule"),
    (["fs", "--data", "synthetic:regression:seed=1:n=5:p=3", "--schedule", "linesearch",
      "--f-star", "0"], "--f-star is not for fs, whose optimal value is 0.0"),
    (["fs", "--data", "synthetic:regression:seed=1:n=5:p=3", "--schedule", "constant",
      "--epsilon", "0.1", "--f-star=-1e-3"], "--f-star is not for fs"),
    (["adaboost", "--data", "synthetic:nonseparable:seed=1:m=4:d=1:seed=2"],
     "data spec token 'seed=2' repeats the key 'seed'"),
    (["adaboost", "--data", "synthetic:nonseparable:seed=1:m=4:m=5:d=1"],
     "data spec token 'm=5' repeats the key 'm'"),
])
def test_run_refuses_an_option_its_task_ignores_and_a_repeated_spec_key(tmp_path, capsys,
                                                                        args, refusal):
    out = tmp_path / "never"
    assert main(["run", *args, "--out", str(out)]) == EXIT_USAGE
    assert refusal in capsys.readouterr().err
    assert not out.exists()


def test_an_instance_too_large_to_allocate_is_a_usage_error(tmp_path, capsys):
    # 10^18 float64 entries, 8e18 bytes, exceed any address space: numpy
    # refuses the payoff before it allocates anything
    out = tmp_path / "never"
    assert main(["run", "minmax-game", "--data",
                 "synthetic:game:seed=1:m=1000000000:n=1000000000",
                 "--schedule", "dynamic", "--iters", "1", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fs", "--data", "synthetic:regression:seed=1:n=30:p=20", "--schedule", "constant",
     "--epsilon", "inf"],
    ["fs", "--data", "synthetic:regression:seed=1:n=30:p=20", "--schedule", "constant",
     "--epsilon", "nan"],
    ["adaboost", "--data", "synthetic:nonseparable:seed=1:m=30:d=3", "--f-star", "nan"],
    ["minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10", "--schedule", "polyak",
     "--f-star", "nan"],
    ["minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10", "--schedule", "polyak",
     "--f-star=-inf"],
    # a negative number after the flag, as its own token, is the flag's value
    ["minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10", "--schedule", "polyak",
     "--f-star", "-inf"],
    ["fs", "--data", "synthetic:regression:seed=1:n=30:p=20", "--schedule", "constant",
     "--epsilon", "-inf"],
    "config",
])
def test_a_non_finite_epsilon_or_f_star_is_refused_before_the_build(tmp_path, monkeypatch,
                                                                   capsys, args):
    def never(*args, **kwargs):
        raise AssertionError("neither the build nor the engine may run")

    monkeypatch.setattr(datagen, "generate_synthetic", never)
    monkeypatch.setattr(md_core, "run", never)
    out = tmp_path / "never"
    if args == "config":  # json.load reads the NaN token json.dumps writes
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"task": "adaboost", "data": "synthetic:nonseparable:seed=1",
                                    "f_star": math.nan, "out_dir": str(out)}))
        argv = ["run", "--config", str(path)]
    else:
        argv = ["run", *args, "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert "must be finite" in capsys.readouterr().err
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


@pytest.mark.parametrize("schedule, extra", [
    ("constant", ["--epsilon", "1e300"]),  # the user's shrinkage
    ("optimal", []),  # the tuned shrinkage, large because the design's norm is tiny
])
def test_fs_fixed_steps_with_no_finite_square_are_refused_before_the_run(
        tmp_path, monkeypatch, capsys, schedule, extra):
    from mirrorboost.stagewise import RegressionProblem

    tiny = RegressionProblem(design=np.array([[1e-160, 0.0], [0.0, 2e-160], [1e-160, 1e-160]]),
                             response=np.array([1.0, -2.0, 0.5]))
    monkeypatch.setattr(datagen, "make_regression", lambda **_: tiny)

    def never(*args, **kwargs):
        raise AssertionError("the engine must not run")

    monkeypatch.setattr(md_core, "run", never)
    out = tmp_path / "never"
    assert main(["run", "fs", "--data", "synthetic:regression:seed=1", "--schedule", schedule,
                 *extra, "--iters", "3", "--out", str(out)]) == EXIT_USAGE
    assert "no finite square sum over 3 step(s)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bound", [[], ["--use-response-bound"]])
def test_run_refuses_a_header_the_trace_would_refuse_before_the_run(tmp_path, monkeypatch,
                                                                    capsys, bound):
    # the fit's norm overflows, so the diameter 0.5 * ||fit||^2 is not finite;
    # the norm is taken with overflow ignored, so no RuntimeWarning is raised
    def never(*args, **kwargs):
        raise AssertionError("the engine must not run")

    monkeypatch.setattr(md_core, "run", never)
    out = tmp_path / "never"
    assert main(["run", "fs", "--data", "synthetic:regression:seed=1:n=5:p=3:noise=1e308",
                 "--schedule", "linesearch", "--iters", "2", *bound,
                 "--out", str(out)]) == EXIT_USAGE
    assert "header line: field 'diameter' is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--f-star", "--f-s"])  # argparse takes a unique prefix
def test_a_negative_f_star_after_the_flag_is_its_value(tmp_path, flag):
    out = tmp_path / "out"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=1:m=5:n=4",
                 "--schedule", "polyak", flag, "-1e-3", "--iters", "5",
                 "--out", str(out)]) == EXIT_OK
    header, _, _ = read_trace(out / "minmax-game.trace.jsonl")
    assert header.f_star == -0.001
    assert header.config["f_star"] == -0.001


@pytest.mark.parametrize("args, problem_shape", [
    (["adaboost", "--data", "synthetic:nonseparable:seed=1:m=30:d=3"], ("m", "n")),
    (["minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10"], ("m", "n")),
    (["fs", "--data", "synthetic:regression:seed=1:n=30:p=20", "--schedule", "linesearch"],
     ("n", "p")),
    # center_scale makes a second regression problem; only its own payoff is made
    (["fs", "--data", "synthetic:regression:seed=1:n=30:p=20", "--schedule", "optimal",
      "--center", "--scale"], ("n", "p")),
])
def test_a_run_makes_one_problem_and_its_header_describes_it(tmp_path, monkeypatch, args,
                                                              problem_shape):
    made, ran = [], []
    post_init = md_core.MinmaxProblem.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    engine = md_core.run

    def recorded(problem, *rest, **kwargs):
        ran.append(problem)
        return engine(problem, *rest, **kwargs)

    monkeypatch.setattr(md_core.MinmaxProblem, "__post_init__", counted)
    monkeypatch.setattr(md_core, "run", recorded)
    out = tmp_path / "out"
    assert main(["run", *args, "--iters", "20", "--out", str(out), "--prefix", "p"]) == EXIT_OK
    assert len(made) == len(ran) == 1
    problem = ran[0]
    assert made[0] is problem
    header, _, _ = read_trace(out / "p.trace.jsonl")
    assert header.lipschitz == problem.lipschitz()
    rows, columns = problem_shape
    assert header.shape == {rows: problem.m, columns: problem.n}


def test_dynamic_run_whose_square_sum_overflows_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the dynamic schedule checks only its first step: here twice its square
    # is finite, but the squares summed over 10 rounds overflow, so the
    # running-gap certificate's bound is not finite and the strict report
    # refuses it after the run
    tiny = TrainingSet.from_margin_matrix(np.array([[1.3e-154, -0.6e-154], [0.0, 1.3e-154]]))
    monkeypatch.setattr(datagen, "make_margin_matrix", lambda **_: tiny)
    out = tmp_path / "out"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=1",
                 "--schedule", "dynamic", "--iters", "10", "--out", str(out)]) == EXIT_USAGE
    assert "tag 'gap-running': field 'bound' is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_run_refuses_a_feature_csv_with_a_non_finite_cell(tmp_path, capsys, cell):
    # a non-finite feature would make a stump with an infinite threshold
    data = tmp_path / "bad.csv"
    data.write_text(f"f0,f1,label\n1.0,{cell},1\n2.0,3.0,-1\n")
    out = tmp_path / "never"
    assert main(["run", "adaboost", "--data", str(data), "--out", str(out)]) == EXIT_USAGE
    assert f"features must be finite, got {float(cell)!r}" in capsys.readouterr().err
    assert not out.exists()


def test_run_whose_running_bound_overflows_agrees_with_check(tmp_path):
    # a subnormal shrinkage puts the running bound past the largest float: the
    # certificate is not evaluable, in run's report and in check's alike
    out = tmp_path / "out"
    assert main(["run", "fs", "--data", "synthetic:regression:seed=1:n=30:p=20",
                 "--schedule", "constant", "--epsilon", "5e-324", "--iters", "5",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "fs.report.json").read_text())
    assert report["by_tag"]["opt-running"]["not_evaluable"] == 5
    assert {r["note"] for r in report["records"] if r["tag"] == "opt-running"} == {
        "bound is not finite"}
    assert main(["check", str(out / "fs.trace.jsonl"), "--out", str(tmp_path / "re")]) == EXIT_OK
    for name in ("fs.report.json", "fs.report.txt"):
        assert (tmp_path / "re" / name).read_bytes() == (out / name).read_bytes()


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


def _game_trace_lines(tmp_path) -> list[str]:
    out = tmp_path / "run"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=3:m=20:n=15",
                 "--schedule", "dynamic", "--iters", "50",
                 "--out", str(out), "--prefix", "g"]) == EXIT_OK
    return (out / "g.trace.jsonl").read_text().splitlines()


def _alone_in_a_directory(tmp_path, lines: list[str]):
    """The trace lines written as the only file of a new directory."""
    trace = tmp_path / "alone" / "g.trace.jsonl"
    trace.parent.mkdir()
    trace.write_text("\n".join(lines) + "\n")
    return trace


def test_check_rejects_a_nan_token_without_writing_a_report(tmp_path, capsys):
    lines = _game_trace_lines(tmp_path)
    dual = json.loads(lines[1])["dual"]
    lines[1] = lines[1].replace(f'"dual": {dual!r}', '"dual": NaN')
    assert '"dual": NaN' in lines[1]
    trace = _alone_in_a_directory(tmp_path, lines)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert "line 2 is not valid JSON: NaN is not a number" in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


def test_check_refuses_a_report_with_a_non_finite_value(tmp_path, capsys):
    # every field is finite, but the squared step overflows, so the running
    # gap bound and its slack are not: the strict report refuses them
    lines = _game_trace_lines(tmp_path)
    first = json.loads(lines[1])
    first["alpha"] = 1e300
    lines[1] = json.dumps(first, sort_keys=True)
    trace = _alone_in_a_directory(tmp_path, lines)
    capsys.readouterr()
    assert main(["check", str(trace), "--out", str(trace.parent / "re")]) == EXIT_USAGE
    assert "tag 'gap-running': field 'bound' is not finite" in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


def test_check_fails_a_reordered_trace_with_a_repeated_record(tmp_path, capsys):
    lines = _game_trace_lines(tmp_path)
    by_k = {json.loads(line)["k"]: line for line in lines[1:]}
    trace = tmp_path / "cut.trace.jsonl"
    trace.write_text("\n".join([lines[0]] + [by_k[k] for k in (3, 1, 1, 2)]) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--out", str(tmp_path / "re")]) == EXIT_CERTIFICATE
    out = capsys.readouterr().out
    assert "FAILED trace-integrity at k=3: record 0 has k=3" in out
    assert "summary: 13 checked, 12 passed, 1 failed" in out


def test_check_fails_a_trace_cut_short_of_its_terminal_line(tmp_path, capsys):
    lines = _game_trace_lines(tmp_path)
    trace = _alone_in_a_directory(tmp_path, lines[:4])  # the first 3 of 50 records
    capsys.readouterr()
    assert main(["check", str(trace), "--out", str(tmp_path / "re")]) == EXIT_CERTIFICATE
    assert ("FAILED trace-integrity at k=3: 3 records and no terminal line, but the header "
            "asks for 50 iterations") in capsys.readouterr().out
    # a terminal line says why a run stopped early, so the same records pass
    terminal = json.dumps({"k": 3, "reason": "stopped", "type": "terminal"}, sort_keys=True)
    trace.write_text("\n".join(lines[:4] + [terminal]) + "\n")
    assert main(["check", str(trace), "--out", str(tmp_path / "re2")]) == EXIT_OK


def _terminal(k: int) -> str:
    return json.dumps({"k": k, "reason": "stopped", "type": "terminal"}, sort_keys=True)


@pytest.mark.parametrize("case, bad_line", [
    ("header after a record", 1),
    ("record after the terminal line", 53),
    ("second terminal line", 53),
    ("terminal k is not the record count", 52),
])
def test_check_refuses_trace_lines_out_of_order(tmp_path, capsys, case, bad_line):
    lines = _game_trace_lines(tmp_path)  # the header and 50 records
    lines = {
        "header after a record": [lines[1], lines[0]] + lines[2:],
        "record after the terminal line": lines + [_terminal(50), lines[1]],
        "second terminal line": lines + [_terminal(50), _terminal(50)],
        "terminal k is not the record count": lines + [_terminal(49)],
    }[case]
    trace = _alone_in_a_directory(tmp_path, lines)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert f"line {bad_line} " in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_report_value_refuses_run_and_check(tmp_path, monkeypatch, capsys, value):
    # a certificate at k=-1 puts no slack on any trace line, so the trace
    # writer passes it and only the report's own check can refuse it
    trace = _alone_in_a_directory(tmp_path, _game_trace_lines(tmp_path))
    checker = bounds.certify

    def with_a_non_finite_record(records, header, count):
        yield from checker(records, header, count)
        yield None, [bounds.CertificateRecord(
            k=-1, tag=bounds.GAP_CONSTANT, observed=value, bound=1.0, slack=1.0 - value,
            passed=False)]

    # the one checker that run's and check's pass both take their records from
    monkeypatch.setattr(bounds, "certify", with_a_non_finite_record)
    capsys.readouterr()
    out = tmp_path / "never"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=3:m=20:n=15",
                 "--schedule", "dynamic", "--iters", "50", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert list(trace.parent.iterdir()) == [trace]
    assert capsys.readouterr().err.count(
        "report record k=-1, tag 'gap-constant': field 'observed' is not finite") == 2


def _non_finite_first(value: float, taken: list):
    """A stand-in for bounds.certify that yields, before the checker's own
    groups, a group of one record whose observed value is `value`, and
    appends that record to `taken` once the pass has taken it."""
    checker = bounds.certify

    def certify(records, header, count):
        record = bounds.CertificateRecord(k=-1, tag=bounds.GAP_CONSTANT, observed=value,
                                          bound=1.0, slack=1.0 - value, passed=False)
        yield None, [record]
        taken.append(record)
        yield from checker(records, header, count)

    return certify


def test_a_trace_refusal_beats_a_report_refusal_made_before_it(tmp_path, monkeypatch, capsys):
    # the report's non-finite record comes first, the refused trace line last;
    # the trace is refused, as when the whole trace was made before the report
    engine = md_core.run

    def with_a_non_finite_last_record(*args, **kwargs):
        result = engine(*args, **kwargs)
        result.records[-1] = dataclasses.replace(result.records[-1], primal=math.inf)
        return result

    monkeypatch.setattr(md_core, "run", with_a_non_finite_last_record)
    taken = []
    monkeypatch.setattr(bounds, "certify", _non_finite_first(math.nan, taken))
    out = tmp_path / "never"
    capsys.readouterr()
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=3:m=20:n=15",
                 "--schedule", "dynamic", "--iters", "50", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "record line k=49: field 'primal' is not finite, and traces are strict JSON" in err
    assert "report record" not in err
    assert not out.exists()
    # the pass took the report's non-finite record before it made the refused line
    assert len(taken) == 1


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_a_refused_run_or_check_leaves_no_spool_and_no_file_in_a_shared_directory(
        tmp_path, monkeypatch, capsys):
    spools = tmp_path / "spools"  # where the temporary files of the pass are made
    spools.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spools))
    shared = tmp_path / "shared"
    run = ["run", "minmax-game", "--data", "synthetic:game:seed=3:m=20:n=15",
           "--schedule", "dynamic", "--iters", "50", "--out", str(shared), "--prefix", "g"]
    assert main(run) == EXIT_OK
    (shared / "notes.txt").write_text("not the run's\n")
    before = _files(shared)
    taken = []
    monkeypatch.setattr(bounds, "certify", _non_finite_first(math.inf, taken))
    capsys.readouterr()
    # the same run, refused for its report, and check of the earlier trace
    # into the same directory, refused the same way
    assert main(run) == EXIT_USAGE
    assert main(["check", str(shared / "g.trace.jsonl")]) == EXIT_USAGE
    assert capsys.readouterr().err.count(
        "report record k=-1, tag 'gap-constant': field 'observed' is not finite") == 2
    assert _files(shared) == before
    out = tmp_path / "never"
    assert main(run[:-4] + ["--out", str(out)]) == EXIT_USAGE
    assert main(["check", str(shared / "g.trace.jsonl"), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert list(spools.iterdir()) == []
    assert len(taken) == 4  # each refusal came from the stand-in's record


def test_the_output_pass_of_a_long_run_holds_no_copy_of_its_history(tmp_path, monkeypatch):
    # from the end of the engine's run, the outputs may take little more memory
    # than the run's records already hold: no certificate list, no trace text
    engine = md_core.run
    held = []

    def marked(*args, **kwargs):
        result = engine(*args, **kwargs)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return result

    monkeypatch.setattr(md_core, "run", marked)
    tracemalloc.start()
    try:
        code = main(["run", "adaboost", "--data", "synthetic:nonseparable:seed=1:m=40:d=4",
                     "--schedule", "dynamic", "--iters", "10000", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert len(held) == 1
    assert peak - held[0] <= 2.5 * 2**20


def _relabelled(line: str, **fields) -> str:
    return json.dumps({**json.loads(line), **fields}, sort_keys=True)


@pytest.mark.parametrize("case", ["header relabelled stagewise", "records relabelled adaboost",
                                  "records with sign 7.5", "records with sign -1.0"])
def test_check_refuses_records_that_contradict_their_header(tmp_path, capsys, case):
    out = tmp_path / "run"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10",
                 "--schedule", "dynamic", "--iters", "30",
                 "--out", str(out), "--prefix", "g"]) == EXIT_OK
    header, *records = (out / "g.trace.jsonl").read_text().splitlines()
    lines, message = {
        "header relabelled stagewise": (
            [_relabelled(header, algorithm="stagewise", dual_defined=False,
                         schedule_kind="linesearch", dist0=1.0, diameter=0.5)] + records,
            "line 2: record algorithm 'mirror-descent' differs from the header's 'stagewise'"),
        "records relabelled adaboost": (
            [header] + [_relabelled(line, algorithm="adaboost") for line in records],
            "line 2: record algorithm 'adaboost' differs from the header's 'mirror-descent'"),
        "records with sign 7.5": (
            [header] + [_relabelled(line, sign=7.5) for line in records],
            "line 2: record line field 'sign' must be 1.0 or -1.0, got 7.5"),
        # the game's simplex dual negates no column, in format 2 as in format 1
        "records with sign -1.0": (
            [header] + [_relabelled(line, sign=-1.0) for line in records],
            "line 2: record line field 'sign' must be 1.0 under the simplex dual of a format-2 "
            "mirror-descent trace, got -1.0"),
    }[case]
    trace = _alone_in_a_directory(tmp_path, lines)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


@pytest.mark.parametrize("index", [99999, -1, 20])
def test_check_refuses_a_record_whose_index_names_no_column(tmp_path, capsys, index):
    # the game's payoff is its 10 columns and their negations: 20
    out = tmp_path / "run"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10",
                 "--schedule", "dynamic", "--iters", "30",
                 "--out", str(out), "--prefix", "g"]) == EXIT_OK
    lines = (out / "g.trace.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["shape"] == {"m": 20, "n": 20}
    lines[7] = _relabelled(lines[7], index=index)
    trace = _alone_in_a_directory(tmp_path, lines)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert (f"line 8: record index {index} names no column: the header's shape has n=20"
            in capsys.readouterr().err)
    assert list(trace.parent.iterdir()) == [trace]


@pytest.mark.parametrize("shape", [{"m": 20}, {"m": 20, "n": 20.0}, {"m": 20, "n": "20"},
                                   {"m": 20, "n": True}])
def test_check_refuses_a_header_without_an_int_column_count(tmp_path, capsys, shape):
    out = tmp_path / "run"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10",
                 "--schedule", "dynamic", "--iters", "30",
                 "--out", str(out), "--prefix", "g"]) == EXIT_OK
    header, *records = (out / "g.trace.jsonl").read_text().splitlines()
    trace = _alone_in_a_directory(tmp_path, [_relabelled(header, shape=shape)] + records)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert "line 2: record index" in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


def _without_the_dual(line: str) -> str:
    """A trace line with the header's dual value undefined and every
    objective forged to -5.0, where no certificate then looks."""
    obj = json.loads(line)
    if obj["type"] == "header":
        return _relabelled(line, dual_defined=False)
    forged = {key: -5.0 for key in ("primal", "best_primal", "grad_norm") if key in obj}
    return _relabelled(line, **forged)


@pytest.mark.parametrize("source", ["run", "format-1 fixture"])
def test_check_refuses_a_header_whose_dual_defined_contradicts_its_algorithm(tmp_path, capsys,
                                                                            source):
    if source == "run":
        out = tmp_path / "run"
        assert main(["run", "adaboost", "--data", "synthetic:nonseparable:seed=1:m=20:d=2",
                     "--schedule", "dynamic", "--iters", "30",
                     "--out", str(out), "--prefix", "a"]) == EXIT_OK
        lines = (out / "a.trace.jsonl").read_text().splitlines()
    else:
        lines = (PARENT / "adaboost.trace.jsonl").read_text().splitlines()
    trace = _alone_in_a_directory(tmp_path, [_without_the_dual(line) for line in lines])
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert ("line 1: header line field 'dual_defined' must be True for algorithm 'adaboost', "
            "got False") in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


@pytest.mark.parametrize("prefix", ["adaboost", "game"])
def test_check_refuses_a_format_1_simplex_trace_with_a_negated_sign(tmp_path, capsys, prefix):
    # a format-1 simplex dual has no negated column; format 2 records one as -1.0
    header, *records = (PARENT / f"{prefix}.trace.jsonl").read_text().splitlines()
    trace = _alone_in_a_directory(tmp_path, [header, *(_relabelled(line, sign=-1.0)
                                                       for line in records)])
    algorithm = json.loads(header)["algorithm"]
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert (f"line 2: record line field 'sign' must be 1.0 under the simplex dual of a "
            f"format-1 {algorithm} trace, got -1.0") in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


@pytest.mark.parametrize("case, message", [
    ("record with slacks", "line 2: record line has unknown keys: ['slacks']"),
    ("record with grad_norm", "line 2: record line has unknown keys: ['grad_norm']"),
    ("header with schedule", "line 1: header line has unknown keys: ['schedule']"),
    ("format 1", "line 1: header line field 'format' must be 2, got 1"),
    ("format 3", "line 1: header line field 'format' must be 2, got 3"),
    ("format '2'", "line 1: header line field 'format' must be 2, got '2'"),
    ("format 2.0", "line 1: header line field 'format' must be 2, got 2.0"),
    ("format true", "line 1: header line field 'format' must be 2, got True"),
])
def test_check_refuses_a_format_2_trace_with_a_format_1_field_or_another_format(
        tmp_path, capsys, case, message):
    header, first, *rest = _game_trace_lines(tmp_path)
    lines = {
        "record with slacks": [header, _relabelled(first, slacks={"weak-duality": 1.0})],
        "record with grad_norm": [header, _relabelled(first, grad_norm=0.5)],
        "header with schedule": [_relabelled(header, schedule={"kind": "dynamic"}), first],
        "format 1": [_relabelled(header, format=1), first],
        "format 3": [_relabelled(header, format=3), first],
        "format '2'": [_relabelled(header, format="2"), first],
        "format 2.0": [_relabelled(header, format=2.0), first],
        "format true": [_relabelled(header, format=True), first],
    }[case] + rest
    trace = _alone_in_a_directory(tmp_path, lines)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


@pytest.mark.parametrize("prefix, fields, message", [
    ("game", {"schedule_kind": "polyak"}, "'schedule.kind' must be 'polyak'"),
    ("adaboost", {"schedule_kind": "linesearch"}, "'schedule.kind' must be 'edge-linesearch'"),
    ("fs", {"schedule_kind": "optimal"}, "'schedule.kind' must be 'fixed'"),
    ("game", {"lipschitz": 9.98051764647875},
     "'schedule.lipschitz' must equal the header's lipschitz 9.98051764647875"),
    ("adaboost", {"diameter": 29.95732273553991},
     "'schedule.diameter' must equal the header's diameter 29.95732273553991"),
    ("fs", {"f_star": -1e-3}, "'schedule.f_star' must equal the header's f_star -0.001"),
    ("fs", {"schedule_kind": "constant", "schedule": {"kind": "fixed", "alpha": 0.01},
            "eps": 0.02}, "'schedule.alpha' must equal the header's eps 0.02"),
])
def test_check_refuses_a_format_1_schedule_that_contradicts_its_header(tmp_path, capsys, prefix,
                                                                      fields, message):
    header, *records = (PARENT / f"{prefix}.trace.jsonl").read_text().splitlines()
    trace = _alone_in_a_directory(tmp_path, [_relabelled(header, **fields)] + records)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert f"line 1: header line field {message}" in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


def _game_30_lines(tmp_path, schedule: str) -> list[str]:
    out = tmp_path / "run"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10",
                 "--schedule", schedule, "--iters", "30", "--out", str(out),
                 "--prefix", "g"]) == EXIT_OK
    return (out / "g.trace.jsonl").read_text().splitlines()


@pytest.mark.parametrize("field", ["primal", "dual", "alpha", "best_primal"])
def test_check_refuses_a_record_value_that_json_reads_as_infinity(tmp_path, capsys, field):
    # json reads 1e999 as inf; the reader refuses it as the writer does,
    # naming the trace line and the field, and writes no report
    lines = _game_30_lines(tmp_path, "dynamic")
    record = json.loads(lines[6])
    assert record["k"] == 5
    record[field] = 7.0
    lines[6] = json.dumps(record, sort_keys=True).replace(f'"{field}": 7.0', f'"{field}": 1e999')
    trace = _alone_in_a_directory(tmp_path, lines)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert (f"line 7: record line k=5: field {field!r} is not finite, and traces are strict "
            "JSON") in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


@pytest.mark.parametrize("task", ["minmax-game", "fs"])
def test_check_refuses_records_that_state_a_fact_their_algorithm_never_writes(tmp_path, capsys,
                                                                              task):
    # a game record has no stagewise l1 or l0, and an fs record no dual value
    data = ("synthetic:game:seed=1:m=20:n=10" if task == "minmax-game"
            else "synthetic:regression:seed=1:n=30:p=20")
    schedule = "dynamic" if task == "minmax-game" else "linesearch"
    out = tmp_path / "run"
    assert main(["run", task, "--data", data, "--schedule", schedule, "--iters", "30",
                 "--out", str(out), "--prefix", "g"]) == EXIT_OK
    header, *records = (out / "g.trace.jsonl").read_text().splitlines()
    if task == "minmax-game":
        forged = [_relabelled(line, l1=0.5, l0=3) for line in records]
        message = "line 2: record line field 'l1' must be null for algorithm 'mirror-descent', "
        message += "got 0.5"
    else:
        forged = [_relabelled(line, dual=-5.0) for line in records]
        message = ("line 2: record line field 'dual' must be null for algorithm 'stagewise', "
                   "which has no dual value, got -5.0")
    trace = _alone_in_a_directory(tmp_path, [header] + forged)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


# each header forgery that `check` once certified, and the refusal it now gets
@pytest.mark.parametrize("schedule, forge, message", [
    ("dynamic", lambda h: {"schedule_kind": "linesearch"},
     "'schedule_kind' must be one of ('constant', 'dynamic', 'polyak') for algorithm "
     "'mirror-descent', got 'linesearch'"),
    ("constant", lambda h: {"horizon": None},
     "'horizon' must be 30 for algorithm 'mirror-descent' and schedule_kind 'constant', "
     "got None"),
    ("dynamic", lambda h: {"horizon": 30},
     "'horizon' must be None for algorithm 'mirror-descent' and schedule_kind 'dynamic', "
     "got 30"),
    ("dynamic", lambda h: {"diameter": 10.0 * h["diameter"]},
     f"'diameter' must be log(shape['m']) with m 20, got {10.0 * math.log(20)!r}"),
])
def test_check_refuses_a_header_that_run_would_not_write(tmp_path, capsys, schedule, forge,
                                                         message):
    header, *records = _game_30_lines(tmp_path, schedule)
    forged = _relabelled(header, **forge(json.loads(header)))
    trace = _alone_in_a_directory(tmp_path, [forged] + records)
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_USAGE
    assert f"line 1: header line field {message}" in capsys.readouterr().err
    assert list(trace.parent.iterdir()) == [trace]


# each step forgery that `check` once certified: a run's arguments, the
# change to every record, and the start of the failed record's note
@pytest.mark.parametrize("args, forge, note", [
    # every alpha halved
    (["minmax-game", "--data", "synthetic:game:seed=1:m=20:n=10", "--schedule", "dynamic"],
     lambda rec: {"alpha": 0.5 * rec["alpha"]}, "step size alpha 1.2262624632222416 is not the "
                                                 "dynamic step 2.4525249264444833"),
    (["adaboost", "--data", "synthetic:nonseparable:seed=1:m=30:d=3", "--schedule", "constant"],
     lambda rec: {"alpha": 2.0 * rec["alpha"]}, "is not the constant step 0.4761790546746154"),
    (["fs", "--data", "synthetic:regression:seed=1:n=30:p=20", "--schedule", "constant",
      "--epsilon", "0.01"],
     lambda rec: {"alpha": 0.011}, "step size alpha 0.011 is not the fixed step 0.01"),
    # the objective moved, and with it the line search's step from the edge
    (["adaboost", "--data", "synthetic:nonseparable:seed=1:m=30:d=3", "--schedule", "linesearch"],
     lambda rec: {"primal": rec["primal"] + 0.01, "best_primal": rec["best_primal"] + 0.01},
     "is not the edge-linesearch step 0.6088730641290546"),
])
def test_check_fails_a_trace_whose_steps_are_not_its_headers_rule(tmp_path, capsys, args,
                                                                  forge, note):
    out = tmp_path / "run"
    assert main(["run", *args, "--iters", "30", "--out", str(out), "--prefix", "g"]) == EXIT_OK
    header, *records = (out / "g.trace.jsonl").read_text().splitlines()
    trace = _alone_in_a_directory(
        tmp_path, [header] + [_relabelled(line, **forge(json.loads(line))) for line in records])
    capsys.readouterr()
    assert main(["check", str(trace)]) == EXIT_CERTIFICATE
    report = (trace.parent / "g.report.txt").read_text()
    assert "1 failed" in report
    assert "  FAILED trace-integrity at k=0: " in report and note in report


def test_check_refuses_an_fs_diameter_that_is_not_half_the_squared_dist0(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "fs", "--data", "synthetic:regression:seed=1:n=30:p=20",
                 "--schedule", "optimal", "--iters", "20", "--out", str(out),
                 "--prefix", "f"]) == EXIT_OK
    header, *records = (out / "f.trace.jsonl").read_text().splitlines()
    dist0 = json.loads(header)["dist0"]
    assert json.loads(header)["diameter"] == 0.5 * dist0 * dist0
    for forged in ({"diameter": 2.0 * dist0 * dist0}, {"dist0": 2.0 * dist0},
                   {"horizon": None}, {"schedule_kind": "dynamic"}):
        trace = tmp_path / "alone" / "f.trace.jsonl"
        trace.parent.mkdir(exist_ok=True)
        trace.write_text("\n".join([_relabelled(header, **forged)] + records) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_USAGE
        assert "line 1: header line field" in capsys.readouterr().err
        assert list(trace.parent.iterdir()) == [trace]


TINY_COLUMN = np.array([[1e-200, 1.0], [3e-200, -2.0], [1e-200, 0.5]])


@pytest.mark.parametrize("schedule", [["linesearch"], ["optimal"],
                                      ["constant", "--epsilon", "0.1"]])
def test_a_nonzero_column_whose_norm_underflows_runs_and_is_checked(tmp_path, schedule):
    data = tmp_path / "tiny.csv"
    write_regression_csv(data, TINY_COLUMN, np.array([1.0, 2.0, -1.0]))
    out = tmp_path / "run"
    assert main(["run", "fs", "--data", str(data), "--schedule", *schedule, "--iters", "3",
                 "--out", str(out), "--prefix", "t"]) == EXIT_OK
    assert main(["check", str(out / "t.trace.jsonl"), "--out", str(tmp_path / "check")]) \
        == EXIT_OK
    for name in ("t.report.json", "t.report.txt"):
        assert (tmp_path / "check" / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("schedule", [["linesearch"], ["optimal"],
                                      ["constant", "--epsilon", "0.1"]])
def test_a_design_whose_column_norms_all_underflow_is_a_usage_error(tmp_path, capsys,
                                                                    schedule):
    data = tmp_path / "tiny.csv"
    write_regression_csv(data, np.array([[1e-200, 0.0], [3e-200, 2e-200], [1e-200, 0.0]]),
                         np.array([1.0, 2.0, -1.0]))
    assert datagen.load_regression_csv(data).design_norm == 0.0  # nonzero, but underflows
    out = tmp_path / "never"
    capsys.readouterr()
    assert main(["run", "fs", "--data", str(data), "--schedule", *schedule, "--iters", "3",
                 "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the design's column l2 norms all underflow to 0.0, so its Lipschitz constant "
        "is 0.0: rescale the design\n")
    assert not out.exists()


def test_a_column_norm_past_the_float_range_is_refused_by_the_header_alone(tmp_path, capsys):
    design = np.array([[1e200, 1.0], [3.0, 4.0], [1.0, 0.5]])
    response = np.array([2.0, 5.0, 1.0])
    data = tmp_path / "big.csv"
    write_regression_csv(data, design, response)
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert RegressionProblem(design=design, response=response).design_norm == math.inf
        assert MinmaxProblem(design, primal_domain="residual-space",
                             dual_domain="l1-ball").lipschitz() == math.inf
        capsys.readouterr()
        assert main(["run", "fs", "--data", str(data), "--schedule", "linesearch",
                     "--iters", "3", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == ("error: header line: field 'lipschitz' is not finite, "
                                       "and traces are strict JSON\n")
    assert not out.exists()


@pytest.mark.parametrize("token", ["seed=1.9", "seed=-3"])
def test_a_seed_that_is_no_non_negative_integer_is_refused(tmp_path, capsys, token):
    out = tmp_path / "never"
    assert main(["run", "minmax-game", "--data", f"synthetic:game:{token}:m=5:n=4",
                 "--out", str(out)]) == EXIT_USAGE
    assert main(["gen", f"synthetic:separable:{token}:m=5:d=2",
                 "--out", str(out / "data.csv")]) == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err.count(
        f"seed must be a non-negative integer, got data spec token {token!r}") == 2


def _malformed_traces(lines: list[str]) -> list[list[str]]:
    """Traces that break the trace schema, each from the lines of a good one."""
    header, record = json.loads(lines[0]), json.loads(lines[1])

    def with_header(**fields):
        return [json.dumps({**header, **fields})] + lines[1:]

    def with_record(**fields):
        return [lines[0], json.dumps({**record, **fields})] + lines[2:]

    return [
        with_header(lipschitz="x"), with_header(horizon=1.5), with_header(dual_defined="yes"),
        with_header(iterations="50"), with_header(shape=[20, 15]), with_header(config=[]),
        with_header(algorithm="gradient-boosting"), with_header(surprise=1),
        with_record(dual=[1]), with_record(k=0.5), with_record(alpha="0.1"),
        with_record(primal=None), with_record(sign=True), with_record(index=None),
        with_record(algorithm="stagewise"), with_record(best_primal={}),
        [json.dumps({k: v for k, v in header.items() if k != "lipschitz"})] + lines[1:],
        [lines[0], lines[1].replace('"dual": ', '"dual": NaN, "x": ')] + lines[2:],
        lines[:1] + ["{not json"] + lines[2:],
        lines[1:],  # no header
        lines[:1],  # no records
        [lines[0], lines[0]] + lines[1:],
        lines + [json.dumps({"type": "terminal", "k": "50", "reason": "cut"})],
        lines + [json.dumps({"type": "epilogue"})],
    ]


def test_no_malformed_trace_or_config_exits_as_a_failed_certificate(tmp_path):
    # exit 1 means a certificate failed; input the schema rejects is a usage
    # error, exit 2, and no report is written for it
    for i, lines in enumerate(_malformed_traces(_game_trace_lines(tmp_path))):
        trace = tmp_path / f"bad{i}" / "g.trace.jsonl"
        trace.parent.mkdir()
        trace.write_text("\n".join(lines) + "\n")
        assert main(["check", str(trace)]) == EXIT_USAGE, (i, lines[:2])
        assert list(trace.parent.iterdir()) == [trace], i
    base = {"task": "minmax-game", "data": "synthetic:game:seed=1:m=3:n=2", "iterations": 5,
            "out_dir": str(tmp_path / "never")}
    configs = [{**base, "iterations": 0}, {**base, "iterations": 2.5},
               {**base, "schedule": "polyak"}, {**base, "schedule": "optimal"},
               {**base, "data": "synthetic:regression:seed=1"}, {**base, "surprise": 1},
               {**base, "schedule": "polyak", "f_star": -1e10}, [base], "adaboost"]
    for i, config in enumerate(configs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == EXIT_USAGE, config
        assert not (tmp_path / "never").exists()


def test_run_whose_entropy_prox_normalizer_vanishes_is_a_usage_error(tmp_path, capsys):
    # f* far below the optimum makes polyak steps so large that every weight
    # left underflows: the prox refuses the step before it divides by zero
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "minmax-game", "--data", "synthetic:game:seed=1:m=3:n=2",
                     "--schedule", "polyak", "--f-star=-1e10", "--iters", "10",
                     "--out", str(out)])
    assert code == EXIT_USAGE
    assert "normalizer 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_fs_whose_least_squares_fit_overflows_exits_2_with_no_warning(tmp_path, capsys):
    # column norms near 1e-160 make the fit's coefficients overflow, so the
    # projection norm is nan (inf * 0.0): the header refuses it, unwarned
    csv_path = tmp_path / "probe.csv"
    csv_path.write_text("x1,x2,y\n1e-160,0,1e150\n0,2e-160,-2e150\n1e-160,1e-160,5e149\n")
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "fs", "--data", str(csv_path), "--schedule", "optimal",
                     "--iters", "3", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "header line: field 'diameter' is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_check_io_and_usage_errors(tmp_path):
    assert main(["check", str(tmp_path / "absent.trace.jsonl")]) == EXIT_IO
    empty = tmp_path / "empty.trace.jsonl"
    empty.write_text("")
    assert main(["check", str(empty)]) == EXIT_USAGE


@pytest.mark.parametrize("collecting", [True, False])
def test_a_command_runs_without_the_cyclic_collector_and_restores_it(tmp_path, monkeypatch,
                                                                     collecting):
    seen = []
    checker = bounds.certify

    def checking(records, header, count):
        seen.append(gc.isenabled())
        yield from checker(records, header, count)

    monkeypatch.setattr(bounds, "certify", checking)
    (gc.enable if collecting else gc.disable)()
    try:
        trace = _alone_in_a_directory(tmp_path, _game_trace_lines(tmp_path))
        assert main(["check", str(trace)]) == EXIT_OK
        assert main(["check", str(tmp_path / "absent.trace.jsonl")]) == EXIT_IO
        assert seen == [False, False] and gc.isenabled() is collecting
    finally:
        gc.enable()


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
    cfg_path.write_text(json.dumps({**base, "schedule": "constant", "epsilon": 1, "f_star": None,
                                    "prefix": None}))
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
