"""CLI and reporting tests for the harness."""
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from apil_lab import training
from apil_lab.agent import HEAD_PRECISION_NAME, PersonaAgent
from apil_lab.envs import make_env
from apil_lab.harness import (EXIT_OK, EXIT_RUN_FAILURE, EXIT_USAGE,
                              TABLE1_REFERENCE, UNCERTAINTY_COLUMNS, main,
                              make_table1, uncertainty_report_rows,
                              visited_state_weights)
from apil_lab.nncore import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             load_checkpoint, save_checkpoint)
from apil_lab.teachers import make_committee
from apil_lab.training import (EVAL_COLUMNS, METRICS_COLUMNS, RunConfig,
                               read_csv, run_training, write_csv)
from apil_lab.uncertainty import UncertaintyConfig

FAST = ["--episodes", "2", "--probe-every", "0"]


def _train(tmp_path, *extra):
    out = tmp_path / "metrics.csv"
    ckpt = tmp_path / "agent.ckpt"
    code = main(["train", *FAST, "--out", str(out), "--save", str(ckpt),
                 *extra])
    assert code == EXIT_OK
    return out, ckpt


def _mean_row(teacher, intrinsic, extrinsic):
    behavioral = intrinsic + extrinsic
    return {"teacher": teacher, "state_id": "mean", "intrinsic": intrinsic,
            "extrinsic": extrinsic, "behavioral": behavioral,
            "total": behavioral, "model": 0.0, "n1": 5, "n2": 10}


def test_usage_errors_exit_1(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--n1", "0"], ["--n2", "0"], ["--lr", "nan"], ["--lr", "0"],
    ["--sigma", "0.5"], ["--sigma", "nan"], ["--epsilon", "-1"],
    ["--tau", "nan"], ["--episodes", "0"], ["--inflation-n1s", "5,x"],
    ["--inflation-n1s", "0"], ["--seed", "-1"],
    ["--inflation-n1s", "5,20"],  # with FAST's --probe-every 0: no probes
])
def test_bad_flag_values_exit_1(flags, tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["train", *FAST, *flags, "--out", str(out)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("n1", 0), ("n1", 2.5), ("n1", "x"), ("n1", None), ("teacher", "bogus"),
    ("n1", "5"), ("inflation_n1s", "5,50"), ("map_path", 0), ("seed", True),
])
def test_bad_flag_values_from_a_config_file_exit_1(field, value, tmp_path,
                                                   capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    assert main(["--config", str(cfg), "train", "--env", "maze",
                 *FAST]) == EXIT_USAGE
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("from_config", [False, True])
@pytest.mark.parametrize("command,field,value", [
    ("gradcheck", "cases", 0), ("gradcheck", "cases", -1),
    ("sweep", "jobs", -1), ("uncertainty-report", "eval_episodes", 0),
])
def test_counts_that_are_not_run_values_keep_their_rule(
        command, field, value, from_config, tmp_path, capsys):
    """Flags outside RunConfig check their own bound, before any work. A
    config file holds RunConfig's fields alone: such a key in it is refused
    as unknown, before any work."""
    required = {"gradcheck": [],
                "sweep": ["--outdir", str(tmp_path / "s")],
                "uncertainty-report": ["--load", str(tmp_path / "a.ckpt"),
                                       "--out", str(tmp_path / "u.csv")]}
    flag = "--" + field.replace("_", "-")
    config = tmp_path / "cfg.json"
    if from_config:
        config.write_text(json.dumps({field: value}))
        argv = ["--config", str(config), command, *required[command]]
    else:
        argv = [command, flag, str(value), *required[command]]
    assert main(argv) == EXIT_USAGE
    assert (f"unknown config field {field!r}" if from_config
            else f"{flag}: must be at least") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([config] if from_config else [])


def test_config_file_defaults_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes": 3, "teacher": "rand"}))
    out = tmp_path / "a.csv"
    assert main(["--config", str(cfg), "train", "--probe-every", "0",
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 3
    assert all(r["teacher"] == "rand" for r in rows)
    capsys.readouterr()

    out2 = tmp_path / "b.csv"
    assert main(["--config", str(cfg), "train", "--probe-every", "0",
                 "--episodes", "2", "--out", str(out2)]) == EXIT_OK
    assert len(read_csv(out2)) == 2  # explicit flag beats the config file
    capsys.readouterr()


def test_a_config_list_is_the_comma_list_flag_text(tmp_path, capsys):
    """A JSON list in the file is the tuple the flag's comma text gives."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inflation_n1s": [5, 50]}))
    outs = [tmp_path / "listed.csv", tmp_path / "flag.csv"]
    run = ["train", "--episodes", "3", "--probe-every", "1"]
    assert main(["--config", str(cfg), *run, "--out", str(outs[0])]) == EXIT_OK
    assert main([*run, "--inflation-n1s", "5,50",
                 "--out", str(outs[1])]) == EXIT_OK
    capsys.readouterr()
    for suffix in ("", ".inflation.csv"):
        listed, flag = (Path(str(out) + suffix).read_bytes() for out in outs)
        assert listed == flag
    assert b",50," in Path(str(outs[0]) + ".inflation.csv").read_bytes()


def test_a_manifest_base_config_is_a_config_file(tmp_path, monkeypatch,
                                                capsys):
    """A sweep manifest's ``base_config``, passed back with ``--config``,
    gives the bytes of the same values given as flags: ``train``'s CSVs,
    ``eval``'s summary and ``uncertainty-report``'s CSV."""
    values = ["--episodes", "20", "--probe-every", "5", "--sigma", "3.0",
              "--lr", "0.01", "--n1", "3", "--n2", "4", "--eval-every", "10"]
    cell = ["--method", "apil", "--teacher", "twodifdetm", "--seed", "3"]
    assert main(["sweep", *values, "--methods", "apil", "--teachers",
                 "twodifdetm", "--seeds", "3", "--outdir", str(tmp_path / "s"),
                 "--jobs", "1"]) == EXIT_OK
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    config = tmp_path / "base.json"
    config.write_text(json.dumps(manifest["base_config"]))
    runs = {"config": ["--config", str(config)], "flags": []}
    outputs = {}
    for name, pre in runs.items():
        train_flags = [] if pre else values
        eval_flags = [] if pre else ["--n1", "3", "--n2", "4"]
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # stdout names relative paths
        capsys.readouterr()
        assert main([*pre, "train", *cell, *train_flags, "--out", "m.csv",
                     "--save", "a.ckpt"]) == EXIT_OK
        assert main([*pre, "eval", *cell, *eval_flags, "--episodes", "20",
                     "--load", "a.ckpt"]) == EXIT_OK
        assert main([*pre, "uncertainty-report", *cell[2:], *eval_flags,
                     "--load", "a.ckpt", "--out", "u.csv"]) == EXIT_OK
        outputs[name] = [capsys.readouterr().out, *(
            Path(file).read_bytes() for file in ("m.csv", "m.csv.eval.csv",
                                                 "u.csv"))]
    assert outputs["config"] == outputs["flags"]
    swept = (tmp_path / "s" / "apil_twodifdetm_s3.csv").read_bytes()
    assert outputs["config"][1] == swept
    assert "wrote 25 rows" in outputs["config"][0]


REMOVED_FLAGS = [("eval", flag) for flag in (
    "--lr", "--sigma", "--epsilon", "--probe-every", "--probe-rollouts")] + [
    ("uncertainty-report", flag) for flag in (
        "--episodes", "--lr", "--sigma", "--epsilon", "--tau",
        "--err-threshold", "--probe-every", "--probe-rollouts")] + [
    ("sweep", "--teacher"), ("sweep", "--seed")]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_a_flag_the_command_does_not_read_exits_1(command, flag, tmp_path,
                                                   capsys):
    """Each run command takes only the run values it reads: any other run
    flag is unknown to it, refused before any work."""
    _, ckpt = _train(tmp_path / "run")
    capsys.readouterr()
    value = {"--teacher": "rand", "--lr": "0.01", "--sigma": "3.0",
             "--epsilon": "0.5", "--tau": "0.1",
             "--err-threshold": "0.1"}.get(flag, "3")
    required = {"eval": ["--load", str(ckpt)],
                "uncertainty-report": ["--load", str(ckpt),
                                       "--out", str(tmp_path / "u.csv")],
                "sweep": ["--methods", "never", "--teachers", "detm",
                          "--seeds", "0", "--outdir", str(tmp_path / "s")]}
    assert main([command, flag, value, *required[command]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


@pytest.mark.parametrize("command", ["eval", "uncertainty-report"])
def test_a_config_file_of_train_values_serves_every_run_command(
        command, tmp_path, capsys):
    """Keys the command has no flag for (``sigma``, ``probe_every``, ``lr``)
    are checked but change none of its output: its run is the one without
    the file."""
    _, ckpt = _train(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sigma": 3.0, "probe_every": 0, "lr": 0.01,
                                  "teacher": "detm"}))
    results = []
    for name, pre in (("with", ["--config", str(config)]), ("without", [])):
        out = tmp_path / f"{name}.csv"
        own = (["--episodes", "2"] if command == "eval" else
               ["--eval-episodes", "2", "--out", str(out)])
        capsys.readouterr()
        assert main([*pre, command, "--load", str(ckpt), *own]) == EXIT_OK
        results.append(out.read_bytes() if out.exists()
                       else capsys.readouterr().out)
    assert results[0] == results[1]


def test_config_file_failure_modes(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"bogus": 1}))
    assert main(["--config", str(bad_key), "gradcheck"]) == EXIT_USAGE
    for key in ("out", "save", "load", "outdir"):  # a command's own flags
        bad_key.write_text(json.dumps({key: str(tmp_path / "x")}))
        assert main(["--config", str(bad_key), "train", *FAST]) == EXIT_USAGE
        assert f"unknown config field {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert main(["--config", str(malformed), "gradcheck"]) == EXIT_USAGE
    assert main(["--config", str(tmp_path / "missing.json"),
                 "gradcheck"]) == EXIT_USAGE
    assert main(["--config", str(tmp_path), "gradcheck"]) == EXIT_USAGE
    capsys.readouterr()


def test_train_writes_csv_checkpoint_and_summary(tmp_path, capsys):
    out, ckpt = _train(tmp_path)
    rows = read_csv(out)
    assert len(rows) == 2
    arrays = load_checkpoint(ckpt)
    prefixes = {name.split(".")[0] for name in arrays}
    assert prefixes == {"exe", "id", "ask"}  # agent plus the learned ask net
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {"final_query_rate", "final_success_rate"} <= set(summary)


def test_eval_loads_a_checkpoint(tmp_path, capsys):
    _, ckpt = _train(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--load", str(ckpt), "--episodes", "3"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) == {"query_rate", "success_rate", "mean_final_dist"}
    assert main(["eval", "--load", str(tmp_path / "nope.ckpt"),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE


def test_eval_walks_its_own_episodes_flag(tmp_path, monkeypatch, capsys):
    """``eval --episodes`` is eval's walk count, 1000 unless given: a config
    file's ``episodes``, a training length, does not set it."""
    _, ckpt = _train(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"episodes": 3}))
    walked = []

    def evaluate(agent, policy, env, committee, n_episodes, *args, **kw):
        walked.append(n_episodes)
        return {}
    monkeypatch.setattr(training, "evaluate", evaluate)
    for argv in (["eval"], ["--config", str(config), "eval"],
                 ["--config", str(config), "eval", "--episodes", "5"]):
        assert main([*argv, "--load", str(ckpt)]) == EXIT_OK
    assert walked == [1000, 1000, 5]
    capsys.readouterr()
    assert main(["eval", "--load", str(ckpt), "--episodes", "0"]) == EXIT_USAGE
    assert "--episodes: must be at least 1" in capsys.readouterr().err


def test_eval_prints_what_evaluate_returns(tmp_path, capsys):
    """``eval`` and ``eval --greedy`` print the summary ``evaluate`` gives on
    the same cell, seed and streams, with ``greedy_exe`` set by the flag."""
    cell = ["--env", "maze", "--teacher", "tworand", "--method", "dagger",
            "--seed", "4"]
    _, ckpt = _train(tmp_path, *cell, "--episodes", "30")
    cfg = RunConfig(env="maze", teacher="tworand", method="dagger", seed=4)
    printed, summaries = [], []
    for greedy in (False, True):
        capsys.readouterr()
        assert main(["eval", *cell, "--episodes", "40", "--load", str(ckpt),
                     *(["--greedy"] if greedy else [])]) == EXIT_OK
        printed.append(capsys.readouterr().out)
        init_rng, eval_rng = np.random.default_rng(cfg.seed).spawn(2)
        env, committee, agent = training.build_cell(cfg, init_rng)
        policy = training.make_query_policy(cfg, env, init_rng)
        agent.load_arrays(load_checkpoint(ckpt))
        summaries.append(json.dumps(training.evaluate(
            agent, policy, env, committee, 40, eval_rng, n1=cfg.n1,
            greedy_exe=greedy)) + "\n")
    assert printed == summaries
    assert summaries[0] != summaries[1]


def test_train_makes_the_directories_of_its_output_files(tmp_path):
    """``--save`` into a missing directory makes it, as ``--out`` does."""
    out = tmp_path / "newdir" / "a.csv"
    ckpt = tmp_path / "newdir2" / "a.ckpt"
    assert main(["train", *FAST, "--out", str(out),
                 "--save", str(ckpt)]) == EXIT_OK
    assert len(read_csv(out)) == 2
    assert main(["eval", "--load", str(ckpt), "--episodes", "1"]) == EXIT_OK


def test_sweep_manifest_and_outputs(tmp_path, capsys):
    outdir = tmp_path / "sweep"
    code = main(["sweep", *FAST, "--methods", "never", "--teachers",
                 "detm,rand", "--seeds", "0", "--outdir", str(outdir),
                 "--jobs", "1"])
    assert code == EXIT_OK
    assert (outdir / "never_detm_s0.csv").exists()
    assert (outdir / "never_rand_s0.csv").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest) == {"version", "base_config", "cells"}
    # the shared values only: each cell names its method, teacher and seed
    assert set(manifest["base_config"]) == (set(asdict(RunConfig()))
                                            - {"method", "teacher", "seed"})
    assert manifest["base_config"]["episodes"] == 2
    keys = [(c["method"], c["teacher"], c["seed"]) for c in manifest["cells"]]
    assert keys == sorted(keys)
    assert all(c["status"] == "ok" for c in manifest["cells"])
    capsys.readouterr()


def test_sweep_eval_every_writes_the_cells_eval_csv(tmp_path, capsys):
    """A sweep cell with ``--eval-every`` writes the ``.eval.csv`` that
    ``train`` of the same cell writes, byte for byte."""
    cell = ["--env", "maze", "--episodes", "20", "--eval-every", "10"]
    assert main(["sweep", *cell, "--methods", "dagger", "--teachers",
                 "tworand", "--seeds", "3", "--outdir", str(tmp_path / "s"),
                 "--jobs", "1"]) == EXIT_OK
    train = tmp_path / "t" / "m.csv"
    assert main(["train", *cell, "--method", "dagger", "--teacher",
                 "tworand", "--seed", "3", "--out", str(train)]) == EXIT_OK
    swept = tmp_path / "s" / "dagger_tworand_s3.csv.eval.csv"
    assert swept.read_bytes() == Path(f"{train}.eval.csv").read_bytes()
    assert len(read_csv(swept)) == 2
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["base_config"]["eval_every"] == 10
    capsys.readouterr()


def test_sweep_rejects_empty_lists(tmp_path, capsys):
    code = main(["sweep", "--methods", "", "--outdir", str(tmp_path / "s")])
    assert code == EXIT_USAGE
    assert "at least one" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()  # rejected before any work


@pytest.mark.parametrize("flags,message", [
    (["--seeds", "0,x"], "--seeds"),
    (["--methods", "bogus"], "unknown method"),
    (["--teachers", "detm,bogus"], "unknown teacher"),
    (["--seeds", "0,-1"], "seed must be at least 0"),
    (["--methods", "never,never", "--seeds", "0,0"], "repeats an entry"),
    (["--teachers", "detm,rand,detm"], "repeats an entry"),
])
def test_sweep_rejects_bad_values_before_any_work(flags, message, tmp_path,
                                                 capsys):
    outdir = tmp_path / "s"
    assert main(["sweep", *FAST, *flags, "--outdir", str(outdir)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep",
                                     "uncertainty-report"])
def test_map_without_the_maze_env_exits_1(command, tmp_path, capsys):
    """``--map`` only means something for the maze: with ``--env grid`` it
    is a usage error, raised before any work, so nothing is written."""
    outputs = {"train": [*FAST, "--out", str(tmp_path / "m.csv"),
                         "--save", str(tmp_path / "a.ckpt")],
               "eval": ["--load", str(tmp_path / "a.ckpt")],
               "sweep": [*FAST, "--outdir", str(tmp_path / "s")],
               "uncertainty-report": ["--load", str(tmp_path / "a.ckpt"),
                                      "--out", str(tmp_path / "u.csv")]}
    code = main([command, "--env", "grid",
                 "--map", str(tmp_path / "nonexistent"), *outputs[command]])
    assert code == EXIT_USAGE
    assert "--map needs --env maze" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_jobs_0_counts_the_processors_it_may_run_on(monkeypatch,
                                                         tmp_path, capsys):
    """``--jobs 0`` takes the process's CPU affinity set where the OS has
    one, and the machine's CPU count elsewhere."""
    import concurrent.futures
    workers = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    sweep = ["sweep", *FAST, "--methods", "never", "--teachers", "detm",
             "--seeds", "0", "--jobs", "0"]
    assert main([*sweep, "--outdir", str(tmp_path / "a")]) == EXIT_OK
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main([*sweep, "--outdir", str(tmp_path / "b")]) == EXIT_OK
    assert workers == [1, 5]
    capsys.readouterr()


def test_sweep_records_failed_cells(tmp_path, capsys):
    outdir = tmp_path / "sweep"
    code = main(["sweep", *FAST, "--env", "maze", "--map",
                 str(tmp_path / "missing_map.txt"), "--methods", "never",
                 "--teachers", "detm", "--seeds", "0",
                 "--outdir", str(outdir), "--jobs", "1"])
    assert code == EXIT_RUN_FAILURE
    manifest = json.loads((outdir / "manifest.json").read_text())
    cell = manifest["cells"][0]
    assert cell["status"] == "failed"
    assert "error" in cell
    capsys.readouterr()


def test_make_table1_requires_every_teacher(tmp_path):
    for teacher in ("detm", "rand", "tworand"):
        write_csv(tmp_path / f"uncrep_{teacher}_s0.csv", UNCERTAINTY_COLUMNS,
                  [_mean_row(teacher, 0.1, 0.0)])
    with pytest.raises(ValueError, match="twodifdetm"):
        make_table1(sorted(tmp_path.glob("*.csv")))


def test_report_table1(tmp_path, capsys):
    values = {"detm": (0.1, 0.0), "rand": (0.5, 0.01), "tworand": (0.55, 0.0),
              "twodifdetm": (0.05, 0.4)}
    for teacher, (intr, extr) in values.items():
        write_csv(tmp_path / f"uncrep_{teacher}_s0.csv", UNCERTAINTY_COLUMNS,
                  [_mean_row(teacher, intr, extr)])
    # second detm seed: table entries are means across files
    write_csv(tmp_path / "uncrep_detm_s1.csv", UNCERTAINTY_COLUMNS,
              [_mean_row("detm", 0.3, 0.0)])
    out = tmp_path / "table1.csv"
    assert main(["report", "--kind", "table1", "--in",
                 str(tmp_path / "uncrep_*.csv"), "--out", str(out)]) == EXIT_OK
    rows = {r["teacher"]: r for r in read_csv(out)}
    assert float(rows["detm"]["intrinsic"]) == pytest.approx(0.2)
    assert float(rows["rand"]["intrinsic"]) == pytest.approx(0.5)
    for teacher, (ref_intr, ref_extr) in TABLE1_REFERENCE.items():
        assert float(rows[teacher]["ref_intrinsic"]) == ref_intr
        assert float(rows[teacher]["ref_extrinsic"]) == ref_extr
    capsys.readouterr()


def test_report_table1_refuses_a_file_without_a_mean_row(tmp_path, capsys):
    """A header-only report CSV is bad data, not a nan row: exit 2 with an
    error line that names the file, and no output."""
    for teacher in TABLE1_REFERENCE:
        write_csv(tmp_path / f"uncrep_{teacher}_s0.csv", UNCERTAINTY_COLUMNS,
                  [] if teacher == "rand" else [_mean_row(teacher, 0.1, 0.0)])
    out = tmp_path / "table1.csv"
    assert main(["report", "--kind", "table1", "--in",
                 str(tmp_path / "uncrep_*.csv"), "--out",
                 str(out)]) == EXIT_RUN_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "uncrep_rand_s0.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("file,teacher,message", [
    ("uncrep_final.csv", "detm", None),
    ("uncrep_rand_agent_on_detm.csv", "rand", None),
    ("uncrep_detm_s1.csv", None, "no column 'teacher'"),
    ("uncrep_detm_s1.csv", "bogus", "unknown teacher 'bogus'"),
])
def test_report_table1_reads_the_teacher_column(file, teacher, message,
                                                tmp_path, capsys):
    """A report counts for the teacher its rows name, whatever its file is
    called; a file without the column, or with an unknown teacher, exits
    2."""
    for other in TABLE1_REFERENCE:
        write_csv(tmp_path / f"uncrep_{other}_s0.csv", UNCERTAINTY_COLUMNS,
                  [_mean_row(other, 0.5, 0.0)])
    write_csv(tmp_path / file, [col for col in UNCERTAINTY_COLUMNS
                                 if teacher or col != "teacher"],
              [_mean_row(teacher, 0.1, 0.0)])
    out = tmp_path / "table1.csv"
    code = main(["report", "--kind", "table1", "--in",
                 str(tmp_path / "uncrep_*.csv"), "--out", str(out)])
    err = capsys.readouterr().err
    if message is None:  # the named teacher's mean takes the file's 0.1
        assert code == EXIT_OK
        assert {r["teacher"]: float(r["intrinsic"]) for r in read_csv(out)} \
            == {t: 0.3 if t == teacher else 0.5 for t in TABLE1_REFERENCE}
    else:
        assert code == EXIT_RUN_FAILURE
        assert message in err and file in err
        assert not out.exists()


def test_report_fig4(tmp_path, capsys):
    cols = ("method", "teacher", "episode", "query_rate", "success")
    write_csv(tmp_path / "apil_detm_s0.csv", cols, [
        {"method": "apil", "teacher": "detm", "episode": 0, "query_rate": 1.0,
         "success": 1},
        {"method": "apil", "teacher": "detm", "episode": 1, "query_rate": 0.5,
         "success": 0}])
    write_csv(tmp_path / "apil_detm_s1.csv", cols, [
        {"method": "apil", "teacher": "detm", "episode": 0, "query_rate": 0.0,
         "success": 1},
        {"method": "apil", "teacher": "detm", "episode": 1, "query_rate": 0.5,
         "success": 1}])
    out = tmp_path / "fig4.csv"
    assert main(["report", "--kind", "fig4", "--in",
                 str(tmp_path / "apil_*.csv"), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert [float(r["query_rate"]) for r in rows] == [0.5, 0.5]
    assert [int(r["episode"]) for r in rows] == [0, 1]
    capsys.readouterr()


def test_report_fig5(tmp_path, capsys):
    cols = ("n1", "episode", "model")
    write_csv(tmp_path / "infl_s0.csv", cols, [
        {"n1": 5, "episode": 0, "model": 0.1},
        {"n1": 5, "episode": 25, "model": 0.3}])
    write_csv(tmp_path / "infl_s1.csv", cols, [
        {"n1": 5, "episode": 0, "model": 0.3},
        {"n1": 5, "episode": 25, "model": 0.5}])
    out = tmp_path / "fig5.csv"
    assert main(["report", "--kind", "fig5", "--in",
                 str(tmp_path / "infl_*.csv"), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert [(int(r["n1"]), int(r["episode"]), float(r["model"]))
            for r in rows] == [(5, 0, 0.2), (5, 25, 0.4)]
    capsys.readouterr()


@pytest.mark.parametrize("kind,columns,missing", [
    ("table1", METRICS_COLUMNS, "state_id"),
    ("fig4", UNCERTAINTY_COLUMNS, "method"),
    ("fig5", METRICS_COLUMNS, "n1"),
    ("fig4", EVAL_COLUMNS, "success"),  # a run's eval CSV is no metrics CSV
])
def test_report_names_the_file_and_the_column_it_lacks(kind, columns, missing,
                                                       tmp_path, capsys):
    """A CSV of the wrong kind is bad data: exit 2 with an error line."""
    for teacher in TABLE1_REFERENCE:
        write_csv(tmp_path / f"in_{teacher}.csv", columns,
                  [dict.fromkeys(columns, 0)])
    out = tmp_path / "out.csv"
    assert main(["report", "--kind", kind, "--in", str(tmp_path / "in_*.csv"),
                 "--out", str(out)]) == EXIT_RUN_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "in_detm.csv" in err and repr(missing) in err
    assert not out.exists()


def test_report_empty_glob(tmp_path, capsys):
    code = main(["report", "--kind", "fig4", "--in",
                 str(tmp_path / "none_*.csv"), "--out", str(tmp_path / "o")])
    assert code == EXIT_RUN_FAILURE
    assert "no files match" in capsys.readouterr().err


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--cases", "2"]) == EXIT_OK
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 6
    assert all(ln.endswith("ok") for ln in lines)


def test_uncertainty_report_cli(tmp_path, capsys):
    _, ckpt = _train(tmp_path)
    out = tmp_path / "uncrep.csv"
    code = main(["uncertainty-report", "--load", str(ckpt),
                 "--eval-episodes", "3", "--n1", "3", "--n2", "4",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[-1]["state_id"] == "mean"
    for row in rows:  # identities survive the round trip through repr
        intr, extr = float(row["intrinsic"]), float(row["extrinsic"])
        behv, total = float(row["behavioral"]), float(row["total"])
        assert abs(behv - (intr + extr)) <= 1e-12
        assert abs(total - (float(row["model"]) + behv)) <= 1e-12
    capsys.readouterr()


def test_uncertainty_report_from_checkpoint_matches_trained_agent(tmp_path,
                                                                  capsys):
    run = ["--teacher", "twodifdetm", "--seed", "3"]
    _, ckpt = _train(tmp_path, "--episodes", "20", *run)
    out = tmp_path / "uncrep.csv"
    assert main(["uncertainty-report", "--load", str(ckpt), *run,
                 "--eval-episodes", "5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()

    result = run_training(RunConfig(teacher="twodifdetm", episodes=20, seed=3,
                                    probe_every=0))
    assert np.any(result.agent.head_precision
                  != result.agent.prior_precision)
    rows = uncertainty_report_rows(result.agent, result.env,
                                   make_committee("twodifdetm"), 5,
                                   UncertaintyConfig(), np.random.default_rng(3))
    expected = tmp_path / "in_memory.csv"
    write_csv(expected, UNCERTAINTY_COLUMNS,
              [{"teacher": "twodifdetm", **row} for row in rows])
    assert out.read_bytes() == expected.read_bytes()


def test_uncertainty_report_walks_with_the_run_n1():
    """The visited states come from walks at the n1 the estimates use."""
    env = make_env("grid", None)
    committee = make_committee("detm")
    agent = PersonaAgent(env.state_dim, env.n_actions, committee.size,
                         np.random.default_rng(0))
    walked_n1s = []
    mean_exe_policy = agent.mean_exe_policy

    def recording(features, n, rng):
        walked_n1s.append(n)
        return mean_exe_policy(features, n, rng)

    agent.mean_exe_policy = recording
    uncertainty_report_rows(agent, env, committee, 2,
                            UncertaintyConfig(n1=3, n2=4),
                            np.random.default_rng(1))
    assert walked_n1s and set(walked_n1s) == {3}


def test_checkpoint_without_posterior_precision_is_rejected(tmp_path, capsys):
    _, ckpt = _train(tmp_path)
    arrays = load_checkpoint(ckpt)
    del arrays[HEAD_PRECISION_NAME]
    save_checkpoint(ckpt, arrays)
    capsys.readouterr()
    assert main(["eval", "--load", str(ckpt),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE
    assert HEAD_PRECISION_NAME in capsys.readouterr().err
    assert main(["uncertainty-report", "--load", str(ckpt),
                 "--out", str(tmp_path / "u.csv")]) == EXIT_RUN_FAILURE
    assert HEAD_PRECISION_NAME in capsys.readouterr().err
    assert not (tmp_path / "u.csv").exists()


def test_checkpoint_without_a_trained_array_is_rejected(tmp_path, capsys):
    _, ckpt = _train(tmp_path)
    arrays = load_checkpoint(ckpt)
    del arrays["exe.hidden.W"]
    save_checkpoint(ckpt, arrays)
    capsys.readouterr()
    assert main(["eval", "--load", str(ckpt),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE
    assert "exe.hidden.W" in capsys.readouterr().err


@pytest.mark.parametrize("name,value", [("ask.hidden.W", np.nan),
                                        ("ask.out.b", -np.inf),
                                        ("exe.hidden.W", np.nan),
                                        ("id.out.W", np.inf)])
def test_checkpoint_with_a_nonfinite_weight_is_rejected(name, value, tmp_path,
                                                        capsys):
    """A NaN or infinite weight is refused at load, naming its array, where
    a frozen decision would carry it into a summary that exits 0."""
    _, ckpt = _train(tmp_path)
    arrays = load_checkpoint(ckpt)
    arrays[name].flat[0] = value
    save_checkpoint(ckpt, arrays)
    capsys.readouterr()
    assert main(["eval", "--load", str(ckpt),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE
    captured = capsys.readouterr()
    assert f"non-finite value in {name!r}" in captured.err
    assert captured.out == ""
    if name.startswith("ask."):  # the report reads the agent's arrays only
        return
    out = tmp_path / "u.csv"
    assert main(["uncertainty-report", "--load", str(ckpt),
                 "--out", str(out)]) == EXIT_RUN_FAILURE
    assert f"non-finite value in {name!r}" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_with_trailing_bytes_is_rejected(tmp_path, capsys):
    _, ckpt = _train(tmp_path)
    with open(ckpt, "ab") as fh:
        fh.write(bytes(8))
    capsys.readouterr()
    assert main(["eval", "--load", str(ckpt),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE
    assert "8 bytes after its last array" in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    {"arrays": []},  # no params list
    [],
    {"params": [{"name": "a", "shape": [2.0]}]},  # non-integer dimension
    {"params": [{"name": "a", "shape": ["2"]}]},
    {"params": [{"name": "a", "shape": [-1]}]},  # negative dimension
    {"params": [{"shape": [2]}]},  # no name
    {"params": [{"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}]},
])
def test_checkpoint_with_a_malformed_header_is_rejected(header, tmp_path,
                                                        capsys):
    blob = json.dumps(header).encode("utf-8")
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(CHECKPOINT_MAGIC + CHECKPOINT_VERSION.to_bytes(4, "little")
                     + len(blob).to_bytes(4, "little") + blob + bytes(16))
    assert main(["eval", "--load", str(ckpt),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE
    assert "checkpoint header" in capsys.readouterr().err
    assert main(["uncertainty-report", "--load", str(ckpt),
                 "--out", str(tmp_path / "u.csv")]) == EXIT_RUN_FAILURE
    assert "checkpoint header" in capsys.readouterr().err


def test_train_into_a_directory_exits_2(tmp_path, capsys):
    assert main(["train", *FAST, "--out", str(tmp_path)]) == EXIT_RUN_FAILURE
    assert capsys.readouterr().err.startswith("error:")


def test_eval_of_a_directory_exits_2(tmp_path, capsys):
    assert main(["eval", "--load", str(tmp_path),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE
    assert capsys.readouterr().err.startswith("error:")


def test_eval_rejects_a_checkpoint_of_another_method(tmp_path, capsys):
    _, ckpt = _train(tmp_path)  # apil: the checkpoint holds the ask net
    capsys.readouterr()
    assert main(["eval", "--method", "errpred", "--load", str(ckpt),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE
    captured = capsys.readouterr()
    assert "errpred.hidden.W" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("method", ["never", "bc", "dagger", "intrun"])
def test_eval_rejects_a_checkpoint_it_cannot_fully_use(method, tmp_path,
                                                       capsys):
    _, ckpt = _train(tmp_path)  # apil: no ask net is read by these methods
    capsys.readouterr()
    assert main(["eval", "--method", method, "--load", str(ckpt),
                 "--episodes", "1"]) == EXIT_RUN_FAILURE
    captured = capsys.readouterr()
    assert "ask.hidden.W" in captured.err and "ask.out.b" in captured.err
    assert captured.out == ""


def test_visited_state_weights_counts():
    env = make_env("grid", None)
    committee = make_committee("detm")
    rng = np.random.default_rng(0)
    agent = PersonaAgent(env.state_dim, env.n_actions, committee.size, rng)
    visited = visited_state_weights(agent, env, committee, 3, rng)
    assert sum(count for _, _, count in visited) == 3 * env.horizon
    assert all(sid[0] == "r" and "c" in sid for _, sid, _ in visited)


def test_uncertainty_columns_constant():
    assert UNCERTAINTY_COLUMNS == ("teacher", "state_id", "intrinsic",
                                   "extrinsic", "behavioral", "total", "model",
                                   "n1", "n2")
