"""Session fixtures: trained runs shared by the unit and acceptance tests.

Training a cell takes a few seconds, so every full-length run is produced once
per session and reused wherever its artifacts are needed.
"""
import time
from dataclasses import replace

import numpy as np
import pytest
from helpers import tune_tau

from apil_lab.harness import UNCERTAINTY_COLUMNS, uncertainty_report_rows
from apil_lab.training import (RunConfig, final_query_rate, run_training,
                               write_csv)
from apil_lab.uncertainty import UncertaintyConfig

GRID_TEACHERS = ("detm", "rand", "tworand", "twodifdetm")


def _timed_run(cfg):
    t0 = time.perf_counter()
    result = run_training(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def apil_runs():
    """APIL trained on each grid teacher: teacher -> (RunResult, seconds)."""
    return {teacher: _timed_run(RunConfig(method="apil", teacher=teacher,
                                          episodes=1000, seed=0))
            for teacher in GRID_TEACHERS}


@pytest.fixture(scope="session")
def dagger_runs():
    """DAgger runs backing the uncertainty table: (teacher, seed) -> (RunResult, seconds).

    The (twodifdetm, 0) cell also records the per-N1 sampling-inflation series.
    """
    out = {}
    for teacher in GRID_TEACHERS:
        for seed in (0, 1, 2):
            cfg = RunConfig(method="dagger", teacher=teacher, episodes=1000,
                            seed=seed)
            if (teacher, seed) == ("twodifdetm", 0):
                cfg = replace(cfg, inflation_n1s=(5, 50))
            out[(teacher, seed)] = _timed_run(cfg)
    return out


@pytest.fixture(scope="session")
def uncertainty_report_files(dagger_runs, tmp_path_factory):
    """Per-state uncertainty CSVs over own-policy visits: (teacher, seed) -> path."""
    outdir = tmp_path_factory.mktemp("uncreps")
    paths = {}
    for (teacher, seed), (result, _) in dagger_runs.items():
        rows = uncertainty_report_rows(result.agent, result.env,
                                       result.committee, 100,
                                       UncertaintyConfig(),
                                       np.random.default_rng(seed))
        path = outdir / f"uncrep_{teacher}_s{seed}.csv"
        write_csv(path, UNCERTAINTY_COLUMNS,
                  [{"teacher": teacher, **row} for row in rows])
        paths[(teacher, seed)] = path
    return paths


@pytest.fixture(scope="session")
def tau_star(apil_runs):
    """Uncertainty threshold tuned on Detm to match APIL's final query rate."""
    target = final_query_rate(apil_runs["detm"][0].rows)
    base = RunConfig(method="intrun", teacher="detm", episodes=1000, seed=0)
    return tune_tau(base, target)


@pytest.fixture(scope="session")
def intrun_runs(tau_star):
    """IntrUn at the Detm-tuned tau on the high-intrinsic teachers."""
    return {teacher: _timed_run(RunConfig(method="intrun", teacher=teacher,
                                          episodes=1000, seed=0, tau=tau_star))
            for teacher in ("rand", "tworand")}


@pytest.fixture(scope="session")
def maze_runs():
    """DAgger and APIL on the maze environment: method -> (RunResult, seconds)."""
    return {method: _timed_run(RunConfig(method=method, teacher="detm",
                                         env="maze", episodes=1000, seed=0))
            for method in ("dagger", "apil")}
