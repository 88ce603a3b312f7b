"""Command-line harness: train, eval, sweep, uncertainty-report, report, gradcheck.

Exit codes: 0 success, 1 usage error, 2 run failure, 3 acceptance-check failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from . import training
from .agent import PersonaAgent
from .envs import make_env
from .gradcheck import run_all as run_gradchecks
from .nncore import load_checkpoint, save_checkpoint
from .query import NeverQueryPolicy
from .teachers import TEACHER_MODELS, make_committee
from .training import (METRICS_COLUMNS, RunConfig, final_query_rate,
                       final_success_rate, read_csv, run_training, write_csv)
from .uncertainty import UncertaintyConfig, aggregate, estimate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2
EXIT_CHECK_FAILURE = 3

THREADS_ENV_VAR = "APIL_LAB_THREADS"

UNCERTAINTY_COLUMNS = ("state_id", "intrinsic", "extrinsic", "behavioral",
                       "total", "model", "n1", "n2")

# reference targets for the grid teachers, reported alongside measured values
TABLE1_REFERENCE = {
    "detm": (0.04, 0.00),
    "rand": (0.72, 0.00),
    "tworand": (0.72, 0.00),
    "twodifdetm": (0.05, 0.56),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", choices=("grid", "maze"), default="grid")
    p.add_argument("--map", dest="map_path", default=None,
                   help="maze map file (maze env only)")
    p.add_argument("--teacher", choices=tuple(TEACHER_MODELS), default="detm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--err-threshold", type=float, default=0.5)
    p.add_argument("--n1", type=int, default=5)
    p.add_argument("--n2", type=int, default=10)
    p.add_argument("--probe-every", type=int, default=25)
    p.add_argument("--probe-rollouts", type=int, default=3)


def build_parser() -> _Parser:
    parser = _Parser(prog="apil-lab")
    parser.add_argument("--config", default=None,
                        help="JSON file of defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = {}

    p = parser.subcommands["train"] = sub.add_parser(
        "train", help="train one run and write its metrics CSV")
    _add_run_args(p)
    p.add_argument("--method", choices=training.METHODS, default="apil")
    p.add_argument("--inflation-n1s", default="",
                   help="comma list of N1 values for the inflation side CSV")
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.add_argument("--save", default=None, help="checkpoint path")

    p = parser.subcommands["eval"] = sub.add_parser(
        "eval", help="evaluate a checkpoint without updates")
    _add_run_args(p)
    p.add_argument("--method", choices=training.METHODS, default="apil")
    p.add_argument("--load", required=True, help="checkpoint path")
    p.add_argument("--greedy", action="store_true",
                   help="argmax of the mean policy instead of sampling")

    p = parser.subcommands["sweep"] = sub.add_parser(
        "sweep", help="run a grid of training cells in parallel")
    _add_run_args(p)
    p.add_argument("--methods", default="apil,bc,dagger")
    p.add_argument("--teachers", default="detm,rand,tworand,twodifdetm")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--outdir", required=True)
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes; 0 = available processors")

    p = parser.subcommands["uncertainty-report"] = sub.add_parser(
        "uncertainty-report",
        help="per-state uncertainty CSV for a trained checkpoint")
    _add_run_args(p)
    p.add_argument("--load", required=True, help="checkpoint path")
    p.add_argument("--eval-episodes", type=int, default=100)
    p.add_argument("--out", required=True)

    p = parser.subcommands["report"] = sub.add_parser(
        "report", help="aggregate CSVs into figure/table series")
    p.add_argument("--kind", choices=("table1", "fig4", "fig5"), required=True)
    p.add_argument("--in", dest="inputs", required=True,
                   help="glob of input CSV files")
    p.add_argument("--out", required=True)

    p = parser.subcommands["gradcheck"] = sub.add_parser(
        "gradcheck", help="finite-difference gradient suites")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Load --config JSON into parser defaults; explicit flags still win."""
    probe = _Parser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return argv
    with open(known.config) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise _UsageError("config file must hold a JSON object")
    valid = {action.dest for action in parser._actions}
    for sp in parser.subcommands.values():
        valid.update(action.dest for action in sp._actions)
    for key in values:
        if key not in valid:
            raise _UsageError(f"unknown config field {key!r}")
    for sp in parser.subcommands.values():
        actions = {action.dest: action for action in sp._actions}
        defaults = {}
        for key, value in values.items():
            action = actions.get(key)
            if action is None:
                continue
            if action.choices is not None and value not in action.choices:
                raise _UsageError(f"config field {key!r} must be one of "
                                  f"{list(action.choices)}, got {value!r}")
            # a typed flag's default goes in as text, so argparse converts
            # and checks it like a value given on the command line
            defaults[key] = str(value) if action.type is not None else value
        sp.set_defaults(**defaults)
    return argv


# (argparse dest, test, what the test asks); nan fails every test
_VALUE_RULES = [
    *((dest, lambda v: v >= 1, "be at least 1")
      for dest in ("n1", "n2", "episodes", "probe_rollouts", "eval_episodes")),
    *((dest, lambda v: v >= 0, "be at least 0")
      for dest in ("probe_every", "eval_every", "jobs")),
    ("lr", lambda v: 0.0 < v < math.inf, "be positive and finite"),
    ("sigma", lambda v: 1.0 < v < math.inf, "exceed 1 and be finite"),
    ("epsilon", lambda v: 0.0 <= v < math.inf, "be non-negative and finite"),
    ("tau", math.isfinite, "be finite"),
    ("err_threshold", math.isfinite, "be finite"),
]


def _check_values(args) -> None:
    """Reject flag values no run can use, from flags or ``--config`` alike:
    a usage error, raised before any work."""
    given = vars(args)
    for dest, test, rule in _VALUE_RULES:
        if dest in given and not test(given[dest]):
            raise _UsageError(f"--{dest.replace('_', '-')} must {rule}, "
                              f"got {given[dest]}")
    if given.get("map_path") is not None and given["env"] != "maze":
        raise _UsageError(f"--map needs --env maze, got --env {given['env']}")


def _inflation_n1s(text: str) -> tuple[int, ...]:
    try:
        n1s = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"--inflation-n1s must be a comma list of "
                          f"integers, got {text!r}") from None
    if min(n1s) < 1:
        raise _UsageError(f"--inflation-n1s values must be at least 1, "
                          f"got {text!r}")
    return n1s


def _run_config(args, method: str | None = None) -> RunConfig:
    return RunConfig(
        env=args.env, map_path=args.map_path, teacher=args.teacher,
        method=method or args.method, episodes=args.episodes, seed=args.seed,
        lr=args.lr, sigma=args.sigma, epsilon=args.epsilon, tau=args.tau,
        err_threshold=args.err_threshold, n1=args.n1, n2=args.n2,
        probe_every=args.probe_every, probe_rollouts=args.probe_rollouts,
    )


def cmd_train(args) -> int:
    cfg = _run_config(args)
    if args.inflation_n1s:
        cfg = replace(cfg, inflation_n1s=_inflation_n1s(args.inflation_n1s))
    if args.eval_every:
        cfg = replace(cfg, eval_every=args.eval_every)
    result = run_training(cfg, out_path=args.out)
    if args.save:
        arrays = dict(result.agent.param_arrays())
        arrays.update(result.agent.posterior_arrays())
        arrays.update(result.policy.param_arrays())
        save_checkpoint(args.save, arrays)
    summary = {"method": cfg.method, "teacher": cfg.teacher, "env": cfg.env,
               "seed": cfg.seed,
               "final_query_rate": final_query_rate(result.rows),
               "final_success_rate": final_success_rate(result.rows)}
    print(json.dumps(summary))
    return EXIT_OK


def _load_agent(args, committee_size: int):
    env = make_env(args.env, args.map_path)
    rng = np.random.default_rng(args.seed)
    agent = PersonaAgent(env.state_dim, env.n_actions, committee_size, rng)
    arrays = load_checkpoint(args.load)
    agent.load_arrays(arrays)
    agent.load_posterior_arrays(arrays)
    return env, agent, arrays


def cmd_eval(args) -> int:
    committee = make_committee(args.teacher)
    env, agent, arrays = _load_agent(args, committee.size)
    cfg = _run_config(args)
    rng = np.random.default_rng(args.seed)
    init_rng, eval_rng = rng.spawn(2)
    policy = training.make_query_policy(cfg, env, init_rng)
    policy.load_arrays(arrays)
    unread = (set(arrays) - set(agent.param_arrays())
              - set(agent.posterior_arrays()) - set(policy.param_arrays()))
    if unread:
        raise ValueError(f"checkpoint holds arrays that --method {cfg.method} "
                         f"does not read: {', '.join(sorted(unread))}")
    summary = training.evaluate(agent, policy, env, committee, args.episodes,
                                eval_rng, n1=args.n1, greedy_exe=args.greedy)
    print(json.dumps(summary))
    return EXIT_OK


def _sweep_cell(cfg_dict: dict, out_path: str):
    cfg = RunConfig(**cfg_dict)
    run_training(cfg, out_path=out_path)
    return out_path


def cmd_sweep(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    teachers = [t.strip() for t in args.teachers.split(",") if t.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"--seeds must be a comma list of integers, "
                          f"got {args.seeds!r}") from None
    if not (methods and teachers and seeds):
        raise _UsageError("sweep needs at least one method, teacher, and seed")
    outdir = Path(args.outdir)
    # every cell's config is built, and so checked, before any work
    cells = []
    try:
        for method in methods:
            for teacher in teachers:
                for seed in seeds:
                    cfg = replace(_run_config(args, method=method),
                                  teacher=teacher, seed=seed)
                    name = f"{method}_{teacher}_s{seed}.csv"
                    cells.append((cfg, str(outdir / name)))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = args.jobs or os.cpu_count() or 1
    cap = os.environ.get(THREADS_ENV_VAR)
    if cap:
        try:
            jobs = max(1, min(jobs, int(cap)))
        except ValueError:
            raise _UsageError(f"{THREADS_ENV_VAR} must be an integer, "
                              f"got {cap!r}") from None

    statuses = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(_sweep_cell, asdict(cfg), path): (cfg, path)
                   for cfg, path in cells}
        for fut in concurrent.futures.as_completed(futures):
            cfg, path = futures[fut]
            entry = {"method": cfg.method, "teacher": cfg.teacher,
                     "seed": cfg.seed, "csv": os.path.basename(path)}
            try:
                fut.result()
                entry["status"] = "ok"
            except Exception as exc:  # noqa: BLE001 - recorded in the manifest
                entry["status"] = "failed"
                entry["error"] = f"{type(exc).__name__}: {exc}"
            statuses.append(entry)

    statuses.sort(key=lambda e: (e["method"], e["teacher"], e["seed"]))
    manifest = {
        "version": _describe_version(),
        "base_config": asdict(_run_config(args, method=methods[0])),
        "cells": statuses,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [e for e in statuses if e["status"] != "ok"]
    if failed:
        print(f"{len(failed)} of {len(statuses)} cells failed", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(f"{len(statuses)} cells completed into {outdir}")
    return EXIT_OK


def _describe_version() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if described.returncode == 0:
            return described.stdout.strip()
    except OSError:
        pass
    try:
        return metadata.version("apil-lab")
    except metadata.PackageNotFoundError:
        return "unknown"


def visited_state_weights(agent, env, committee, n_episodes: int,
                          rng: np.random.Generator, n1: int = 5):
    """Unique states visited by the agent's own policy, with visit counts."""
    seen: dict[bytes, tuple[np.ndarray, str, int]] = {}
    for _ in range(n_episodes):
        traj = training.rollout(agent, committee, env, NeverQueryPolicy(),
                                rng, n1)
        for step in traj.steps:
            key = step.features.tobytes()
            state_id = f"r{step.state.agent.row}c{step.state.agent.col}"
            feats, sid, count = seen.get(key, (step.features, state_id, 0))
            seen[key] = (feats, sid, count + 1)
    return list(seen.values())


def uncertainty_report_rows(agent, env, committee, n_episodes: int,
                            ucfg: UncertaintyConfig,
                            rng: np.random.Generator) -> list[dict]:
    """Per-state uncertainty over states the trained agent actually visits,
    plus a visit-weighted aggregate row."""
    visited = visited_state_weights(agent, env, committee, n_episodes, rng)
    reports = [estimate(agent, features, ucfg, rng, state_id=state_id)
               for features, state_id, _ in visited]
    rows = sorted((asdict(rep) for rep in reports),
                  key=lambda r: r["state_id"])
    counts = [count for _, _, count in visited]
    rows.append(asdict(aggregate(reports, counts, ucfg)))
    return rows


def cmd_uncertainty_report(args) -> int:
    committee = make_committee(args.teacher)
    env, agent, _ = _load_agent(args, committee.size)
    rng = np.random.default_rng(args.seed)
    rows = uncertainty_report_rows(agent, env, committee, args.eval_episodes,
                                   UncertaintyConfig(args.n1, args.n2), rng)
    write_csv(args.out, UNCERTAINTY_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _glob_inputs(pattern: str) -> list[Path]:
    import glob

    paths = [Path(p) for p in sorted(glob.glob(pattern))]
    if not paths:
        raise FileNotFoundError(f"no files match {pattern!r}")
    return paths


def _teacher_of_file(path: Path) -> str | None:
    tokens = re.split(r"[^a-z0-9]+", path.name.lower())
    for teacher in TEACHER_MODELS:
        if teacher in tokens:
            return teacher
    return None


def make_table1(paths: list[Path]) -> list[dict]:
    """Mean intrinsic/extrinsic per teacher from uncertainty-report CSVs.

    Files name their teacher as a filename token (e.g. uncrep_tworand_s0.csv);
    every teacher must be present.
    """
    by_teacher: dict[str, list[Path]] = {t: [] for t in TEACHER_MODELS}
    for path in paths:
        teacher = _teacher_of_file(path)
        if teacher is not None:
            by_teacher[teacher].append(path)
    missing = [t for t, files in by_teacher.items() if not files]
    if missing:
        raise ValueError(f"no uncertainty reports for teachers: {missing}")
    out = []
    for teacher in TEACHER_MODELS:
        intr, extr = [], []
        for path in by_teacher[teacher]:
            for row in read_csv(path):
                if row["state_id"] == "mean":
                    intr.append(float(row["intrinsic"]))
                    extr.append(float(row["extrinsic"]))
        ref_intr, ref_extr = TABLE1_REFERENCE[teacher]
        out.append({"teacher": teacher,
                    "intrinsic": float(np.mean(intr)),
                    "extrinsic": float(np.mean(extr)),
                    "ref_intrinsic": ref_intr, "ref_extrinsic": ref_extr})
    return out


def make_fig4(paths: list[Path]) -> list[dict]:
    """Mean query rate per (method, teacher, episode) across seeds."""
    acc: dict[tuple[str, str, int], list[float]] = {}
    for path in paths:
        for row in read_csv(path):
            key = (row["method"], row["teacher"], int(row["episode"]))
            acc.setdefault(key, []).append(float(row["query_rate"]))
    return [{"method": m, "teacher": t, "episode": e,
             "query_rate": float(np.mean(v))}
            for (m, t, e), v in sorted(acc.items())]


def make_fig5(paths: list[Path]) -> list[dict]:
    """Mean model-uncertainty per (n1, episode) across seeds."""
    acc: dict[tuple[int, int], list[float]] = {}
    for path in paths:
        for row in read_csv(path):
            key = (int(row["n1"]), int(row["episode"]))
            acc.setdefault(key, []).append(float(row["model"]))
    return [{"n1": n1, "episode": e, "model": float(np.mean(v))}
            for (n1, e), v in sorted(acc.items())]


def cmd_report(args) -> int:
    paths = _glob_inputs(args.inputs)
    if args.kind == "table1":
        rows = make_table1(paths)
        cols = ("teacher", "intrinsic", "extrinsic",
                "ref_intrinsic", "ref_extrinsic")
    elif args.kind == "fig4":
        rows = make_fig4(paths)
        cols = ("method", "teacher", "episode", "query_rate")
    else:
        rows = make_fig5(paths)
        cols = ("n1", "episode", "model")
    write_csv(args.out, cols, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_gradchecks(seed=args.seed, cases=args.cases)
    ok = True
    for name, worst, passed in results:
        status = "ok" if passed else "FAIL"
        print(f"{name:>14s}  max rel err {worst:.3e}  {status}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "uncertainty-report": cmd_uncertainty_report,
    "report": cmd_report,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        _check_values(args)
    except (_UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # bad data or a file of the run
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
