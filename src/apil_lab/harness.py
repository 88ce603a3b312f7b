"""Command-line harness: train, eval, sweep, uncertainty-report, report, gradcheck.

Exit codes: 0 success, 1 usage error, 2 run failure, 3 acceptance-check failure.

A module that only one command uses is imported inside that command, so
importing the CLI stays fast.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import training
from .nncore import atomic_open, load_checkpoint, save_checkpoint
from .query import NeverQueryPolicy
from .teachers import TEACHER_MODELS
from .training import (RunConfig, final_query_rate, final_success_rate,
                       read_csv, run_training, write_csv)
from .uncertainty import UncertaintyConfig, aggregate, estimate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2
EXIT_CHECK_FAILURE = 3

UNCERTAINTY_COLUMNS = ("teacher", "state_id", "intrinsic", "extrinsic",
                       "behavioral", "total", "model", "n1", "n2")

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
    def __init__(self, *args, **kwargs):
        # no prefix matching: a sweep's --seed is not its --seeds
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _at_least(low: int):
    """argparse type of an integer flag that is not a run value."""
    def check(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {value}")
        return value
    check.__name__ = "int"  # names the type when the text is not an integer
    return check


def _inflation_n1s(text: str) -> tuple[int, ...]:
    """argparse type of ``--inflation-n1s``: a comma list of integers."""
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a comma list of integers, "
                                         f"got {text!r}") from None


# The RunConfig fields each run command reads, one flag each: a flag it would
# not read does not exist. A sweep's cells take their method, teacher and
# seed from its lists.
RUN_FIELDS = {
    "train": ("env", "map_path", "teacher", "seed", "episodes", "lr", "sigma",
              "epsilon", "tau", "err_threshold", "n1", "n2", "probe_every",
              "probe_rollouts", "method", "inflation_n1s", "eval_every"),
    "eval": ("env", "map_path", "teacher", "seed", "tau", "err_threshold",
             "n1", "n2", "method"),
    "sweep": ("env", "map_path", "episodes", "lr", "sigma", "epsilon", "tau",
              "err_threshold", "n1", "n2", "probe_every", "probe_rollouts",
              "eval_every"),
    "uncertainty-report": ("env", "map_path", "teacher", "seed", "n1", "n2"),
}
_RUN_FLAG_KEYWORDS = {  # a run flag's argparse keywords, if not its type
    "map_path": {"help": "maze map file (maze env only)"},
    "inflation_n1s": {"type": _inflation_n1s, "help": "comma list of N1 "
                      "values for the inflation side CSV"},
}


def _add_run_args(p: argparse.ArgumentParser, command: str) -> None:
    """The flags of the fields ``command`` reads. A flag not given sets
    nothing, so its default and rules are RunConfig's."""
    for name in RUN_FIELDS[command]:
        flag = "--map" if name == "map_path" else "--" + name.replace("_", "-")
        p.add_argument(flag, dest=name, default=argparse.SUPPRESS,
                       **_RUN_FLAG_KEYWORDS.get(
                           name, {"type": type(getattr(RunConfig, name))}))


def build_parser() -> _Parser:
    parser = _Parser(prog="apil-lab")
    parser.add_argument("--config", default=None,
                        help="JSON object of RunConfig fields; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "train", help="train one run and write its metrics CSV")
    _add_run_args(p, "train")
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.add_argument("--save", default=None, help="checkpoint path")

    p = sub.add_parser("eval", help="evaluate a checkpoint without updates")
    _add_run_args(p, "eval")
    p.add_argument("--load", required=True, help="checkpoint path")
    p.add_argument("--episodes", type=_at_least(1), default=1000,
                   help="frozen episodes walked")
    p.add_argument("--greedy", action="store_true",
                   help="argmax of the mean policy instead of sampling")

    p = sub.add_parser(
        "sweep", help="run a grid of training cells in parallel")
    _add_run_args(p, "sweep")
    p.add_argument("--methods", default="apil,bc,dagger")
    p.add_argument("--teachers", default="detm,rand,tworand,twodifdetm")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--outdir", required=True)
    p.add_argument("--jobs", type=_at_least(0), default=0,
                   help="worker processes; 0 = available processors")

    p = sub.add_parser(
        "uncertainty-report",
        help="per-state uncertainty CSV for a trained checkpoint")
    _add_run_args(p, "uncertainty-report")
    p.add_argument("--load", required=True, help="checkpoint path")
    p.add_argument("--eval-episodes", type=_at_least(1), default=100,
                   help="never-query walks whose visited states are reported")
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "report", help="aggregate CSVs into figure/table series")
    p.add_argument("--kind", choices=tuple(REPORTS), required=True)
    p.add_argument("--in", dest="inputs", required=True,
                   help="glob of input CSV files")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--cases", type=_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _run_config(args) -> RunConfig:
    """The run's RunConfig: the ``--config`` file's fields, overridden by the
    run flags given. Building it checks both."""
    values = {}
    if args.config is not None:
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise _UsageError("config file must hold a JSON object")
        unknown = sorted(values.keys() - {f.name for f in fields(RunConfig)})
        if unknown:
            raise _UsageError(f"unknown config field {unknown[0]!r}")
    run_flags = RUN_FIELDS.get(args.command, ())
    flags = {name: getattr(args, name) for name in run_flags
             if hasattr(args, name)}
    return RunConfig(**{**values, **flags})


def cmd_train(args, cfg: RunConfig) -> int:
    result = run_training(cfg, out_path=args.out)
    if args.save:
        save_checkpoint(args.save, {**result.agent.param_arrays(),
                                    **result.policy.param_arrays()})
    summary = {"method": cfg.method, "teacher": cfg.teacher, "env": cfg.env,
               "seed": cfg.seed,
               "final_query_rate": final_query_rate(result.rows),
               "final_success_rate": final_success_rate(result.rows)}
    print(json.dumps(summary))
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    init_rng, eval_rng = np.random.default_rng(cfg.seed).spawn(2)
    env, committee, agent = training.build_cell(cfg, init_rng)
    policy = training.make_query_policy(cfg, env, init_rng)
    arrays = load_checkpoint(args.load)
    agent.load_arrays(arrays)
    policy.load_arrays(arrays)
    unread = (set(arrays) - set(agent.param_arrays())
              - set(policy.param_arrays()))
    if unread:
        raise ValueError(f"checkpoint holds arrays that --method {cfg.method} "
                         f"does not read: {', '.join(sorted(unread))}")
    summary = training.evaluate(agent, policy, env, committee, args.episodes,
                                eval_rng, n1=cfg.n1, greedy_exe=args.greedy)
    print(json.dumps(summary))
    return EXIT_OK


def _sweep_cell(cfg_dict: dict, out_path: str) -> None:
    run_training(RunConfig(**cfg_dict), out_path=out_path)


def _sweep_list(args, flag: str, item=str.strip) -> list:
    text = getattr(args, flag)
    try:
        items = [item(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise _UsageError(f"--{flag} must be a comma list of integers, "
                          f"got {text!r}") from None
    if len(set(items)) < len(items):
        raise _UsageError(f"--{flag} repeats an entry: {text!r}")
    return items


def cmd_sweep(args, cfg: RunConfig) -> int:
    methods = _sweep_list(args, "methods")
    teachers = _sweep_list(args, "teachers")
    seeds = _sweep_list(args, "seeds", int)
    if not (methods and teachers and seeds):
        raise _UsageError("sweep needs at least one method, teacher, and seed")
    # every cell's config is built, and so checked, before any work
    try:
        cells = {f"{m}_{t}_s{s}.csv": replace(cfg, method=m, teacher=t, seed=s)
                 for m in methods for t in teachers for s in seeds}
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    import concurrent.futures
    # the processors this process may run on, where the OS can say
    jobs = args.jobs or (len(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity")
                         else os.cpu_count() or 1)
    statuses = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(_sweep_cell, asdict(cell), str(outdir / name)):
                   (cell, name) for name, cell in cells.items()}
        for fut in concurrent.futures.as_completed(futures):
            cell, name = futures[fut]
            entry = {"method": cell.method, "teacher": cell.teacher,
                     "seed": cell.seed, "csv": name}
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
        "base_config": {name: value for name, value in asdict(cfg).items()
                        if name not in ("method", "teacher", "seed")},
        "cells": statuses,
    }
    with atomic_open(outdir / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [e for e in statuses if e["status"] != "ok"]
    if failed:
        print(f"{len(failed)} of {len(statuses)} cells failed", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(f"{len(statuses)} cells completed into {outdir}")
    return EXIT_OK


def _describe_version() -> str:
    import subprocess
    from importlib import metadata
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
    visited = visited_state_weights(agent, env, committee, n_episodes, rng,
                                    ucfg.n1)
    reports = [estimate(agent, features, ucfg, rng, state_id=state_id)
               for features, state_id, _ in visited]
    rows = sorted((asdict(rep) for rep in reports),
                  key=lambda r: r["state_id"])
    counts = [count for _, _, count in visited]
    rows.append(asdict(aggregate(reports, counts, ucfg)))
    return rows


def cmd_uncertainty_report(args, cfg: RunConfig) -> int:
    # the walks draw from the seed's root stream; the initial weights the
    # checkpoint replaces come from a child, which leaves the root unmoved
    rng = np.random.default_rng(cfg.seed)
    env, committee, agent = training.build_cell(cfg, rng.spawn(1)[0])
    agent.load_arrays(load_checkpoint(args.load))
    rows = uncertainty_report_rows(agent, env, committee, args.eval_episodes,
                                   cfg.uncertainty, rng)
    write_csv(args.out, UNCERTAINTY_COLUMNS,
              [{"teacher": cfg.teacher, **row} for row in rows])
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _glob_inputs(pattern: str) -> list[Path]:
    paths = [Path(p) for p in sorted(glob.glob(pattern))]
    if not paths:
        raise FileNotFoundError(f"no files match {pattern!r}")
    return paths


def _report_rows(path: Path, columns: tuple[str, ...]) -> list[dict]:
    """An input CSV's rows; one that lacks a needed column is bad data."""
    rows = read_csv(path)
    for col in columns:
        if rows and col not in rows[0]:
            raise ValueError(f"{path} has no column {col!r}")
    return rows


def make_table1(paths: list[Path]) -> list[dict]:
    """Mean intrinsic/extrinsic per teacher from uncertainty-report CSVs.

    Each file's mean rows name their teacher in the ``teacher`` column;
    every teacher must be present, and every file must hold a mean row.
    """
    by_teacher: dict[str, list[dict]] = {t: [] for t in TEACHER_MODELS}
    for path in paths:
        means = [row for row in _report_rows(path, ("teacher", "state_id",
                                                    "intrinsic", "extrinsic"))
                 if row["state_id"] == "mean"]
        if not means:
            raise ValueError(f"{path} has no 'mean' row")
        for row in means:
            if row["teacher"] not in by_teacher:
                raise ValueError(f"{path} names an unknown teacher "
                                 f"{row['teacher']!r}")
            by_teacher[row["teacher"]].append(row)
    missing = [t for t, rows in by_teacher.items() if not rows]
    if missing:
        raise ValueError(f"no uncertainty reports for teachers: {missing}")
    mean = lambda rows, col: float(np.mean([float(r[col]) for r in rows]))
    return [{"teacher": teacher, "intrinsic": mean(rows, "intrinsic"),
             "extrinsic": mean(rows, "extrinsic"),
             "ref_intrinsic": TABLE1_REFERENCE[teacher][0],
             "ref_extrinsic": TABLE1_REFERENCE[teacher][1]}
            for teacher, rows in by_teacher.items()]


def make_fig4(paths: list[Path]) -> list[dict]:
    """Mean query rate per (method, teacher, episode) across seeds, from
    metrics CSVs: an eval CSV has no ``success`` column, so it is refused."""
    acc: dict[tuple[str, str, int], list[float]] = {}
    for path in paths:
        for row in _report_rows(path, ("method", "teacher", "episode",
                                       "query_rate", "success")):
            key = (row["method"], row["teacher"], int(row["episode"]))
            acc.setdefault(key, []).append(float(row["query_rate"]))
    return [{"method": m, "teacher": t, "episode": e,
             "query_rate": float(np.mean(v))}
            for (m, t, e), v in sorted(acc.items())]


def make_fig5(paths: list[Path]) -> list[dict]:
    """Mean model-uncertainty per (n1, episode) across seeds."""
    acc: dict[tuple[int, int], list[float]] = {}
    for path in paths:
        for row in _report_rows(path, ("n1", "episode", "model")):
            key = (int(row["n1"]), int(row["episode"]))
            acc.setdefault(key, []).append(float(row["model"]))
    return [{"n1": n1, "episode": e, "model": float(np.mean(v))}
            for (n1, e), v in sorted(acc.items())]


REPORTS = {  # kind: (maker, output columns)
    "table1": (make_table1, ("teacher", "intrinsic", "extrinsic",
                             "ref_intrinsic", "ref_extrinsic")),
    "fig4": (make_fig4, ("method", "teacher", "episode", "query_rate")),
    "fig5": (make_fig5, ("n1", "episode", "model")),
}


def cmd_report(args, _cfg) -> int:
    make, cols = REPORTS[args.kind]
    rows = make(_glob_inputs(args.inputs))
    write_csv(args.out, cols, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args, _cfg) -> int:
    from .gradcheck import run_all
    results = run_all(seed=args.seed, cases=args.cases)
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
    try:
        args = build_parser().parse_args(argv)
        cfg = _run_config(args)
    except (_UsageError, OSError, ValueError) as exc:  # JSONDecodeError too
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # bad data or a file of the run
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
