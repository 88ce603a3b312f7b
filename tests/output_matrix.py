"""Byte-identity listing of the lab's outputs over every method and teacher.

Runs short cells of all 9 methods x 4 teachers on the grid, the default maze
and a custom ``--map`` through the CLI (``train --save`` with probes, eval
and inflation on, then ``eval`` and ``uncertainty-report`` of the
checkpoint), plus the gradient checks, and prints one ``sha256  path`` line
per file, sorted by path. Every command's stdout is kept as a file too. The
custom map's cells read their run values from ``--config map.json``, a JSON
object of RunConfig fields (the form of a sweep manifest's ``base_config``);
the other cells give them as flags, so one listing covers both paths.
Run it on two trees and diff the listings to show which outputs a change
moved::

    PYTHONPATH=src python3 tests/output_matrix.py --outdir /tmp/a > a.txt

It is not a test module (pytest does not collect it). It writes 867 files
in about 15 s on one CPU (Python 3.11, numpy 2.4).
"""
import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

from apil_lab.gradcheck import run_all
from apil_lab.harness import main
from apil_lab.training import METHODS

TEACHERS = ("detm", "rand", "tworand", "twodifdetm")
CUSTOM_MAP = "S...\n.#..\n...#\n#..G\n"  # several reference actions per cell
ENVS = {"grid": {"env": "grid"}, "maze": {"env": "maze"},
        "map": {"env": "maze", "map_path": "map.txt"}}


def run(argv: list[str], stdout_file: str) -> None:
    """One CLI command, its stdout written to ``stdout_file``."""
    with open(stdout_file, "w") as fh, contextlib.redirect_stdout(fh):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: {' '.join(argv)}")


def as_flags(values: dict) -> list[str]:
    """The command-line form of RunConfig values."""
    flags = []
    for name, value in values.items():
        flags += ["--map" if name == "map_path"
                  else "--" + name.replace("_", "-"),
                  ",".join(map(str, value)) if isinstance(value, list)
                  else str(value)]
    return flags


def write_outputs(episodes: int, cases: int) -> None:
    """Every cell's files and the gradcheck maxima, in the working
    directory."""
    Path("map.txt").write_text(CUSTOM_MAP)
    for env, env_values in ENVS.items():
        values = {**env_values, "episodes": episodes, "probe_every": 5,
                  "inflation_n1s": [2, 8], "eval_every": 10}
        if env == "map":
            Path("map.json").write_text(json.dumps(values))
            pre, train_args, env_args = ["--config", "map.json"], [], []
        else:
            pre, train_args, env_args = [], as_flags(values), as_flags(
                env_values)
        for teacher in TEACHERS:
            for method in METHODS:
                name = f"{env}_{teacher}_{method}"
                cell = [*env_args, "--teacher", teacher, "--method", method]
                run([*pre, "train", *cell, *train_args, "--out", f"{name}.csv",
                     "--save", f"{name}.ckpt"], f"{name}.train.txt")
                run([*pre, "eval", *cell, "--episodes", "20",
                     "--load", f"{name}.ckpt"], f"{name}.eval.txt")
                run([*pre, "uncertainty-report", *env_args, "--teacher",
                     teacher, "--load", f"{name}.ckpt", "--eval-episodes",
                     "10", "--out", f"{name}.uncrep.csv"], f"{name}.uncrep.txt")
    with open("gradcheck.txt", "w") as fh:  # repr: the maxima bit for bit
        for case, worst, passed in run_all(seed=0, cases=cases):
            print(case, repr(worst), passed, file=fh)


def listing(outdir: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(outdir)}"
            for path in sorted(outdir.rglob("*")) if path.is_file()]


def cli(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--outdir", required=True, help="empty or new directory")
    p.add_argument("--episodes", type=int, default=30)
    p.add_argument("--cases", type=int, default=100, help="gradcheck cases")
    args = p.parse_args(argv)
    outdir = Path(args.outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        p.error(f"{outdir} is not empty")
    os.chdir(outdir)  # relative paths, so stdout is the same in any outdir
    write_outputs(args.episodes, args.cases)
    print("\n".join(listing(outdir)))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
