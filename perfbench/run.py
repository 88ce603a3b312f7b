"""apil-lab benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source tree that has ``src/apil_lab``. With
``--trace 0`` it measures set-up in fresh interpreters and repeats the
workload on the workload seeds derived from ``--seed``, each repeat in a
fresh process, until ``--seconds`` are used. It prints set-up time and peak
RSS as medians, and wall time and episode throughput from each segment's
best time over a seed's repeats (see ``best_of_repeats``), scaled by the
pace of a reference kernel and taken as the median over seeds.
With ``--trace 1`` it runs the workload once untraced and once traced on the
same seed, checks that both wrote byte-identical outputs, and prints the
per-layer metrics. The last line of stdout is one JSON object. The exit code
is 0 only when every command, sweep cell and correctness check succeeded.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# import perfbench as a package, not its files as top-level modules
sys.path[0] = str(ROOT)

from perfbench import layers  # noqa: E402
from perfbench.trace import (percentile, tail_percentile,  # noqa: E402
                             valid_metric_name)
from perfbench.workloads import WORKLOADS  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
DEADLINE_S = 170.0
SETUP_RUNS = 9  # at least this many timed set-up runs
MIN_ROUNDS = 1
MAX_ROUNDS = 40
SEED_STRIDE = 100  # seed i of run seed s is workload seed s*100+i

END_TO_END = [
    ("norm_episodes_per_s", "episodes/s"),
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Best time of one chunk of rep.reference_chunks on the machine the bounds
# were set on (2 vCPUs, Python 3.11, numpy 2.4 with OpenBLAS), the unit of
# the norm_* metrics.
REFERENCE_CHUNK_S = 0.000275


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.start = time.perf_counter()
        self.jobs = len(os.sched_getaffinity(0))
        self.workdir = ROOT / ".perfbench_work" / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})
        self.ops: list[dict] = []
        self.samples: dict[str, list[float]] = {}

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def _child(self, args: list[str], timeout: float):
        """Run ``python -m <args>`` in its own session; (code, stderr, seconds).

        On timeout the whole process group is killed and the code is None.
        """
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", *args], cwd=ROOT,
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                _, err = proc.communicate(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                _, err = proc.communicate()
                return None, err, time.perf_counter() - t0
        return proc.returncode, err, time.perf_counter() - t0

    def _record(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append({"name": name, "ok": ok, "detail": detail})

    def setup_time(self) -> float | None:
        """Wall time of one fresh interpreter doing the first cell's set-up."""
        args = ["perfbench.setup_probe", "--workload", self.workload.name,
                "--seed", str(self.seed)]
        code, err, seconds = self._child(args, self.remaining() / 4)
        self._record("setup", code == 0, f"exit {code}")
        if code != 0:
            sys.stderr.write(err)
            return None
        return seconds

    def rep(self, tag: str, seed_index: int, trace: bool) -> dict | None:
        seed = self.seed * SEED_STRIDE + seed_index
        result = self.workdir / f"{tag}.json"
        args = ["perfbench.rep", "--workload", self.workload.name,
                "--seed", str(seed), "--jobs", str(self.jobs),
                "--out", str(self.workdir / tag), "--result", str(result)]
        if trace:
            args += ["--trace-dir", str(self.workdir / f"{tag}-spans")]
        code, err, _ = self._child(args, self.remaining() - 5.0)
        if code != 0 or not result.exists():
            sys.stderr.write(err)
            self._record(f"rep:{tag}", False, f"exit {code}")
            return None
        out = json.loads(result.read_text())
        self.ops.extend(out["ops"])
        for op in out["ops"]:
            if not op["ok"]:
                print(f"FAILED {tag} {op['name']}: {op['detail']}",
                      file=sys.stderr)
        return out

    def _check_repeat(self, first: tuple[dict, str], out: dict,
                      tag: str) -> None:
        """A repeat must do the first repeat's work, byte for byte."""
        first_out, first_tag = first
        shape = [len(c["segments"]) for c in out["commands"]]
        first_shape = [len(c["segments"]) for c in first_out["commands"]]
        same, detail = _same_tree(self.workdir / first_tag, self.workdir / tag)
        self._record(f"repeat-identical:{tag}", same and shape == first_shape,
                     f"segments {shape} vs {first_shape}; {detail}")
        shutil.rmtree(self.workdir / tag, ignore_errors=True)

    def measure(self, seconds: float) -> tuple[dict, list[str]]:
        """Repeat the run's workload seeds in rounds until ``seconds`` are used.

        A round runs each of the workload's ``seeds_per_run`` seeds once;
        rounds go on until the next one would end after ``seconds``, and at
        least one runs. A timed set-up run precedes each repeat, so set-up
        runs and repeats sample the same stretch of time. One untimed set-up
        run first fills the bytecode cache, which users also have after
        their first command.
        """
        n_seeds = self.workload.seeds_per_run
        self.setup_time()
        loop_start = time.perf_counter()
        setup: list[float | None] = []
        repeats: list[list[dict]] = [[] for _ in range(n_seeds)]
        firsts: list[tuple[dict, str] | None] = [None] * n_seeds
        round_s: list[float] = []
        while len(round_s) < MAX_ROUNDS:
            elapsed = time.perf_counter() - loop_start
            estimate = statistics.median(round_s) if round_s else 0.0
            if len(round_s) >= MIN_ROUNDS and elapsed + estimate > seconds:
                break
            if round_s and estimate * 1.5 + 5.0 > self.remaining():
                break
            t0 = time.perf_counter()
            for i in range(n_seeds):
                setup.append(self.setup_time())
                tag = f"s{i}-r{len(round_s)}"
                out = self.rep(tag, i, trace=False)
                if out is None:
                    continue
                repeats[i].append(out)
                if firsts[i] is None:
                    firsts[i] = (out, tag)
                else:
                    self._check_repeat(firsts[i], out, tag)
            round_s.append(time.perf_counter() - t0)
        while len(setup) < SETUP_RUNS and self.remaining() > 10.0:
            setup.append(self.setup_time())

        per_seed = {name: [] for name in ("episodes_per_s", "wall_s", "speed",
                                          "norm_episodes_per_s",
                                          "norm_wall_s")}
        for outs in repeats:
            try:
                best = best_of_repeats([[c["segments"] for c in r["commands"]]
                                        for r in outs])
                [ref] = best_of_repeats([[r["reference"]] for r in outs])
            except ValueError as exc:  # counted by the repeat check
                print(f"skipped a seed: {exc}", file=sys.stderr)
                continue
            trains = [c["trains"] for c in outs[0]["commands"]]
            wall = sum(best)
            per_s = outs[0]["episodes"] / sum(b for b, t in zip(best, trains)
                                              if t)
            speed = REFERENCE_CHUNK_S * len(outs[0]["reference"]) / ref
            for name, value in (("episodes_per_s", per_s), ("wall_s", wall),
                                ("speed", speed),
                                ("norm_episodes_per_s", per_s / speed),
                                ("norm_wall_s", wall * speed)):
                per_seed[name].append(value)
        reps = [r for outs in repeats for r in outs]
        self.samples = {
            **per_seed,
            "setup_s": [t for t in setup if t is not None],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            "plain_wall_s": [r["wall_s"] for r in reps],
        }
        medians = {name: statistics.median(values) if values else 0.0
                   for name, values in self.samples.items()}
        metrics = {name: medians[name] for name, _ in END_TO_END}
        over_seeds = (f"median over {n_seeds} seed(s), repeats per seed: "
                      + ", ".join(str(len(outs)) for outs in repeats))
        segments = sum(len(c["segments"]) for c in reps[0]["commands"]) \
            if reps else 0
        notes = {
            "norm_episodes_per_s": f"episodes_per_s / speed; {over_seeds}",
            "norm_wall_s": f"wall_s * speed; {over_seeds}",
            "setup_s": _spread_note(self.samples["setup_s"]),
            "peak_rss_mb": _spread_note(self.samples["peak_rss_mb"]),
        }
        lines = [f"  {name:<19} {metrics[name]:.6g} {unit}  ({notes[name]})"
                 for name, unit in END_TO_END]
        lines += [
            f"  episodes_per_s      {medians['episodes_per_s']:.6g} "
            f"episodes/s  (episodes / best-of-repeats training time)",
            f"  wall_s              {medians['wall_s']:.6g} s  (sum over "
            f"{segments} segments of each one's best time over the repeats)",
            f"  speed               {medians['speed']:.6g}  (reference "
            f"kernel's best-of-repeats time on the bounds' machine / here)",
            f"  plain wall_s of each repeat: "
            f"{_spread_note(self.samples['plain_wall_s'])}",
        ]
        lines += _outcome_lines(reps)
        return metrics, lines

    def traced(self) -> tuple[dict, list[str]]:
        plain = self.rep("plain", 0, trace=False)
        traced = self.rep("traced", 0, trace=True)
        if plain is None or traced is None:
            return {name: 0.0 for name, _, _ in layers.PER_LAYER}, []
        same, detail = _same_tree(self.workdir / "plain",
                                  self.workdir / "traced")
        self._record("traced-outputs-identical", same, detail)
        metrics = dict(traced["per_layer"])
        metrics[layers.OVERHEAD] = traced["wall_s"] - plain["wall_s"]
        lines = [f"  {name:<40} {metrics[name]:.6g} {unit}"
                 for name, unit, _ in layers.PER_LAYER]
        lines.append(f"  tracing overhead: traced {traced['wall_s']:.3f} s - "
                     f"untraced {plain['wall_s']:.3f} s")
        return metrics, lines

    def environment(self) -> dict:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {
            "nproc": os.cpu_count(),
            "cpus_usable": self.jobs,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: self.env[var] for var in BLAS_THREAD_VARS},
            "git_describe": _git_describe(),
            "seed": self.seed,
            "workers": self.jobs,
        }


def best_of_repeats(repeats: list[list[list[float]]]) -> list[float]:
    """Per command, the sum over segments of each segment's best time.

    ``repeats[k][c][j]`` is segment ``j`` of command ``c`` in repeat ``k`` of
    one seed. Repeats of a seed do identical work segment by segment, so the
    fastest reading of each segment is the one least slowed by other load on
    the machine.
    """
    shapes = {tuple(len(c) for c in rep) for rep in repeats}
    if len(shapes) != 1:  # also no repeats at all
        raise ValueError(f"repeats differ in their segments: {shapes}")
    return [sum(min(column) for column in zip(*commands))
            for commands in zip(*repeats)]


def _spread_note(values: list[float]) -> str:
    n = len(values)
    if n == 0:
        return "no samples"
    pct = tail_percentile(n)
    tail = (f"p{pct:g} {percentile(values, pct):.6g}" if pct
            else "no percentile has 10 samples beyond it")
    return f"median of {n}; min {min(values):.6g}, max {max(values):.6g}; {tail}"


def _outcome_lines(reps: list[dict]) -> list[str]:
    keys = sorted({k for r in reps for k in r["outcomes"]})
    return [f"  outcome {k}: " + ", ".join(f"{r['outcomes'][k]:.4g}"
                                           for r in reps)
            for k in keys]


def _same_tree(a: Path, b: Path) -> tuple[bool, str]:
    """Whether two output trees hold the same files with identical bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False, f"file lists differ: {files_a} vs {files_b}"
    differ = [str(p) for p in files_a
              if (a / p).read_bytes() != (b / p).read_bytes()]
    return not differ, f"{len(files_a)} files, differing: {differ}"


def _git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        out = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}",
             "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable: {exc}"
    return out.stdout.strip() or f"unavailable: {out.stderr.strip()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apil_lab" / "harness.py").is_file():
        print(f"no apil_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    if args.trace:
        metrics, lines = bench.traced()
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics, lines = bench.measure(args.seconds)
        units = dict(END_TO_END)
    bad_names = [name for name in metrics if not valid_metric_name(name)]
    if bad_names:
        raise ValueError(f"metric names outside the grammar: {bad_names}")
    failed = sum(not op["ok"] for op in bench.ops)
    attempted = len(bench.ops)
    env = bench.environment()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({time.perf_counter() - bench.start:.1f} s)")
    for line in lines:
        print(line)
    kinds = sorted({op["name"].split(":")[0] for op in bench.ops})
    print(f"  error_rate      {failed / max(attempted, 1):.6g} ratio  "
          f"({failed} failed of {attempted} operations: {', '.join(kinds)})")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(value), "unit": units[name]}
                          for name, value in metrics.items()}}
    (bench.workdir / "result.json").write_text(json.dumps(
        {**result, "env": env, "samples": bench.samples, "ops": bench.ops},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
