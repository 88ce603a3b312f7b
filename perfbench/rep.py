"""One repetition of a workload in a fresh process; writes a JSON result.

    python3 -m perfbench.rep --workload NAME --seed N --jobs J \
        --out DIR --result FILE [--trace-dir DIR]

Without ``--trace-dir`` the run reads the clock after every training episode
and every uncertainty-report estimate, and the result splits each command's
wall time into the segments between those marks. Repeats of one seed do the
same work segment by segment, which lets the caller take each segment's best
time. Before and after the commands it also times chunks of a fixed
reference kernel, which tell the caller how fast the machine ran. With
``--trace-dir`` every layer function is wrapped for the run, the
spans are written to that directory, and the result carries the per-layer
metrics.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import layers
from .trace import Patcher, Profile, Tracer, load_spans, save_spans
from .workloads import WORKLOADS, Op


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest finished child's (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def install_clock(patcher: Patcher, marks: list[float]) -> None:
    """Append ``perf_counter()`` to ``marks`` after each episode and estimate.

    The wrappers only read the clock, so outputs do not change. Forked sweep
    workers inherit them but keep their marks to themselves, so a sweep
    command is one segment.
    """
    from apil_lab import harness, training

    def marking(inner):
        def marked(*args, **kwargs):
            result = inner(*args, **kwargs)
            marks.append(time.perf_counter())
            return result
        return marked

    for module, name in ((training, "run_episode"), (harness, "estimate")):
        patcher.patch(module, name, marking(getattr(module, name)))


REFERENCE_CHUNKS = 80  # before the commands, and as many after them
PARALLEL_REFERENCE_CHUNKS = 400  # per worker; long enough for them to overlap


def reference_chunks(n: int) -> list[float]:
    """Times of ``n`` chunks of a fixed kernel: how fast the machine runs now.

    A chunk is the kind of work an episode is made of, a small dense layer,
    tanh, softmax and a Python loop, on fixed arrays of its own. It touches
    no state of the program, so outputs do not change.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    w1 = rng.standard_normal((64, 64)) * 0.1
    w2 = rng.standard_normal((64, 5)) * 0.1
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        for _ in range(40):
            z = np.tanh(x @ w1) @ w2
            p = np.exp(z - z.max())
            p /= p.sum()
            acc = 0.0
            for v in p.tolist():
                acc += v * v
        times.append(time.perf_counter() - t0)
    return times


def reference(jobs: int) -> list[float]:
    """Reference chunk times, on ``jobs`` CPUs at once when ``jobs`` > 1.

    A workload that keeps every CPU busy runs at the pace of all of them,
    and busy CPUs slow each other, so its reference runs in as many forked
    workers as it uses, and each chunk's time is the mean over the workers.
    """
    if jobs == 1:
        return reference_chunks(REFERENCE_CHUNKS)
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        runs = list(pool.map(reference_chunks,
                             [PARALLEL_REFERENCE_CHUNKS] * jobs))
    return [sum(times) / jobs for times in zip(*runs)]


def run(workload: str, seed: int, jobs: int, out: Path,
        trace_dir: Path | None) -> dict:
    import numpy as np
    from apil_lab import harness

    wl = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    patcher = Patcher()
    tracer = None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(f"{workload}/seed{seed}", spill_dir=trace_dir)
        layers.install(tracer, patcher)
    marks: list[float] = []
    if tracer is None:
        install_clock(patcher, marks)

    saved: dict = {}
    save_inner = harness.save_checkpoint

    def capture_checkpoint(path, arrays):
        saved.update({k: np.array(v, copy=True) for k, v in arrays.items()})
        return save_inner(path, arrays)

    patcher.patch(harness, "save_checkpoint", capture_checkpoint)

    ops: list[Op] = []
    wall_s = train_s = 0.0
    sweep_wall_s = 0.0
    commands = []
    ref_jobs = jobs if wl.parallel else 1
    reference_times = [] if tracer else reference(ref_jobs)
    for cmd in wl.commands(seed, out, jobs):
        marks.clear()
        t0 = time.perf_counter()
        code = harness.main(cmd.argv)
        elapsed = time.perf_counter() - t0
        bounds = [t0, *marks, t0 + elapsed]
        commands.append({"name": cmd.argv[0], "trains": cmd.trains,
                         "segments": [b - a for a, b in zip(bounds,
                                                            bounds[1:])]})
        wall_s += elapsed
        if cmd.trains:
            train_s += elapsed
        if cmd.argv[0] == "sweep":
            sweep_wall_s = elapsed
        ops.append(Op(f"command:{cmd.argv[0]}", code == 0, f"exit {code}"))
        if code != 0:
            break
    if tracer is None:
        reference_times += reference(ref_jobs)
    patcher.restore()
    peak_rss_mb = _peak_rss_mb()
    unrestored = patcher.unrestored()
    ops.append(Op("patches-restored", not unrestored,
                  f"{len(patcher)} patched, unrestored {unrestored}"))

    episodes, outcomes, sweep = 0, {}, None
    if all(op.ok for op in ops):
        try:
            checked = wl.check(out, saved)
        except Exception as exc:  # noqa: BLE001 - a failed check is counted
            ops.append(Op("checks", False, f"{type(exc).__name__}: {exc}"))
        else:
            ops.extend(checked.ops)
            episodes, outcomes, sweep = (checked.episodes, checked.outcomes,
                                         checked.sweep)

    per_layer = None
    if tracer is not None:
        save_spans(trace_dir / "spans-main.npz", tracer.spans, tracer.counters)
        profile = Profile()
        for path in sorted(trace_dir.glob("spans-*.npz")):
            profile.add(*load_spans(path))
        if sweep is not None:
            sweep = {**sweep, "jobs": jobs, "wall_s": sweep_wall_s}
        per_layer = layers.per_layer_metrics(profile, sweep)

    return {"workload": workload, "seed": seed, "jobs": jobs,
            "wall_s": wall_s, "train_s": train_s, "episodes": episodes,
            "peak_rss_mb": peak_rss_mb, "commands": commands,
            "reference": reference_times,
            "outcomes": outcomes,
            "ops": [asdict(op) for op in ops], "per_layer": per_layer}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.rep")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.jobs, args.out, args.trace_dir)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
