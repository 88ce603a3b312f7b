"""What a fresh interpreter does before a workload's first episode.

    python3 -m perfbench.setup_probe --workload NAME --seed N

Imports ``apil_lab.harness`` and calls the public constructors that the
workload's first cell calls before its first episode, in the same order and
with the same random streams as ``run_training``. The caller times the whole
process.
"""
from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    import numpy as np
    from apil_lab import harness  # noqa: F401 - importing the CLI is the cost
    from apil_lab.agent import PersonaAgent
    from apil_lab.envs import make_env
    from apil_lab.teachers import (estimate_teacher_final_distance,
                                   make_committee)
    from apil_lab.training import (RunConfig, make_query_policy,
                                   probe_trajectory_features)

    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench.setup_probe")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    cfg = RunConfig(seed=args.seed, **WORKLOADS[args.workload].first_cell)
    env = make_env(cfg.env, cfg.map_path)
    committee = make_committee(cfg.teacher)
    init_rng, _, probe_rng, dstar_rng = np.random.default_rng(cfg.seed).spawn(4)
    PersonaAgent(env.state_dim, env.n_actions, committee.size,
                 init_rng, lr=cfg.lr)
    make_query_policy(cfg, env, init_rng)
    if not env.always_succeeds:
        estimate_teacher_final_distance(committee, env, cfg.d_star_rollouts,
                                        dstar_rng)
    probe_trajectory_features(env, committee, probe_rng, cfg.probe_rollouts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
