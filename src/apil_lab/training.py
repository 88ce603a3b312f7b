"""Episode loop, training runs, evaluation, and metrics logging.

One run = one (env, teacher committee, method, seed) cell trained for a fixed
number of episodes with batch-one updates at episode end. The persona agent
trains on the queried steps of the finished trajectory, as one stacked pass;
methods with a learned ask policy additionally train it from the same
trajectory.

``rollout`` is the one episode loop: ``run_episode`` adds end-of-episode
updates and metrics, the probe states and d* are agent-free always-query
rollouts, and the uncertainty report walks never-query rollouts.
"""
from __future__ import annotations

import csv
import numbers
import os
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .agent import PersonaAgent
from .envs import ENVS, make_env
from .nncore import atomic_open, draw
from .query import (ASK_QUERY, AlwaysQueryPolicy, ApilConfig, DaggerPolicy,
                    DecisionContext, ErrPredNet, ErrPredQueryPolicy,
                    HindsightQueryPolicy, NeverQueryPolicy, QueryNet,
                    StepRecord, ThresholdQueryPolicy, Trajectory)
from .teachers import (TEACHER_MODELS, estimate_teacher_final_distance,
                       make_committee)
from .uncertainty import UncertaintyConfig, mean_report

METHODS = ("apil", "phil-ignore", "bc", "dagger", "intrun", "extrun",
           "behvun", "errpred", "never")

METRICS_COLUMNS = ("episode", "method", "teacher", "env", "seed", "query_rate",
                   "success", "final_dist", "exe_loss", "ask_loss", "intrinsic",
                   "extrinsic", "behavioral", "total", "model")

INFLATION_COLUMNS = ("episode", "method", "teacher", "env", "seed", "n1", "model")

EVAL_COLUMNS = ("episode", "method", "teacher", "env", "seed", "query_rate",
                "success_rate", "mean_final_dist")


@dataclass(frozen=True)
class RunConfig:
    """One run cell: the one place of its defaults and value rules, all
    checked when it is built. Every count is an integer. The sigma/epsilon
    rules and the n1/n2 bounds are those of the ``apil``, ``uncertainty``
    and ``inflation`` configs it builds."""
    env: str = "grid"
    map_path: str | None = None
    teacher: str = "detm"
    method: str = "apil"
    episodes: int = 1000
    seed: int = 0
    lr: float = 1e-3
    sigma: float = 2.0
    epsilon: float = 0.0
    tau: float = 0.5
    err_threshold: float = 0.5
    n1: int = 5
    n2: int = 10
    probe_every: int = 25
    probe_rollouts: int = 3
    inflation_n1s: tuple[int, ...] = ()
    eval_every: int = 0
    eval_episodes: int = 20
    d_star_rollouts: ClassVar[int] = 100

    def __post_init__(self):
        for name, choices in (("env", ENVS), ("teacher", tuple(TEACHER_MODELS)),
                              ("method", METHODS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"expected one of {choices}")
        if self.map_path is not None and self.env != "maze":
            raise ValueError(f"--map needs --env maze, got --env {self.env}")
        whole = lambda v: isinstance(v, numbers.Integral)  # numpy's too
        # (field, test, what the test asks); nan fails every test
        for name, test, rule in (
                *((name, lambda v: whole(v) and v >= 1,
                   "be at least 1 and an integer") for name in
                  ("episodes", "probe_rollouts", "eval_episodes")),
                *((name, lambda v: whole(v) and v >= 0,
                   "be at least 0 and an integer") for name in
                  ("seed", "probe_every", "eval_every")),
                *((name, whole, "be an integer") for name in ("n1", "n2")),
                ("inflation_n1s", lambda v: all(whole(n1) and n1 >= 1
                                                for n1 in v),
                 "each be at least 1 and an integer"),
                ("lr", lambda v: 0.0 < v < np.inf, "be positive and finite"),
                ("tau", np.isfinite, "be finite"),
                ("err_threshold", np.isfinite, "be finite")):
            value = getattr(self, name)
            if not test(value):
                raise ValueError(f"{name} must {rule}, got {value}")
        if self.inflation_n1s and self.probe_every == 0:
            raise ValueError("inflation_n1s needs probe_every above 0: the "
                             "series is measured at the probes")
        built = {"apil": ApilConfig(self.sigma, self.epsilon),
                 "uncertainty": UncertaintyConfig(self.n1, self.n2),
                 "inflation": tuple(UncertaintyConfig(n1, self.n2)
                                    for n1 in self.inflation_n1s)}
        for name, value in built.items():
            object.__setattr__(self, name, value)


@dataclass
class EpisodeMetrics:
    query_rate: float
    success: bool
    final_dist: float
    exe_loss: float | None
    ask_loss: float | None


@dataclass
class RunResult:
    rows: list[dict]
    inflation_rows: list[dict]
    agent: PersonaAgent
    policy: object
    env: object
    committee: object
    probe_features: list[np.ndarray]


def build_cell(cfg: RunConfig, init_rng: np.random.Generator):
    """A cell's env, teacher committee and persona agent, whose initial
    weights are drawn from ``init_rng``."""
    env = make_env(cfg.env, cfg.map_path)
    committee = make_committee(cfg.teacher)
    agent = PersonaAgent(env.state_dim, env.n_actions, committee.size,
                         init_rng, lr=cfg.lr)
    return env, committee, agent


def make_query_policy(cfg: RunConfig, env, rng: np.random.Generator):
    if cfg.method in ("apil", "phil-ignore"):
        net = QueryNet(env.state_dim, env.n_actions, env.horizon, rng, lr=cfg.lr)
        return HindsightQueryPolicy(net, cfg.apil,
                                    use_ignore=cfg.method == "phil-ignore")
    if cfg.method == "bc":
        return AlwaysQueryPolicy()
    if cfg.method == "dagger":
        return DaggerPolicy()
    if cfg.method in ThresholdQueryPolicy.FIELDS:
        return ThresholdQueryPolicy(cfg.method, cfg.tau, cfg.uncertainty)
    if cfg.method == "errpred":
        net = ErrPredNet(env.state_dim, env.n_actions, rng, lr=cfg.lr)
        return ErrPredQueryPolicy(net, cfg.err_threshold)
    return NeverQueryPolicy()  # "never": RunConfig admits no other method


def rollout(agent: PersonaAgent | None, committee, env, policy,
            rng: np.random.Generator, n1: int = 5, train: bool = False,
            greedy: bool = False) -> Trajectory:
    """Walk one episode and return its Trajectory.

    Queried steps record the teacher's response and execute the reference
    action unless the policy opts out (dagger). Other steps act with the
    mean execution policy: a sample from it, or its argmax when ``greedy``.
    The agent is read only when that policy is needed, so an always-query
    rollout may pass ``agent=None``. The policy's decision context carries
    ``train``: a learned ask policy samples while training and is greedy in
    a frozen rollout.
    """
    committee.select_member(rng)
    state = env.reset()
    steps: list[StepRecord] = []
    distances: dict[int, float] = {}
    while not state.terminal:  # every env ends an episode at its horizon
        t = len(steps)
        features = env.encode(state)
        remaining = env.horizon - t
        mean_policy: np.ndarray | None = None

        def get_mean():
            nonlocal mean_policy
            if mean_policy is None:
                mean_policy = agent.mean_exe_policy(features, n1, rng)
            return mean_policy

        ctx = DecisionContext(features=features, remaining=remaining, rng=rng,
                              agent=agent, mean_policy=get_mean, train=train)
        ask = policy.decide(ctx)
        response = None
        if ask == ASK_QUERY:
            response = committee.respond(env, state, rng)
            distances[t] = response.dist
        if response is not None and policy.act_with_reference:
            action = response.exe_action
        elif greedy:
            action = int(np.argmax(get_mean()))
        else:
            action = int(draw(agent.mean_policy_cdf(get_mean()), rng))
        steps.append(StepRecord(features=features, exe_action=action,
                                ask_action=ask, mean_policy=mean_policy,
                                remaining=remaining, state=state,
                                response=response))
        state = env.step(state, action)

    distances[len(steps)] = env.distance(state)
    return Trajectory(steps, distances)


def run_episode(agent: PersonaAgent, committee, env, policy,
                rng: np.random.Generator, n1: int = 5,
                train: bool = True, greedy: bool = False):
    """Run one episode; returns (Trajectory, EpisodeMetrics).

    A ``rollout`` whose updates fire at episode end, only when training: the
    agent's losses over the queried steps in one stacked pass, one Adam step
    per net, then the ask policy's own update. The policy loss is read at
    the episode's weights, the weights every step acted with.
    """
    traj = rollout(agent, committee, env, policy, rng, n1, train, greedy)
    queried = [traj.steps[t] for t in traj.queried_steps()]
    exe_loss = ask_loss = None
    if train:
        if queried:
            pol_losses, _ = agent.exe_losses(
                np.array([step.features for step in queried]),
                [step.response for step in queried])
            exe_loss = float(pol_losses.mean())
        agent.end_episode_update()
        ask_loss = policy.end_episode(traj)

    final_dist = traj.distances[traj.horizon]
    metrics = EpisodeMetrics(
        query_rate=len(queried) / env.horizon,
        success=final_dist == 0.0,
        final_dist=final_dist,
        exe_loss=exe_loss,
        ask_loss=ask_loss,
    )
    return traj, metrics


def probe_trajectory_features(env, committee, rng: np.random.Generator,
                              n_rollouts: int) -> list[np.ndarray]:
    """States of a few frozen always-query rollouts, encoded for the agent."""
    features = []
    for _ in range(n_rollouts):
        traj = rollout(None, committee, env, AlwaysQueryPolicy(), rng)
        features.extend(step.features for step in traj.steps)
    return features


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, columns, rows) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_training(cfg: RunConfig, out_path=None) -> RunResult:
    """Train one cell; optionally write its metrics CSV (plus side CSVs)."""
    root = np.random.default_rng(cfg.seed)
    # eval and the inflation series have their own streams, so turning
    # either on leaves the probes unchanged
    (init_rng, train_rng, probe_rng, dstar_rng, eval_rng,
     inflation_rng) = root.spawn(6)
    env, committee, agent = build_cell(cfg, init_rng)
    policy = make_query_policy(cfg, env, init_rng)

    # d* is read only by the hindsight labeller, and is 0 where teachers
    # always succeed; it has its own stream, so skipping it moves nothing
    if isinstance(policy, HindsightQueryPolicy) and not env.always_succeeds:
        policy.cfg = replace(policy.cfg, teacher_final_distance=(
            estimate_teacher_final_distance(committee, env,
                                            cfg.d_star_rollouts, dstar_rng)))

    probe_features = probe_trajectory_features(env, committee, probe_rng,
                                               cfg.probe_rollouts)
    tag = {"method": cfg.method, "teacher": cfg.teacher, "env": cfg.env,
           "seed": cfg.seed}
    rows: list[dict] = []
    inflation_rows: list[dict] = []
    eval_rows: list[dict] = []
    for episode in range(cfg.episodes):
        probe = None
        if cfg.probe_every and episode % cfg.probe_every == 0:
            probe = mean_report(agent, probe_features, cfg.uncertainty,
                                probe_rng)
            for ucfg in cfg.inflation:
                rep = mean_report(agent, probe_features, ucfg, inflation_rng)
                inflation_rows.append({"episode": episode, **tag,
                                       "n1": ucfg.n1, "model": rep.model})
        _, metrics = run_episode(agent, committee, env, policy, train_rng,
                                 n1=cfg.n1, train=True)
        row = {"episode": episode, **tag,
               "query_rate": metrics.query_rate,
               "success": metrics.success,
               "final_dist": metrics.final_dist,
               "exe_loss": metrics.exe_loss,
               "ask_loss": metrics.ask_loss}
        if probe is not None:
            row.update(intrinsic=probe.intrinsic, extrinsic=probe.extrinsic,
                       behavioral=probe.behavioral, total=probe.total,
                       model=probe.model)
        rows.append(row)

        if cfg.eval_every and (episode + 1) % cfg.eval_every == 0:
            summary = evaluate(agent, policy, env, committee,
                               cfg.eval_episodes, eval_rng, n1=cfg.n1)
            eval_rows.append({"episode": episode, **tag, **summary})

    if out_path is not None:
        write_csv(out_path, METRICS_COLUMNS, rows)
        if inflation_rows:
            write_csv(str(out_path) + ".inflation.csv", INFLATION_COLUMNS,
                      inflation_rows)
        if eval_rows:
            write_csv(str(out_path) + ".eval.csv", EVAL_COLUMNS, eval_rows)

    return RunResult(rows=rows, inflation_rows=inflation_rows, agent=agent,
                     policy=policy, env=env, committee=committee,
                     probe_features=probe_features)


def evaluate(agent: PersonaAgent, policy, env, committee, n_episodes: int,
             rng: np.random.Generator, n1: int = 5,
             greedy_exe: bool = False) -> dict:
    """Frozen-parameter rollouts: greedy ask decisions, sampled executions
    unless ``greedy_exe``."""
    rates, successes, finals = [], [], []
    for _ in range(n_episodes):
        _, metrics = run_episode(agent, committee, env, policy, rng, n1=n1,
                                 train=False, greedy=greedy_exe)
        rates.append(metrics.query_rate)
        successes.append(metrics.success)
        finals.append(metrics.final_dist)
    return {"query_rate": float(np.mean(rates)),
            "success_rate": float(np.mean(successes)),
            "mean_final_dist": float(np.mean(finals))}


def final_query_rate(rows: list[dict], window: int = 100) -> float:
    tail = rows[-window:]
    return float(np.mean([float(r["query_rate"]) for r in tail]))


def final_success_rate(rows: list[dict], window: int = 100) -> float:
    tail = rows[-window:]
    return float(np.mean([float(r["success"]) for r in tail]))
