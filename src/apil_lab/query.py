"""Query policies: hindsight progress labeling, learned ask nets, baselines.

A finished trajectory only carries distances at queried steps plus the final
step. Hindsight labeling sweeps backward over those observations: a step is
"progressable" when the final gap is within epsilon or some later observed
pair shrinks the gap by a factor sigma, and progressable steps are labeled
continue while the rest are labeled query. The ignore variant additionally
compares the label against what the agent actually did.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nncore import MLP, categorical_cdf, draw, softmax, softmax_nll
from .teachers import TeacherResponse

ASK_CONTINUE = 0
ASK_QUERY = 1
ASK_IGNORE = 2


@dataclass(frozen=True)
class StepRecord:
    features: np.ndarray
    exe_action: int
    ask_action: int
    mean_policy: np.ndarray | None = None
    remaining: int = 0
    state: object = None  # the environment state the step acted in
    response: TeacherResponse | None = None  # the teacher's, at a queried step


@dataclass
class Trajectory:
    steps: list[StepRecord]
    distances: dict[int, float]  # keyed by step index; horizon entry required

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def queried_steps(self) -> list[int]:
        return [t for t, s in enumerate(self.steps) if s.ask_action == ASK_QUERY]

    def validate(self) -> None:
        T = self.horizon
        if T not in self.distances:
            raise ValueError("trajectory is missing its final distance")
        for t in self.queried_steps():
            if t not in self.distances:
                raise ValueError(f"queried step {t} has no observed distance")


@dataclass(frozen=True)
class ApilConfig:
    sigma: float = 2.0
    epsilon: float = 0.0
    teacher_final_distance: float = 0.0

    def __post_init__(self):  # each test is written so that nan fails it
        if not 1.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must exceed 1 and be finite, got {self.sigma}")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be non-negative and finite, "
                             f"got {self.epsilon}")


def progress_flags(traj: Trajectory, cfg: ApilConfig) -> list[bool]:
    """Per-step progressable flags from one backward sweep over observations.

    The epsilon test uses the raw final distance; the sigma test compares the
    gap at each queried step against the minimum over later observed gaps,
    seeded with the final gap.
    """
    traj.validate()
    T = traj.horizon
    gap = lambda t: traj.distances[t] - cfg.teacher_final_distance
    g_min = gap(T)
    progress = traj.distances[T] <= cfg.epsilon
    flags = [False] * T
    for t in reversed(range(T)):
        if traj.steps[t].ask_action == ASK_QUERY:
            g_t = gap(t)
            progress = progress or g_t >= cfg.sigma * g_min
            g_min = min(g_min, g_t)
        flags[t] = progress
    return flags


def apil_labels(traj: Trajectory, cfg: ApilConfig) -> list[int]:
    """Hindsight ask labels: continue at progressable steps, query elsewhere."""
    return [ASK_CONTINUE if ok else ASK_QUERY for ok in progress_flags(traj, cfg)]


def ignore_labels(traj: Trajectory, cfg: ApilConfig) -> list[int]:
    """Ignore-action variant: steps that already queried while progressable
    are masked out, and non-progressable steps that queried are confirmed."""
    labels = []
    for ok, step in zip(progress_flags(traj, cfg), traj.steps):
        queried = step.ask_action == ASK_QUERY
        if ok:
            labels.append(ASK_IGNORE if queried else ASK_CONTINUE)
        else:
            labels.append(ASK_CONTINUE if queried else ASK_QUERY)
    return labels


# ---------------------------------------------------------------- ask network


class QueryNet:
    """Ask policy over {continue, query}.

    Its hidden layer reads three input blocks: the state features, the
    mean-policy ProbVec and the remaining-steps embedding row, whose table is
    indexed by the number of steps left.
    """

    STEPS_EMBED_DIM = 10

    def __init__(self, state_dim: int, n_actions: int, horizon: int,
                 rng: np.random.Generator, hidden: int = 100, lr: float = 1e-3):
        self.mlp = MLP("ask", state_dim + n_actions, hidden, 2, rng, lr,
                       embed=("steps", horizon + 1, self.STEPS_EMBED_DIM))

    def logits(self, features, mean_policy, remaining):
        """Return (logits, MLP cache) of one ask decision, or of a stack of
        them: ``(T, state_dim)`` and ``(T, n_actions)`` rows with ``(T,)``
        remaining-step counts."""
        if mean_policy is None:
            raise ValueError("ask decision needs the mean execution policy")
        return self.mlp.forward((features, mean_policy), remaining)

    def forward(self, features, mean_policy, remaining) -> np.ndarray:
        logits, _ = self.logits(features, mean_policy, remaining)
        return softmax(logits)

    def accumulate_nll(self, features, mean_policy, remaining,
                       labels) -> np.ndarray:
        """Accumulate the NLL gradients of a stack of decisions in one pass;
        returns the per-row losses."""
        logits, cache = self.logits(features, mean_policy, remaining)
        _, losses, dlogits = softmax_nll(logits, labels)
        self.mlp.backward(cache, dlogits)
        return losses


def query_imitation_loss(net: QueryNet, steps: list[StepRecord],
                         labels: list[int]) -> float:
    """Summed NLL over non-ignore labels; gradients accumulate into the net
    from one stacked pass over those steps."""
    if len(steps) != len(labels):
        raise ValueError("one label per step is required")
    kept = [(step, label) for step, label in zip(steps, labels)
            if label != ASK_IGNORE]
    if not kept:
        return 0.0
    losses = net.accumulate_nll(
        np.stack([step.features for step, _ in kept]),
        np.stack([step.mean_policy for step, _ in kept]),
        np.array([step.remaining for step, _ in kept]),
        np.array([label for _, label in kept]))
    return float(losses.sum())


# --------------------------------------------------------------- err-pred net


class ErrPredNet:
    """Margin regressor for the error-prediction baseline.

    Its hidden layer reads the state features and the mean-policy ProbVec as
    two input blocks. The output head starts at exactly 1.0 (zero weights,
    unit bias), so an untrained regressor always predicts a query-worthy
    margin.
    """

    def __init__(self, state_dim: int, n_actions: int, rng: np.random.Generator,
                 hidden: int = 100, lr: float = 1e-3):
        self.mlp = MLP("errpred", state_dim + n_actions, hidden, 1, rng, lr)
        self.mlp.out.w.value[...] = 0.0
        self.mlp.out.b.value[...] = 1.0

    def predict(self, features, mean_policy) -> float:
        y, _ = self.mlp.forward((features, mean_policy))
        return float(y[0])

    def accumulate_sq_loss(self, features, mean_policy, targets) -> np.ndarray:
        """Accumulate the squared-error gradients of a stack of ``(T,
        state_dim)`` and ``(T, n_actions)`` rows against ``(T,)`` targets in
        one pass; returns the per-row squared errors."""
        y, cache = self.mlp.forward((features, mean_policy))
        err = y[..., 0] - targets
        self.mlp.backward(cache, 2.0 * err[..., None])
        return err * err


# ------------------------------------------------------------- query policies


@dataclass
class DecisionContext:
    features: np.ndarray
    remaining: int
    rng: np.random.Generator
    agent: object
    mean_policy: Callable[[], np.ndarray]
    train: bool  # False in a frozen rollout, where a learned policy is greedy


class QueryPolicyBase:
    """Per-step ask decisions; a learned policy trains on each finished
    trajectory in ``end_episode``."""

    act_with_reference = True

    def decide(self, ctx: DecisionContext) -> int:
        raise NotImplementedError

    def end_episode(self, traj: Trajectory) -> float | None:
        return None

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {}

    def load_arrays(self, arrays) -> None:
        pass


class AlwaysQueryPolicy(QueryPolicyBase):
    def decide(self, ctx: DecisionContext) -> int:
        return ASK_QUERY


class NeverQueryPolicy(QueryPolicyBase):
    def decide(self, ctx: DecisionContext) -> int:
        return ASK_CONTINUE


class DaggerPolicy(AlwaysQueryPolicy):
    """Labels every step but executes the agent's own policy."""

    act_with_reference = False


class HindsightQueryPolicy(QueryPolicyBase):
    """Learned ask policy trained on hindsight labels after each episode.

    It samples its decisions while training and takes their argmax when frozen.
    """

    def __init__(self, net: QueryNet, cfg: ApilConfig, use_ignore: bool = False):
        self.net = net
        self.cfg = cfg
        self.use_ignore = use_ignore

    def decide(self, ctx: DecisionContext) -> int:
        probs = self.net.forward(ctx.features, ctx.mean_policy(), ctx.remaining)
        if ctx.train:
            return int(draw(categorical_cdf(probs), ctx.rng))
        return int(np.argmax(probs))

    def end_episode(self, traj: Trajectory) -> float | None:
        labeler = ignore_labels if self.use_ignore else apil_labels
        labels = labeler(traj, self.cfg)
        n_valid = sum(1 for lab in labels if lab != ASK_IGNORE)
        total = query_imitation_loss(self.net, traj.steps, labels)
        self.net.mlp.update()
        return total / n_valid if n_valid else None

    def param_arrays(self):
        return self.net.mlp.params.as_arrays()

    def load_arrays(self, arrays):
        self.net.mlp.params.load_arrays(arrays)


class ThresholdQueryPolicy(QueryPolicyBase):
    """Queries iff the per-step posterior uncertainty of its kind strictly
    exceeds tau."""

    FIELDS = {"intrun": "intrinsic", "extrun": "extrinsic",
              "behvun": "behavioral"}  # kind -> report field

    def __init__(self, kind: str, tau: float, ucfg):
        if kind not in self.FIELDS:
            raise ValueError(f"unknown threshold kind {kind!r}")
        self.kind = kind
        self.tau = tau
        self.ucfg = ucfg

    def decide(self, ctx: DecisionContext) -> int:
        from .uncertainty import estimate
        report = estimate(ctx.agent, ctx.features, self.ucfg, ctx.rng)
        value = getattr(report, self.FIELDS[self.kind])
        return ASK_QUERY if value > self.tau else ASK_CONTINUE


class ErrPredQueryPolicy(QueryPolicyBase):
    """Queries when the predicted margin 1 - pi(a*|s) exceeds a threshold."""

    def __init__(self, net: ErrPredNet, threshold: float = 0.5):
        self.net = net
        self.threshold = threshold

    def decide(self, ctx: DecisionContext) -> int:
        pred = self.net.predict(ctx.features, ctx.mean_policy())
        return ASK_QUERY if pred > self.threshold else ASK_CONTINUE

    def end_episode(self, traj: Trajectory) -> float | None:
        """Regress the margin at each queried step; return the mean squared
        error. A queried step acted with the teacher's answer a* and holds
        the mean policy that ``decide`` saw."""
        queried = [traj.steps[t] for t in traj.queried_steps()]
        if not queried:
            return None
        features = np.stack([step.features for step in queried])
        means = np.stack([step.mean_policy for step in queried])
        margins = 1.0 - means[np.arange(len(queried)),
                              [step.exe_action for step in queried]]
        total = float(self.net.accumulate_sq_loss(features, means,
                                                  margins).sum())
        self.net.mlp.update()
        return total / len(queried)

    def param_arrays(self):
        return self.net.mlp.params.as_arrays()

    def load_arrays(self, arrays):
        self.net.mlp.params.load_arrays(arrays)
