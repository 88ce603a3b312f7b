"""Monte-Carlo decompositions of predictive uncertainty (discrete, in nats).

Per posterior draw omega (one sample of the agent's policy-head posterior,
see ``agent``), N1 policies are sampled from the agent's policy distribution.
The mean entropy of those policies is the intrinsic term, the entropy of
their mixture is the behavioral term, and the extrinsic term is their
difference (Jensen makes it non-negative because both terms share the same
draws). Averaging the per-draw mixtures over N2 posterior draws gives the
total predictive entropy, and the model term is total minus the expected
behavioral term. The posterior concentrates as queried data accumulates, so
at a generous N1 the model term shrinks with training data; a small N1
inflates it wherever the extrinsic term is high.

The estimate is batched over its posterior draws: the posterior perturbs only
the policy head, so an identity's hidden activation does not depend on the
draw, and one stacked ``policy_probs`` call per identity evaluates it under
all N2 heads. ``entropy`` works over the last axis for the same reason. The
random stream and every output bit match a per-draw loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import categorical_cdf


@dataclass(frozen=True)
class UncertaintyConfig:
    n1: int = 5
    n2: int = 10

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be positive")


@dataclass(frozen=True)
class UncertaintyReport:
    intrinsic: float
    extrinsic: float
    behavioral: float
    total: float
    model: float
    n1: int
    n2: int
    state_id: str = ""


def entropy(probs: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats over the last axis, with 0 log 0 = 0.

    A float for one probability vector, an array of row entropies for a stack.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError("entropy expects non-empty probability vectors")
    if (p < -1e-12).any() or (abs(p.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("entropy expects normalized probability vectors")
    # log(1) = 0 stands in for log(0), so zero entries add an exact +0.0
    h = -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
    return float(h) if p.ndim == 1 else h


def estimate(agent, features: np.ndarray, cfg: UncertaintyConfig,
             rng: np.random.Generator, state_id: str = "") -> UncertaintyReport:
    """Nested Monte-Carlo uncertainty estimate at one state.

    The N2 (posterior draw, N1 identities) pairs are taken first, in that
    interleaved order from ``rng``. Each identity drawn anywhere is then
    evaluated once under all N2 perturbed heads (one stacked
    ``policy_probs``), and the per-draw mixtures and intrinsic terms
    accumulate in ascending identity order, weighted by draw counts; an
    identity a draw did not pick adds an exact zero to that draw.
    """
    rho = agent.identity_probs(features)
    cdf = categorical_cdf(rho)  # checked and built once, sampled N2 times
    draws, counts = [], []
    for _ in range(cfg.n2):
        draws.append(agent.posterior_draw(rng))
        ks = cdf.searchsorted(rng.random(cfg.n1), side="right")
        counts.append(np.bincount(ks, minlength=agent.n_teachers))
    draws = np.stack(draws)
    weights = np.array(counts) / cfg.n1
    mixtures = np.zeros((cfg.n2, agent.n_actions))
    intrinsic_terms = np.zeros(cfg.n2)
    for k in np.flatnonzero(weights.any(axis=0)):
        probs = agent.policy_probs(features, int(k), draws)
        mixtures += weights[:, k, None] * probs
        intrinsic_terms += weights[:, k] * entropy(probs)
    behavioral = float(entropy(mixtures).mean())
    intrinsic = float(intrinsic_terms.mean())
    # cumsum adds the draws' mixtures one after another, in draw order
    total = entropy(mixtures.cumsum(axis=0)[-1] / cfg.n2)
    return UncertaintyReport(
        intrinsic=intrinsic,
        extrinsic=behavioral - intrinsic,
        behavioral=behavioral,
        total=total,
        model=total - behavioral,
        n1=cfg.n1,
        n2=cfg.n2,
        state_id=state_id,
    )


def aggregate(reports, weights, cfg: UncertaintyConfig) -> UncertaintyReport:
    """Weighted mean of per-state reports; ``weights`` are normalized by their sum.

    Differences (extrinsic, model) are recomputed from the averaged terms so
    the decomposition identities survive aggregation exactly.
    """
    if not reports:
        raise ValueError("need at least one state")
    weight_sum = sum(weights)
    intrinsic = behavioral = total = 0.0
    for rep, weight in zip(reports, weights):
        w = weight / weight_sum
        intrinsic += w * rep.intrinsic
        behavioral += w * rep.behavioral
        total += w * rep.total
    return UncertaintyReport(
        intrinsic=intrinsic,
        extrinsic=behavioral - intrinsic,
        behavioral=behavioral,
        total=total,
        model=total - behavioral,
        n1=cfg.n1,
        n2=cfg.n2,
        state_id="mean",
    )


def mean_report(agent, features_list, cfg: UncertaintyConfig,
                rng: np.random.Generator) -> UncertaintyReport:
    """Equal-weight ``aggregate`` of per-state estimates over a set of states."""
    reports = [estimate(agent, feats, cfg, rng) for feats in features_list]
    return aggregate(reports, [1] * len(reports), cfg)
