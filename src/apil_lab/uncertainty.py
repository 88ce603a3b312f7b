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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy in nats with the 0 log 0 = 0 convention."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("entropy expects a non-empty 1-d probability vector")
    if (p < -1e-12).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("entropy expects a normalized probability vector")
    nz = p > 0.0
    return float(-(p[nz] * np.log(p[nz])).sum())


def estimate(agent, features: np.ndarray, cfg: UncertaintyConfig,
             rng: np.random.Generator, state_id: str = "") -> UncertaintyReport:
    """Nested Monte-Carlo uncertainty estimate at one state.

    Each of the N2 posterior draws is held fixed across its N1 policy draws;
    identities repeat, so per-draw policies are evaluated once per distinct
    identity and mixed by draw counts.
    """
    rho = agent.identity_probs(features)
    behavioral_terms = np.empty(cfg.n2)
    intrinsic_terms = np.empty(cfg.n2)
    mixture_sum = np.zeros(agent.n_actions)
    for i in range(cfg.n2):
        draw = agent.posterior_draw(rng)
        ks = rng.choice(agent.n_teachers, size=cfg.n1, p=rho)
        counts = np.bincount(ks, minlength=agent.n_teachers)
        mixture = np.zeros(agent.n_actions)
        intrinsic = 0.0
        for k in np.flatnonzero(counts):
            weight = counts[k] / cfg.n1
            probs = agent.policy_probs(features, int(k), draw)
            mixture += weight * probs
            intrinsic += weight * entropy(probs)
        behavioral_terms[i] = entropy(mixture)
        intrinsic_terms[i] = intrinsic
        mixture_sum += mixture
    behavioral = float(behavioral_terms.mean())
    intrinsic = float(intrinsic_terms.mean())
    total = entropy(mixture_sum / cfg.n2)
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
