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

The estimate takes one state or a stack of S states, and its arithmetic has
no loop over states or draws. The posterior perturbs only the policy head, so at one state the
K identities' logits for each action are jointly Gaussian (see
``PersonaAgent.logit_posterior``): a draw is the mean logits plus L z, with
A x K standard normals z, and no weight-space draw is taken. The stream
order is fixed per state, and the states of a stack take their numbers in
order: all N2 x A x K normals in one ``standard_normal`` call, then all N2 x
N1 identity uniforms in one ``random`` call. So a stack leaves the stream
where one call per state would, and each of its reports is bitwise that
call's report. The identities are picked from rho's cdf as the agent holds
it (``PersonaAgent.identity_cdf``: the table entry at one state, the stacked
cdf for a stack), so the estimate builds no cdf of its own. With one
identity every pick is 0, so none is drawn and every weight is exactly 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import draw, softmax


@dataclass(frozen=True)
class UncertaintyConfig:
    n1: int = 5
    n2: int = 10

    def __post_init__(self):
        for name, value in (("n1", self.n1), ("n2", self.n2)):
            if not value >= 1:  # nan fails too
                raise ValueError(f"{name} must be at least 1, got {value}")


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
    Two reductions decide that the rows are normalized; NaN fails both.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError("entropy expects non-empty probability vectors")
    if not (p.min() >= -1e-12 and abs(p.sum(axis=-1) - 1.0).max() <= 1e-9):
        raise ValueError("entropy expects normalized probability vectors")
    # log(1) = 0 stands in for log(0), so zero entries add an exact +0.0
    h = -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
    return float(h) if p.ndim == 1 else h


def estimate(agent, features: np.ndarray, cfg: UncertaintyConfig,
             rng: np.random.Generator, state_id: str = ""):
    """Nested Monte-Carlo uncertainty estimate: one report for a 1-d
    ``features``, a list of S reports for a stack ``(S, in)``.

    All K identities are evaluated under all draws (``(S, N2, K, A)``); a
    draw's mixture and intrinsic term weight them by how often that draw
    picked each, so an identity it did not pick adds an exact zero.
    """
    n1, n2, k = cfg.n1, cfg.n2, agent.n_teachers
    cdf = agent.identity_cdf(features)
    mean, factor = agent.logit_posterior(features)
    normals, picks = _draws(cdf, factor.shape[-3:-1], cfg, rng)
    lead = cdf.shape[:-1]  # () at one state, (S,) over a stack
    # each draw's identity counts: one bincount of the picks, each draw's
    # shifted to K bins of its own
    n_draws = picks.size // n1
    bins = picks.reshape(n_draws, n1) + np.arange(0, n_draws * k, k)[:, None]
    weights = np.bincount(bins.ravel(), minlength=n_draws * k).reshape(
        *lead, n2, k) / n1
    # every identity's logits under every draw, mean + L z: (..., N2, K, A)
    noise = (factor[..., None, :, :, :] @ normals[..., None])[..., 0]
    probs = softmax(mean[..., None, :, :] + np.swapaxes(noise, -1, -2))
    mixtures = (weights[..., None] * probs).sum(axis=-2)
    # sums over the draws divided by N2: the means, without np.mean's overhead
    rows = np.concatenate([probs.reshape(*lead, n2 * k, -1), mixtures,
                           mixtures.sum(axis=-2, keepdims=True) / n2], axis=-2)
    h = entropy(rows)
    intrinsic = (weights * h[..., :n2 * k].reshape(*lead, n2, k)).sum(
        axis=(-2, -1)) / n2
    behavioral = h[..., n2 * k:-1].sum(axis=-1) / n2
    if not lead:
        return _report(float(intrinsic), float(behavioral), float(h[-1]), cfg,
                       state_id)
    return [_report(i, b, t, cfg, state_id) for i, b, t in
            zip(intrinsic.tolist(), behavioral.tolist(), h[:, -1].tolist())]


def _draws(cdf: np.ndarray, shape: tuple[int, int], cfg: UncertaintyConfig,
           rng: np.random.Generator):
    """A state's N2 draws of ``shape`` (A x K) standard normals, then its N2
    x N1 identity picks from rho's ``cdf``. Over a stack of cdf rows they
    are taken state by state, in order, and written into one stack each."""
    if cdf.shape[-1] == 1:  # every pick is 0: a stack's normals are one call
        lead = (*cdf.shape[:-1], cfg.n2)
        return (rng.standard_normal((*lead, *shape)),
                np.zeros((*lead, cfg.n1), dtype=np.intp))
    if cdf.ndim == 1:
        return (rng.standard_normal((cfg.n2, *shape)),
                draw(cdf, rng, (cfg.n2, cfg.n1)))
    normals = np.empty((len(cdf), cfg.n2, *shape))
    picks = np.empty((len(cdf), cfg.n2, cfg.n1), dtype=np.intp)
    for s, cdf_s in enumerate(cdf):
        normals[s], picks[s] = _draws(cdf_s, shape, cfg, rng)
    return normals, picks


def _report(intrinsic: float, behavioral: float, total: float,
            cfg: UncertaintyConfig, state_id: str) -> UncertaintyReport:
    """A report whose differences come from its three measured terms, so the
    decomposition identities hold exactly."""
    return UncertaintyReport(
        intrinsic=intrinsic, extrinsic=behavioral - intrinsic,
        behavioral=behavioral, total=total, model=total - behavioral,
        n1=cfg.n1, n2=cfg.n2, state_id=state_id)


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
    return _report(intrinsic, behavioral, total, cfg, "mean")


def mean_report(agent, features_list, cfg: UncertaintyConfig,
                rng: np.random.Generator) -> UncertaintyReport:
    """Equal-weight ``aggregate`` of the estimates of a set of states, taken
    in one ``estimate`` call over their stack."""
    reports = estimate(agent, np.stack(features_list), cfg, rng)
    return aggregate(reports, [1] * len(reports), cfg)
