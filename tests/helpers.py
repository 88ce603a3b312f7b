"""Shared test utilities: trajectory builders, a label brute-forcer, a
policy sampler and a per-draw oracle for the uncertainty estimate."""
import numpy as np

from apil_lab.nncore import categorical
from apil_lab.query import (ASK_CONTINUE, ASK_QUERY, ApilConfig, StepRecord,
                            Trajectory)
from apil_lab.uncertainty import UncertaintyConfig, UncertaintyReport, entropy


def make_trajectory(T, queried, distances):
    """Trajectory of T dummy steps; ask = query exactly at ``queried`` indices."""
    queried = set(queried)
    steps = [StepRecord(features=np.zeros(2), exe_action=0,
                        ask_action=ASK_QUERY if t in queried else ASK_CONTINUE,
                        mean_policy=np.array([0.5, 0.5]), remaining=T - t)
             for t in range(T)]
    return Trajectory(steps, {int(k): float(v) for k, v in distances.items()})


def brute_force_labels(T, queried, distances, cfg: ApilConfig):
    """Direct evaluation of the progress conditions, without the backward sweep.

    A step t is progressable when the final distance is within epsilon, or some
    queried step i >= t has a gap at least sigma times the gap of a later
    observed step j (observed = queried steps plus the final step).
    """
    observed = sorted(distances)
    gaps = {t: distances[t] - cfg.teacher_final_distance for t in distances}
    labels = []
    for t in range(T):
        ok = distances[T] <= cfg.epsilon
        if not ok:
            for i in queried:
                if i < t:
                    continue
                for j in observed:
                    if j > i and gaps[i] >= cfg.sigma * gaps[j]:
                        ok = True
        labels.append(ASK_CONTINUE if ok else ASK_QUERY)
    return labels


def sample_policy(agent, features, rng, posterior_sampling=False):
    """Sample an identity, then return (identity, its policy ProbVec).

    A fresh posterior draw is taken iff ``posterior_sampling`` is set.
    """
    rho = agent.identity_probs(features)
    k = int(categorical(rho, rng))
    draw = agent.posterior_draw(rng) if posterior_sampling else None
    return k, agent.policy_probs(features, k, draw)


def per_draw_estimate(agent, features, cfg: UncertaintyConfig, rng,
                      state_id=""):
    """Oracle for ``uncertainty.estimate``: one posterior draw at a time.

    Each draw takes its N1 identities with ``rng.choice`` and evaluates one
    ``policy_probs`` per distinct identity, mixed by draw counts.
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
    return UncertaintyReport(intrinsic=intrinsic,
                             extrinsic=behavioral - intrinsic,
                             behavioral=behavioral, total=total,
                             model=total - behavioral, n1=cfg.n1, n2=cfg.n2,
                             state_id=state_id)
