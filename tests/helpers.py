"""Shared test utilities: trajectory builders, a label brute-forcer, a
policy sampler, a per-draw oracle for the uncertainty estimate, the Lemma-2
gradient check, exact teacher distributions, maze free cells and the tau scan."""
from dataclasses import replace

import numpy as np

from apil_lab import training
from apil_lab.envs import GridPos
from apil_lab.nncore import categorical, softmax
from apil_lab.query import (ASK_CONTINUE, ASK_IGNORE, ASK_QUERY, ApilConfig,
                            StepRecord, Trajectory, query_imitation_loss)
from apil_lab.teachers import TeacherKind
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


def lemma2_gradient_check(net, step: StepRecord) -> float:
    """Max elementwise gap between two gradient routes at a progressable state.

    Route one is the imitation gradient under the ignore-action labeling of the
    agent's ask action; route two is the REINFORCE gradient of the expected
    query count, -grad[log pi(a) * 1{a != query}]. The lemma says they match.
    """
    def grab():
        grads = {p.name: p.grad.copy() for p in net.mlp.params}
        net.mlp.params.zero_grad()
        net.mlp.pending = 0
        return grads

    label = ASK_IGNORE if step.ask_action == ASK_QUERY else ASK_CONTINUE
    query_imitation_loss(net, [step], [label])
    imitation = grab()

    logits, cache = net.logits(step.features, step.mean_policy, step.remaining)
    if step.ask_action != ASK_QUERY:
        dlogits = softmax(logits)
        dlogits[step.ask_action] -= 1.0
        net.mlp.backward(cache, dlogits)
    reinforce = grab()

    return max(float(np.abs(imitation[name] - reinforce[name]).max())
               for name in imitation)


def action_distribution(committee, env, state, member=None) -> np.ndarray:
    """Exact per-member action distribution; mixture over members if None."""
    if member is None:
        return np.mean([action_distribution(committee, env, state, m)
                        for m in range(committee.size)], axis=0)
    kind = committee.members[member]
    refs = env.ref_action_set(state)
    probs = np.zeros(env.n_actions)
    if kind is TeacherKind.DETM_FIRST:
        probs[refs[0]] = 1.0
    elif kind is TeacherKind.DETM_LAST:
        probs[refs[-1]] = 1.0
    else:
        probs[list(refs)] = 1.0 / len(refs)
    return probs


def free_cells(maze) -> list[GridPos]:
    """Every cell of a maze that is not a wall."""
    return [GridPos(r, c) for r in range(maze.n_rows) for c in range(maze.n_cols)
            if not maze._walls[r, c]]


TAU_GRID = tuple(round(0.05 * i, 2) for i in range(1, 21))


def tune_tau(base_cfg, target_query_rate: float, taus=TAU_GRID,
             tol: float = 0.05) -> float:
    """Smallest tau whose final-100 query rate matches the target within tol.

    Falls back to the closest candidate if none matches. Candidates run in
    ascending order and the scan stops at the first match.
    """
    best_tau, best_gap = None, np.inf
    for tau in taus:
        result = training.run_training(replace(base_cfg, tau=float(tau)))
        gap = abs(training.final_query_rate(result.rows) - target_query_rate)
        if gap <= tol:
            return float(tau)
        if gap < best_gap:
            best_tau, best_gap = float(tau), gap
    return best_tau
