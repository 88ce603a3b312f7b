"""Shared test utilities: trajectory builders, a label brute-forcer, a
policy sampler, loop oracles for the batched estimate, mean policy, episode
backward and Adam step, an agent without its forward table, the Lemma-2
gradient check, exact teacher distributions, maze free cells and the tau
scan."""
from dataclasses import replace

import numpy as np

from apil_lab import training
from apil_lab.agent import PersonaAgent, psd_factor
from apil_lab.envs import GridPos
from apil_lab.nncore import categorical_cdf, draw, softmax, softmax_nll
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


def drawn_logits(mean, factor, normals):
    """Every identity's logits ``(K, A)`` under one logit-space posterior
    draw, one dot product per (identity, action): mean[k, a] + L_a[k] . z_a
    for the agent's ``logit_posterior`` mean and factor and ``(A, K)``
    normals."""
    logits = np.array(mean, dtype=np.float64)
    for k in range(logits.shape[0]):
        for a in range(logits.shape[1]):
            logits[k, a] += np.dot(factor[a, k], normals[a])
    return logits


def sample_policy(agent, features, rng, posterior_sampling=False):
    """Sample an identity, then return (identity, its policy ProbVec).

    A fresh logit-space posterior draw (A x K normals) is taken iff
    ``posterior_sampling`` is set.
    """
    rho = agent.identity_probs(features)
    k = int(draw(categorical_cdf(rho), rng))
    if not posterior_sampling:
        return k, agent.policy_probs(features, k)
    mean, factor = agent.logit_posterior(features)
    normals = rng.standard_normal(factor.shape[:2])
    return k, softmax(drawn_logits(mean, factor, normals)[k])


def per_draw_estimate(agent, features, cfg: UncertaintyConfig, rng,
                      state_id=""):
    """Loop oracle for ``uncertainty.estimate``: one posterior draw and one
    identity at a time.

    It takes its numbers in the estimate's order, one call per draw: the N2
    draws of A x K normals, then N2 times N1 identities with ``rng.choice``.
    Each draw forms its logits with ``drawn_logits`` and evaluates one
    softmax per distinct identity, mixed by counts.
    """
    rho = agent.identity_probs(features)
    mean, factor = agent.logit_posterior(features)
    normals = [rng.standard_normal(factor.shape[:2]) for _ in range(cfg.n2)]
    picks = [rng.choice(agent.n_teachers, size=cfg.n1, p=rho)
             for _ in range(cfg.n2)]
    behavioral_terms = np.empty(cfg.n2)
    intrinsic_terms = np.empty(cfg.n2)
    mixture_sum = np.zeros(agent.n_actions)
    for i, (z, ks) in enumerate(zip(normals, picks)):
        logits = drawn_logits(mean, factor, z)
        counts = np.bincount(ks, minlength=agent.n_teachers)
        mixture = np.zeros(agent.n_actions)
        intrinsic = 0.0
        for k in np.flatnonzero(counts):
            weight = counts[k] / cfg.n1
            probs = softmax(logits[k])
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


def per_identity_mean_exe_policy(agent, features, n, rng):
    """Loop oracle for ``agent.mean_exe_policy``: one policy row per identity
    drawn, accumulated in ascending identity order."""
    rho = agent.identity_probs(features)
    counts = np.bincount(draw(categorical_cdf(rho), rng, n),
                         minlength=agent.n_teachers)
    mean = np.zeros(agent.n_actions)
    for k in np.flatnonzero(counts):
        mean += (counts[k] / n) * agent.policy_probs(features, int(k))
    return mean


class UnmemoizedAgent(PersonaAgent):
    """Oracle of the agent's forward table: a ``PersonaAgent`` that builds
    every entry (rho and its cdf, the policy rows, the logit posterior, the
    mean policy and its cdf) afresh at each read, as the agent did before it
    kept the table. rho, the policy rows and the posterior are one-state
    forwards, not rows of the agent's stacked fill."""

    def _entry(self, key, build):
        return build()

    def _fill(self, kind, features):
        return one_state_forward(self, kind, features)


def one_state_forward(agent, kind, features):
    """Oracle of a row of the agent's stacked fill at one state ``(in,)`` by
    a one-state forward: rho and its 1-d cdf ``("rho",)``, the softmax of
    the all-K logits ``("policy",)`` or the logit posterior
    ``("posterior",)``, whose factor follows ``logit_posterior``'s
    docstring."""
    if kind == "rho":
        rho = softmax(agent.id_net.forward(features)[0])
        return rho, categorical_cdf(rho)
    h, _ = agent.exe_net.hidden_forward(features, np.arange(agent.n_teachers))
    mean, _ = agent.exe_net.out.forward(h)
    if kind == "policy":
        return (softmax(mean),)
    scaled = h / np.sqrt(agent.head_precision)[:, None, :]
    return mean, psd_factor(scaled @ np.swapaxes(scaled, -1, -2))


def per_row_exe_losses(agent, features, responses):
    """Loop oracle for ``agent.exe_losses``: one-row forwards and backwards,
    one step at a time, each adding its Gauss-Newton diagonal to the head
    precision. Returns the (policy, identity) losses as arrays."""
    pol_losses, id_losses = [], []
    for x, response in zip(features, responses):
        logits, cache = agent.exe_net.forward(x, response.identity)
        probs, loss, dlogits = softmax_nll(logits, response.exe_action)
        _, (_, h), _ = cache
        agent.head_precision += np.outer(probs * (1.0 - probs), h * h)
        agent.exe_net.backward(cache, dlogits)
        pol_losses.append(float(loss))
        logits, cache = agent.id_net.forward(x)
        _, loss, dlogits = softmax_nll(logits, response.identity)
        agent.id_net.backward(cache, dlogits)
        id_losses.append(float(loss))
    return np.array(pol_losses), np.array(id_losses)


class PerParamAdam:
    """Loop oracle for ``nncore.AdamState``: one parameter array at a time,
    with moments keyed by parameter name."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}

    def step(self, params) -> None:
        for p in params:
            if not np.isfinite(p.grad).all():
                raise FloatingPointError(
                    f"non-finite gradient for parameter {p.name!r}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in params:
            m = self.m[p.name]
            v = self.v[p.name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad * p.grad
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        for p in params:
            p.grad.fill(0.0)


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
