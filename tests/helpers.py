"""Shared test utilities: trajectory builders, a label brute-forcer, a
policy sampler, loop oracles for the batched estimate, mean policy, episode
backward and Adam step, an every-block backward, an agent without its
forward table, the vector-path ask decision, the Lemma-2 gradient check,
exact teacher distributions, env states by cell, a step-by-step walk of
the maze's rules and the grid's deflect arithmetic, the agent's exact
never-query success, the tau scan and a writer of hand-made checkpoint
files."""
import zlib
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np

from apil_lab import training
from apil_lab.agent import PersonaAgent, psd_factor
from apil_lab.envs import (ENCODE_AGENT, ENCODE_GOAL, ENCODE_WALL, EnvState,
                           GridPos)
from apil_lab.nncore import categorical_cdf, draw, softmax, softmax_nll
from apil_lab.query import (ASK_CONTINUE, ASK_IGNORE, ASK_QUERY, ApilConfig,
                            HindsightQueryPolicy, StepRecord, Trajectory,
                            query_imitation_loss)
from apil_lab.teachers import TeacherKind, TeacherResponse
from apil_lab.uncertainty import UncertaintyConfig, UncertaintyReport, entropy

# a 6x6 room around a 2x2 block, where 17 of the 31 non-goal cells have two
# reference actions, so two deterministic teachers often disagree
OPEN_ROOM = Path(__file__).resolve().parent / "data" / "open_room.txt"


def make_trajectory(T, queried, distances):
    """Trajectory of T dummy steps; ask = query exactly at ``queried``
    indices, each answered by a response observing ``distances[t]``, and
    the final distance ``distances[T]``."""
    queried = set(queried)
    steps = [StepRecord(features=np.zeros(2), exe_action=0,
                        ask_action=ASK_QUERY if t in queried else ASK_CONTINUE,
                        mean_policy=np.array([0.5, 0.5]), remaining=T - t,
                        response=TeacherResponse(0, 0, float(distances[t]))
                        if t in queried else None)
             for t in range(T)]
    return Trajectory(steps, float(distances[T]))


def brute_force_labels(T, queried, distances, cfg: ApilConfig):
    """Direct evaluation of the progress conditions, without the backward sweep.

    A step t is progressable when the final distance is within epsilon, or some
    queried step i >= t has a distance at least sigma times the distance of a
    later observed step j (observed = queried steps plus the final step).
    """
    observed = sorted(distances)
    labels = []
    for t in range(T):
        ok = distances[T] <= cfg.epsilon
        if not ok:
            for i in queried:
                if i < t:
                    continue
                for j in observed:
                    if j > i and distances[i] >= cfg.sigma * distances[j]:
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
    draws of A x K normals, then N2 times N1 identities with ``rng.choice``,
    except that one identity is picked without a draw. Each draw forms its
    logits with ``drawn_logits`` and evaluates one softmax per distinct
    identity, mixed by counts.
    """
    rho = agent.identity_probs(features)
    mean, factor = agent.logit_posterior(features)
    normals = [rng.standard_normal(factor.shape[:2]) for _ in range(cfg.n2)]
    picks = [np.zeros(cfg.n1, dtype=int) if agent.n_teachers == 1
             else rng.choice(agent.n_teachers, size=cfg.n1, p=rho)
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
    drawn, accumulated in ascending identity order. With one identity the
    counts are ``[n]``, taken without a draw."""
    rho = agent.identity_probs(features)
    counts = (np.array([n]) if agent.n_teachers == 1 else
              np.bincount(draw(categorical_cdf(rho), rng, n),
                          minlength=agent.n_teachers))
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


def every_block_backward(mlp, cache, dy) -> None:
    """Reference of ``MLP.backward`` whose Dense layers compute d(input) of
    every input block, read or not, and pass on the blocks the net reads."""
    index, h_cache, out_cache = cache
    (dh,) = every_block_dense_backward(mlp.out, out_cache, dy)
    dx = every_block_dense_backward(mlp.hidden, h_cache, dh)
    if mlp.embed is not None:
        mlp.embed.backward(index, dx[-1])
    mlp.pending += 1


def every_block_dense_backward(layer, cache, dy) -> list:
    """One Dense layer's gradients, accumulated as ``Dense.backward`` does,
    and the d(input) of each of its input blocks."""
    blocks, y = cache
    dz = dy * (1.0 - y * y) if layer.activation == "tanh" else dy
    rows = dz.reshape(-1, dz.shape[-1])
    layer.b.grad += rows.sum(axis=0)
    dxs = []
    start = 0
    for x in blocks:
        stop = start + x.shape[-1]
        layer.w.grad[:, start:stop] += rows.T @ x.reshape(-1, x.shape[-1])
        dxs.append(dz @ layer.w.value[:, start:stop])
        start = stop
    return dxs


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


class ReferenceHindsightPolicy(HindsightQueryPolicy):
    """Oracle of ``HindsightQueryPolicy.decide`` on the vector path: the ask
    probabilities by ``QueryNet.forward``, drawn through ``categorical_cdf``
    and ``draw`` while training, their ``np.argmax`` when frozen."""

    def decide(self, ctx):
        probs = self.net.forward(ctx.features, ctx.mean_policy(), ctx.remaining)
        if ctx.train:
            return int(draw(categorical_cdf(probs), ctx.rng))
        return int(np.argmax(probs))


def lemma2_gradient_check(net, step: StepRecord) -> float:
    """Max elementwise gap between two gradient routes at a progressable state.

    Route one is the imitation gradient under the ignore-action labeling of the
    agent's ask action; route two is the REINFORCE gradient of the expected
    query count, -grad[log pi(a) * 1{a != query}]. The lemma says they match.
    """
    def grab():
        grads = {p.name: p.grad.copy() for p in net.mlp.params}
        net.mlp.params.grads.fill(0.0)
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


def state_at(env, row, col, step_count=0) -> EnvState:
    """The state of the agent at cell (row, col) after ``step_count`` steps,
    terminal as ``env.step`` makes it: at the goal or at the horizon."""
    cell = env.cells.index(GridPos(row, col))
    at_goal = env.distance(EnvState(cell, step_count, False)) == 0.0
    return EnvState(cell, step_count, at_goal or step_count == env.horizon)


def maze_oracle_distances(map_text) -> dict[tuple, int]:
    """Goal distance of every cell that reaches the goal, by a breadth-first
    search over the four neighbours of a cell."""
    rows = [line for line in map_text.splitlines() if line]
    cells = {(r, c): ch for r, line in enumerate(rows) for c, ch in enumerate(line)}
    goal = next(pos for pos, ch in cells.items() if ch == "G")
    dist = {goal: 0}
    frontier = deque([goal])
    while frontier:
        r, c = frontier.popleft()
        for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            npos = (r + dr, c + dc)
            if cells.get(npos, "#") != "#" and npos not in dist:
                dist[npos] = dist[(r, c)] + 1
                frontier.append(npos)
    return dist


class BumpWalk:
    """Reference of a maze env, walked one step at a time from its map: a
    cell is its ``(row, col)``, a move into a wall or off the board stays
    put, the goal distances come from ``maze_oracle_distances``, a reference
    action lowers the distance by one, and each encoding is a fresh row with
    the agent's marker written over the goal's. ``deltas`` are the moves of
    the env's actions."""

    def __init__(self, map_text, horizon,
                 deltas=((-1, 0), (0, 1), (1, 0), (0, -1))):
        rows = [line for line in map_text.splitlines() if line]
        self.map = {(r, c): ch for r, line in enumerate(rows)
                    for c, ch in enumerate(line)}
        self.n_cols = len(rows[0])
        self.goal = next(pos for pos, ch in self.map.items() if ch == "G")
        self.horizon = horizon
        self.deltas = deltas
        self.dist = maze_oracle_distances(map_text)

    def move(self, pos, action):
        dr, dc = self.deltas[action]
        nxt = (pos[0] + dr, pos[1] + dc)
        return nxt if self.map.get(nxt, "#") != "#" else pos

    def step(self, pos, step_count, action):
        """(cell, step count, terminal) after ``action``."""
        nxt = self.move(pos, action)
        count = step_count + 1
        return nxt, count, nxt == self.goal or count == self.horizon

    def refs(self, pos) -> tuple[int, ...]:
        return tuple(a for a in range(len(self.deltas))
                     if self.dist.get(self.move(pos, a)) == self.dist[pos] - 1)

    def encode(self, pos) -> np.ndarray:
        vec = np.zeros(len(self.map))
        for (r, c), ch in self.map.items():
            if ch == "#":
                vec[r * self.n_cols + c] = ENCODE_WALL
        vec[self.goal[0] * self.n_cols + self.goal[1]] = ENCODE_GOAL
        vec[pos[0] * self.n_cols + pos[1]] = ENCODE_AGENT
        return vec


def grid_deflect(row, col, action, last=4) -> tuple[int, int]:
    """The grid's move by arithmetic: right (0) or down (1), turned to the
    other direction at the board's last column or row."""
    if action == 0:
        return (row, col + 1) if col < last else (row + 1, col)
    return (row + 1, col) if row < last else (row, col + 1)


def exact_alone_success(agent, env) -> float:
    """Exact probability that the frozen agent, never asking, reaches the
    goal from the start within the horizon.

    V(c, r) = sum_a (rho_c @ P_c)[a] V(next_cell[c][a], r - 1), with V = 1
    at the goal, which absorbs, and V(c, 0) = 0 elsewhere. rho_c @ P_c is
    the exact action marginal of a sampled non-queried step: the mean
    policy of N1 identity picks is (counts / N1) @ P_c with counts ~
    Mult(N1, rho_c), whatever N1 is.
    """
    identities = np.arange(agent.n_teachers)
    marginal = np.array([agent.identity_probs(row)
                         @ agent.policy_probs(row, identities)
                         for row in env.features])
    at_goal = np.array([env.distance(EnvState(cell, 0, False)) == 0.0
                        for cell in range(len(env.cells))])
    following = np.array(env.next_cell)
    value = at_goal.astype(float)
    for _ in range(env.horizon):
        value = np.where(at_goal, 1.0, (marginal * value[following]).sum(axis=1))
    return float(value[env.reset().cell])


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


def write_checkpoint_bytes(path, data: bytes) -> None:
    """Write ``data`` with the CRC-32 trailer a checkpoint ends in, so that a
    load of a hand-made file passes the CRC and reaches the checks after it."""
    path.write_bytes(data + zlib.crc32(data).to_bytes(4, "little"))
