"""Central finite-difference checks for every loss path in the package."""
from __future__ import annotations

import numpy as np

from .agent import PersonaAgent
from .nncore import MLP, Dense, Embedding, ParamSet, softmax_nll
from .query import (ASK_CONTINUE, ASK_IGNORE, ASK_QUERY, ErrPredNet, QueryNet,
                    StepRecord, query_imitation_loss)
from .teachers import TeacherResponse

FD_STEP = 1e-5
REL_TOL = 1e-4


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float((diff / scale).max())


def check_params(params: ParamSet, loss_and_backward, loss_fn) -> float:
    """Max relative error between the gradients ``loss_and_backward()``
    accumulates and central finite differences of ``loss_fn()`` w.r.t.
    every parameter; the accumulated gradients are left in ``p.grad``."""
    params.zero_grad()
    loss_and_backward()
    errors = []
    for p in params:
        numeric = np.zeros_like(p.value)
        flat_value, flat_numeric = p.value.reshape(-1), numeric.reshape(-1)
        for i in range(flat_value.size):
            orig = flat_value[i]
            flat_value[i] = orig + FD_STEP
            hi = loss_fn()
            flat_value[i] = orig - FD_STEP
            lo = loss_fn()
            flat_value[i] = orig
            flat_numeric[i] = (hi - lo) / (2.0 * FD_STEP)
        errors.append(relative_error(p.grad, numeric))
    return max(errors)


def _check_nll(params: ParamSet, forward, backward, target) -> float:
    """An NLL head over ``forward()``'s ``(logits, cache)``;
    ``backward(cache, dlogits)`` accumulates the parameter gradients."""
    def loss_fn():
        return softmax_nll(forward()[0], target)[1].sum()

    def loss_and_backward():
        logits, cache = forward()
        backward(cache, softmax_nll(logits, target)[2])

    return check_params(params, loss_and_backward, loss_fn)


MULTI_ROWS = 4  # the multi-row case: 4 rows over 2 identities, so indices repeat


def _rows(rng: np.random.Generator, rows: int | None, size: int) -> np.ndarray:
    """One input row, or a stack of ``rows`` of them."""
    return rng.normal(size=size if rows is None else (rows, size))


def _indices(rng: np.random.Generator, rows: int | None, n: int):
    """One index below ``n``, or ``rows`` indices below 2, which must repeat
    (identities, targets or remaining-step counts)."""
    return int(rng.integers(n)) if rows is None else rng.integers(2, size=rows)


def check_dense(rng: np.random.Generator, rows: int | None = None) -> float:
    """An MLP's two stacked Dense layers (tanh then identity) under an NLL head."""
    net = MLP("mlp", 6, 5, 3, rng)
    x = _rows(rng, rows, 6)
    return _check_nll(net.params, lambda: net.forward(x), net.backward,
                      _indices(rng, rows, 3))


def check_embedding(rng: np.random.Generator, rows: int | None = None) -> float:
    """Embedding rows feeding a Dense layer; only the looked-up rows move,
    and a repeated index collects the gradient of every row that used it."""
    params = ParamSet()
    table = Embedding(params, "emb", 4, 5, rng)
    out = Dense(params, "out", 5, 3, "identity", rng)
    index = _indices(rng, rows, 4)
    err = _check_nll(
        params, lambda: out.forward(table.forward(index)),
        lambda cache, dlogits: table.backward(
            index, out.backward(cache, dlogits, block=0)),
        _indices(rng, rows, 3))
    other_rows = np.setdiff1d(np.arange(4), index)
    if np.abs(params["emb"].grad[other_rows]).max() != 0.0:
        return np.inf
    return err


def check_softmax_nll(rng: np.random.Generator, rows: int | None = None) -> float:
    """NLL gradient w.r.t. the logits themselves."""
    params = ParamSet()
    logits = params.add("logits", _rows(rng, rows, 5) * 3.0)

    def accumulate(_, dlogits):
        logits.grad[...] += dlogits

    return _check_nll(params, lambda: (logits.value, None), accumulate,
                      _indices(rng, rows, 5))


def _small_query_net(rng: np.random.Generator,
                     rows: int | None) -> tuple[QueryNet, list[StepRecord]]:
    """Three steps with distinct remaining counts, or ``rows`` steps whose
    remaining counts repeat."""
    net = QueryNet(state_dim=4, n_actions=2, horizon=3, rng=rng, hidden=6)
    remaining = [3, 2, 1] if rows is None else 1 + _indices(rng, rows, 2)
    steps = []
    for left in remaining:
        probs = rng.random(2)
        probs /= probs.sum()
        steps.append(StepRecord(features=rng.normal(size=4),
                                exe_action=int(rng.integers(2)),
                                ask_action=int(rng.integers(2)),
                                mean_policy=probs, remaining=int(left)))
    return net, steps


def check_query_loss(rng: np.random.Generator, rows: int | None = None) -> float:
    """Masked ask-imitation loss over a short trajectory."""
    net, steps = _small_query_net(rng, rows)
    labels = [int(rng.choice([ASK_CONTINUE, ASK_QUERY, ASK_IGNORE]))
              for _ in steps]
    if all(lab == ASK_IGNORE for lab in labels):
        labels[0] = ASK_QUERY

    def backward():
        query_imitation_loss(net, steps, labels)

    def loss_fn():
        total = 0.0
        for step, label in zip(steps, labels):
            if label == ASK_IGNORE:
                continue
            probs = net.forward(step.features, step.mean_policy, step.remaining)
            total += -np.log(probs[label])
        return total

    return check_params(net.mlp.params, backward, loss_fn)


def check_errpred(rng: np.random.Generator, rows: int | None = None) -> float:
    """Squared-error margin regression."""
    net = ErrPredNet(state_dim=4, n_actions=2, rng=rng, hidden=6)
    # shift the head off its constant-1.0 start so the check is non-trivial
    head = net.mlp.out.w.value
    head[...] = rng.normal(scale=0.1, size=head.shape)
    features = _rows(rng, rows, 4)
    probs = rng.random(features.shape[:-1] + (2,))
    probs /= probs.sum(axis=-1, keepdims=True)
    target = rng.random(features.shape[:-1])

    def backward():
        net.accumulate_sq_loss(features, probs, target)

    def loss_fn():
        y, _ = net.mlp.forward(np.concatenate([features, probs], axis=-1))
        return float(((y[..., 0] - target) ** 2).sum())

    return check_params(net.mlp.params, backward, loss_fn)


def check_agent_losses(rng: np.random.Generator, rows: int | None = None) -> float:
    """Persona-policy and identity NLLs through the full agent."""
    agent = PersonaAgent(state_dim=4, n_actions=2, n_teachers=2, rng=rng,
                         hidden=6, persona_dim=3)
    features = rng.normal(size=(rows or 1, 4))
    identities = np.atleast_1d(_indices(rng, rows, 2))
    actions = rng.integers(2, size=len(identities))
    responses = [TeacherResponse(exe_action=int(a), identity=int(k), dist=1.0)
                 for a, k in zip(actions, identities)]

    def backward():
        agent.exe_losses(features, responses)

    # each net's parameters reach only its own loss
    def policy_loss():
        logits, _ = agent.exe_net.forward(features, identities)
        return float(softmax_nll(logits, actions)[1].sum())

    def identity_loss():
        logits, _ = agent.id_net.forward(features)
        return float(softmax_nll(logits, identities)[1].sum())

    return max(check_params(agent.exe_net.params, backward, policy_loss),
               check_params(agent.id_net.params, backward, identity_loss))


SUITES = (
    ("dense", check_dense),
    ("embedding", check_embedding),
    ("softmax_nll", check_softmax_nll),
    ("query_loss", check_query_loss),
    ("errpred", check_errpred),
    ("agent_losses", check_agent_losses),
)


def run_all(seed: int = 0, cases: int = 100):
    """Return [(suite, worst relative error, passed)] over randomized cases.

    Each case checks a suite's one-row case, then its multi-row case.
    """
    results = []
    for name, fn in SUITES:
        rng = np.random.default_rng(seed)
        worst = max(fn(rng, rows) for _ in range(cases)
                    for rows in (None, MULTI_ROWS))
        results.append((name, worst, worst < REL_TOL))
    return results
